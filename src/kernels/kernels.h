/// \file
/// The hot loops of candidate generation and verification, as plain
/// functions. The CSR probe (index/csr_index.h) spends its time in two
/// tight loops over flat arrays: merging a posting run into the
/// epoch-stamped count scratch, and selecting the ids whose accumulated
/// count meets the required overlap. The verify stage adds two more:
/// sorted-set intersection counts over interned gram ids (measures.cc,
/// the adaptjoin baseline) and strided weight accumulation over
/// pair-graph vertices (squareimp.cc, usim.cc). All are pure functions
/// of their arguments, safe to call from any number of threads.
///
/// Data model shared by the probe loops: one packed 64-bit stamp per
/// record id, the probe epoch in the high 32 bits and the occurrence
/// count in the low 32 (CandidateAccumulator owns the array). A stamp
/// whose epoch half differs from the current probe's epoch is stale
/// and reads as count 0 — starting a probe is O(1), no clearing.

#ifndef AUJOIN_KERNELS_KERNELS_H_
#define AUJOIN_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace aujoin {

/// Names the kernel implementation for reports (perfbench's
/// environment block, the micro-index bench). There is one: "scalar".
struct KernelInfo {
  const char* name;
};

/// The implementation every probe and verify loop runs.
const KernelInfo& ActiveKernel();

/// Merges one posting run into the stamp array: ids whose stamp is
/// stale are stamped (epoch, count 1) and appended at touched_tail;
/// current ids get their count incremented. Returns the new tail.
/// `ids` are record ids < the stamp array's size, in any order (CSR
/// runs are sorted and distinct, but neither is required); the touched
/// buffer needs room for every id not yet stamped this epoch.
uint32_t* CountMergeRun(uint64_t* stamps, uint32_t epoch, const uint32_t* ids,
                        size_t n, uint32_t* touched_tail);

/// Uniform required-overlap select (the serving path): appends to `out`
/// every id of `touched` whose count reaches `threshold`, preserving
/// order. Every id in `touched` must carry the current epoch (they came
/// from CountMergeRun this probe). Returns the new out tail; `out`
/// needs room for n ids.
uint32_t* SelectGe(const uint64_t* stamps, uint32_t threshold,
                   const uint32_t* touched, size_t n, uint32_t* out);

/// Pairwise required-overlap select (the join path): id j survives when
/// its count reaches min(probe_tau, taus[j]) — the MergeRequiredOverlap
/// rule of join/signature.h with the indexed side's effective taus in a
/// flat array. Same contract as SelectGe otherwise.
uint32_t* SelectGeMerged(const uint64_t* stamps, const uint32_t* taus,
                         uint32_t probe_tau, const uint32_t* touched, size_t n,
                         uint32_t* out);

/// |a ∩ b| of two ascending runs (the verify path's gram-set overlap),
/// by a branchless merge. On multisets each value counts
/// min(multiplicity in a, multiplicity in b) times, exactly as
/// std::set_intersection would emit it; symmetric in its arguments.
size_t SortedIntersectionCount(const uint32_t* a, size_t na, const uint32_t* b,
                               size_t nb);

/// Weight accumulation (pair-graph / usim sums): returns the sum of
/// weights[idx[i]] for i in [0, n) — or of weights[i] when `idx` is
/// nullptr (the contiguous case). The reduction order is fixed — four
/// interleaved partial sums, lane i%4, folded as (acc0+acc2)+(acc1+acc3)
/// — and every similarity, result set and ranking depends on it bit
/// for bit, so it must not change.
double AccumulateWeights(const double* weights, const uint32_t* idx, size_t n);

}  // namespace aujoin

#endif  // AUJOIN_KERNELS_KERNELS_H_
