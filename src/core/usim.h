#ifndef AUJOIN_CORE_USIM_H_
#define AUJOIN_CORE_USIM_H_

#include <cstdint>
#include <vector>

#include "core/measures.h"
#include "core/pair_graph.h"
#include "core/squareimp.h"

namespace aujoin {

/// Options for the unified-similarity computations.
struct UsimOptions {
  MsimOptions msim;
  /// The t > 1 knob of Algorithm 1 / Theorem 2: improvements smaller than
  /// 1/t are not pursued, bounding the improvement phase to floor(t)
  /// iterations.
  double t = 10.0;
  /// How many candidate claws are evaluated with the exact GetSim per
  /// improvement round (ranked by matching-weight gain first).
  int improve_eval_budget = 16;
  /// Pair-talon moves are only enumerated on graphs at most this large.
  size_t pair_move_vertex_cap = 96;
  /// Ablation switch: disable the claw-improvement phase (plain SquareImp).
  bool enable_improvement = true;
  PairGraphOptions graph;
  SquareImpOptions squareimp;
};

/// Limits for the exponential exact algorithm (tests & Table 9 only).
struct ExactOptions {
  /// Cap on enumerated well-defined partitions per string.
  size_t max_partitions_per_string = 512;
  /// Cap on partition pairs scored with the Hungarian algorithm.
  size_t max_pairs = 250000;
};

/// Computes the unified similarity USIM (Definition 3) between two strings:
/// `Approx` is the paper's Algorithm 1 (SquareImp + claw improvement),
/// `Exact` enumerates all well-defined partition pairs (worst-case
/// exponential; NP-hard in general, Theorem 1).
///
/// Every call first builds one per-pair matrix (BuildSegmentMatrix): both
/// records' well-defined segments and msim(S_i, T_j) for every segment
/// pair. The pair graph's vertex weights, the upper bound and every
/// partition score read that matrix, so no segment pair's msim is
/// evaluated twice for one record pair.
///
/// **The upper bound.** Let row[i] = max_j msim(S_i, T_j) and
/// col[j] = max_i msim(S_i, T_j), and let m_S, m_T be the exact minimum
/// well-defined partition sizes (ExactMinPartitionSize). B_S is the
/// maximum over well-defined partitions P of s of
/// sum_{i in P} row[i] / max(|P|, m_T), found by a DP over (token
/// position, segment count); B_T is the same with the sides swapped; the
/// bound is min(B_S, B_T). It is sound: for any well-defined partition
/// pair, the Hungarian matching is at most sum row over PS and at most
/// sum col over PT, and max(|PS|, |PT|) is at least each denominator. So
/// Approx <= USIM <= bound, and a pair whose bound is below theta cannot
/// match (Approx only ever scores well-defined partition pairs, even when
/// the vertex cap truncates the graph).
///
/// **Call modes of Approx:**
///   - `Approx(s, t)`: the full Algorithm 1 value; no bound, no early exit.
///   - `Approx(s, t, theta)`: predicate mode (joins, the tuner). Returns
///     0.0 without building the graph when the bound proves
///     USIM < theta, and stops Algorithm 1 as soon as theta is reached.
///     `Approx(s, t, theta) >= theta` iff `Approx(s, t) >= theta`.
///   - `Approx(s, t, kNoEarlyExit, theta)`: serving mode. Rejects below
///     theta like predicate mode, but returns the full Algorithm 1 value
///     of every other pair (bit-equal to `Approx(s, t)`).
///
/// Not thread-safe (shares an MsimEvaluator cache); use one per thread.
class UsimComputer {
 public:
  /// An early-exit threshold above every similarity: never stop early.
  static constexpr double kNoEarlyExit = 2.0;

  explicit UsimComputer(const Knowledge& knowledge, UsimOptions options = {})
      : options_(options), evaluator_(knowledge, options.msim) {}

  /// Algorithm 1. Returns a lower bound on USIM(s, t) with the Theorem 2
  /// guarantee.
  double Approx(const Record& s, const Record& t) {
    return Approx(s, t, kNoEarlyExit, 0.0);
  }

  /// Predicate mode: only `result >= theta` is meaningful (see above).
  double Approx(const Record& s, const Record& t, double theta) {
    return Approx(s, t, theta, theta);
  }

  /// Returns 0.0 when the upper bound is below `reject_below` (minus a
  /// 1e-9 rounding slack); otherwise runs Algorithm 1, stopping as soon
  /// as `early_exit_threshold` is reached.
  double Approx(const Record& s, const Record& t, double early_exit_threshold,
                double reject_below);

  /// The sound upper bound on USIM(s, t) described above; 0 when either
  /// record is empty. Exposed for tests.
  double UpperBound(const Record& s, const Record& t);

  struct ExactResult {
    double value = 0.0;
    /// False when a partition/pair cap was hit (value is then a lower
    /// bound).
    bool exact = true;
  };

  /// Exhaustive USIM by partition-pair enumeration.
  ExactResult Exact(const Record& s, const Record& t,
                    const ExactOptions& limits = {});

  /// SIM(PS, PT) of Eq. (6) for the partitions induced by an independent
  /// set `mis` of `g` (a graph from BuildPairGraph, whose msim matrix it
  /// reads): segments of the selected vertices plus singleton segments
  /// for uncovered tokens; scored by Hungarian matching over msim and
  /// normalised by max(|PS|, |PT|). Exposed for tests and benches.
  double GetSim(const Record& s, const Record& t, const PairGraph& g,
                const std::vector<uint32_t>& mis);

  /// Approx calls this computer answered with 0.0 from the upper bound
  /// alone, since construction.
  uint64_t bound_rejected() const { return bound_rejected_; }

  MsimEvaluator* evaluator() { return &evaluator_; }
  const UsimOptions& options() const { return options_; }

 private:
  /// Hungarian score of one well-defined partition pair (indexes into
  /// g's segment lists), read from g's msim matrix.
  double SimOfPartitions(const PairGraph& g, const std::vector<uint32_t>& ps,
                         const std::vector<uint32_t>& pt);

  UsimOptions options_;
  MsimEvaluator evaluator_;
  /// Reused flat row-major Hungarian input for SimOfPartitions — one
  /// grow-only buffer per computer (== per verify worker) instead of a
  /// fresh vector-of-vectors per candidate pair.
  std::vector<double> w_scratch_;
  uint64_t bound_rejected_ = 0;
};

/// Enumerates well-defined partitions (Definition 2) of a token sequence of
/// length `num_tokens` as lists of indexes into `segments` (which must be
/// the EnumerateSegments output, sorted by (begin, end)). Stops after `cap`
/// partitions and sets *truncated. Every token sequence has at least the
/// all-singletons partition.
std::vector<std::vector<uint32_t>> EnumeratePartitions(
    const std::vector<WellDefinedSegment>& segments, size_t num_tokens,
    size_t cap, bool* truncated);

}  // namespace aujoin

#endif  // AUJOIN_CORE_USIM_H_
