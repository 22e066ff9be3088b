#include "kernels/kernels.h"

namespace aujoin {

const KernelInfo& ActiveKernel() {
  static constexpr KernelInfo kScalar = {"scalar"};
  return kScalar;
}

uint32_t* CountMergeRun(uint64_t* stamps, uint32_t epoch, const uint32_t* ids,
                        size_t n, uint32_t* touched_tail) {
  const uint64_t fresh = (static_cast<uint64_t>(epoch) << 32) | 1u;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = ids[i];
    const uint64_t st = stamps[id];
    if (static_cast<uint32_t>(st >> 32) != epoch) {
      stamps[id] = fresh;
      *touched_tail++ = id;
    } else {
      stamps[id] = st + 1;
    }
  }
  return touched_tail;
}

uint32_t* SelectGe(const uint64_t* stamps, uint32_t threshold,
                   const uint32_t* touched, size_t n, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = touched[i];
    if (static_cast<uint32_t>(stamps[id]) >= threshold) *out++ = id;
  }
  return out;
}

uint32_t* SelectGeMerged(const uint64_t* stamps, const uint32_t* taus,
                         uint32_t probe_tau, const uint32_t* touched, size_t n,
                         uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = touched[i];
    const uint32_t required = taus[id] < probe_tau ? taus[id] : probe_tau;
    if (static_cast<uint32_t>(stamps[id]) >= required) *out++ = id;
  }
  return out;
}

size_t SortedIntersectionCount(const uint32_t* a, size_t na, const uint32_t* b,
                               size_t nb) {
  // Each step advances the smaller side, or both on a match; the
  // comparisons feed the indices and the count directly, so the loop
  // has no data-dependent branch to mispredict.
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < na && j < nb) {
    const uint32_t av = a[i];
    const uint32_t bv = b[j];
    count += av == bv;
    i += av <= bv;
    j += bv <= av;
  }
  return count;
}

double AccumulateWeights(const double* weights, const uint32_t* idx,
                         size_t n) {
  // Four interleaved partial sums; the tail continues the same lanes.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  if (idx == nullptr) {
    for (; i + 4 <= n; i += 4) {
      acc0 += weights[i];
      acc1 += weights[i + 1];
      acc2 += weights[i + 2];
      acc3 += weights[i + 3];
    }
    double* lanes[4] = {&acc0, &acc1, &acc2, &acc3};
    for (; i < n; ++i) *lanes[i & 3] += weights[i];
  } else {
    for (; i + 4 <= n; i += 4) {
      acc0 += weights[idx[i]];
      acc1 += weights[idx[i + 1]];
      acc2 += weights[idx[i + 2]];
      acc3 += weights[idx[i + 3]];
    }
    double* lanes[4] = {&acc0, &acc1, &acc2, &acc3};
    for (; i < n; ++i) *lanes[i & 3] += weights[idx[i]];
  }
  return (acc0 + acc2) + (acc1 + acc3);
}

}  // namespace aujoin
