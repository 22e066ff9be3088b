#ifndef AUJOIN_BASELINES_PARALLEL_VERIFY_H_
#define AUJOIN_BASELINES_PARALLEL_VERIFY_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace aujoin {

/// Verifies candidate pairs with `pred(first, second)` across
/// `num_threads` workers (JoinOptions semantics: 1 = serial, 0 = all
/// hardware threads) and returns the survivors sorted by (first, second).
/// `pred` must be safe to call concurrently from multiple threads.
template <typename Predicate>
std::vector<std::pair<uint32_t, uint32_t>> ParallelVerifyPairs(
    const std::vector<std::pair<uint32_t, uint32_t>>& candidates,
    int num_threads, const Predicate& pred) {
  const int workers = ResolveThreads(num_threads);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> worker_pairs(
      workers);
  ParallelFor(candidates.size(), num_threads,
              [&](size_t begin, size_t end, int worker) {
                for (size_t c = begin; c < end; ++c) {
                  const auto& [a, b] = candidates[c];
                  if (pred(a, b)) worker_pairs[worker].emplace_back(a, b);
                }
              });
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& wp : worker_pairs) {
    pairs.insert(pairs.end(), wp.begin(), wp.end());
  }
  // Deterministic output regardless of the worker split.
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace aujoin

#endif  // AUJOIN_BASELINES_PARALLEL_VERIFY_H_
