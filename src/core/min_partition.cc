#include "core/min_partition.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace aujoin {

int GreedyMinPartitionSize(const std::vector<WellDefinedSegment>& segments,
                           size_t num_tokens) {
  if (num_tokens == 0) return 0;
  std::vector<char> uncovered(num_tokens, 1);
  size_t remaining = num_tokens;
  int picked = 0;
  size_t largest_segment = 1;
  for (const auto& seg : segments) {
    largest_segment = std::max<size_t>(largest_segment, seg.span.size());
  }
  while (remaining > 0) {
    // Pick the segment covering the most uncovered tokens. Single-token
    // segments guarantee progress.
    size_t best_cover = 0;
    const WellDefinedSegment* best = nullptr;
    for (const auto& seg : segments) {
      size_t cover = 0;
      for (uint32_t p = seg.span.begin; p < seg.span.end; ++p) {
        cover += uncovered[p];
      }
      if (cover > best_cover) {
        best_cover = cover;
        best = &seg;
      }
    }
    if (best == nullptr) break;  // unreachable: singles cover everything
    for (uint32_t p = best->span.begin; p < best->span.end; ++p) {
      if (uncovered[p]) {
        uncovered[p] = 0;
        --remaining;
      }
    }
    ++picked;
  }
  double denom = std::log(static_cast<double>(largest_segment)) + 1.0;
  return static_cast<int>(
      std::ceil(static_cast<double>(picked) / denom));
}

int ExactMinPartitionSize(const std::vector<WellDefinedSegment>& segments,
                          size_t num_tokens) {
  if (num_tokens == 0) return 0;
  const int kInf = std::numeric_limits<int>::max() / 2;
  // dp[p] = min segments to cover tokens [0, p).
  std::vector<int> dp(num_tokens + 1, kInf);
  dp[0] = 0;
  // Bucket segments by begin for a forward scan.
  std::vector<std::vector<uint32_t>> ends_by_begin(num_tokens);
  for (const auto& seg : segments) {
    ends_by_begin[seg.span.begin].push_back(seg.span.end);
  }
  for (size_t p = 0; p < num_tokens; ++p) {
    if (dp[p] == kInf) continue;
    for (uint32_t end : ends_by_begin[p]) {
      dp[end] = std::min(dp[end], dp[p] + 1);
    }
  }
  return dp[num_tokens] >= kInf ? static_cast<int>(num_tokens)
                                : dp[num_tokens];
}

}  // namespace aujoin
