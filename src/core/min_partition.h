#ifndef AUJOIN_CORE_MIN_PARTITION_H_
#define AUJOIN_CORE_MIN_PARTITION_H_

#include <cstddef>
#include <vector>

#include "core/segment.h"

namespace aujoin {

/// The paper's GetMinPartitionSize (Algorithm 2, Lines 6-12): greedy
/// maximum-coverage over well-defined segments followed by the
/// Johnson [28] set-cover bound m = ceil(|A| / (ln n + 1)), where n is the
/// token count of the largest segment. Always a valid lower bound on the
/// number of segments in any well-defined partition.
int GreedyMinPartitionSize(const std::vector<WellDefinedSegment>& segments,
                           size_t num_tokens);

/// Exact minimum number of segments in any well-defined partition.
/// Because well-defined segments are *consecutive* token spans, the
/// minimum exact cover is a shortest-path DP over token positions —
/// polynomial, and a tighter (hence more pruning-effective) lower bound
/// than the greedy estimate. Used by default; the greedy variant is kept
/// for paper fidelity and as an ablation. Also the denominators of the
/// USIM upper bound (core/usim.h).
int ExactMinPartitionSize(const std::vector<WellDefinedSegment>& segments,
                          size_t num_tokens);

}  // namespace aujoin

#endif  // AUJOIN_CORE_MIN_PARTITION_H_
