#include "join/signature.h"

#include <algorithm>
#include <optional>
#include <set>

#include "core/min_partition.h"

namespace aujoin {

namespace {

// Buckets per segment: one per generating measure (J / S / T / exact).
constexpr int kBucketsPerSegment = 4;

// Slack for the strict boundary inequalities (10)/(11). Pebble weights are
// sums of reciprocals (1/|G|, 1/depth), so a pair whose similarity equals
// theta exactly (e.g. an LCA ratio of 9/10) can have its AS land an ulp
// below theta * m; without slack the filter would drop a borderline true
// result. Erring towards keeping a pebble is always lossless.
constexpr double kBoundarySlack = 1e-9;

// Maps a MeasureMask bit to a dense index 0..3.
int MeasureIndex(uint8_t measure_bit) {
  switch (measure_bit) {
    case kMeasureJaccard:
      return 0;
    case kMeasureSynonym:
      return 1;
    case kMeasureTaxonomy:
      return 2;
    default:
      return 3;  // kMeasureExactBit
  }
}

int BucketOf(const Pebble& p) {
  return static_cast<int>(p.segment) * kBucketsPerSegment +
         MeasureIndex(p.measure);
}

// Computes the accumulated similarity AS(i, S) as the maximum over
// well-defined partitions of the sum of per-segment best-measure tail
// weights. Definition 4 sums over *all* well-defined segments, which
// over-counts when segments overlap; since any partition's segments are
// disjoint consecutive spans, the partition maximum is a valid (and
// tighter) upper bound on the matching contribution witnessed by tail
// pebbles, computed by a shortest-path-style DP over token positions.
class AsCalculator {
 public:
  explicit AsCalculator(const RecordPebbles& rp)
      : segments_(rp.segments) {
    size_t num_tokens = 0;
    for (const auto& seg : segments_) {
      num_tokens = std::max<size_t>(num_tokens, seg.span.end);
    }
    num_tokens_ = num_tokens;
    by_end_.resize(num_tokens + 1);
    for (uint32_t i = 0; i < segments_.size(); ++i) {
      by_end_[segments_[i].span.end].push_back(i);
    }
    seg_contrib_.assign(segments_.size(), 0.0);
    dp_.assign(num_tokens + 1, 0.0);
  }

  // `bucket_tail` has kBucketsPerSegment entries per segment
  // (J/S/T/exact tail weight sums).
  double Compute(const std::vector<double>& bucket_tail) {
    for (size_t seg = 0; seg < segments_.size(); ++seg) {
      seg_contrib_[seg] =
          std::max({bucket_tail[seg * kBucketsPerSegment],
                    bucket_tail[seg * kBucketsPerSegment + 1],
                    bucket_tail[seg * kBucketsPerSegment + 2],
                    bucket_tail[seg * kBucketsPerSegment + 3]});
    }
    dp_[0] = 0.0;
    for (size_t j = 1; j <= num_tokens_; ++j) {
      double best = 0.0;
      for (uint32_t seg_idx : by_end_[j]) {
        best = std::max(best, dp_[segments_[seg_idx].span.begin] +
                                  seg_contrib_[seg_idx]);
      }
      dp_[j] = best;
    }
    return dp_[num_tokens_];
  }

 private:
  const std::vector<WellDefinedSegment>& segments_;
  size_t num_tokens_ = 0;
  std::vector<std::vector<uint32_t>> by_end_;
  std::vector<double> seg_contrib_;
  std::vector<double> dp_;
};

// Finds the smallest 1-based i in [1, n+1] such that
//   theta * m > AS(i) + TW_{tau-1}(B[1, i-1])
// and returns i - 1 (the kept prefix length), or std::nullopt when no i
// satisfies the inequality (the requested tau is infeasible for this
// record; see Signature::effective_tau). With tau = 1 the TW term
// vanishes and this is exactly Algorithm 2 / Lemma 1.
std::optional<size_t> SelectPrefixHeuristic(const RecordPebbles& rp,
                                            const std::vector<double>& as_arr,
                                            double bound, int tau) {
  const size_t n = rp.pebbles.size();
  const size_t top_k = tau > 1 ? static_cast<size_t>(tau - 1) : 0;
  std::multiset<double> top;  // the top_k heaviest prefix weights
  double tw = 0.0;
  for (size_t i = 1; i <= n + 1; ++i) {
    if (bound - (as_arr[i] + tw) > kBoundarySlack) return i - 1;
    if (i <= n && top_k > 0) {
      double w = rp.pebbles[i - 1].weight;
      if (top.size() < top_k) {
        top.insert(w);
        tw += w;
      } else if (!top.empty() && w > *top.begin()) {
        tw += w - *top.begin();
        top.erase(top.begin());
        top.insert(w);
      }
    }
  }
  return std::nullopt;
}

// Algorithm 5: scans i downward; pebble i can be removed iff
//   AS(i) + W_i[t, tau-1] < theta * m
// where W_i is the DP bound over segments of the best similarity increment
// from inserting tau-1 pebbles of the prefix B[1, i-1]. Returns the kept
// prefix length (the first, i.e. largest, i that cannot be removed; 0 when
// every pebble is removable), or std::nullopt when even the boundary at
// i = n+1 (empty tail, whole list as prefix) violates the inequality — the
// requested tau is then infeasible for this record.
std::optional<size_t> SelectPrefixDp(const RecordPebbles& rp, double bound,
                                     int tau) {
  const size_t n = rp.pebbles.size();
  const size_t nseg = rp.segments.size();
  const size_t nbuckets = nseg * kBucketsPerSegment;
  const int d_max = tau - 1;

  // Prefix structures: per-bucket weights sorted descending.
  std::vector<std::multiset<double, std::greater<double>>> prefix(nbuckets);
  for (const Pebble& p : rp.pebbles) prefix[BucketOf(p)].insert(p.weight);
  std::vector<double> tail(nbuckets, 0.0);
  AsCalculator calculator(rp);
  double as = 0.0;

  // TW_c over a bucket's prefix for c = 0..d_max; fills `out` (size
  // d_max+1) with partial sums.
  std::vector<double> tw_scratch(static_cast<size_t>(d_max) + 1, 0.0);
  auto PartialTopSums = [&](int bucket, std::vector<double>* out) {
    double sum = 0.0;
    (*out)[0] = 0.0;
    auto it = prefix[bucket].begin();
    for (int c = 1; c <= d_max; ++c) {
      if (it != prefix[bucket].end()) {
        sum += *it;
        ++it;
      }
      (*out)[c] = sum;
    }
  };

  std::vector<double> w_row(static_cast<size_t>(d_max) + 1, 0.0);
  std::vector<double> w_next(static_cast<size_t>(d_max) + 1, 0.0);
  std::vector<double> r(static_cast<size_t>(d_max) + 1, 0.0);

  // DP over segments: W[p][d] = max_c W[p-1][d-c] + V[p][c] (Eq. 12).
  // Returns true when AS + W[t, d_max] >= bound (boundary invalid).
  auto BoundaryInvalid = [&]() {
    if (as >= bound - kBoundarySlack) return true;
    if (d_max == 0) return false;
    std::fill(w_row.begin(), w_row.end(), 0.0);
    for (size_t seg = 0; seg < nseg; ++seg) {
      // R(P, i, c) = max_f tail_f + TW_c(prefix_f) (Eq. 14).
      std::fill(r.begin(), r.end(), 0.0);
      for (int f = 0; f < kBucketsPerSegment; ++f) {
        int bucket = static_cast<int>(seg) * kBucketsPerSegment + f;
        if (tail[bucket] == 0.0 && prefix[bucket].empty()) continue;
        PartialTopSums(bucket, &tw_scratch);
        for (int c = 0; c <= d_max; ++c) {
          r[c] = std::max(r[c], tail[bucket] + tw_scratch[c]);
        }
      }
      // V[p][c] = R(P,i,c) - R(P,i,0) (Eq. 13).
      double r0 = r[0];
      for (int d = 0; d <= d_max; ++d) {
        double best = w_row[d];  // c = 0
        for (int c = 1; c <= d; ++c) {
          best = std::max(best, w_row[d - c] + (r[c] - r0));
        }
        w_next[d] = best;
      }
      std::swap(w_row, w_next);
      if (as + w_row[d_max] >= bound - kBoundarySlack) {
        return true;  // early termination
      }
    }
    return false;
  };

  // Feasibility pre-check at the boundary i = n+1 (nothing removed yet).
  if (BoundaryInvalid()) return std::nullopt;

  for (size_t i = n; i >= 1; --i) {
    // Move pebble i from the prefix to the tail.
    const Pebble& p = rp.pebbles[i - 1];
    int b = BucketOf(p);
    auto it = prefix[b].find(p.weight);
    if (it != prefix[b].end()) prefix[b].erase(it);
    tail[b] += p.weight;
    as = calculator.Compute(tail);

    if (BoundaryInvalid()) return i;
  }
  return size_t{0};
}

}  // namespace

const char* FilterMethodName(FilterMethod m) {
  switch (m) {
    case FilterMethod::kUFilter:
      return "U-Filter";
    case FilterMethod::kAuHeuristic:
      return "AU-Filter(heuristics)";
    case FilterMethod::kAuDp:
      return "AU-Filter(DP)";
  }
  return "?";
}

std::vector<double> ComputeAccumulatedSimilarity(const RecordPebbles& rp) {
  const size_t n = rp.pebbles.size();
  const size_t nseg = rp.segments.size();
  std::vector<double> bucket(nseg * kBucketsPerSegment, 0.0);
  std::vector<double> as_arr(n + 2, 0.0);
  AsCalculator calculator(rp);
  for (size_t i = n; i >= 1; --i) {
    const Pebble& p = rp.pebbles[i - 1];
    bucket[BucketOf(p)] += p.weight;
    as_arr[i] = calculator.Compute(bucket);
  }
  return as_arr;
}

int MinPartitionSize(const RecordPebbles& rp, size_t num_tokens,
                     bool exact_min_partition) {
  return exact_min_partition
             ? ExactMinPartitionSize(rp.segments, num_tokens)
             : GreedyMinPartitionSize(rp.segments, num_tokens);
}

Signature SelectSignature(const RecordPebbles& rp, size_t num_tokens,
                          const SignatureOptions& options) {
  Signature sig;
  const int m =
      MinPartitionSize(rp, num_tokens, options.exact_min_partition);
  const double bound = options.theta * static_cast<double>(m);
  const int requested_tau =
      options.method == FilterMethod::kUFilter ? 1 : std::max(1, options.tau);

  // Walk tau down until a feasible boundary exists (monotone: lowering
  // tau only shrinks the TW / W term). tau = 1 is feasible whenever the
  // record has tokens; empty records get an empty signature.
  sig.prefix_len = rp.pebbles.size();
  sig.effective_tau = 1;
  if (num_tokens == 0 || rp.pebbles.empty()) {
    sig.prefix_len = 0;
    return sig;
  }
  std::vector<double> as_arr;
  if (options.method != FilterMethod::kAuDp) {
    as_arr = ComputeAccumulatedSimilarity(rp);
  }
  for (int tau = requested_tau; tau >= 1; --tau) {
    std::optional<size_t> len =
        options.method == FilterMethod::kAuDp
            ? SelectPrefixDp(rp, bound, tau)
            : SelectPrefixHeuristic(rp, as_arr, bound, tau);
    if (len.has_value()) {
      sig.prefix_len = *len;
      sig.effective_tau = tau;
      break;
    }
  }

  // Sorted + distinct is a load-bearing invariant, not a convenience:
  // the staging InvertedIndex::Add takes its allocation-free fast path
  // on sorted keys, and the count-based candidate merge equates "count
  // of accumulated postings" with "distinct shared keys" — a duplicate
  // here would double-count overlaps past the tau threshold.
  sig.keys.reserve(sig.prefix_len);
  for (size_t i = 0; i < sig.prefix_len; ++i) {
    sig.keys.push_back(rp.pebbles[i].key);
  }
  std::sort(sig.keys.begin(), sig.keys.end());
  sig.keys.erase(std::unique(sig.keys.begin(), sig.keys.end()),
                 sig.keys.end());
  return sig;
}

}  // namespace aujoin
