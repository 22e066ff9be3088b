// Oracle tests of the hot loops (src/kernels/): the sorted-set
// intersection count against std::set_intersection, CandidateAccumulator
// (CountMergeRun and the selects underneath it) against a plain map,
// including the epoch-wrap clear, and a bit-exact pin of
// AccumulateWeights' fixed four-lane reduction order — the order every
// similarity, result set and ranking depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <vector>

#include "index/csr_index.h"
#include "kernels/kernels.h"

namespace aujoin {
namespace {

/// SortedIntersectionCount against std::set_intersection on structured
/// edge shapes (empty / singleton / disjoint / identical /
/// duplicate-heavy) and random sorted runs, 60 seeded rounds. Both
/// argument orders, since the count must be symmetric.
TEST(KernelParityTest, IntersectSortedMatchesOracleOnRandomRuns) {
  std::mt19937 rng(20260809);
  for (int round = 0; round < 60; ++round) {
    std::vector<uint32_t> a, b;
    auto sorted_random = [&](size_t n, uint32_t universe, bool dedupe) {
      std::vector<uint32_t> v(n);
      for (uint32_t& x : v) x = rng() % (universe + 1);
      std::sort(v.begin(), v.end());
      if (dedupe) v.erase(std::unique(v.begin(), v.end()), v.end());
      return v;
    };
    switch (round % 6) {
      case 0:  // one side empty
        a = {};
        b = sorted_random(rng() % 40, 100, true);
        break;
      case 1:  // singletons, hit or miss
        a = {static_cast<uint32_t>(rng() % 10)};
        b = sorted_random(1 + rng() % 20, 10, true);
        break;
      case 2:  // disjoint by parity
        a = sorted_random(rng() % 60, 200, true);
        b = sorted_random(rng() % 60, 200, true);
        for (uint32_t& x : a) x = x * 2;
        for (uint32_t& x : b) x = x * 2 + 1;
        break;
      case 3:  // identical
        a = sorted_random(rng() % 60, 150, true);
        b = a;
        break;
      case 4:  // duplicate-heavy multisets over a tiny universe
        a = sorted_random(rng() % 80, 12, false);
        b = sorted_random(rng() % 80, 12, false);
        break;
      default:  // general random
        a = sorted_random(rng() % 200, 1 + rng() % 300, true);
        b = sorted_random(rng() % 200, 1 + rng() % 300, true);
        break;
    }
    std::vector<uint32_t> oracle;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(oracle));
    EXPECT_EQ(SortedIntersectionCount(a.data(), a.size(), b.data(), b.size()),
              oracle.size());
    EXPECT_EQ(SortedIntersectionCount(b.data(), b.size(), a.data(), a.size()),
              oracle.size());
  }
}

/// The reduction order written out independently: lane i % 4 gets
/// weight i, lanes fold as (0 + 2) + (1 + 3).
double FourLaneReference(const std::vector<double>& terms) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < terms.size(); ++i) lanes[i % 4] += terms[i];
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

/// AccumulateWeights must reproduce the four-lane order bit for bit:
/// on a hand-picked input where a left-to-right sum loses the small
/// terms, and on random inputs, contiguous (idx == nullptr) and
/// gathered, across sizes straddling the four-lane block and its tail.
TEST(KernelParityTest, AccumulateWeightsPinsFourLaneOrder) {
  // Left to right: 1 + 1e16 rounds to 1e16, so the sum collapses to 0.
  // Four lanes: (1 + 1) + (1e16 - 1e16) = 2.
  const std::vector<double> cancelling = {1.0, 1e16, 1.0, -1e16};
  double naive = 0.0;
  for (double w : cancelling) naive += w;
  ASSERT_EQ(naive, 0.0);
  EXPECT_EQ(AccumulateWeights(cancelling.data(), nullptr, cancelling.size()),
            2.0);
  const std::vector<uint32_t> reversed = {3, 2, 1, 0};
  // Gathered as {-1e16, 1, 1e16, 1}: (-1e16 + 1e16) + (1 + 1) = 2 again.
  EXPECT_EQ(AccumulateWeights(cancelling.data(), reversed.data(), 4), 2.0);

  std::mt19937 rng(77);
  std::uniform_real_distribution<double> w_dist(-1.0, 1.0);
  std::vector<double> weights(300);
  for (double& w : weights) w = w_dist(rng);
  for (int round = 0; round < 50; ++round) {
    const size_t n = rng() % 70;
    std::vector<uint32_t> idx(n);
    std::vector<double> gathered(n);
    for (size_t i = 0; i < n; ++i) {
      idx[i] = rng() % static_cast<uint32_t>(weights.size());
      gathered[i] = weights[idx[i]];
    }
    const std::vector<double> contiguous(weights.begin(),
                                         weights.begin() + n);
    // EQ on doubles on purpose: the contract is a fixed reduction
    // order, so the sums must match bit for bit, not approximately.
    EXPECT_EQ(AccumulateWeights(weights.data(), idx.data(), n),
              FourLaneReference(gathered));
    EXPECT_EQ(AccumulateWeights(weights.data(), nullptr, n),
              FourLaneReference(contiguous));
  }
}

/// CandidateAccumulator must agree with a plain map oracle on the batch
/// BumpRun + SelectGE / SelectMergedGE surface, across probes that reuse
/// (and grow) one accumulator.
TEST(KernelParityTest, AccumulatorMatchesMapOracle) {
  std::mt19937 rng(42);
  CandidateAccumulator acc;
  for (int probe = 0; probe < 20; ++probe) {
    const size_t universe = 50 + rng() % 200;
    acc.Begin(universe);
    std::map<uint32_t, uint32_t> oracle;
    std::vector<uint32_t> first_touch;
    for (int run = 0; run < 6; ++run) {
      std::vector<uint32_t> ids(rng() % 40);
      for (uint32_t& id : ids) {
        id = rng() % static_cast<uint32_t>(universe);
      }
      acc.BumpRun(ids.data(), ids.size());
      for (uint32_t id : ids) {
        if (oracle[id]++ == 0) first_touch.push_back(id);
      }
    }
    CandidateAccumulator::IdSpan touched = acc.touched();
    EXPECT_EQ(std::vector<uint32_t>(touched.begin(), touched.end()),
              first_touch);
    for (uint32_t id = 0; id < universe; ++id) {
      auto it = oracle.find(id);
      EXPECT_EQ(acc.count(id), it == oracle.end() ? 0u : it->second);
    }
    const uint32_t threshold = 1 + rng() % 3;
    std::vector<uint32_t> expected;
    for (uint32_t id : first_touch) {
      if (oracle[id] >= threshold) expected.push_back(id);
    }
    CandidateAccumulator::IdSpan kept = acc.SelectGE(threshold);
    EXPECT_EQ(std::vector<uint32_t>(kept.begin(), kept.end()), expected);

    std::vector<uint32_t> taus(universe);
    for (uint32_t& tau : taus) tau = 1 + rng() % 3;
    expected.clear();
    for (uint32_t id : first_touch) {
      if (oracle[id] >= std::min(taus[id], threshold)) {
        expected.push_back(id);
      }
    }
    CandidateAccumulator::IdSpan merged =
        acc.SelectMergedGE(taus.data(), threshold);
    EXPECT_EQ(std::vector<uint32_t>(merged.begin(), merged.end()), expected);
  }
}

/// Epoch wrap is the accumulator's one real clear: stamps written just
/// before the 32-bit epoch wraps must not alias counts after it.
TEST(KernelParityTest, EpochWrapClearsStaleStamps) {
  CandidateAccumulator acc;
  acc.Begin(16);  // epoch 1
  const std::vector<uint32_t> run = {3, 3, 7, 9, 3};
  acc.BumpRun(run.data(), run.size());
  EXPECT_EQ(acc.count(3), 3u);
  // Jump to the last epoch before the wrap and probe there.
  acc.SetEpochForTesting(0xFFFFFFFEu);
  acc.Begin(16);  // epoch 0xFFFFFFFF
  acc.BumpRun(run.data(), run.size());
  EXPECT_EQ(acc.count(3), 3u);
  EXPECT_EQ(acc.count(9), 1u);
  // The wrapping Begin must zero the array: post-wrap epochs restart
  // at 1, the epoch the {3,7,9} stamps of the first probe carry.
  acc.Begin(16);  // wraps: clears, epoch 1 again
  EXPECT_EQ(acc.count(3), 0u);
  EXPECT_EQ(acc.count(7), 0u);
  EXPECT_TRUE(acc.touched().empty());
  acc.BumpRun(run.data(), run.size());
  EXPECT_EQ(acc.count(3), 3u);
  EXPECT_EQ(acc.count(9), 1u);
  EXPECT_EQ(acc.SelectGE(2).size(), 1u);  // only id 3 reaches 2
}

}  // namespace
}  // namespace aujoin
