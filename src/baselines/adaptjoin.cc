#include "baselines/adaptjoin.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "baselines/parallel_verify.h"
#include "kernels/kernels.h"
#include "text/qgram.h"
#include "util/timer.h"

namespace aujoin {

namespace {

struct GramRecord {
  std::vector<uint32_t> grams;   // gram ids sorted by (freq asc, id asc)
  std::vector<uint32_t> sorted;  // the same ids ascending (verify order)
};

// Runs the l-prefix filter + Jaccard verification over `limit` records;
// returns {processed postings, candidates, results}.
struct FilterCounts {
  uint64_t processed = 0;
  uint64_t candidates = 0;
};

size_t PrefixLen(size_t set_size, double theta, int ell) {
  size_t overlap = static_cast<size_t>(
      std::ceil(theta * static_cast<double>(set_size)));
  if (overlap == 0) overlap = 1;
  size_t p = set_size - overlap + static_cast<size_t>(ell);
  return std::min(p, set_size);
}

double JaccardSortedIds(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  // Ascending distinct gram-id sets, so the merge count is |a ∩ b|.
  if (a.empty() && b.empty()) return 1.0;
  size_t inter =
      SortedIntersectionCount(a.data(), a.size(), b.data(), b.size());
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

BaselineResult AdaptJoin::SelfJoin(const std::vector<Record>& records) const {
  WallTimer timer;
  BaselineResult result;

  // Gram dictionary + document frequencies.
  std::unordered_map<std::string, uint32_t> gram_ids;
  std::vector<uint64_t> gram_freq;
  std::vector<GramRecord> prepared(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    for (const std::string& g : QGrams(records[i].text, options_.q)) {
      auto [it, inserted] = gram_ids.emplace(
          g, static_cast<uint32_t>(gram_ids.size()));
      if (inserted) gram_freq.push_back(0);
      prepared[i].grams.push_back(it->second);
      ++gram_freq[it->second];
    }
  }
  for (auto& pr : prepared) {
    // Ascending copy for the verification intersect
    // (QGrams dedupes, so these are distinct).
    pr.sorted = pr.grams;
    std::sort(pr.sorted.begin(), pr.sorted.end());
    std::sort(pr.grams.begin(), pr.grams.end(), [&](uint32_t a, uint32_t b) {
      if (gram_freq[a] != gram_freq[b]) return gram_freq[a] < gram_freq[b];
      return a < b;
    });
  }

  // One filter pass with a given l over records [0, limit); candidate
  // pairs are collected into `out` (when non-null) and verified later.
  auto run = [&](int ell, size_t limit,
                 std::vector<std::pair<uint32_t, uint32_t>>* out,
                 FilterCounts* counts) {
    std::unordered_map<uint32_t, std::vector<uint32_t>> index;
    std::unordered_map<uint32_t, int> seen;
    for (uint32_t i = 0; i < limit; ++i) {
      const auto& grams = prepared[i].grams;
      size_t p = PrefixLen(grams.size(), options_.theta, ell);
      seen.clear();
      for (size_t g = 0; g < p; ++g) {
        auto it = index.find(grams[g]);
        if (it == index.end()) continue;
        for (uint32_t j : it->second) {
          ++counts->processed;
          ++seen[j];
        }
      }
      for (const auto& [j, cnt] : seen) {
        if (cnt < ell) continue;
        // Length filter: |Gj| >= theta * |Gi| must be possible.
        const auto& gj = prepared[j].grams;
        size_t lo = std::min(grams.size(), gj.size());
        size_t hi = std::max(grams.size(), gj.size());
        if (static_cast<double>(lo) <
            options_.theta * static_cast<double>(hi)) {
          continue;
        }
        ++counts->candidates;
        if (out != nullptr) out->emplace_back(j, i);
      }
      for (size_t g = 0; g < p; ++g) index[grams[g]].push_back(i);
    }
  };

  // Adaptive l selection on a sample: minimise processed + alpha *
  // candidates (alpha reflects that verification costs more than a
  // posting probe).
  size_t sample = std::min(options_.sample_size, records.size());
  int best_ell = 1;
  double best_cost = -1.0;
  for (int ell : options_.ell_candidates) {
    FilterCounts counts;
    run(ell, sample, /*out=*/nullptr, &counts);
    double cost = static_cast<double>(counts.processed) +
                  32.0 * static_cast<double>(counts.candidates);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best_ell = ell;
    }
  }
  chosen_ell_ = best_ell;

  FilterCounts counts;
  std::vector<std::pair<uint32_t, uint32_t>> candidates;
  run(best_ell, records.size(), &candidates, &counts);
  result.candidates = counts.candidates;
  result.filter_seconds = timer.Seconds();

  WallTimer verify_timer;
  result.pairs = ParallelVerifyPairs(
      candidates, options_.num_threads, [&](uint32_t a, uint32_t b) {
        return JaccardSortedIds(prepared[b].sorted, prepared[a].sorted) >=
               options_.theta;
      });
  result.verify_seconds = verify_timer.Seconds();
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace aujoin
