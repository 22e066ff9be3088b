// Tests for the one serving scatter-gather and its lazy-publish helper:
// SearchSlices over random splits of a generated collection (range and
// hash shards, an offset frozen + staging split, empty slices) against
// one monolithic UnifiedSearcher, for Search and for TopK at every k
// including ties at the cut; and LazyShared's build-once, retry-on-
// failure and reset contract under racing threads. Suite names contain
// "Slice" or "Lazy" so the TSan CI job's ctest filter picks them up.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "index/prepared_index.h"
#include "join/search.h"
#include "shard/shard_plan.h"
#include "util/lazy_shared.h"

namespace aujoin {
namespace {

using Match = UnifiedSearcher::Match;

// ------------------------------------------------- SearchSlices oracle

/// A generated med corpus with planted near-duplicates, plus exact
/// copies of every fifth record so that equal similarities — ties the
/// serving order breaks by id — straddle TopK cuts.
class SearchSliceTest : public ::testing::Test {
 protected:
  SearchSliceTest() {
    TaxonomyGenOptions tax;
    tax.num_nodes = 200;
    taxonomy_ = GenerateTaxonomy(tax, &vocab_);
    SynonymGenOptions syn;
    syn.num_rules = 200;
    rules_ = GenerateSynonyms(syn, taxonomy_, &vocab_);
    knowledge_ = Knowledge{&vocab_, &rules_, &taxonomy_};

    GroundTruthOptions truth;
    truth.num_pairs = 20;
    CorpusGenerator gen(&vocab_, &taxonomy_, &rules_);
    records_ = gen.Generate(CorpusProfile::Med(60), truth).records;
    const size_t base = records_.size();
    for (size_t i = 0; i < base; i += 5) records_.push_back(records_[i]);
    for (size_t i = 0; i < records_.size(); ++i) {
      records_[i].id = static_cast<uint32_t>(i);
    }
    monolithic_ = std::make_unique<UnifiedSearcher>(
        PreparedIndex::Build(knowledge_, msim_, records_, nullptr));
    options_.theta = 0.5;
    options_.tau = 1;
  }

  /// One slice over `ids` (ascending global ids), its records copied
  /// with local ids. With `offset_map` the slice maps by offset (ids
  /// must then be the contiguous range starting at that offset).
  SearchSlice MakeSlice(const std::vector<uint32_t>* ids, bool offset_map) {
    auto local = std::make_unique<std::vector<Record>>();
    for (uint32_t id : *ids) {
      Record r = records_[id];
      r.id = static_cast<uint32_t>(local->size());
      local->push_back(std::move(r));
    }
    SearchSlice slice;
    slice.index = PreparedIndex::Build(knowledge_, msim_, *local, nullptr);
    if (offset_map) {
      slice.offset = ids->empty() ? 0 : ids->front();
    } else {
      slice.global_ids = ids;
    }
    slice_records_.push_back(std::move(local));
    return slice;
  }

  /// Every query's slices result must equal the monolithic one: Search
  /// exactly, and TopK at every k from 1 to one past the match count
  /// equal to Search's k-prefix. Returns how many TopK cuts fell inside
  /// a run of equal similarities.
  size_t ExpectOracle(const std::vector<SearchSlice>& slices,
                      const std::string& label) {
    size_t tied_cuts = 0;
    for (size_t q = 0; q < records_.size(); q += 9) {
      const Record& query = records_[q];
      std::vector<Match> expected = monolithic_->Search(query, options_);
      SearchStats stats;
      std::vector<Match> all =
          SearchSlices(slices, query, 0, options_, /*num_threads=*/2, &stats);
      EXPECT_EQ(all, expected) << label << " query " << q;
      EXPECT_EQ(stats.queries, 1u) << "one query, counted once";
      for (size_t k = 1; k <= expected.size() + 1; ++k) {
        std::vector<Match> top =
            SearchSlices(slices, query, k, options_, /*num_threads=*/1);
        std::vector<Match> prefix(
            expected.begin(),
            expected.begin() + std::min(k, expected.size()));
        EXPECT_EQ(top, prefix) << label << " query " << q << " k=" << k;
        if (k < expected.size() &&
            expected[k - 1].similarity == expected[k].similarity) {
          ++tied_cuts;
        }
      }
    }
    return tied_cuts;
  }

  Vocabulary vocab_;
  Taxonomy taxonomy_;
  RuleSet rules_;
  Knowledge knowledge_;
  MsimOptions msim_{.q = 3};
  std::vector<Record> records_;
  std::unique_ptr<UnifiedSearcher> monolithic_;
  UnifiedSearcher::SearchOptions options_;
  std::vector<std::unique_ptr<std::vector<Record>>> slice_records_;
};

TEST_F(SearchSliceTest, RandomShardSplitsEqualTheMonolithicSearcher) {
  std::mt19937 rng(20190704);
  size_t tied_cuts = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const size_t shards = 1 + rng() % 9;
    const ShardBy by = trial % 2 == 0 ? ShardBy::kRange : ShardBy::kHash;
    ShardPlan plan = ShardPlan::Make(records_.size(), shards, by);
    // Every trial also carries an empty slice, placed at random.
    plan.shard_ids.insert(plan.shard_ids.begin() + rng() % (shards + 1), {});
    std::vector<SearchSlice> slices;
    for (const std::vector<uint32_t>& ids : plan.shard_ids) {
      slices.push_back(MakeSlice(&ids, /*offset_map=*/false));
    }
    tied_cuts += ExpectOracle(slices, std::string(ShardByName(by)) + " x" +
                                          std::to_string(shards));
  }
  EXPECT_GT(tied_cuts, 0u) << "the fixture must put ties at some cut";
}

TEST_F(SearchSliceTest, OffsetFrozenPlusStagingSplitsEqualTheMonolithic) {
  std::mt19937 rng(7919);
  const uint32_t n = static_cast<uint32_t>(records_.size());
  // The ends give an empty frozen or an empty staging slice.
  std::vector<uint32_t> cuts = {0, n, 1 + static_cast<uint32_t>(rng() % n),
                                1 + static_cast<uint32_t>(rng() % n)};
  for (uint32_t cut : cuts) {
    std::vector<uint32_t> frozen, staging;
    for (uint32_t id = 0; id < n; ++id) {
      (id < cut ? frozen : staging).push_back(id);
    }
    std::vector<SearchSlice> slices = {MakeSlice(&frozen, true),
                                       MakeSlice(&staging, true)};
    ASSERT_EQ(slices[1].offset, staging.empty() ? 0u : cut);
    ExpectOracle(slices, "cut " + std::to_string(cut));
  }
}

TEST_F(SearchSliceTest, FreezeSecondsAreChargedOnceAndNoSlicesMatchNothing) {
  ShardPlan plan = ShardPlan::Make(records_.size(), 3, ShardBy::kHash);
  std::vector<SearchSlice> slices;
  for (const std::vector<uint32_t>& ids : plan.shard_ids) {
    slices.push_back(MakeSlice(&ids, false));
  }
  SearchStats first, second;
  SearchSlices(slices, records_[0], 0, options_, 3, &first);
  SearchSlices(slices, records_[0], 0, options_, 3, &second);
  EXPECT_GT(first.index_seconds, 0.0)
      << "the first call freezes every slice's CSR";
  EXPECT_EQ(second.index_seconds, 0.0) << "later calls find them frozen";

  SearchStats stats;
  EXPECT_TRUE(SearchSlices({}, records_[0], 0, options_, 1, &stats).empty());
  EXPECT_EQ(stats.queries, 1u);
}

// -------------------------------------------------------- LazyShared

TEST(LazySharedTest, RacingFirstGetsBuildOnce) {
  LazyShared<int> lazy;
  std::atomic<int> builds{0};
  auto build = [&]() -> Result<std::shared_ptr<const int>> {
    builds.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::make_shared<const int>(42);
  };
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<double> seconds(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<std::shared_ptr<const int>> value = lazy.Get(build, &seconds[t]);
      ASSERT_TRUE(value.ok());
      got[t] = *value;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  int charged = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], got[0]) << "every caller sees the one instance";
    if (seconds[t] > 0.0) ++charged;
  }
  EXPECT_EQ(*got[0], 42);
  EXPECT_EQ(charged, 1) << "only the builder is charged the build";
  EXPECT_TRUE(lazy.resident());
  EXPECT_EQ(lazy.Peek(), got[0]);
}

TEST(LazySharedTest, FailedBuildIsNotPublishedAndTheNextGetRetries) {
  LazyShared<int> lazy;
  int builds = 0;
  Result<std::shared_ptr<const int>> failed =
      lazy.Get([&]() -> Result<std::shared_ptr<const int>> {
        ++builds;
        return Status::Corruption("damaged shard file");
      });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(lazy.resident());
  EXPECT_EQ(lazy.Peek(), nullptr);

  Result<std::shared_ptr<const int>> retried = lazy.Get([&] {
    ++builds;
    return std::make_shared<const int>(7);
  });
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(**retried, 7);
  EXPECT_EQ(builds, 2);
  EXPECT_TRUE(lazy.resident());
}

TEST(LazySharedTest, ResetUnpublishesAndSetPublishes) {
  LazyShared<int> lazy;
  int builds = 0;
  auto build = [&] {
    ++builds;
    return std::make_shared<const int>(builds);
  };
  std::shared_ptr<const int> first = *lazy.Get(build);
  lazy.Reset();
  EXPECT_FALSE(lazy.resident());
  EXPECT_EQ(lazy.Peek(), nullptr);
  EXPECT_EQ(*first, 1) << "holders keep the unpublished value alive";
  EXPECT_EQ(**lazy.Get(build), 2) << "the next Get builds afresh";

  lazy.Set(std::make_shared<const int>(99));
  EXPECT_EQ(**lazy.Get(build), 99) << "a set value is not rebuilt";
  EXPECT_EQ(builds, 2);
}

}  // namespace
}  // namespace aujoin
