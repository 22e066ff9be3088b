// PreparedIndex: the shared immutable prepare-once layer. These tests
// pin the sharing contract — one build feeds joins, searchers and the
// Engine serving path — and the thread-safety of the lazy serving
// index and the read-only query pebble generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "index/csr_index.h"
#include "index/inverted_index.h"
#include "index/prepared_index.h"
#include "join/join.h"
#include "join/search.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

// --- staging InvertedIndex + frozen CsrIndex unit behaviour ---

TEST(InvertedIndexTest, AddDedupesRepeatedKeysPerRecord) {
  // Regression: one posting per distinct key per record, even when the
  // caller's key list repeats keys (sorted or not). The old Add
  // inserted one posting per occurrence, inflating postings and every
  // downstream candidate count.
  InvertedIndex index;
  index.Add(7, {5, 5, 5, 9});          // sorted duplicates
  index.Add(8, {9, 5, 9, 2, 5});       // unsorted duplicates
  EXPECT_EQ(index.num_keys(), 3u);
  EXPECT_EQ(index.total_postings(), 5u);  // {5,9}x7 + {2,5,9}x8
  ASSERT_NE(index.Find(5), nullptr);
  EXPECT_EQ(*index.Find(5), (std::vector<uint32_t>{7, 8}));
  ASSERT_NE(index.Find(9), nullptr);
  EXPECT_EQ(*index.Find(9), (std::vector<uint32_t>{7, 8}));
  ASSERT_NE(index.Find(2), nullptr);
  EXPECT_EQ(*index.Find(2), (std::vector<uint32_t>{8}));
  EXPECT_EQ(index.Find(4), nullptr);
}

TEST(CsrIndexTest, FreezeMatchesStagingAndSortsPostings) {
  InvertedIndex staging;
  staging.Add(3, {10, 20});
  staging.Add(1, {20});
  staging.Add(2, {10, 30});
  CsrIndex csr = CsrIndex::Freeze(staging);
  EXPECT_EQ(csr.num_keys(), staging.num_keys());
  EXPECT_EQ(csr.total_postings(), staging.total_postings());
  EXPECT_EQ(csr.record_universe(), 4u);  // max posted id 3, +1
  for (const auto& [key, ids] : staging.postings()) {
    CsrIndex::Postings run = csr.Find(key);
    std::vector<uint32_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::vector<uint32_t>(run.begin(), run.end()), sorted);
  }
  EXPECT_TRUE(csr.Find(999).empty());
  EXPECT_GT(csr.memory_bytes(), 0u);
}

TEST(CsrIndexTest, FreezeOfEmptyStagingAnswersEverythingEmpty) {
  CsrIndex csr = CsrIndex::Freeze(InvertedIndex{});
  EXPECT_EQ(csr.num_keys(), 0u);
  EXPECT_EQ(csr.total_postings(), 0u);
  EXPECT_EQ(csr.record_universe(), 0u);
  EXPECT_TRUE(csr.Find(0).empty());
  EXPECT_TRUE(csr.Find(0xFFFFFFFFFFFFFFFFULL).empty());
}

TEST(CandidateAccumulatorTest, EpochStampingIsolatesProbes) {
  CandidateAccumulator acc;
  acc.Begin(4);
  EXPECT_EQ(acc.Bump(2), 1u);
  EXPECT_EQ(acc.Bump(2), 2u);
  EXPECT_EQ(acc.Bump(0), 1u);
  EXPECT_EQ(acc.count(2), 2u);
  EXPECT_EQ(acc.count(1), 0u);
  EXPECT_EQ(std::vector<uint32_t>(acc.touched().begin(), acc.touched().end()),
            (std::vector<uint32_t>{2, 0}));
  // A new probe invalidates every previous count without clearing.
  acc.Begin(4);
  EXPECT_EQ(acc.count(2), 0u);
  EXPECT_TRUE(acc.touched().empty());
  EXPECT_EQ(acc.Bump(2), 1u);
  // Growing the universe mid-stream keeps earlier counts valid.
  acc.Begin(2);
  acc.Bump(1);
  acc.Begin(8);
  EXPECT_EQ(acc.count(1), 0u);
  EXPECT_EQ(acc.Bump(7), 1u);
}

class PreparedIndexTest : public ::testing::Test {
 protected:
  PreparedIndexTest() {
    taxonomy_ = GenerateTaxonomy({.num_nodes = 200}, &vocab_);
    rules_ = GenerateSynonyms({.num_rules = 100}, taxonomy_, &vocab_);
    knowledge_ = Knowledge{&vocab_, &rules_, &taxonomy_};
    CorpusGenerator gen(&vocab_, &taxonomy_, &rules_);
    CorpusProfile profile;
    profile.num_strings = 60;
    profile.seed = 17;
    corpus_ = gen.Generate(profile, {.num_pairs = 20});
  }

  Vocabulary vocab_;
  Taxonomy taxonomy_;
  RuleSet rules_;
  Knowledge knowledge_;
  Corpus corpus_;
};

TEST_F(PreparedIndexTest, BuildPreparesBothSidesOfSelfJoin) {
  auto index =
      PreparedIndex::Build(knowledge_, MsimOptions{}, corpus_.records,
                           nullptr);
  EXPECT_TRUE(index->self_join());
  EXPECT_EQ(index->s_prepared().size(), corpus_.records.size());
  EXPECT_EQ(&index->t_prepared(), &index->s_prepared());
  EXPECT_TRUE(index->global_order().finalized());
  EXPECT_GT(index->prepare_seconds(), 0.0);
  // The serving index is lazy: nothing built (and no time charged)
  // until the first probe forces it.
  EXPECT_EQ(index->index_seconds(), 0.0);
  EXPECT_GT(index->ServingIndex().num_keys(), 0u);
  EXPECT_GT(index->index_seconds(), 0.0);
  // Second access returns the same built index without rebuilding.
  const CsrIndex* first = &index->ServingIndex();
  EXPECT_EQ(first, &index->ServingIndex());
}

TEST_F(PreparedIndexTest, JoinContextPrepareAndAdoptAgree) {
  JoinContext fresh(knowledge_, MsimOptions{});
  fresh.Prepare(corpus_.records, nullptr);

  JoinContext borrowing(knowledge_, MsimOptions{});
  borrowing.Adopt(fresh.shared_index());
  EXPECT_EQ(fresh.shared_index().get(), borrowing.shared_index().get());

  JoinOptions options;
  options.theta = 0.75;
  options.tau = 2;
  JoinResult a = UnifiedJoin(fresh, options);
  JoinResult b = UnifiedJoin(borrowing, options);
  EXPECT_EQ(a.pairs, b.pairs);
}

TEST_F(PreparedIndexTest, EngineJoinAndServingShareOneIndex) {
  Engine engine = EngineBuilder().SetKnowledge(knowledge_).Build();
  engine.SetRecords(corpus_.records);
  auto serving = engine.ServingIndex();
  ASSERT_TRUE(serving.ok());
  EXPECT_EQ(serving->get(), engine.PreparedContext().shared_index().get());
  // Rebinding invalidates the engine's copy; the caller's shared_ptr
  // stays usable.
  engine.SetRecords(corpus_.records);
  auto rebuilt = engine.ServingIndex();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(serving->get(), rebuilt->get());
  EXPECT_GT((*serving)->s_prepared().size(), 0u);
}

TEST_F(PreparedIndexTest, QueryPebblesMatchBuildTimePebbles) {
  auto index =
      PreparedIndex::Build(knowledge_, MsimOptions{}, corpus_.records,
                           nullptr);
  // A corpus record re-generated as a query must produce exactly its
  // build-time pebbles (same keys, same order) — the read-only path
  // finds every gram in the frozen dictionary.
  for (size_t i = 0; i < corpus_.records.size(); i += 13) {
    RecordPebbles fresh =
        index->GenerateQueryPebbles(corpus_.records[i]);
    const RecordPebbles& built = index->s_prepared()[i].pebbles;
    ASSERT_EQ(fresh.pebbles.size(), built.pebbles.size());
    for (size_t p = 0; p < fresh.pebbles.size(); ++p) {
      EXPECT_EQ(fresh.pebbles[p].key, built.pebbles[p].key);
      EXPECT_EQ(fresh.pebbles[p].weight, built.pebbles[p].weight);
    }
  }
}

TEST_F(PreparedIndexTest, UnseenQueryGramsGetStableNonCollidingKeys) {
  Figure1World world;
  std::vector<Record> collection;
  collection.push_back(world.MakeRec(0, "espresso cafe helsinki"));
  auto index = PreparedIndex::Build(world.knowledge(),
                                    MsimOptions{.q = 2}, collection,
                                    nullptr);
  // Tokens never seen at build time: grams resolve through the overlay.
  Record query = world.MakeRec(7, "zzzzz zzzzz");
  RecordPebbles rp = index->GenerateQueryPebbles(query);
  ASSERT_FALSE(rp.pebbles.empty());
  const CsrIndex& serving = index->ServingIndex();
  for (const Pebble& p : rp.pebbles) {
    if (PebbleKeyType(p.key) != PebbleType::kGram) continue;
    // Overlay keys collide with nothing indexed...
    EXPECT_TRUE(serving.Find(p.key).empty());
  }
  // ...but the duplicated token's grams share keys within the query
  // (both "zzzzz" occurrences produce the same single-token segment
  // text, hence identical gram pebbles).
  RecordPebbles again = index->GenerateQueryPebbles(query);
  ASSERT_EQ(again.pebbles.size(), rp.pebbles.size());
  for (size_t p = 0; p < rp.pebbles.size(); ++p) {
    EXPECT_EQ(again.pebbles[p].key, rp.pebbles[p].key);
  }
}

TEST(CsrIndexTest, DuplicateKeyPostingsDoNotWeakenTheTauFilter) {
  // Crafted duplicate-key fixture at the probe level: record 0 repeats
  // key 5. Before the Add dedupe each occurrence became its own
  // posting, so a tau=2 probe sharing only that single distinct key
  // counted it twice and wrongly promoted the pair to a candidate.
  InvertedIndex staging;
  staging.Add(0, {5, 5, 5});
  staging.Add(1, {5, 6});
  EXPECT_EQ(staging.total_postings(), 3u);  // not 5: dedupe per record
  CsrIndex csr = CsrIndex::Freeze(staging);
  EXPECT_EQ(csr.total_postings(), 3u);
  CandidateAccumulator overlap;
  overlap.Begin(2);
  for (uint64_t key : std::vector<uint64_t>{5, 7}) {  // probe signature
    for (uint32_t id : csr.Find(key)) overlap.Bump(id);
  }
  EXPECT_EQ(overlap.count(0), 1u);  // one distinct shared key: below tau=2
  EXPECT_EQ(overlap.count(1), 1u);
}

TEST(ServingDuplicateKeyTest, RepeatedRecordKeysPostAndCountOnce) {
  // End-to-end duplicate-key fixture: a record whose repeated token
  // emits the same pebble keys from several segments. The serving
  // index must post the record once per *distinct* key, and a query
  // hitting those keys must see query_candidates of 1, not one per
  // occurrence.
  Figure1World world;
  std::vector<Record> collection;
  collection.push_back(world.MakeRec(0, "espresso espresso espresso"));
  collection.push_back(world.MakeRec(1, "cake bakery"));
  auto index = PreparedIndex::Build(world.knowledge(), MsimOptions{.q = 1},
                                    collection, nullptr);

  // The fixture is real: record 0's pebble list repeats keys.
  std::vector<uint64_t> keys;
  for (const Pebble& p : index->s_prepared()[0].pebbles.pebbles) {
    keys.push_back(p.key);
  }
  std::sort(keys.begin(), keys.end());
  ASSERT_NE(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "fixture must produce duplicate pebble keys";
  size_t distinct =
      static_cast<size_t>(std::distance(
          keys.begin(), std::unique(keys.begin(), keys.end())));

  // One posting per distinct key; record 0 never appears twice in a run.
  const CsrIndex& serving = index->ServingIndex();
  uint64_t record0_postings = 0;
  for (size_t i = 0; i < distinct; ++i) {
    CsrIndex::Postings run = serving.Find(keys[i]);
    record0_postings +=
        static_cast<uint64_t>(std::count(run.begin(), run.end(), 0u));
  }
  EXPECT_EQ(record0_postings, distinct);

  // The self query survives the filter exactly once.
  UnifiedSearcher searcher(index);
  SearchStats stats;
  UnifiedSearcher::SearchOptions options;
  options.theta = 0.5;
  auto matches = searcher.Search(collection[0], options, &stats);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].id, 0u);
  EXPECT_EQ(stats.query_candidates, 1u);
}

TEST_F(PreparedIndexTest, ConcurrentServingIndexAndQueryGeneration) {
  auto index =
      PreparedIndex::Build(knowledge_, MsimOptions{}, corpus_.records,
                           nullptr);
  // Hammer the lazy serving-index build and the read-only query path
  // from many threads at once; TSan (ci sanitize job) proves the
  // absence of data races, the assertions prove agreement.
  constexpr int kThreads = 8;
  std::vector<size_t> num_keys(kThreads, 0);
  std::vector<size_t> num_pebbles(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      num_keys[t] = index->ServingIndex().num_keys();
      RecordPebbles rp =
          index->GenerateQueryPebbles(corpus_.records[t % 7]);
      num_pebbles[t] = rp.pebbles.size();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(num_keys[t], num_keys[0]);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(num_pebbles[t],
              index->s_prepared()[t % 7].pebbles.pebbles.size());
  }
}

}  // namespace
}  // namespace aujoin
