// Tests for the Engine facade: registry round-trips, MatchSink streaming
// vs. collecting parity, agreement of all algorithms under theta = 1.0
// exact matching, the guarantee that the collecting sink reproduces
// the pre-facade UnifiedJoin output exactly, and tuned joins
// (SuggestTau + Join) following the engine's shard, partition and spill
// modes.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "baselines/combination.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "join/join.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

using PairVec = std::vector<std::pair<uint32_t, uint32_t>>;

bool IsSortedSelfJoinOutput(const PairVec& pairs) {
  if (!std::is_sorted(pairs.begin(), pairs.end())) return false;
  for (const auto& [a, b] : pairs) {
    if (a >= b) return false;
  }
  return true;
}

class ApiTest : public ::testing::Test {
 protected:
  ApiTest() {
    texts_ = {
        "coffee shop latte helsingki",
        "espresso cafe helsinki",
        "cake gateau",
        "apple cake",
        "latte espresso coffee",
        "random words here",
        "espresso cafe helsinki",  // exact duplicate of record 1
        "coffee shop latte helsinki",
    };
    for (size_t i = 0; i < texts_.size(); ++i) {
      records_.push_back(world_.MakeRec(static_cast<uint32_t>(i), texts_[i]));
    }
  }

  Engine MakeEngine(int num_threads = 1) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMeasures("TJS")
                        .SetQ(2)
                        .SetThreads(num_threads)
                        .Build();
    engine.SetRecords(records_);
    return engine;
  }

  Figure1World world_;
  std::vector<std::string> texts_;
  std::vector<Record> records_;
};

TEST_F(ApiTest, RegistryContainsTheBuiltinFive) {
  std::vector<std::string> names = AlgorithmRegistry::Global().Names();
  EXPECT_EQ(names, (std::vector<std::string>{"adaptjoin", "combination",
                                             "kjoin", "pkduck", "unified"}));
}

TEST_F(ApiTest, RegistryRoundTripEveryNameConstructsAndRuns) {
  Engine engine = MakeEngine();
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    std::unique_ptr<JoinAlgorithm> algo =
        AlgorithmRegistry::Global().Create(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_EQ(algo->name(), name);

    CollectingSink sink;
    Result<JoinStats> stats =
        engine.Join(name, {.theta = 0.7, .tau = 2}, &sink);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
    EXPECT_EQ(stats->results, sink.pairs.size()) << name;
    EXPECT_TRUE(IsSortedSelfJoinOutput(sink.pairs)) << name;
  }
}

TEST_F(ApiTest, UnknownAlgorithmIsNotFound) {
  Engine engine = MakeEngine();
  CollectingSink sink;
  Result<JoinStats> stats = engine.Join("nope", {}, &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST_F(ApiTest, JoinBeforeSetRecordsIsFailedPrecondition) {
  Engine engine =
      EngineBuilder().SetKnowledge(world_.knowledge()).Build();
  CollectingSink sink;
  Result<JoinStats> stats = engine.Join("unified", {}, &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ApiTest, BaselinesRejectRsJoinsButUnifiedAccepts) {
  std::vector<Record> others = {world_.MakeRec(0, "espresso cafe helsinki")};
  Engine engine = MakeEngine();
  engine.SetRecords(records_, &others);
  CollectingSink sink;
  Result<JoinStats> kjoin = engine.Join("kjoin", {.theta = 0.7}, &sink);
  ASSERT_FALSE(kjoin.ok());
  EXPECT_EQ(kjoin.status().code(), StatusCode::kInvalidArgument);

  Result<JoinStats> unified =
      engine.Join("unified", {.theta = 0.9, .tau = 1}, &sink);
  EXPECT_TRUE(unified.ok()) << unified.status().ToString();
}

// The acceptance-criterion parity test: a collecting sink must reproduce
// the pre-redesign JoinResult::pairs exactly (same content, same order).
TEST_F(ApiTest, CollectingSinkReproducesUnifiedJoinExactly) {
  JoinOptions join_options;
  join_options.theta = 0.7;
  join_options.tau = 2;
  join_options.method = FilterMethod::kAuDp;
  JoinContext context(world_.knowledge(), MsimOptions{.q = 2});
  context.Prepare(records_, nullptr);
  JoinResult legacy = UnifiedJoin(context, join_options);

  Engine engine = MakeEngine();
  Result<JoinResult> facade =
      engine.Join("unified", {.theta = 0.7, .tau = 2});
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  EXPECT_EQ(facade->pairs, legacy.pairs);
  EXPECT_EQ(facade->stats.candidates, legacy.stats.candidates);
  EXPECT_EQ(facade->stats.processed_pairs, legacy.stats.processed_pairs);
  EXPECT_EQ(facade->stats.results, legacy.stats.results);
}

// Baseline adapters must agree with direct baseline calls.
TEST_F(ApiTest, BaselineAdaptersMatchDirectCalls) {
  Engine engine = MakeEngine();

  KJoin kjoin(world_.knowledge(), {.theta = 0.7});
  Result<JoinResult> k = engine.Join("kjoin", {.theta = 0.7});
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k->pairs, kjoin.SelfJoin(records_).pairs);

  PkduckJoin pkduck(world_.knowledge(), {.theta = 0.7});
  Result<JoinResult> p = engine.Join("pkduck", {.theta = 0.7});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->pairs, pkduck.SelfJoin(records_).pairs);

  AdaptJoin adaptjoin({.theta = 0.7});
  Result<JoinResult> a = engine.Join("adaptjoin", {.theta = 0.7});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->pairs, adaptjoin.SelfJoin(records_).pairs);

  CombinationOptions combo;
  combo.kjoin.theta = combo.adaptjoin.theta = combo.pkduck.theta = 0.7;
  Result<JoinResult> c = engine.Join("combination", {.theta = 0.7});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->pairs,
            CombinationJoin(world_.knowledge(), records_, combo).pairs);
}

// Streaming through a CallbackSink with a tiny verification batch must
// see exactly the collected pairs, in the same sorted order.
TEST_F(ApiTest, StreamingAndCollectingSinksAgree) {
  Engine tiny_batches = EngineBuilder()
                            .SetKnowledge(world_.knowledge())
                            .SetMeasures("TJS")
                            .SetQ(2)
                            .SetStreamBatchSize(2)
                            .Build();
  tiny_batches.SetRecords(records_);

  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    PairVec streamed;
    CallbackSink callback([&](uint32_t a, uint32_t b) {
      streamed.emplace_back(a, b);
      return true;
    });
    Result<JoinStats> stats =
        tiny_batches.Join(name, {.theta = 0.7, .tau = 2}, &callback);
    ASSERT_TRUE(stats.ok()) << name;

    Result<JoinResult> collected =
        tiny_batches.Join(name, {.theta = 0.7, .tau = 2});
    ASSERT_TRUE(collected.ok()) << name;
    EXPECT_EQ(streamed, collected->pairs) << name;
  }
}

TEST_F(ApiTest, SinkEarlyTerminationStopsTheJoin) {
  Engine engine = EngineBuilder()
                      .SetKnowledge(world_.knowledge())
                      .SetMeasures("TJS")
                      .SetQ(2)
                      .SetStreamBatchSize(1)
                      .Build();
  engine.SetRecords(records_);

  Result<JoinResult> all = engine.Join("unified", {.theta = 0.7, .tau = 2});
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all->pairs.size(), 2u);

  CountingSink limited(1);
  Result<JoinStats> stats =
      engine.Join("unified", {.theta = 0.7, .tau = 2}, &limited);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(limited.count(), 1u);
  EXPECT_EQ(stats->results, 1u);
}

TEST_F(ApiTest, ThreadCountDoesNotChangeAnyAlgorithmsOutput) {
  Engine serial = MakeEngine(1);
  Engine parallel = MakeEngine(0);
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    Result<JoinResult> a = serial.Join(name, {.theta = 0.7, .tau = 2});
    Result<JoinResult> b = parallel.Join(name, {.theta = 0.7, .tau = 2});
    ASSERT_TRUE(a.ok()) << name;
    ASSERT_TRUE(b.ok()) << name;
    EXPECT_EQ(a->pairs, b->pairs) << name;
  }
}

TEST_F(ApiTest, PairEnumeratorWalksACollectedResult) {
  Engine engine = MakeEngine();
  Result<JoinResult> result = engine.Join("unified", {.theta = 0.7, .tau = 2});
  ASSERT_TRUE(result.ok());
  PairEnumerator enumerator(&result->pairs);
  PairVec walked;
  std::pair<uint32_t, uint32_t> p;
  while (enumerator.Next(&p)) walked.push_back(p);
  EXPECT_EQ(walked, result->pairs);
  EXPECT_FALSE(enumerator.Next(&p));
  enumerator.Reset();
  EXPECT_TRUE(enumerator.Next(&p));
  EXPECT_EQ(p, result->pairs.front());
}

// Under exact matching (theta = 1.0) every algorithm — unified and all
// four baselines — must find precisely the exact-duplicate pairs, making
// registry-driven parity comparable across algorithms.
TEST(ApiExactMatchTest, AllAlgorithmsAgreeAtThetaOne) {
  Vocabulary vocab;
  RuleSet rules;        // empty: no synonym rewrites can bridge strings
  Taxonomy taxonomy;    // empty: no entity similarity either
  Knowledge knowledge{&vocab, &rules, &taxonomy};

  std::vector<Record> records;
  const char* texts[] = {
      "alpha beta gamma",
      "delta epsilon",
      "alpha beta gamma",  // duplicate of 0
      "zeta eta theta iota",
      "delta epsilon",     // duplicate of 1
  };
  for (uint32_t i = 0; i < 5; ++i) {
    records.push_back(MakeRecord(i, texts[i], &vocab));
  }
  const PairVec expected = {{0, 2}, {1, 4}};

  Engine engine = EngineBuilder()
                      .SetKnowledge(knowledge)
                      .SetMeasures("TJS")
                      .SetQ(2)
                      .Build();
  engine.SetRecords(records);
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    Result<JoinResult> result = engine.Join(name, {.theta = 1.0, .tau = 1});
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result->pairs, expected) << name;
  }
}

// ------------------------------------------------------- tuned joins

/// A generated corpus big enough for the tuner's sampling and a real
/// shard grid, plus the tuner settings every tuned join below uses.
class EngineTunedJoinTest : public ::testing::Test {
 protected:
  EngineTunedJoinTest() {
    taxonomy_ = GenerateTaxonomy({.num_nodes = 300}, &vocab_);
    rules_ = GenerateSynonyms({.num_rules = 400}, taxonomy_, &vocab_);
    CorpusGenerator gen(&vocab_, &taxonomy_, &rules_);
    corpus_ = gen.Generate(CorpusProfile::Med(120), {.num_pairs = 30});
    options_.theta = 0.75;
    tuner_.theta = options_.theta;
    tuner_.method = options_.method;
    tuner_.tau_universe = {1, 2, 3, 4};
    tuner_.sample_prob_s = 0.1;
    tuner_.min_iterations = 5;
    tuner_.max_iterations = 20;
  }

  EngineBuilder Builder() const {
    EngineBuilder builder;
    builder.SetKnowledge(Knowledge{&vocab_, &rules_, &taxonomy_});
    builder.SetMeasures("TJS").SetQ(3);
    return builder;
  }

  /// Lets the engine pick tau, checks the pick, and returns the join
  /// options carrying it.
  EngineJoinOptions Tuned(Engine* engine) {
    Result<TauRecommendation> rec = engine->SuggestTau(options_, tuner_);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    EngineJoinOptions tuned = options_;
    if (!rec.ok()) return tuned;
    const std::vector<int>& universe = tuner_.tau_universe;
    EXPECT_EQ(std::count(universe.begin(), universe.end(), rec->best_tau), 1);
    tuned.tau = rec->best_tau;
    return tuned;
  }

  Vocabulary vocab_;
  Taxonomy taxonomy_;
  RuleSet rules_;
  Corpus corpus_;
  EngineJoinOptions options_;
  TunerOptions tuner_;
};

// A tuned join is an ordinary Engine::Join: whatever tau the tuner
// picks, every mode returns the monolithic pairs for that tau, and the
// stats show the mode really ran (shards, blocks, spill runs).
TEST_F(EngineTunedJoinTest, TunedJoinsFollowTheEnginesMode) {
  struct Setup {
    const char* label;
    size_t shards;
    ShardBy shard_by;
    size_t max_partition_records;
    size_t spill_budget_bytes;
    uint64_t want_shards;
    uint64_t want_blocks;
    bool want_spill;
  };
  // Three size-bounded partitions: six upper-triangle blocks.
  const size_t third = (corpus_.records.size() + 2) / 3;
  const Setup setups[] = {
      {"monolithic", 0, ShardBy::kRange, 0, 0, 0, 0, false},
      {"range shards", 4, ShardBy::kRange, 0, 0, 4, 10, false},
      {"hash shards", 4, ShardBy::kHash, 0, 0, 4, 10, false},
      {"partitions", 0, ShardBy::kRange, third, 0, 0, 6, false},
      {"spilling shards", 4, ShardBy::kRange, 0, 16, 4, 10, true},
  };

  Engine monolithic = Builder().Build();
  monolithic.SetRecords(corpus_.records);
  std::map<int, PairVec> monolithic_pairs;  // by tau
  for (const Setup& setup : setups) {
    Engine engine = Builder()
                        .SetThreads(2)
                        .SetNumShards(setup.shards)
                        .SetShardBy(setup.shard_by)
                        .SetMaxPartitionRecords(setup.max_partition_records)
                        .SetSpillBudgetBytes(setup.spill_budget_bytes)
                        .SetSpillDir(::testing::TempDir())
                        .Build();
    engine.SetRecords(corpus_.records);
    const EngineJoinOptions tuned = Tuned(&engine);
    if (monolithic_pairs.count(tuned.tau) == 0) {
      Result<JoinResult> mono = monolithic.Join("unified", tuned);
      ASSERT_TRUE(mono.ok());
      ASSERT_FALSE(mono->pairs.empty());
      monolithic_pairs[tuned.tau] = mono->pairs;
    }
    Result<JoinResult> result = engine.Join("unified", tuned);
    ASSERT_TRUE(result.ok()) << setup.label;
    EXPECT_EQ(result->pairs, monolithic_pairs[tuned.tau]) << setup.label;
    EXPECT_EQ(result->stats.results, result->pairs.size()) << setup.label;
    EXPECT_EQ(result->stats.shards, setup.want_shards) << setup.label;
    EXPECT_EQ(result->stats.partition_blocks, setup.want_blocks) << setup.label;
    EXPECT_EQ(result->stats.spill_runs > 0, setup.want_spill) << setup.label;
  }
}

TEST_F(EngineTunedJoinTest, SinkStopsATunedJoin) {
  for (size_t shards : {0u, 4u}) {
    Engine engine = Builder().SetNumShards(shards).Build();
    engine.SetRecords(corpus_.records);
    const EngineJoinOptions tuned = Tuned(&engine);
    Result<JoinResult> all = engine.Join("unified", tuned);
    ASSERT_TRUE(all.ok());
    ASSERT_GE(all->pairs.size(), 2u);

    CountingSink limited(1);
    Result<JoinStats> stats = engine.Join("unified", tuned, &limited);
    ASSERT_TRUE(stats.ok()) << "shards=" << shards;
    EXPECT_EQ(limited.count(), 1u) << "shards=" << shards;
    EXPECT_EQ(stats->results, 1u) << "shards=" << shards;
  }
}

TEST_F(EngineTunedJoinTest, SuggestTauBeforeSetRecordsIsFailedPrecondition) {
  Engine engine = Builder().Build();
  Result<TauRecommendation> rec = engine.SuggestTau(options_, tuner_);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace aujoin
