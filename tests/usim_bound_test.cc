// Tests for the USIM upper bound that verification rejects candidates
// with (core/usim.h): the soundness chain bound >= Exact >= Approx over
// every measure configuration, predicate-mode parity with the full
// Algorithm 1 value on every filter candidate, edge cases, and serving
// parity — Search and TopK on monolithic, hash-sharded and append
// engines against a brute-force, bound-free Approx over the collection.

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "join/join.h"
#include "test_fixtures.h"
#include "util/rng.h"

namespace aujoin {
namespace {

constexpr double kEps = 1e-9;

/// A generated med world: knowledge plus a corpus with planted pairs.
class GeneratedWorld {
 public:
  GeneratedWorld(uint64_t seed, size_t num_strings) {
    TaxonomyGenOptions tax;
    tax.num_nodes = 300;
    tax.seed = seed;
    taxonomy = GenerateTaxonomy(tax, &vocab);
    SynonymGenOptions syn;
    syn.num_rules = 200;
    syn.seed = seed + 1;
    rules = GenerateSynonyms(syn, taxonomy, &vocab);
    CorpusProfile profile = CorpusProfile::Med(num_strings);
    profile.seed = seed + 2;
    GroundTruthOptions truth;
    truth.num_pairs = num_strings / 4;
    truth.seed = seed + 3;
    CorpusGenerator gen(&vocab, &taxonomy, &rules);
    Corpus corpus = gen.Generate(profile, truth);
    records = std::move(corpus.records);
    truth_pairs = std::move(corpus.truth_pairs);
  }

  Knowledge knowledge() const { return Knowledge{&vocab, &rules, &taxonomy}; }

  Vocabulary vocab;
  Taxonomy taxonomy;
  RuleSet rules;
  std::vector<Record> records;
  /// Planted similar pairs (indexes into records).
  std::vector<std::pair<uint32_t, uint32_t>> truth_pairs;
};

/// Every measure configuration the bound must hold under: measure
/// subsets J/S/T/TJS x Jaccard/Cosine/Dice x q in {2, 3} x exact_match.
std::vector<MsimOptions> AllMsimConfigs() {
  using enum GramMeasure;
  std::vector<MsimOptions> out;
  for (const char* measures : {"J", "S", "T", "TJS"}) {
    for (GramMeasure gram : {kJaccard, kCosine, kDice}) {
      for (int q : {2, 3}) {
        for (bool exact_match : {true, false}) {
          MsimOptions msim;
          msim.q = q;
          msim.gram_measure = gram;
          msim.measures = ParseMeasures(measures);
          msim.exact_match = exact_match;
          out.push_back(msim);
        }
      }
    }
  }
  return out;
}

UsimOptions WithMsim(const MsimOptions& msim) {
  UsimOptions options;
  options.msim = msim;
  return options;
}

std::string ConfigLabel(const MsimOptions& msim) {
  std::string label = MeasuresToString(msim.measures);
  label += " gram " + std::to_string(static_cast<int>(msim.gram_measure));
  label += " q " + std::to_string(msim.q);
  label += msim.exact_match ? " exact_match" : "";
  return label;
}

/// Checks bound >= Exact >= Approx on one pair (the Exact links only
/// when enumeration stayed under its caps). Returns true when Exact was
/// exact.
bool ExpectBoundChain(UsimComputer* computer, const Record& s,
                      const Record& t, const std::string& label) {
  const std::string where = label + ": " + s.text + " | " + t.text;
  const double bound = computer->UpperBound(s, t);
  const double approx = computer->Approx(s, t);
  const UsimComputer::ExactResult exact = computer->Exact(s, t);
  EXPECT_GE(bound, 0.0) << where;
  EXPECT_LE(bound, 1.0 + kEps) << where;
  EXPECT_LE(approx, bound + kEps) << where;
  if (!exact.exact) return false;
  EXPECT_LE(exact.value, bound + kEps) << where;
  EXPECT_LE(approx, exact.value + kEps) << where;
  return true;
}

/// `count` random strings of 1..max_len words drawn from the
/// space-separated `pool`.
std::vector<std::string> RandomTexts(const std::string& pool, size_t count,
                                     int max_len, uint64_t seed) {
  std::vector<std::string> words;
  std::istringstream in(pool);
  for (std::string word; in >> word;) words.push_back(word);
  const int64_t last = static_cast<int64_t>(words.size()) - 1;
  Rng rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < count; ++i) {
    std::string text;
    for (int64_t n = rng.Uniform(1, max_len); n > 0; --n) {
      if (!text.empty()) text += ' ';
      text += words[rng.Uniform(0, last)];
    }
    out.push_back(std::move(text));
  }
  return out;
}

/// Checks the chain on pairs (i, j), i stepping by 2 and j from i + 1
/// stepping by 3, under every configuration; returns the number of
/// pairs Exact scored exactly.
size_t ExpectChainOnPool(const Knowledge& knowledge,
                         const std::vector<Record>& records) {
  size_t exact_pairs = 0;
  for (const MsimOptions& msim : AllMsimConfigs()) {
    UsimComputer computer(knowledge, WithMsim(msim));
    const std::string label = ConfigLabel(msim);
    for (size_t i = 0; i < records.size(); i += 2) {
      for (size_t j = i + 1; j < records.size(); j += 3) {
        const Record& s = records[i];
        exact_pairs += ExpectBoundChain(&computer, s, records[j], label);
      }
    }
  }
  return exact_pairs;
}

// ------------------------------------------------------------ soundness

TEST(UsimUpperBoundTest, BoundsExactAndApproxOnFigure1Pool) {
  Figure1World world;
  std::string pool = "coffee shop latte espresso cafe cake gateau";
  pool += " helsinki helsingki drinks apple food";
  std::vector<std::string> texts = RandomTexts(pool, 24, 4, 13);
  texts.push_back("coffee shop latte helsingki");
  texts.push_back("espresso cafe helsinki");
  // Duplicates make identical pairs part of the pool.
  texts.push_back(texts[0]);
  texts.push_back(texts[1]);
  std::vector<Record> records;
  for (const std::string& text : texts) {
    const uint32_t id = static_cast<uint32_t>(records.size());
    records.push_back(world.MakeRec(id, text));
  }
  EXPECT_GT(ExpectChainOnPool(world.knowledge(), records), 1000u);
}

TEST(UsimUpperBoundTest, BoundsExactAndApproxOnExample5Pool) {
  Example5World world;
  std::vector<Record> records = {world.s, world.t};
  for (const std::string& text : RandomTexts("a b c d e f g h z", 24, 5, 29)) {
    const uint32_t id = static_cast<uint32_t>(records.size());
    records.push_back(MakeRecord(id, text, &world.vocab));
  }
  EXPECT_GT(ExpectChainOnPool(world.knowledge(), records), 1000u);
}

TEST(UsimUpperBoundTest, BoundsExactAndApproxOnShortGeneratedPairs) {
  GeneratedWorld world(/*seed=*/41, /*num_strings=*/160);
  // Records of at most 8 tokens keep Exact's enumeration small. The
  // planted pairs cover high similarities, neighbouring records
  // unrelated ones.
  auto is_short = [&](uint32_t i) {
    const size_t n = world.records[i].num_tokens();
    return n >= 1 && n <= 8;
  };
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& [a, b] : world.truth_pairs) {
    if (is_short(a) && is_short(b)) pairs.emplace_back(a, b);
  }
  const size_t planted = pairs.size();
  for (uint32_t i = 0; i + 1 < world.records.size(); i += 4) {
    if (is_short(i) && is_short(i + 1)) pairs.emplace_back(i, i + 1);
  }
  ASSERT_GT(planted, 10u);
  ASSERT_GT(pairs.size() - planted, 10u);
  size_t exact_pairs = 0;
  for (const MsimOptions& msim : AllMsimConfigs()) {
    UsimComputer computer(world.knowledge(), WithMsim(msim));
    const std::string label = ConfigLabel(msim);
    for (const auto& [a, b] : pairs) {
      const Record& s = world.records[a];
      exact_pairs += ExpectBoundChain(&computer, s, world.records[b], label);
    }
  }
  EXPECT_GT(exact_pairs, 1000u);
}

// ----------------------------------------------------------- edge cases

TEST(UsimUpperBoundTest, IdenticalRecordsBoundIsOne) {
  GeneratedWorld world(/*seed=*/5, /*num_strings=*/40);
  UsimComputer computer(world.knowledge());
  for (const Record& r : world.records) {
    if (r.tokens.empty()) continue;
    EXPECT_DOUBLE_EQ(computer.UpperBound(r, r), 1.0) << r.text;
  }
  Figure1World fig;
  Record s = fig.MakeRec(0, "coffee shop latte helsingki");
  EXPECT_DOUBLE_EQ(computer.UpperBound(s, s), 1.0);
}

TEST(UsimUpperBoundTest, EmptyRecordsAreZeroAndNeverCounted) {
  Figure1World world;
  UsimComputer computer(world.knowledge());
  Record empty = world.MakeRec(0, "");
  Record r = world.MakeRec(1, "espresso cafe");
  ASSERT_TRUE(empty.tokens.empty());
  EXPECT_DOUBLE_EQ(computer.UpperBound(empty, r), 0.0);
  EXPECT_DOUBLE_EQ(computer.UpperBound(r, empty), 0.0);
  EXPECT_DOUBLE_EQ(computer.UpperBound(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(computer.Approx(empty, r, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(computer.Approx(r, empty, 0.5), 0.0);
  EXPECT_EQ(computer.bound_rejected(), 0u);
}

TEST(UsimUpperBoundTest, OneTokenRecordsBoundIsTheirMsim) {
  // One token each: the only partition pair is the two singletons, so
  // bound, Exact and Approx all equal msim of the two tokens.
  Figure1World world;
  UsimComputer computer(world.knowledge());
  auto expect_msim = [&](const std::string& a, const std::string& b) {
    Record s = world.MakeRec(0, a);
    Record t = world.MakeRec(1, b);
    const UsimComputer::ExactResult exact = computer.Exact(s, t);
    ASSERT_TRUE(exact.exact);
    EXPECT_DOUBLE_EQ(computer.UpperBound(s, t), exact.value) << a << " " << b;
    EXPECT_DOUBLE_EQ(computer.Approx(s, t), exact.value) << a << " " << b;
  };
  expect_msim("latte", "espresso");
  expect_msim("cake", "gateau");
  expect_msim("helsinki", "helsingki");
  expect_msim("latte", "latte");
  expect_msim("cake", "shop");
}

TEST(UsimUpperBoundTest, PredicateModeRejectsBelowTheBoundOnly) {
  Figure1World world;
  UsimComputer computer(world.knowledge());
  Record s = world.MakeRec(0, "coffee shop latte helsingki");
  Record t = world.MakeRec(1, "espresso cafe helsinki");
  const double bound = computer.UpperBound(s, t);
  const double full = computer.Approx(s, t);
  ASSERT_GT(bound, 0.0);
  ASSERT_LE(full, bound + kEps);
  // Above the bound: rejected from the bound alone, counted.
  EXPECT_DOUBLE_EQ(computer.Approx(s, t, std::min(1.0, bound + 0.01)), 0.0);
  EXPECT_EQ(computer.bound_rejected(), 1u);
  // Serving mode below the bound: the full value, bit-equal.
  EXPECT_EQ(computer.Approx(s, t, UsimComputer::kNoEarlyExit, full), full);
  // The plain call never consults the bound.
  EXPECT_EQ(computer.Approx(s, t), full);
  EXPECT_EQ(computer.bound_rejected(), 1u);
}

// ------------------------------------------------------ predicate parity

TEST(PredicateParityTest, PredicateAgreesWithFullValueOnEveryCandidate) {
  for (uint64_t seed : {11u, 23u}) {
    GeneratedWorld world(seed, /*num_strings=*/60);
    JoinContext context(world.knowledge(), MsimOptions{});
    context.Prepare(world.records, nullptr);
    UsimComputer full(world.knowledge());
    UsimComputer predicate(world.knowledge());
    std::map<std::pair<uint32_t, uint32_t>, double> full_values;
    size_t checked = 0;
    size_t matches = 0;
    for (double theta : {0.7, 0.8, 0.9}) {
      SignatureOptions signature;
      signature.theta = theta;
      signature.tau = 1;
      JoinContext::FilterOutput filtered = context.RunFilter(signature);
      for (const auto& [si, ti] : filtered.candidates) {
        const Record& s = world.records[si];
        const Record& t = world.records[ti];
        auto [it, inserted] = full_values.try_emplace({si, ti}, 0.0);
        if (inserted) it->second = full.Approx(s, t);
        const double value = it->second;
        const double answer = predicate.Approx(s, t, theta);
        const std::string where = s.text + " | " + t.text;
        EXPECT_EQ(answer >= theta, value >= theta) << theta << " " << where;
        ++checked;
        matches += value >= theta ? 1 : 0;
      }
    }
    EXPECT_GT(checked, 500u) << "seed " << seed;
    EXPECT_GT(matches, 0u) << "seed " << seed;
    EXPECT_GT(predicate.bound_rejected(), checked / 2) << "seed " << seed;
    EXPECT_EQ(full.bound_rejected(), 0u);
  }
}

// ------------------------------------------------------ serving parity

using Match = UnifiedSearcher::Match;

/// The serving order: similarity desc, id asc.
bool Ranked(const Match& a, const Match& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

class BoundServingParityTest : public ::testing::Test {
 protected:
  BoundServingParityTest() : world_(/*seed=*/61, /*num_strings=*/80) {
    // Queries: every eighth collection record plus held-out strings of
    // the same world.
    for (size_t i = 0; i < world_.records.size(); i += 8) {
      queries_.push_back(world_.records[i]);
    }
    CorpusGenerator gen(&world_.vocab, &world_.taxonomy, &world_.rules);
    CorpusProfile profile = CorpusProfile::Med(15);
    profile.seed = 99;
    GroundTruthOptions truth;
    truth.num_pairs = 0;
    for (const Record& r : gen.Generate(profile, truth).records) {
      queries_.push_back(r);
    }
    options_.theta = 0.5;
    options_.tau = 1;
  }

  Engine MakeEngine(size_t num_shards) const {
    Engine engine = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMsimOptions(msim_)
                        .SetThreads(2)
                        .SetNumShards(num_shards)
                        .SetShardBy(ShardBy::kHash)
                        .Build();
    return engine;
  }

  /// Brute force over `collection` with the plain, bound-free Approx,
  /// in the serving order.
  std::vector<Match> BruteForce(const std::vector<Record>& collection,
                                const Record& query) const {
    UsimComputer computer(world_.knowledge(), WithMsim(msim_));
    std::vector<Match> out;
    for (uint32_t id = 0; id < collection.size(); ++id) {
      const double sim = computer.Approx(query, collection[id]);
      if (sim >= options_.theta) out.push_back(Match{id, sim});
    }
    std::sort(out.begin(), out.end(), Ranked);
    return out;
  }

  /// Search and TopK at several k against the brute-force oracle over
  /// `collection`; the bound must have rejected some candidates.
  void ExpectOracle(const Engine& engine,
                    const std::vector<Record>& collection,
                    const std::string& label) {
    SearchStats stats;
    size_t matched_queries = 0;
    for (size_t q = 0; q < queries_.size(); ++q) {
      const Record& query = queries_[q];
      const std::vector<Match> expected = BruteForce(collection, query);
      matched_queries += expected.empty() ? 0 : 1;
      Result<std::vector<Match>> all = engine.Search(query, options_, &stats);
      ASSERT_TRUE(all.ok()) << label;
      EXPECT_EQ(*all, expected) << label << " query " << q;
      for (size_t k : {1, 3, 10}) {
        Result<std::vector<Match>> top = engine.TopK(query, k, options_);
        ASSERT_TRUE(top.ok()) << label;
        const size_t n = std::min(k, expected.size());
        std::vector<Match> prefix(expected.begin(), expected.begin() + n);
        EXPECT_EQ(*top, prefix) << label << " query " << q << " k " << k;
      }
    }
    EXPECT_GT(matched_queries, queries_.size() / 4) << label;
    EXPECT_GT(stats.bound_rejected, 0u) << label;
    EXPECT_LE(stats.bound_rejected, stats.query_candidates) << label;
  }

  GeneratedWorld world_;
  MsimOptions msim_{.q = 3};
  std::vector<Record> queries_;
  EngineSearchOptions options_;
};

TEST_F(BoundServingParityTest, MonolithicMatchesBruteForce) {
  Engine engine = MakeEngine(/*num_shards=*/0);
  engine.SetRecords(world_.records);
  ExpectOracle(engine, world_.records, "monolithic");
}

TEST_F(BoundServingParityTest, HashShardedMatchesBruteForce) {
  Engine engine = MakeEngine(/*num_shards=*/4);
  engine.SetRecords(world_.records);
  ExpectOracle(engine, world_.records, "4-shard hash");
}

TEST_F(BoundServingParityTest, AppendFrozenPlusStagingMatchesBruteForce) {
  const std::string wal_path = ::testing::TempDir() + "aujoin_bound.wal";
  std::remove(wal_path.c_str());
  // The base is bound up front; of the rest, the first half is appended
  // and refrozen into the frozen generation, the second half stays
  // staged.
  const size_t n = world_.records.size();
  const size_t base_size = n / 3;
  const size_t refreeze_at = 2 * n / 3;
  const auto first = world_.records.begin();
  std::vector<Record> base(first, first + base_size);
  Vocabulary* vocab = &world_.vocab;
  RecordFactory factory = [vocab](const std::string& text) {
    return MakeRecord(0, text, vocab);
  };
  Engine engine = MakeEngine(/*num_shards=*/0);
  engine.SetRecords(base);
  ASSERT_TRUE(engine.EnableAppend(wal_path, factory).ok());
  std::vector<Record> collection = base;
  for (size_t i = base_size; i < n; ++i) {
    if (i == refreeze_at) {
      ASSERT_TRUE(engine.Refreeze().ok());
    }
    const std::string& text = world_.records[i].text;
    Result<uint32_t> id = engine.Append(text);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, collection.size());
    collection.push_back(factory(text));
  }
  ExpectOracle(engine, collection, "append frozen + staging");
  std::remove(wal_path.c_str());
}

// ------------------------------------------------------- join counters

TEST(BoundJoinStatsTest, JoinStatsCountBoundRejections) {
  GeneratedWorld world(/*seed=*/73, /*num_strings=*/150);
  EngineJoinOptions options;
  options.theta = 0.7;
  options.tau = 1;
  uint64_t serial_rejected = 0;
  for (int threads : {1, 3}) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(world.knowledge())
                        .SetThreads(threads)
                        .Build();
    engine.SetRecords(world.records);
    Result<JoinResult> result = engine.Join("unified", options);
    ASSERT_TRUE(result.ok());
    const JoinStats& stats = result->stats;
    EXPECT_GT(stats.bound_rejected, 0u);
    EXPECT_LE(stats.bound_rejected + stats.results, stats.candidates);
    // Each candidate is rejected or not independently of the split.
    if (threads == 1) serial_rejected = stats.bound_rejected;
    EXPECT_EQ(stats.bound_rejected, serial_rejected);
  }
  Engine partitioned = EngineBuilder()
                           .SetKnowledge(world.knowledge())
                           .SetMaxPartitionRecords(40)
                           .Build();
  partitioned.SetRecords(world.records);
  Result<JoinResult> result = partitioned.Join("unified", options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.bound_rejected, 0u);
  EXPECT_LE(result->stats.bound_rejected, result->stats.candidates);
}

}  // namespace
}  // namespace aujoin
