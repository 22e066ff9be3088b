#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "index/global_order.h"
#include "index/pebble.h"
#include "core/min_partition.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

class PebbleTest : public ::testing::Test {
 protected:
  // Table 2 / Example 6 fidelity checks use the paper's exact pebble
  // inventory, so the exact-span extension is disabled here; it gets its
  // own tests below.
  PebbleTest()
      : generator_(world_.knowledge(),
                   MsimOptions{.exact_match = false}) {}

  RecordPebbles Gen(const std::string& text) {
    Record r = world_.MakeRec(next_id_++, text);
    return generator_.Generate(r, &gram_dict_);
  }

  Figure1World world_;
  Vocabulary gram_dict_;
  PebbleGenerator generator_;
  uint32_t next_id_ = 0;
};

TEST_F(PebbleTest, Table2CoffeePebbles) {
  RecordPebbles rp = Gen("coffee");
  // Jaccard: {co, of, ff, fe, ee}, weight 1/5 each.
  // Taxonomy: {wikipedia, food, coffee}, weight 1/3 each (depth 3).
  std::map<PebbleType, int> counts;
  for (const Pebble& p : rp.pebbles) ++counts[PebbleKeyType(p.key)];
  EXPECT_EQ(counts[PebbleType::kGram], 5);
  EXPECT_EQ(counts[PebbleType::kTaxonomy], 3);
  EXPECT_EQ(counts[PebbleType::kSynonym], 0);
  for (const Pebble& p : rp.pebbles) {
    if (PebbleKeyType(p.key) == PebbleType::kGram) {
      EXPECT_NEAR(p.weight, 1.0 / 5.0, 1e-12);
    } else {
      EXPECT_NEAR(p.weight, 1.0 / 3.0, 1e-12);
    }
  }
}

TEST_F(PebbleTest, Table2CafePebbles) {
  RecordPebbles rp = Gen("cafe");
  // Jaccard: {ca, af, fe} weight 1/3; synonym: lhs "coffee shop" weight 1.
  std::map<PebbleType, int> counts;
  for (const Pebble& p : rp.pebbles) ++counts[PebbleKeyType(p.key)];
  EXPECT_EQ(counts[PebbleType::kGram], 3);
  EXPECT_EQ(counts[PebbleType::kSynonym], 1);
  EXPECT_EQ(counts[PebbleType::kTaxonomy], 0);
  for (const Pebble& p : rp.pebbles) {
    if (PebbleKeyType(p.key) == PebbleType::kSynonym) {
      EXPECT_DOUBLE_EQ(p.weight, 1.0);
      EXPECT_EQ(p.key, MakePebbleKey(PebbleType::kSynonym, world_.rule_cafe));
    }
  }
}

TEST_F(PebbleTest, Example6PebbleCount) {
  // Example 6 counts 23 pebbles for "espresso cafe helsinki" with
  // positional gram counting; with set semantics (G(S,q) is a set,
  // Eq. 1) "espresso" has 6 distinct 2-grams, giving 22.
  RecordPebbles rp = Gen("espresso cafe helsinki");
  EXPECT_EQ(rp.pebbles.size(), 22u);
  EXPECT_EQ(rp.segments.size(), 3u);
}

TEST_F(PebbleTest, TaxonomyPebblesAreAncestorChain) {
  RecordPebbles rp = Gen("espresso");
  std::vector<uint64_t> tax_keys;
  for (const Pebble& p : rp.pebbles) {
    if (PebbleKeyType(p.key) == PebbleType::kTaxonomy) {
      tax_keys.push_back(p.key);
      EXPECT_NEAR(p.weight, 1.0 / 5.0, 1e-12);  // espresso depth 5
    }
  }
  EXPECT_EQ(tax_keys.size(), 5u);
  EXPECT_TRUE(std::count(tax_keys.begin(), tax_keys.end(),
                         MakePebbleKey(PebbleType::kTaxonomy, world_.root)));
}

TEST_F(PebbleTest, SharedAncestorPebblesCollide) {
  RecordPebbles latte = Gen("latte");
  RecordPebbles espresso = Gen("espresso");
  auto keys_of = [](const RecordPebbles& rp) {
    std::vector<uint64_t> keys;
    for (const Pebble& p : rp.pebbles) {
      if (PebbleKeyType(p.key) == PebbleType::kTaxonomy) {
        keys.push_back(p.key);
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  auto a = keys_of(latte), b = keys_of(espresso);
  std::vector<uint64_t> shared;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(shared));
  // Shared ancestors = ancestors of the LCA "coffee drinks" (depth 4).
  EXPECT_EQ(shared.size(), 4u);
}

TEST_F(PebbleTest, SynonymPebbleCollidesAcrossSides) {
  RecordPebbles lhs = Gen("coffee shop");
  RecordPebbles rhs = Gen("cafe");
  auto has_rule_pebble = [&](const RecordPebbles& rp) {
    for (const Pebble& p : rp.pebbles) {
      if (p.key == MakePebbleKey(PebbleType::kSynonym, world_.rule_cafe)) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_rule_pebble(lhs));
  EXPECT_TRUE(has_rule_pebble(rhs));
}

TEST_F(PebbleTest, MeasureMaskFiltersPebbles) {
  MsimOptions options;
  options.measures = kMeasureTaxonomy;
  options.exact_match = false;
  PebbleGenerator gen(world_.knowledge(), options);
  Record r = world_.MakeRec(50, "espresso cafe");
  RecordPebbles rp = gen.Generate(r, &gram_dict_);
  for (const Pebble& p : rp.pebbles) {
    EXPECT_EQ(PebbleKeyType(p.key), PebbleType::kTaxonomy);
  }
}

TEST_F(PebbleTest, GlobalOrderSortsRareFirst) {
  // "cafe" appears in 1 record; make "fe" gram frequent via extra records.
  std::vector<RecordPebbles> collection;
  collection.push_back(Gen("cafe"));
  collection.push_back(Gen("fever"));
  collection.push_back(Gen("feast"));
  GlobalOrder order;
  order.CountCollection(collection);
  order.Finalize();
  RecordPebbles cafe = Gen("cafe");
  order.SortPebbles(&cafe);
  // "fe" (frequency 3) must sort after rarer grams like "ca".
  uint64_t fe_key = MakePebbleKey(PebbleType::kGram, gram_dict_.Find("fe"));
  uint64_t ca_key = MakePebbleKey(PebbleType::kGram, gram_dict_.Find("ca"));
  EXPECT_GT(order.Frequency(fe_key), order.Frequency(ca_key));
  size_t fe_pos = 0, ca_pos = 0;
  for (size_t i = 0; i < cafe.pebbles.size(); ++i) {
    if (cafe.pebbles[i].key == fe_key) fe_pos = i;
    if (cafe.pebbles[i].key == ca_key) ca_pos = i;
  }
  EXPECT_LT(ca_pos, fe_pos);
}

TEST_F(PebbleTest, GlobalOrderCountsDocumentFrequency) {
  GlobalOrder order;
  // "aa aa" has gram "aa" twice (two segments) but one record.
  order.CountRecord(Gen("aa aa"));
  order.Finalize();
  uint64_t key = MakePebbleKey(PebbleType::kGram, gram_dict_.Find("aa"));
  EXPECT_EQ(order.Frequency(key), 1u);
}

TEST(ExactPebbleTest, EmittedPerSegmentWithWeightOne) {
  // Exact pebbles appear only when the Jaccard measure is off (gram
  // pebbles witness equality otherwise; see pebble.cc).
  Figure1World world;
  Vocabulary gram_dict;
  MsimOptions opts;
  opts.measures = kMeasureSynonym | kMeasureTaxonomy;
  PebbleGenerator gen(world.knowledge(), opts);
  Record r = world.MakeRec(0, "espresso cafe");
  RecordPebbles rp = gen.Generate(r, &gram_dict);
  int exact = 0;
  for (const Pebble& p : rp.pebbles) {
    if (PebbleKeyType(p.key) == PebbleType::kExact) {
      ++exact;
      EXPECT_DOUBLE_EQ(p.weight, 1.0);
      EXPECT_EQ(p.measure, kMeasureExactBit);
    }
  }
  EXPECT_EQ(exact, static_cast<int>(rp.segments.size()));
}

TEST(ExactPebbleTest, NoExactPebblesWhenJaccardOn) {
  Figure1World world;
  Vocabulary gram_dict;
  PebbleGenerator gen(world.knowledge(), MsimOptions{});
  Record r = world.MakeRec(0, "espresso cafe");
  for (const Pebble& p : gen.Generate(r, &gram_dict).pebbles) {
    EXPECT_NE(PebbleKeyType(p.key), PebbleType::kExact);
  }
}

TEST(ExactPebbleTest, IdenticalSegmentsCollide) {
  Figure1World world;
  Vocabulary gram_dict;
  MsimOptions opts2;
  opts2.measures = kMeasureTaxonomy;
  PebbleGenerator gen(world.knowledge(), opts2);
  Record a = world.MakeRec(0, "espresso");
  Record b = world.MakeRec(1, "espresso");
  Record c = world.MakeRec(2, "latte");
  auto exact_keys = [&](const Record& r) {
    std::vector<uint64_t> keys;
    for (const Pebble& p : gen.Generate(r, &gram_dict).pebbles) {
      if (PebbleKeyType(p.key) == PebbleType::kExact) keys.push_back(p.key);
    }
    return keys;
  };
  EXPECT_EQ(exact_keys(a), exact_keys(b));
  EXPECT_NE(exact_keys(a), exact_keys(c));
}

TEST(MinPartitionTest, Example6ReturnsThree) {
  Figure1World world;
  Record t = world.MakeRec(0, "espresso cafe helsinki");
  auto segments = EnumerateSegments(t, world.knowledge());
  EXPECT_EQ(ExactMinPartitionSize(segments, t.num_tokens()), 3);
  EXPECT_EQ(GreedyMinPartitionSize(segments, t.num_tokens()), 3);
}

TEST(MinPartitionTest, MultiTokenSegmentReducesCount) {
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop latte");
  auto segments = EnumerateSegments(s, world.knowledge());
  // {coffee shop} + {latte} = 2.
  EXPECT_EQ(ExactMinPartitionSize(segments, s.num_tokens()), 2);
}

TEST(MinPartitionTest, GreedyNeverExceedsExact) {
  // The greedy estimate with the Johnson bound is a valid lower bound, so
  // greedy <= exact always.
  Example5World world;
  auto segments = EnumerateSegments(world.s, world.knowledge());
  int exact = ExactMinPartitionSize(segments, world.s.num_tokens());
  int greedy = GreedyMinPartitionSize(segments, world.s.num_tokens());
  EXPECT_LE(greedy, exact);
  EXPECT_EQ(exact, 3);  // {a}, {b,c,d}, {e}
}

TEST(MinPartitionTest, EmptyString) {
  EXPECT_EQ(ExactMinPartitionSize({}, 0), 0);
  EXPECT_EQ(GreedyMinPartitionSize({}, 0), 0);
}

}  // namespace
}  // namespace aujoin
