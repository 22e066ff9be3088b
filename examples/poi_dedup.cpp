// Data-cleansing scenario: deduplicating a synthetic points-of-interest
// collection whose duplicates mix typos, synonyms and taxonomy variation
// (the paper's motivating use case, Section 1).
//
// Demonstrates the full production path: build knowledge, prepare a join
// context once, let Algorithm 7 pick the overlap constraint, join, and
// group matches into duplicate clusters with union-find.
//
//   ./poi_dedup [--strings=2000] [--theta=0.8]

#include <cstdio>
#include <numeric>
#include <vector>

#include "api/engine.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "util/flags.h"

using namespace aujoin;

namespace {

// Minimal union-find for clustering the matched pairs.
struct UnionFind {
  std::vector<uint32_t> parent;
  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  uint32_t Find(uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void Union(uint32_t a, uint32_t b) { parent[Find(a)] = Find(b); }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("strings", 1500));
  double theta = flags.GetDouble("theta", 0.8);

  // Knowledge + corpus with injected duplicates.
  Vocabulary vocab;
  Taxonomy taxonomy = GenerateTaxonomy({.num_nodes = 2000}, &vocab);
  RuleSet rules = GenerateSynonyms({.num_rules = 2000}, taxonomy, &vocab);
  Knowledge knowledge{&vocab, &rules, &taxonomy};
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  Corpus corpus =
      gen.Generate(CorpusProfile::Med(n), {.num_pairs = n / 8});
  std::printf("POI collection: %zu records (%zu injected duplicates)\n",
              corpus.records.size(), corpus.truth_pairs.size());

  // Join with the recommended overlap constraint, via the facade's tuner
  // path (Algorithm 7 picks tau on the engine's prepared context).
  Engine engine = EngineBuilder()
                      .SetKnowledge(knowledge)
                      .SetMeasures("TJS")
                      .SetQ(3)
                      .Build();
  engine.SetRecords(corpus.records);
  EngineJoinOptions options;
  options.theta = theta;
  options.method = FilterMethod::kAuDp;
  TunerOptions tuner;
  tuner.theta = theta;
  tuner.method = FilterMethod::kAuDp;
  tuner.sample_prob_s = 0.05;
  Result<TauRecommendation> rec = engine.SuggestTau(options, tuner);
  if (!rec.ok()) {
    std::fprintf(stderr, "error: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  options.tau = rec->best_tau;
  Result<JoinResult> joined = engine.Join("unified", options);
  if (!joined.ok()) {
    std::fprintf(stderr, "error: %s\n", joined.status().ToString().c_str());
    return 1;
  }
  const JoinResult& result = *joined;

  std::printf("suggested tau=%d (%d sampling iterations, %.3fs)\n",
              rec->best_tau, rec->iterations, rec->seconds);
  std::printf("join: %zu similar pairs, %llu candidates, %.3fs total\n",
              result.pairs.size(),
              static_cast<unsigned long long>(result.stats.candidates),
              result.stats.TotalSeconds());
  PrfScore score = ComputePrf(result.pairs, corpus.truth_pairs);
  std::printf("against injected duplicates: P=%.2f R=%.2f F=%.2f\n",
              score.precision, score.recall, score.f_measure);

  // Cluster into duplicate groups.
  UnionFind uf(corpus.records.size());
  for (const auto& [a, b] : result.pairs) uf.Union(a, b);
  std::vector<int> cluster_size(corpus.records.size(), 0);
  for (uint32_t i = 0; i < corpus.records.size(); ++i) {
    ++cluster_size[uf.Find(i)];
  }
  int clusters = 0;
  for (int c : cluster_size) clusters += c > 1;
  std::printf("duplicate clusters: %d\n", clusters);

  // Show a few example clusters.
  int shown = 0;
  for (uint32_t root = 0; root < corpus.records.size() && shown < 3; ++root) {
    if (cluster_size[root] < 2) continue;
    std::printf("\ncluster #%d:\n", ++shown);
    for (uint32_t i = 0; i < corpus.records.size(); ++i) {
      if (uf.Find(i) == root) {
        std::printf("  [%u] %s\n", i, corpus.records[i].text.c_str());
      }
    }
  }
  return 0;
}
