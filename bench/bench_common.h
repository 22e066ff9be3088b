#ifndef AUJOIN_BENCH_BENCH_COMMON_H_
#define AUJOIN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>

#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "util/flags.h"

namespace aujoin {

/// A fully-materialised synthetic evaluation world: knowledge sources plus
/// a labelled corpus. Stand-in for the paper's MED/WIKI datasets: the
/// src/datagen generators replace the MeSH / Wikipedia taxonomies, the
/// synonym rules and the strings; scale is controlled by flags so the
/// same binary reproduces the paper's shape at any size.
struct BenchWorld {
  Vocabulary vocab;
  Taxonomy taxonomy;
  RuleSet rules;
  Corpus corpus;

  Knowledge knowledge() const { return Knowledge{&vocab, &rules, &taxonomy}; }
};

/// Builds a world. `profile_name` is "med" or "wiki".
inline std::unique_ptr<BenchWorld> BuildWorld(const std::string& profile_name,
                                              size_t num_strings,
                                              size_t num_truth_pairs,
                                              uint64_t seed = 1) {
  auto world = std::make_unique<BenchWorld>();
  TaxonomyGenOptions tax;
  tax.num_nodes = profile_name == "wiki" ? 4000 : 2000;
  tax.seed = seed;
  world->taxonomy = GenerateTaxonomy(tax, &world->vocab);
  SynonymGenOptions syn;
  syn.num_rules = profile_name == "wiki" ? 2500 : 3000;
  syn.seed = seed + 1;
  world->rules = GenerateSynonyms(syn, world->taxonomy, &world->vocab);

  CorpusProfile profile = profile_name == "wiki"
                              ? CorpusProfile::Wiki(num_strings)
                              : CorpusProfile::Med(num_strings);
  profile.seed += seed;
  GroundTruthOptions truth;
  truth.num_pairs = num_truth_pairs;
  truth.seed = seed + 2;
  CorpusGenerator gen(&world->vocab, &world->taxonomy, &world->rules);
  world->corpus = gen.Generate(profile, truth);
  return world;
}

// Benches construct their MsimOptions with q = 3: on the synthetic
// corpora the syllable-built words have a compressed 2-gram space, so
// 3-grams restore realistic signature selectivity.

/// Prints the standard bench banner.
inline void PrintBanner(const char* experiment, const char* paper_ref,
                        const char* expectation) {
  std::printf("=== %s (%s) ===\n", experiment, paper_ref);
  std::printf("paper expectation: %s\n", expectation);
}

}  // namespace aujoin

#endif  // AUJOIN_BENCH_BENCH_COMMON_H_
