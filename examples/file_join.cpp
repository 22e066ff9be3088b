// File-driven workflow: join your own data with your own knowledge
// sources, end to end through the dataset ingestion layer. A single
// LoadDataset call reads the records file (any supported format), the
// synonym-rule TSV and the taxonomy TSV into one shared vocabulary;
// the join then streams matched pairs straight to an output TSV via a
// MatchSink — the full result is never materialised in memory.
//
//   ./file_join --strings=data.txt --rules=rules.tsv --taxonomy=tax.tsv
//               --out=pairs.tsv [--theta=0.8] [--tau=0] [--threads=0]
//               [--algorithm=unified]
//
// With --tau=0 (the default) Algorithm 7 picks the overlap constraint
// first; the join that follows is the same streaming Engine::Join.
// --algorithm accepts any registry name (unified, kjoin, pkduck,
// adaptjoin, combination). Run without arguments to see the demo: it
// generates a small world, saves it to temporary files, and joins from
// those files — exercising the exact path an adopter would use. For
// the full-featured driver (CSV/JSONL column selection, stats JSON,
// R x S joins) use the aujoin CLI instead: docs/cli.md.

#include <cstdio>
#include <fstream>
#include <string>

#include "api/engine.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "dataset/dataset.h"
#include "synonym/rule_io.h"
#include "taxonomy/taxonomy_io.h"
#include "util/flags.h"
#include "util/io.h"

using namespace aujoin;

namespace {

// Builds demo input files so the example is runnable with no arguments.
void WriteDemoFiles(const std::string& tax_path, const std::string& rule_path,
                    const std::string& strings_path) {
  Vocabulary vocab;
  Taxonomy taxonomy = GenerateTaxonomy({.num_nodes = 800}, &vocab);
  RuleSet rules = GenerateSynonyms({.num_rules = 800}, taxonomy, &vocab);
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  Corpus corpus = gen.Generate(CorpusProfile::Med(400), {.num_pairs = 60});

  SaveTaxonomyToTsv(taxonomy, vocab, tax_path);
  SaveRulesToTsv(rules, vocab, rule_path);
  std::vector<std::string> lines;
  for (const Record& r : corpus.records) lines.push_back(r.text);
  WriteLines(strings_path, lines);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string tax_path = flags.GetString("taxonomy", "");
  std::string rule_path = flags.GetString("rules", "");
  std::string strings_path = flags.GetString("strings", "");
  std::string out_path = flags.GetString("out", "/tmp/aujoin_pairs.tsv");
  double theta = flags.GetDouble("theta", 0.8);
  int tau = static_cast<int>(flags.GetInt("tau", 0));
  int threads = static_cast<int>(flags.GetInt("threads", 0));
  std::string algorithm = flags.GetString("algorithm", "unified");

  if (tax_path.empty() || rule_path.empty() || strings_path.empty()) {
    std::printf("no input files given; running the self-contained demo\n");
    tax_path = "/tmp/aujoin_demo_taxonomy.tsv";
    rule_path = "/tmp/aujoin_demo_rules.tsv";
    strings_path = "/tmp/aujoin_demo_strings.txt";
    WriteDemoFiles(tax_path, rule_path, strings_path);
  }

  // One call ingests everything into one shared vocabulary: records
  // (format resolved from the extension), synonym rules and taxonomy.
  DatasetSpec spec;
  spec.records_path = strings_path;
  spec.rules_path = rule_path;
  spec.taxonomy_path = tax_path;
  Result<Dataset> dataset = LoadDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested: %s\n", dataset->manifest.ToJson().c_str());

  Engine engine = EngineBuilder()
                      .SetKnowledge(dataset->knowledge())
                      .SetMeasures("TJS")
                      .SetQ(3)
                      .SetThreads(threads)
                      .Build();
  engine.SetRecords(dataset->records);

  EngineJoinOptions options;
  options.theta = theta;
  options.method = FilterMethod::kAuDp;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "# id_a\tid_b\ttext_a\ttext_b\n";

  // Pairs are written as their verification batch completes — the full
  // result is never materialised in memory.
  const std::vector<Record>& records = dataset->records;
  uint64_t written = 0;
  CallbackSink tsv_sink([&](uint32_t a, uint32_t b) {
    out << a << '\t' << b << '\t' << records[a].text << '\t'
        << records[b].text << '\n';
    ++written;
    return true;
  });

  if (tau <= 0 && algorithm == "unified") {
    TunerOptions tuner;
    tuner.theta = theta;
    tuner.method = FilterMethod::kAuDp;
    tuner.sample_prob_s = 0.05;
    Result<TauRecommendation> rec = engine.SuggestTau(options, tuner);
    if (!rec.ok()) {
      std::fprintf(stderr, "error: %s\n", rec.status().ToString().c_str());
      return 1;
    }
    std::printf("Algorithm 7 suggested tau=%d (%.3fs)\n", rec->best_tau,
                rec->seconds);
    tau = rec->best_tau;
  }
  options.tau = tau > 0 ? tau : 1;
  Result<JoinStats> run = engine.Join(algorithm, options, &tsv_sink);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const JoinStats& stats = *run;

  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: failed writing %s\n", out_path.c_str());
    return 1;
  }
  std::printf("join[%s]: %llu pairs (processed=%llu candidates=%llu) "
              "filter=%.3fs verify=%.3fs\n",
              algorithm.c_str(), static_cast<unsigned long long>(written),
              static_cast<unsigned long long>(stats.processed_pairs),
              static_cast<unsigned long long>(stats.candidates),
              stats.signature_seconds + stats.filter_seconds,
              stats.verify_seconds);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
