// aujoin — the command-line driver over the Engine facade.
//
// Turns the library into an end-to-end system: ingest a real dataset
// (CSV/TSV/JSONL/plain lines) with optional synonym-rule and taxonomy
// files, then join, auto-tune, or summarise it — one command, no code.
//
//   aujoin join  --input=data/poi.csv --columns=name,city --header
//                --rules=data/poi_rules.tsv --taxonomy=data/poi_taxonomy.tsv
//                --theta=0.7 --tau=2 [--algorithm=unified] [--out=-]
//                [--stats_out=BENCH_cli.json] [--require_nonzero]
//   aujoin query --input=... [--queries=FILE] [--topk=10] [--theta=0.7]
//                [--threads=0] [--snapshot=FILE] [--wal=FILE]
//                [--stats_out=BENCH_query.json]
//   aujoin append --input=... --wal=append.wal [--records=FILE]
//                [--snapshot=ckpt.aujsnap] [--checkpoint]
//   aujoin snapshot --input=... --snapshot=index.aujsnap
//   aujoin tune  --input=... [--theta=0.8] [--sample=0.05]
//   aujoin stats --input=... [--rules=...] [--taxonomy=...]
//
// `join` streams matched pairs to stdout (or --out=FILE) through a
// MatchSink as verification batches complete; --stats_out writes the
// same BENCH_<name>.json schema as bench/harness (see
// docs/bench-schema.md). `query` serves online similarity search over
// the ingested collection from a shared immutable PreparedIndex —
// queries come from a file or stdin, one per line, fanned across the
// engine's thread pool. `append` grows the ingested collection with
// durable, WAL-logged appends (docs/wal-format.md); a later `query
// --wal=FILE` (or another `append`) replays the log — and mounts the
// checkpoint written by `append --checkpoint` — so acknowledged
// appends survive crashes. `snapshot` persists the prepared index as a
// versioned on-disk snapshot (docs/snapshot-format.md) that later
// query/join invocations mount with --snapshot=FILE, skipping
// preparation entirely. `tune` runs Algorithm 7 and reports the
// suggested overlap constraint tau as JSON. `stats` ingests and prints
// the dataset manifest. Full flag reference: docs/cli.md.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "dataset/dataset.h"
#include "harness.h"
#include "shard/sharded_index.h"
#include "storage/generational_index.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/json.h"
#include "util/timer.h"

namespace aujoin {
namespace {

constexpr const char* kUsage = R"(usage: aujoin <command> [--flags]

commands:
  join      ingest a dataset and run a similarity self- or R x S join
  query     ingest a dataset, index it once, answer similarity queries
  append    grow the ingested collection with durable WAL-logged appends
  snapshot  ingest a dataset, prepare its index, persist it to disk
  tune      run Algorithm 7 to suggest the overlap constraint tau
  stats     ingest a dataset and print its manifest as JSON

ingestion flags (all commands):
  --input=FILE           records file (required)
  --input2=FILE          second collection for an R x S join (join only)
  --format=auto          auto | lines | csv | tsv | jsonl
  --columns=a,b          record text columns (header names / JSONL keys)
  --column_indices=0,2   zero-based positional columns (CSV/TSV)
  --header               first CSV/TSV row is a header
  --skip_malformed       drop malformed rows instead of failing
  --max_records=N        ingest at most N records (0 = all)
  --keep_case            do not lowercase tokens
  --split_punctuation    treat ASCII punctuation as token delimiters
  --rules=FILE           synonym rules TSV (lhs <TAB> rhs [<TAB> closeness])
  --taxonomy=FILE        taxonomy TSV (node_id <TAB> parent_id <TAB> name)

engine flags (join, query, tune):
  --measures=TJS         measure combination (J, TS, TJS, ...)
  --q=3                  gram length for the J measure
  --threads=1            worker threads (0 = all hardware threads)
  --partition=0          partitioned pipeline record bound (0 = monolithic)
  --shards=0             first-class shards (0 = monolithic): joins run
                         shard-pair blocks, queries scatter-gather across
                         per-shard indexes; results identical either way
  --shard_by=range       shard placement: range | hash
  --spill_budget_bytes=0 out-of-core joins: spill sorted result runs to
                         temp files past this in-memory bound (0 = never)
  --spill_dir=DIR        directory for spill temp files (default ".")

join flags:
  --algorithm=unified    unified | kjoin | pkduck | adaptjoin | combination
  --snapshot=FILE        serve from a persisted index snapshot (unified,
                         monolithic, self-join only; hard error on mismatch)
  --theta=0.8            similarity threshold
  --tau=2                overlap constraint (0 = pick with Algorithm 7)
  --sample=0.05          tuner sampling probability when --tau=0
  --out=-                pairs output file (- = stdout)
  --output_format=tsv    tsv | csv
  --ids_only             emit id pairs without record texts
  --stats_out=FILE       write run stats in the BENCH_<name>.json schema
  --name=cli             report name for --stats_out
  --require_nonzero      exit 1 when the join finds zero matches

query flags:
  --queries=FILE         query texts, one per line (- or omitted = stdin)
  --snapshot=FILE        serve from a persisted index snapshot instead of
                         rebuilding (hard error when it does not match)
  --wal=FILE             replay (and keep serving) the append WAL: appended
                         records survive crashes and answer queries; with
                         --snapshot the snapshot is the append checkpoint
  --theta=0.8            similarity threshold
  --tau=1                overlap constraint on the query signature
  --topk=0               keep only the k best matches per query (0 = all)
  --out=-                matches output file (- = stdout)
  --output_format=tsv    tsv | csv (query_index, match_id, similarity[, texts])
  --ids_only             drop the query/match texts from the output
  --stats_out=FILE       write serving stats in the BENCH_<name>.json schema
  --name=query           report name for --stats_out
  --require_nonzero      exit 1 when no query finds any match

append flags:
  --wal=FILE             write-ahead log path (required); replayed first,
                         then every append is logged + fsynced before it
                         is acknowledged
  --records=FILE         texts to append, one per line (- or omitted = stdin)
  --snapshot=FILE        checkpoint path: mounted on start when it exists,
                         written by --checkpoint
  --checkpoint           after appending, refreeze + write the checkpoint
                         and reset the WAL (requires --snapshot=FILE)
  --wal_checkpoint_bytes=0  auto-checkpoint whenever the WAL grows past
                         this many bytes (requires --snapshot=FILE;
                         0 = manual --checkpoint only)
  --ready_file=FILE      after the batch is durable, write the appended
                         count here (crash-injection harnesses wait for it)
  --linger_seconds=0     sleep this long before exiting (gives kill -9
                         harnesses a stable window)
  --stats_out=FILE       write append/recovery stats in the BENCH schema
  --name=append          report name for --stats_out

snapshot flags:
  --snapshot=FILE        output snapshot path (required)
  --stats_out=FILE       write build/save stats in the BENCH schema
  --name=snapshot        report name for --stats_out

tune flags:
  --theta=0.8            similarity threshold to tune for
  --tau_universe=1,2,..  candidate taus (default 1,2,3,4,5,6,8)
  --sample=0.01          Bernoulli sampling probability per side
)";

/// Builds the DatasetSpec shared by every subcommand from flags.
/// Returns false (with a message on stderr) on unparsable flag values.
bool SpecFromFlags(const Flags& flags, DatasetSpec* spec) {
  spec->records_path = flags.GetString("input", "");
  if (spec->records_path.empty()) {
    std::fprintf(stderr, "error: --input is required\n");
    return false;
  }
  spec->records2_path = flags.GetString("input2", "");
  Result<DatasetFormat> format =
      ParseDatasetFormat(flags.GetString("format", "auto"));
  if (!format.ok()) {
    std::fprintf(stderr, "error: %s\n", format.status().ToString().c_str());
    return false;
  }
  spec->reader.format = *format;
  std::string columns = flags.GetString("columns", "");
  if (!columns.empty()) {
    spec->reader.columns = SplitString(columns, ',');
  }
  std::string indices = flags.GetString("column_indices", "");
  if (!indices.empty()) {
    for (const std::string& field : SplitString(indices, ',')) {
      spec->reader.column_indices.push_back(
          static_cast<size_t>(std::atoll(field.c_str())));
    }
  }
  spec->reader.has_header = flags.GetBool("header", false);
  spec->reader.on_malformed = flags.GetBool("skip_malformed", false)
                                  ? MalformedRowPolicy::kSkip
                                  : MalformedRowPolicy::kFail;
  spec->reader.max_records =
      static_cast<size_t>(flags.GetInt("max_records", 0));
  spec->tokenizer.lowercase = !flags.GetBool("keep_case", false);
  spec->tokenizer.split_punctuation =
      flags.GetBool("split_punctuation", false);
  spec->rules_path = flags.GetString("rules", "");
  spec->taxonomy_path = flags.GetString("taxonomy", "");
  return true;
}

Engine EngineFromFlags(const Flags& flags, const Dataset& dataset) {
  ShardBy shard_by = ShardBy::kRange;
  std::string shard_by_name = flags.GetString("shard_by", "range");
  if (!ParseShardBy(shard_by_name, &shard_by)) {
    std::fprintf(stderr, "error: unknown --shard_by=%s (range | hash)\n",
                 shard_by_name.c_str());
    std::exit(1);
  }
  return EngineBuilder()
      .SetKnowledge(dataset.knowledge())
      .SetMeasures(flags.GetString("measures", "TJS"))
      .SetQ(static_cast<int>(flags.GetInt("q", 3)))
      .SetThreads(static_cast<int>(flags.GetInt("threads", 1)))
      .SetMaxPartitionRecords(
          static_cast<size_t>(flags.GetInt("partition", 0)))
      .SetNumShards(static_cast<size_t>(flags.GetInt("shards", 0)))
      .SetShardBy(shard_by)
      .SetSpillBudgetBytes(
          static_cast<size_t>(flags.GetInt("spill_budget_bytes", 0)))
      .SetSpillDir(flags.GetString("spill_dir", ""))
      .SetWalCheckpointBytes(
          static_cast<size_t>(flags.GetInt("wal_checkpoint_bytes", 0)))
      .Build();
}

/// CSV-quotes a text field when it needs it.
std::string CsvField(const std::string& text) {
  if (text.find_first_of(",\"\r\n") == std::string::npos) return text;
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"') {
      quoted += "\"\"";
    } else {
      quoted.push_back(c);
    }
  }
  quoted += '"';
  return quoted;
}

/// Stdout-or-file row output with TSV/CSV formatting — the plumbing
/// shared by the join and query subcommands (--out, --output_format,
/// --ids_only).
struct OutputTarget {
  std::ofstream file;
  std::ostream* out = nullptr;
  std::string path;
  bool csv = false;
  bool ids_only = false;
  char sep = '\t';

  /// Applies the CSV quoting policy to a text field.
  std::string Text(const std::string& text) const {
    return csv ? CsvField(text) : text;
  }

  /// Flushes and reports a write failure; true on success.
  bool Finish() {
    out->flush();
    if (!*out) {
      std::fprintf(stderr, "error: failed writing %s\n", path.c_str());
      return false;
    }
    return true;
  }
};

bool OpenOutput(const Flags& flags, OutputTarget* target) {
  target->path = flags.GetString("out", "-");
  if (target->path != "-") {
    target->file.open(target->path);
    if (!target->file) {
      std::fprintf(stderr, "error: cannot open %s\n", target->path.c_str());
      return false;
    }
  }
  target->out = target->path == "-" ? &std::cout : &target->file;
  target->csv = flags.GetString("output_format", "tsv") == "csv";
  target->ids_only = flags.GetBool("ids_only", false);
  target->sep = target->csv ? ',' : '\t';
  return true;
}

/// Scaffolds the single-run BENCH_<name>.json report both subcommands
/// write for --stats_out: everything shared between join and query
/// runs; the caller fills the run's algorithm/variant/stats/timings.
BenchReport MakeCliReport(const Flags& flags, const Dataset& dataset,
                          const char* default_name, BenchRun* run) {
  BenchReport report;
  report.name = flags.GetString("name", default_name);
  report.profile = "dataset";
  report.num_records = dataset.records.size();
  report.dataset_manifest_json = dataset.manifest.ToJson();
  run->measures = flags.GetString("measures", "TJS");
  run->threads = static_cast<int>(flags.GetInt("threads", 1));
  run->num_records = dataset.records.size();
  run->ok = true;
  run->peak_rss_bytes = CurrentPeakRssBytes();
  return report;
}

/// Writes the report; false (with a message) on I/O failure.
bool WriteCliReport(const BenchReport& report, const std::string& path) {
  if (!report.WriteJsonFile(path)) {
    std::fprintf(stderr, "error: failed to write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

/// Mounts --snapshot into the engine when the flag is set. Failure is a
/// hard error, not a silent rebuild: a CI run that claims snapshot
/// serving must actually serve from the snapshot.
bool MaybeLoadSnapshot(const Flags& flags, Engine* engine) {
  std::string path = flags.GetString("snapshot", "");
  if (path.empty()) return true;
  Status status = engine->LoadIndex(path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: cannot mount snapshot %s: %s\n",
                 path.c_str(), status.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "snapshot: mounted %s in %.3fs\n", path.c_str(),
               engine->snapshot_load_seconds());
  return true;
}

int RunSnapshot(const Flags& flags) {
  DatasetSpec spec;
  if (!SpecFromFlags(flags, &spec)) return 1;
  if (!spec.records2_path.empty()) {
    std::fprintf(stderr,
                 "error: snapshot persists a single collection; --input2 is "
                 "a join-only flag\n");
    return 1;
  }
  std::string path = flags.GetString("snapshot", "");
  if (path.empty()) {
    std::fprintf(stderr, "error: --snapshot=FILE is required\n");
    return 1;
  }
  Result<Dataset> dataset = LoadDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "ingested: %s\n", dataset->manifest.ToJson().c_str());

  Engine engine = EngineFromFlags(flags, *dataset);
  engine.SetRecords(dataset->records);
  const size_t shards = static_cast<size_t>(flags.GetInt("shards", 0));
  double prepare_seconds = 0.0;
  if (shards == 0) {
    // Force the monolithic index now so its build time is reported
    // separately from the write; sharded saves build per shard inside
    // SaveIndex itself.
    Result<std::shared_ptr<const PreparedIndex>> index =
        engine.ServingIndex();
    if (!index.ok()) {
      std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
      return 1;
    }
    prepare_seconds = (*index)->prepare_seconds();
  }
  WallTimer save_timer;
  Status status = engine.SaveIndex(path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  double save_seconds = save_timer.Seconds();
  uint64_t snapshot_bytes = 0;
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (probe) snapshot_bytes = static_cast<uint64_t>(probe.tellg());
  }
  if (shards > 0) {
    // The manifest is tiny; the payload lives in the per-shard files.
    for (size_t s = 0; s < shards; ++s) {
      std::ifstream probe(ShardedIndex::ShardFileName(path, s),
                          std::ios::binary | std::ios::ate);
      if (probe) snapshot_bytes += static_cast<uint64_t>(probe.tellg());
    }
  }
  std::fprintf(stderr,
               "snapshot: %zu records -> %s (%llu bytes, %zu shard files) "
               "prepare=%.3fs write=%.3fs\n",
               dataset->records.size(), path.c_str(),
               static_cast<unsigned long long>(snapshot_bytes), shards,
               prepare_seconds, save_seconds);

  std::string stats_out = flags.GetString("stats_out", "");
  if (!stats_out.empty()) {
    BenchRun run;
    BenchReport report = MakeCliReport(flags, *dataset, "snapshot", &run);
    run.algorithm = "snapshot";
    run.variant = path;
    run.stats.prepare_seconds = prepare_seconds;
    run.stats.shards = shards;
    run.total_seconds = run.stats.prepare_seconds + save_seconds;
    run.wall_seconds = run.total_seconds;
    run.has_snapshot = true;
    run.snapshot_write_seconds = save_seconds;
    run.snapshot_bytes = snapshot_bytes;
    report.runs.push_back(run);
    if (!WriteCliReport(report, stats_out)) return 1;
  }
  return 0;
}

int RunStats(const Flags& flags) {
  DatasetSpec spec;
  if (!SpecFromFlags(flags, &spec)) return 1;
  Result<Dataset> dataset = LoadDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", dataset->manifest.ToJson().c_str());
  return 0;
}

int RunJoin(const Flags& flags) {
  DatasetSpec spec;
  if (!SpecFromFlags(flags, &spec)) return 1;
  Result<Dataset> dataset = LoadDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "ingested: %s\n", dataset->manifest.ToJson().c_str());

  Engine engine = EngineFromFlags(flags, *dataset);
  engine.SetRecords(dataset->records,
                    dataset->records2.empty() ? nullptr : &dataset->records2);
  const std::vector<Record>& t_side =
      dataset->records2.empty() ? dataset->records : dataset->records2;

  std::string algorithm = flags.GetString("algorithm", "unified");
  EngineJoinOptions options;
  options.theta = flags.GetDouble("theta", 0.8);
  int tau = static_cast<int>(flags.GetInt("tau", 2));
  options.tau = tau > 0 ? tau : 1;

  if (!flags.GetString("snapshot", "").empty()) {
    // Only the monolithic unified join rides the shared PreparedIndex
    // the snapshot restores; the partitioned pipeline and the baseline
    // algorithms prepare their own state and would silently ignore it.
    if (algorithm != "unified" || flags.GetInt("partition", 0) != 0 ||
        flags.GetInt("shards", 0) != 0 || !dataset->records2.empty()) {
      std::fprintf(stderr,
                   "error: --snapshot requires --algorithm=unified, no "
                   "--partition, no --shards and no --input2 (the snapshot "
                   "restores the shared monolithic self-join index; sharded "
                   "snapshots serve `query`)\n");
      return 1;
    }
    if (!MaybeLoadSnapshot(flags, &engine)) return 1;
  }

  // Output plumbing: streamed through a CallbackSink as verification
  // batches complete.
  OutputTarget target;
  if (!OpenOutput(flags, &target)) return 1;

  uint64_t written = 0;
  CallbackSink sink([&](uint32_t a, uint32_t b) {
    std::ostream& out = *target.out;
    out << a << target.sep << b;
    if (!target.ids_only) {
      out << target.sep << target.Text(dataset->records[a].text)
          << target.sep << target.Text(t_side[b].text);
    }
    out << '\n';
    ++written;
    return true;
  });

  WallTimer wall;
  double suggest_seconds = 0.0;
  if (tau <= 0) {
    if (algorithm != "unified") {
      std::fprintf(stderr,
                   "error: --tau=0 (auto-tune) requires --algorithm=unified\n");
      return 1;
    }
    TunerOptions tuner;
    tuner.theta = options.theta;
    tuner.method = options.method;
    tuner.sample_prob_s = tuner.sample_prob_t =
        flags.GetDouble("sample", 0.05);
    Result<TauRecommendation> rec = engine.SuggestTau(options, tuner);
    if (!rec.ok()) {
      std::fprintf(stderr, "error: %s\n", rec.status().ToString().c_str());
      return 1;
    }
    suggest_seconds = wall.Seconds();
    std::fprintf(stderr, "algorithm 7 suggested tau=%d (%.3fs)\n",
                 rec->best_tau, rec->seconds);
    options.tau = rec->best_tau;
  }
  Result<JoinStats> joined = engine.Join(algorithm, options, &sink);
  if (!joined.ok()) {
    std::fprintf(stderr, "error: %s\n", joined.status().ToString().c_str());
    return 1;
  }
  JoinStats stats = *joined;
  stats.suggest_seconds = suggest_seconds;
  double wall_seconds = wall.Seconds();

  if (!target.Finish()) return 1;
  std::fprintf(stderr,
               "join[%s]: %llu pairs (processed=%llu candidates=%llu "
               "bound_rejected=%llu) filter=%.3fs verify=%.3fs wall=%.3fs\n",
               algorithm.c_str(), static_cast<unsigned long long>(written),
               static_cast<unsigned long long>(stats.processed_pairs),
               static_cast<unsigned long long>(stats.candidates),
               static_cast<unsigned long long>(stats.bound_rejected),
               stats.signature_seconds + stats.filter_seconds,
               stats.verify_seconds, wall_seconds);

  std::string stats_out = flags.GetString("stats_out", "");
  if (!stats_out.empty()) {
    BenchRun run;
    BenchReport report = MakeCliReport(flags, *dataset, "cli", &run);
    run.algorithm = algorithm;
    run.theta = options.theta;
    run.tau = options.tau;
    run.max_partition_records =
        static_cast<size_t>(flags.GetInt("partition", 0));
    run.stats = stats;
    run.index_source = engine.index_source();
    run.snapshot_load_ms = engine.snapshot_load_seconds() * 1000.0;
    run.total_seconds = stats.TotalSeconds(/*include_prepare=*/true);
    run.wall_seconds = wall_seconds;
    report.runs.push_back(run);
    if (!WriteCliReport(report, stats_out)) return 1;
  }

  if (flags.GetBool("require_nonzero", false) && written == 0) {
    std::fprintf(stderr, "error: join found zero matches\n");
    return 1;
  }
  return 0;
}

int RunQuery(const Flags& flags) {
  DatasetSpec spec;
  if (!SpecFromFlags(flags, &spec)) return 1;
  if (!spec.records2_path.empty()) {
    // Silently serving --input while a second collection was loaded
    // would answer every query from the wrong side; fail instead.
    std::fprintf(stderr,
                 "error: query serves a single collection; --input2 is a "
                 "join-only flag\n");
    return 1;
  }
  Result<Dataset> dataset = LoadDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "ingested: %s\n", dataset->manifest.ToJson().c_str());

  Engine engine = EngineFromFlags(flags, *dataset);
  engine.SetRecords(dataset->records);

  const std::string wal_path = flags.GetString("wal", "");
  double wal_recovery_seconds = 0.0;
  if (!wal_path.empty()) {
    // Append-serving recovery. This must happen BEFORE query
    // tokenisation: recovery re-interns the appended texts in their
    // original order, and query tokens interned ahead of them would
    // shift the ids and break the checkpoint fingerprints.
    WallTimer recovery_timer;
    Status status = engine.EnableAppend(
        wal_path,
        [&](const std::string& text) {
          return MakeRecord(0, text, &dataset->vocab, spec.tokenizer);
        },
        flags.GetString("snapshot", ""));
    if (!status.ok()) {
      std::fprintf(stderr, "error: cannot recover WAL %s: %s\n",
                   wal_path.c_str(), status.ToString().c_str());
      return 1;
    }
    wal_recovery_seconds = recovery_timer.Seconds();
    std::fprintf(stderr,
                 "wal: recovered %llu appended records from %s in %.3fs "
                 "(serving %zu records)\n",
                 static_cast<unsigned long long>(
                     engine.wal_recovered_records()),
                 wal_path.c_str(), wal_recovery_seconds,
                 engine.generational_index()->size());
  } else if (!MaybeLoadSnapshot(flags, &engine)) {
    return 1;
  }

  // Query texts: one per line from --queries (or stdin), tokenised into
  // the dataset's vocabulary with the same normalisation — interning
  // happens here, before the immutable index is built.
  std::string queries_path = flags.GetString("queries", "-");
  std::ifstream queries_file;
  if (queries_path != "-") {
    queries_file.open(queries_path);
    if (!queries_file) {
      std::fprintf(stderr, "error: cannot open %s\n", queries_path.c_str());
      return 1;
    }
  }
  std::istream& queries_in =
      queries_path == "-" ? std::cin : queries_file;
  std::vector<Record> queries;
  std::string line;
  while (std::getline(queries_in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Skip blank lines, including whitespace-only ones: a trailing
    // newline or stray spaces piped through stdin must not become a
    // real (zero-token) query that inflates `queries` and skews the
    // QPS --stats_out reports.
    if (line.find_first_not_of(" \t\f\v\r") == std::string::npos) continue;
    queries.push_back(MakeRecord(static_cast<uint32_t>(queries.size()), line,
                                 &dataset->vocab, spec.tokenizer));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "error: no queries read from %s\n",
                 queries_path.c_str());
    return 1;
  }

  EngineSearchOptions options;
  options.theta = flags.GetDouble("theta", 0.8);
  options.tau = static_cast<int>(flags.GetInt("tau", 1));
  options.k = static_cast<size_t>(flags.GetInt("topk", 0));

  OutputTarget target;
  if (!OpenOutput(flags, &target)) return 1;

  uint64_t written = 0;
  SearchStats stats;
  WallTimer wall;
  Status status = engine.BatchSearch(
      queries, options,
      [&](uint32_t query_index, const UnifiedSearcher::Match& m) {
        std::ostream& out = *target.out;
        out << query_index << target.sep << m.id << target.sep
            << m.similarity;
        if (!target.ids_only) {
          // In append mode the matched id can point past the ingested
          // dataset (a recovered or staged append).
          out << target.sep << target.Text(queries[query_index].text)
              << target.sep
              << target.Text(engine.append_mode()
                                 ? engine.generational_index()->TextOf(m.id)
                                 : dataset->records[m.id].text);
        }
        out << '\n';
        ++written;
        return true;
      },
      &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  double wall_seconds = wall.Seconds();

  if (!target.Finish()) return 1;
  std::fprintf(stderr,
               "query: %llu queries, %llu matches (candidates=%llu "
               "bound_rejected=%llu) index=%.3fs search=%.3fs wall=%.3fs\n",
               static_cast<unsigned long long>(stats.queries),
               static_cast<unsigned long long>(written),
               static_cast<unsigned long long>(stats.query_candidates),
               static_cast<unsigned long long>(stats.bound_rejected),
               stats.index_seconds, stats.search_seconds, wall_seconds);

  std::string stats_out = flags.GetString("stats_out", "");
  if (!stats_out.empty()) {
    BenchRun run;
    BenchReport report = MakeCliReport(flags, *dataset, "query", &run);
    run.algorithm = "search";
    char variant[64];
    std::snprintf(variant, sizeof(variant), "topk=%zu", options.k);
    run.variant = variant;
    run.theta = options.theta;
    run.tau = options.tau;
    if (engine.append_mode()) {
      // The generational frozen index is the serving base; asking
      // ServingIndex() here would force a redundant rebuild.
      run.stats.prepare_seconds =
          engine.generational_index()->frozen_index()->prepare_seconds();
      run.num_records = engine.generational_index()->size();
      run.has_wal = true;
      run.wal_recovery_seconds = wal_recovery_seconds;
      run.wal_recovered_records = engine.wal_recovered_records();
      std::ifstream probe(wal_path, std::ios::binary | std::ios::ate);
      if (probe) run.wal_bytes = static_cast<uint64_t>(probe.tellg());
    } else {
      Result<std::shared_ptr<const PreparedIndex>> index =
          engine.ServingIndex();
      run.stats.prepare_seconds =
          index.ok() ? (*index)->prepare_seconds() : 0.0;
    }
    run.index_seconds = stats.index_seconds;
    run.queries = stats.queries;
    run.query_candidates = stats.query_candidates;
    run.stats.results = stats.results;
    run.stats.shards = stats.shards;
    // Cold-start provenance: lets bench scripts tell a snapshot-served
    // run from a rebuilt one without parsing stderr.
    run.index_source = engine.index_source();
    run.snapshot_load_ms = engine.snapshot_load_seconds() * 1000.0;
    // search_seconds already covers any serving-index build it forced.
    run.total_seconds = run.stats.prepare_seconds + stats.search_seconds;
    run.wall_seconds = wall_seconds;
    report.runs.push_back(run);
    if (!WriteCliReport(report, stats_out)) return 1;
  }

  if (flags.GetBool("require_nonzero", false) && written == 0) {
    std::fprintf(stderr, "error: search found zero matches\n");
    return 1;
  }
  return 0;
}

int RunAppend(const Flags& flags) {
  DatasetSpec spec;
  if (!SpecFromFlags(flags, &spec)) return 1;
  if (!spec.records2_path.empty()) {
    std::fprintf(stderr,
                 "error: append grows a single collection; --input2 is a "
                 "join-only flag\n");
    return 1;
  }
  std::string wal_path = flags.GetString("wal", "");
  if (wal_path.empty()) {
    std::fprintf(stderr, "error: --wal=FILE is required\n");
    return 1;
  }
  std::string checkpoint_path = flags.GetString("snapshot", "");
  bool do_checkpoint = flags.GetBool("checkpoint", false);
  if (do_checkpoint && checkpoint_path.empty()) {
    std::fprintf(stderr, "error: --checkpoint requires --snapshot=FILE\n");
    return 1;
  }
  Result<Dataset> dataset = LoadDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "ingested: %s\n", dataset->manifest.ToJson().c_str());

  Engine engine = EngineFromFlags(flags, *dataset);
  engine.SetRecords(dataset->records);

  WallTimer recovery_timer;
  Status status = engine.EnableAppend(
      wal_path,
      [&](const std::string& text) {
        return MakeRecord(0, text, &dataset->vocab, spec.tokenizer);
      },
      checkpoint_path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: cannot open WAL %s: %s\n", wal_path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  double recovery_seconds = recovery_timer.Seconds();
  std::fprintf(stderr,
               "wal: recovered %llu appended records in %.3fs; serving %zu "
               "records\n",
               static_cast<unsigned long long>(engine.wal_recovered_records()),
               recovery_seconds, engine.generational_index()->size());

  // Texts to append: one per non-blank line of --records (- = stdin).
  std::string records_path = flags.GetString("records", "-");
  std::ifstream records_file;
  if (records_path != "-") {
    records_file.open(records_path);
    if (!records_file) {
      std::fprintf(stderr, "error: cannot open %s\n", records_path.c_str());
      return 1;
    }
  }
  std::istream& records_in =
      records_path == "-" ? std::cin : records_file;

  uint64_t appended = 0;
  std::string line;
  WallTimer append_timer;
  while (std::getline(records_in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t\f\v\r") == std::string::npos) continue;
    Result<uint32_t> id = engine.Append(line);
    if (!id.ok()) {
      std::fprintf(stderr, "error: append failed after %llu records: %s\n",
                   static_cast<unsigned long long>(appended),
                   id.status().ToString().c_str());
      return 1;
    }
    ++appended;
  }
  double append_seconds = append_timer.Seconds();
  std::fprintf(stderr,
               "append: %llu records in %.3fs (%.0f records/s, one fsync "
               "per append); serving %zu records\n",
               static_cast<unsigned long long>(appended), append_seconds,
               append_seconds > 0 ? appended / append_seconds : 0.0,
               engine.generational_index()->size());
  if (engine.auto_checkpoints() > 0) {
    std::fprintf(stderr, "checkpoint: %llu size-triggered (WAL > %lld B)\n",
                 static_cast<unsigned long long>(engine.auto_checkpoints()),
                 static_cast<long long>(
                     flags.GetInt("wal_checkpoint_bytes", 0)));
  }
  if (!engine.auto_checkpoint_status().ok()) {
    std::fprintf(stderr, "warning: auto-checkpoint failed: %s\n",
                 engine.auto_checkpoint_status().ToString().c_str());
  }

  // Readiness AFTER the batch is durable: from the moment this file
  // exists a kill -9 must lose nothing, which is exactly what the CI
  // crash-recovery smoke asserts.
  std::string ready_file = flags.GetString("ready_file", "");
  if (!ready_file.empty()) {
    std::ofstream ready(ready_file);
    ready << appended << "\n";
    ready.flush();
    if (!ready) {
      std::fprintf(stderr, "error: cannot write %s\n", ready_file.c_str());
      return 1;
    }
  }

  if (do_checkpoint) {
    WallTimer checkpoint_timer;
    status = engine.Checkpoint(checkpoint_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: checkpoint failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "checkpoint: %s written in %.3fs, WAL reset\n",
                 checkpoint_path.c_str(), checkpoint_timer.Seconds());
  }

  std::string stats_out = flags.GetString("stats_out", "");
  if (!stats_out.empty()) {
    BenchRun run;
    BenchReport report = MakeCliReport(flags, *dataset, "append", &run);
    run.algorithm = "append";
    run.variant = do_checkpoint ? "checkpoint" : "wal";
    run.num_records = engine.generational_index()->size();
    run.stats.results = appended;
    run.has_wal = true;
    run.wal_append_records_per_sec =
        append_seconds > 0 ? appended / append_seconds : 0.0;
    run.wal_recovery_seconds = recovery_seconds;
    run.wal_recovered_records = engine.wal_recovered_records();
    {
      std::ifstream probe(wal_path, std::ios::binary | std::ios::ate);
      if (probe) run.wal_bytes = static_cast<uint64_t>(probe.tellg());
    }
    run.total_seconds = recovery_seconds + append_seconds;
    run.wall_seconds = run.total_seconds;
    report.runs.push_back(run);
    if (!WriteCliReport(report, stats_out)) return 1;
  }

  int64_t linger = flags.GetInt("linger_seconds", 0);
  if (linger > 0) {
    std::fprintf(stderr, "lingering %llds (kill window)...\n",
                 static_cast<long long>(linger));
    std::this_thread::sleep_for(std::chrono::seconds(linger));
  }
  return 0;
}

int RunTune(const Flags& flags) {
  DatasetSpec spec;
  if (!SpecFromFlags(flags, &spec)) return 1;
  Result<Dataset> dataset = LoadDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Engine engine = EngineFromFlags(flags, *dataset);
  engine.SetRecords(dataset->records);

  EngineJoinOptions options;
  options.theta = flags.GetDouble("theta", 0.8);
  TunerOptions tuner;
  tuner.theta = options.theta;
  tuner.sample_prob_s = tuner.sample_prob_t = flags.GetDouble("sample", 0.01);
  std::vector<int64_t> universe = flags.GetIntList("tau_universe", {});
  if (!universe.empty()) {
    tuner.tau_universe.clear();
    for (int64_t tau : universe) {
      tuner.tau_universe.push_back(static_cast<int>(tau));
    }
  }

  Result<TauRecommendation> rec = engine.SuggestTau(options, tuner);
  if (!rec.ok()) {
    std::fprintf(stderr, "error: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  if (!rec->converged) {
    std::fprintf(stderr,
                 "warning: the tau suggestion did not converge after %d "
                 "iterations over %llu sampled records; best_tau=%d is a "
                 "guess (a larger --sample draws record pairs to estimate "
                 "from)\n",
                 rec->iterations,
                 static_cast<unsigned long long>(rec->sampled_records),
                 rec->best_tau);
  }
  options.tau = rec->best_tau;
  CountingSink counter;
  Result<JoinStats> joined = engine.Join("unified", options, &counter);
  if (!joined.ok()) {
    std::fprintf(stderr, "error: %s\n", joined.status().ToString().c_str());
    return 1;
  }

  std::string json = "{";
  AppendJsonKey("best_tau", &json);
  AppendJsonUint(static_cast<uint64_t>(rec->best_tau), &json);
  json += ", ";
  AppendJsonKey("iterations", &json);
  AppendJsonUint(static_cast<uint64_t>(rec->iterations), &json);
  json += ", ";
  AppendJsonKey("converged", &json);
  json += rec->converged ? "true" : "false";
  json += ", ";
  AppendJsonKey("sampled_records", &json);
  AppendJsonUint(rec->sampled_records, &json);
  json += ", ";
  AppendJsonKey("suggest_seconds", &json);
  AppendJsonDouble(rec->seconds, &json);
  json += ", ";
  AppendJsonKey("tau_universe", &json);
  json += "[";
  for (size_t i = 0; i < tuner.tau_universe.size(); ++i) {
    if (i > 0) json += ", ";
    AppendJsonUint(static_cast<uint64_t>(tuner.tau_universe[i]), &json);
  }
  json += "], ";
  AppendJsonKey("estimated_cost", &json);
  json += "[";
  for (size_t i = 0; i < rec->estimated_cost.size(); ++i) {
    if (i > 0) json += ", ";
    AppendJsonDouble(rec->estimated_cost[i], &json);
  }
  json += "], ";
  AppendJsonKey("results", &json);
  AppendJsonUint(counter.count(), &json);
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (flags.positional().empty()) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string& command = flags.positional()[0];
  if (command == "join") return RunJoin(flags);
  if (command == "query") return RunQuery(flags);
  if (command == "append") return RunAppend(flags);
  if (command == "snapshot") return RunSnapshot(flags);
  if (command == "tune") return RunTune(flags);
  if (command == "stats") return RunStats(flags);
  std::fprintf(stderr, "error: unknown command '%s'\n\n%s", command.c_str(),
               kUsage);
  return 1;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) { return aujoin::Run(argc, argv); }
