// Scatter-gather shard bench: the same workload raced monolithic vs
// sharded through the Engine facade, in three phases:
//
//   join   — Engine::Join("unified") with num_shards=0 vs num_shards=N
//            (shard-pair blocks on the shared ThreadPool). Results must
//            be byte-identical; the speedup is wall over wall.
//   serve  — Engine::BatchSearch of a query wave against the monolithic
//            serving index vs the per-shard scatter (similarity values
//            included in the parity fingerprint).
//   spill  — the sharded join re-run with a tiny --spill_budget_bytes,
//            forcing sorted runs to disk and back. Results must still
//            be identical, stats must show spill traffic, and no
//            aujoin-spill temp file may outlive the join.
//
// Any parity failure exits non-zero — the bench doubles as an
// end-to-end determinism check. The report lands in BENCH_<name>.json
// with the shard fields documented in docs/bench-schema.md.
//
// Typical invocation:
//   bench_shard --name=shard --profile=med --strings=400 --shards=4 \
//     --theta=0.7 --tau=2 --threads=0 --spill_budget_bytes=256

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "bench_common.h"
#include "harness.h"
#include "shard/shard_plan.h"
#include "storage/env.h"
#include "util/timer.h"

namespace aujoin {
namespace {

/// One serving parity fingerprint: every (query, match id, similarity)
/// in emission order across a BatchSearch wave.
struct ServeSweep {
  std::vector<std::pair<uint32_t, uint32_t>> hits;
  std::vector<double> sims;
  SearchStats stats;
  double wall_seconds = 0.0;

  bool SameResults(const ServeSweep& other) const {
    return hits == other.hits && sims == other.sims;
  }
};

ServeSweep RunServe(Engine& engine, const std::vector<Record>& queries,
                    const EngineSearchOptions& options, Status* status) {
  ServeSweep sweep;
  WallTimer timer;
  *status = engine.BatchSearch(
      queries, options,
      [&sweep](uint32_t q, const UnifiedSearcher::Match& m) {
        sweep.hits.emplace_back(q, m.id);
        sweep.sims.push_back(m.similarity);
        return true;
      },
      &sweep.stats);
  sweep.wall_seconds = timer.Seconds();
  return sweep;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string name = flags.GetString("name", "shard");
  std::string profile = flags.GetString("profile", "med");
  size_t strings = static_cast<size_t>(flags.GetInt("strings", 400));
  size_t pairs = static_cast<size_t>(flags.GetInt("pairs", 80));
  double theta = flags.GetDouble("theta", 0.7);
  int tau = static_cast<int>(flags.GetInt("tau", 2));
  int threads = static_cast<int>(flags.GetInt("threads", 0));
  size_t shards = static_cast<size_t>(flags.GetInt("shards", 4));
  std::string shard_by_name = flags.GetString("shard_by", "range");
  // Default budget of 32 buffered pairs: small enough that even smoke
  // corpora spill several runs, which is the point of the phase.
  size_t spill_budget =
      static_cast<size_t>(flags.GetInt("spill_budget_bytes", 256));
  std::string spill_dir = flags.GetString("spill_dir", ".");
  size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 100));
  std::string out_path = flags.GetString("out", "BENCH_" + name + ".json");

  ShardBy shard_by;
  if (!ParseShardBy(shard_by_name, &shard_by)) {
    std::fprintf(stderr, "unknown --shard_by=%s (range|hash)\n",
                 shard_by_name.c_str());
    return 2;
  }

  PrintBanner("scatter-gather shard bench", "first-class shards",
              "shard-pair blocks + per-shard searchers match the "
              "monolithic engine byte for byte");
  std::printf("corpus: profile=%s strings=%zu theta=%.2f tau=%d "
              "shards=%zu shard_by=%s threads=%d\n",
              profile.c_str(), strings, theta, tau, shards,
              shard_by_name.c_str(), threads);

  auto world = BuildWorld(profile, strings, /*num_truth_pairs=*/pairs);
  const std::vector<Record>& records = world->corpus.records;
  const Knowledge knowledge = world->knowledge();

  auto make_engine = [&](size_t num_shards, size_t budget) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(knowledge)
                        .SetMeasures("TJS")
                        .SetQ(3)
                        .SetThreads(threads)
                        .SetNumShards(num_shards)
                        .SetShardBy(shard_by)
                        .SetSpillBudgetBytes(budget)
                        .SetSpillDir(spill_dir)
                        .Build();
    engine.SetRecords(records);
    return engine;
  };

  EngineJoinOptions join_options;
  join_options.theta = theta;
  join_options.tau = tau;

  BenchReport report;
  report.name = name;
  report.profile = profile;
  report.num_records = records.size();

  auto base_run = [&](const char* variant) {
    BenchRun run;
    run.algorithm = "unified";
    run.variant = variant;
    run.measures = "TJS";
    run.theta = theta;
    run.tau = tau;
    run.threads = threads;
    run.num_records = records.size();
    run.shard_by = shard_by_name;
    return run;
  };

  // --- phase 1: the join race ------------------------------------------
  Engine mono = make_engine(0, 0);
  WallTimer timer;
  Result<JoinResult> mono_join = mono.Join("unified", join_options);
  double mono_join_seconds = timer.Seconds();
  if (!mono_join.ok()) {
    std::fprintf(stderr, "FAILED monolithic join: %s\n",
                 mono_join.status().ToString().c_str());
    return 2;
  }

  Engine sharded = make_engine(shards, 0);
  timer.Restart();
  Result<JoinResult> shard_join = sharded.Join("unified", join_options);
  double shard_join_seconds = timer.Seconds();
  if (!shard_join.ok()) {
    std::fprintf(stderr, "FAILED sharded join: %s\n",
                 shard_join.status().ToString().c_str());
    return 2;
  }
  if (mono_join->pairs != shard_join->pairs) {
    std::fprintf(stderr,
                 "PARITY FAILURE: sharded join emitted %zu pairs, "
                 "monolithic %zu — result sets differ\n",
                 shard_join->pairs.size(), mono_join->pairs.size());
    return 2;
  }
  double join_speedup = shard_join_seconds > 0.0
                            ? mono_join_seconds / shard_join_seconds
                            : 0.0;
  std::printf("join: monolithic=%.4fs sharded=%.4fs (%zu blocks) -> %.2fx, "
              "%zu pairs\n",
              mono_join_seconds, shard_join_seconds,
              static_cast<size_t>(shard_join->stats.partition_blocks),
              join_speedup, shard_join->pairs.size());

  {
    BenchRun run = base_run("join-monolithic");
    run.ok = true;
    run.stats = mono_join->stats;
    run.total_seconds = mono_join->stats.TotalSeconds(true);
    run.wall_seconds = mono_join_seconds;
    run.peak_rss_bytes = CurrentPeakRssBytes();
    report.runs.push_back(run);
  }
  {
    BenchRun run = base_run("join-sharded");
    run.ok = true;
    run.stats = shard_join->stats;
    run.total_seconds = shard_join->stats.TotalSeconds(true);
    run.wall_seconds = shard_join_seconds;
    run.peak_rss_bytes = CurrentPeakRssBytes();
    run.has_shard = true;
    run.monolithic_seconds = mono_join_seconds;
    run.sharded_seconds = shard_join_seconds;
    run.scatter_gather_speedup = join_speedup;
    report.runs.push_back(run);
  }

  // --- phase 2: the serving race ---------------------------------------
  if (num_queries > records.size()) num_queries = records.size();
  std::vector<Record> queries(records.begin(),
                              records.begin() + num_queries);
  EngineSearchOptions search_options;
  search_options.theta = theta;
  search_options.tau = tau;

  Status serve_status;
  ServeSweep mono_serve = RunServe(mono, queries, search_options,
                                   &serve_status);
  if (!serve_status.ok()) {
    std::fprintf(stderr, "FAILED monolithic serve: %s\n",
                 serve_status.ToString().c_str());
    return 2;
  }
  ServeSweep shard_serve = RunServe(sharded, queries, search_options,
                                    &serve_status);
  if (!serve_status.ok()) {
    std::fprintf(stderr, "FAILED sharded serve: %s\n",
                 serve_status.ToString().c_str());
    return 2;
  }
  if (!mono_serve.SameResults(shard_serve)) {
    std::fprintf(stderr,
                 "PARITY FAILURE: scatter-gather serving returned %zu "
                 "matches, monolithic %zu — ranked results differ\n",
                 shard_serve.hits.size(), mono_serve.hits.size());
    return 2;
  }
  double serve_speedup = shard_serve.wall_seconds > 0.0
                             ? mono_serve.wall_seconds /
                                   shard_serve.wall_seconds
                             : 0.0;
  std::printf("serve: %zu queries monolithic=%.4fs sharded=%.4fs "
              "(%llu shards) -> %.2fx, %zu matches\n",
              queries.size(), mono_serve.wall_seconds,
              shard_serve.wall_seconds,
              static_cast<unsigned long long>(shard_serve.stats.shards),
              serve_speedup, shard_serve.hits.size());
  {
    BenchRun run = base_run("serve-sharded");
    run.ok = true;
    run.queries = shard_serve.stats.queries;
    run.query_candidates = shard_serve.stats.query_candidates;
    run.stats.results = shard_serve.stats.results;
    run.index_seconds = shard_serve.stats.index_seconds;
    run.stats.shards = shard_serve.stats.shards;
    run.total_seconds = shard_serve.wall_seconds;
    run.wall_seconds = shard_serve.wall_seconds;
    run.peak_rss_bytes = CurrentPeakRssBytes();
    run.has_shard = true;
    run.monolithic_seconds = mono_serve.wall_seconds;
    run.sharded_seconds = shard_serve.wall_seconds;
    run.scatter_gather_speedup = serve_speedup;
    run.has_latency = true;
    run.qps = shard_serve.wall_seconds > 0.0
                  ? static_cast<double>(queries.size()) /
                        shard_serve.wall_seconds
                  : 0.0;
    report.runs.push_back(run);
  }

  // --- phase 3: out-of-core (spill) ------------------------------------
  Engine spilling = make_engine(shards, spill_budget);
  timer.Restart();
  Result<JoinResult> spill_join = spilling.Join("unified", join_options);
  double spill_seconds = timer.Seconds();
  if (!spill_join.ok()) {
    std::fprintf(stderr, "FAILED spilling join: %s\n",
                 spill_join.status().ToString().c_str());
    return 2;
  }
  if (mono_join->pairs != spill_join->pairs) {
    std::fprintf(stderr,
                 "PARITY FAILURE: out-of-core join emitted %zu pairs, "
                 "monolithic %zu — result sets differ\n",
                 spill_join->pairs.size(), mono_join->pairs.size());
    return 2;
  }
  if (spill_join->stats.spill_runs == 0) {
    std::fprintf(stderr,
                 "SMOKE FAILURE: --spill_budget_bytes=%zu produced no "
                 "spill runs (working set never exceeded the budget)\n",
                 spill_budget);
    return 2;
  }
  // Spill files are unlinked the moment they are mapped; any survivor
  // in the spill dir is a leak.
  Env* env = Env::Default();
  for (uint64_t seq = 0; seq < spill_join->stats.spill_runs + 4; ++seq) {
    std::string leak = spill_dir + "/aujoin-spill-" + std::to_string(seq) +
                       ".run";
    if (env->FileExists(leak)) {
      std::fprintf(stderr, "LEAK: spill temp file %s outlived the join\n",
                   leak.c_str());
      return 2;
    }
  }
  std::printf("spill: budget=%zuB -> %llu runs, %llu pairs, %llu bytes "
              "(%.4fs), identical results, no temp files left\n",
              spill_budget,
              static_cast<unsigned long long>(spill_join->stats.spill_runs),
              static_cast<unsigned long long>(spill_join->stats.spill_pairs),
              static_cast<unsigned long long>(spill_join->stats.spill_bytes),
              spill_seconds);
  {
    BenchRun run = base_run("join-spill");
    run.ok = true;
    run.stats = spill_join->stats;
    run.total_seconds = spill_join->stats.TotalSeconds(true);
    run.wall_seconds = spill_seconds;
    run.peak_rss_bytes = CurrentPeakRssBytes();
    run.has_shard = true;
    run.monolithic_seconds = mono_join_seconds;
    run.sharded_seconds = spill_seconds;
    run.scatter_gather_speedup =
        spill_seconds > 0.0 ? mono_join_seconds / spill_seconds : 0.0;
    report.runs.push_back(run);
  }

  if (!report.WriteJsonFile(out_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(), report.runs.size());
  return 0;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) { return aujoin::Run(argc, argv); }
