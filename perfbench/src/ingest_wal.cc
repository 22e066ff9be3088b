// ingest-wal: one closed-loop client in append mode that makes durable
// Engine::Appends (one fsync each) with a top-k search after every
// fourth, while size-triggered checkpoints fire several times; then a
// restart that recovers from the checkpoint and the log. Storage and the
// generational index do their work here and nowhere else.
//
// A run repeats episodes of equal size (fresh directory, fresh engine,
// 200 appends and 50 searches) on four worlds in turn until its time is
// up, so every figure is a median over equal units of work drawn from
// several corpora.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "api/engine.h"
#include "bench.h"
#include "counting_env.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kBaseStrings = 400;
constexpr size_t kAppends = 200;  // per episode
constexpr size_t kAppendsPerSearch = 4;
/// Planted variants searched beside the appends; each episode takes the
/// next 50, so a run covers most of them.
constexpr size_t kQueries = 600;
/// The recovery check sweeps this many of them through both engines.
constexpr size_t kSweepQueries = 150;
constexpr size_t kTopK = 10;
constexpr double kTheta = 0.8;
constexpr int kTau = 1;
/// Auto-checkpoint once the log passes this many bytes: about every 40
/// appends of med strings, so about five checkpoints per episode and
/// checkpointing appends are over 2% of all appends -- clear of the
/// 1% that would put p99 on the edge between the two kinds.
constexpr size_t kCheckpointBytes = 3 * 1024;
/// A round is one episode on each of this many worlds; a run is whole
/// rounds, so one seed's draw of strings moves the figures less and
/// every world weighs the same.
constexpr size_t kWorlds = 4;
/// Two rounds make 1600 appends, ten or more beyond their p99.
constexpr size_t kMinRounds = 2;
constexpr int kSetups = 10;

using Matches = std::vector<aujoin::UnifiedSearcher::Match>;

struct Inputs {
  std::unique_ptr<World> world;
  std::vector<aujoin::Record> base;
  std::vector<std::string> appends;
  std::vector<aujoin::Record> queries;
  std::string dir;
};

Inputs MakeInputs(const Args& args, size_t index) {
  Inputs in;
  in.world = MakeMedWorld(kBaseStrings + kAppends, kQueries,
                          WorldSeed(args.seed, index));
  const auto& records = in.world->corpus.records;
  in.base.assign(records.begin(), records.begin() + kBaseStrings);
  for (size_t i = kBaseStrings; i < kBaseStrings + kAppends; ++i) {
    in.appends.push_back(records[i].text);
  }
  in.queries.assign(records.begin() + kBaseStrings + kAppends, records.end());
  in.dir = args.out_dir + "/ingest-wal-" + std::to_string(getpid());
  return in;
}

aujoin::EngineSearchOptions SearchOptions() {
  aujoin::EngineSearchOptions options;
  options.theta = kTheta;
  options.tau = kTau;
  return options;
}

// An append-mode engine over the base, recovering from whatever the
// directory holds; `seconds` (when given) gets the EnableAppend time.
std::unique_ptr<aujoin::Engine> OpenEngine(const Inputs& in,
                                           aujoin::Env* env, double* seconds,
                                           Result* result) {
  auto engine = std::make_unique<aujoin::Engine>(
      aujoin::EngineBuilder()
          .SetKnowledge(in.world->knowledge())
          .SetMsimOptions(BenchMsim())
          .SetThreads(1)
          .SetWalCheckpointBytes(kCheckpointBytes)
          .SetEnv(env)
          .Build());
  engine->SetRecords(in.base);
  aujoin::Vocabulary* vocab = &in.world->vocab;
  Clock::time_point start = Clock::now();
  aujoin::Status status = engine->EnableAppend(
      in.dir + "/appends.wal",
      [vocab](const std::string& text) {
        return aujoin::MakeRecord(0, text, vocab);
      },
      in.dir + "/checkpoint.aujsnap");
  if (seconds != nullptr) *seconds = SecondsSince(start);
  if (!result->Check(status.ok(), "EnableAppend: " + status.ToString())) {
    return nullptr;
  }
  return engine;
}

std::vector<Matches> Sweep(const aujoin::Engine& engine, const Inputs& in,
                           Result* result) {
  std::vector<Matches> answers;
  for (size_t q = 0; q < kSweepQueries; ++q) {
    const aujoin::Record& query = in.queries[q];
    aujoin::Result<Matches> matches =
        engine.TopK(query, kTopK, SearchOptions());
    result->Check(matches.ok(), "Engine::TopK failed");
    answers.push_back(matches.ok() ? std::move(*matches) : Matches{});
  }
  return answers;
}

struct Episode {
  double recover_s = 0;
  double loop_s = 0;
  std::vector<double> append_ms;
  std::vector<double> search_ms;
  /// Latencies of the appends that triggered a checkpoint.
  std::vector<double> checkpoint_append_ms;
  uint64_t text_bytes = 0;
  uint64_t replayed = 0;
  double index_prepare_s = 0;
  double index_serving_build_s = 0;
  CountingEnv::Counts loop_counts;
  /// F-measure of the live engine's sweep answers against the planted
  /// pairs (0 when the episode made no sweep).
  double sweep_f1 = 0;
};

// One episode: fresh directory and engine, the append/search loop, a
// restart from the checkpoint + log, and the recovery checks (the query
// sweep only when `sweep`). The `number`-th episode on a world searches
// for the queries after the previous one's, so a run spreads over them.
// With a tracer, every call into the engine runs inside a span.
bool RunEpisode(const Inputs& in, CountingEnv* env, Tracer* tracer,
                size_t number, bool sweep, Episode* ep, Result* result) {
  std::error_code error;
  std::filesystem::remove_all(in.dir, error);
  std::filesystem::create_directories(in.dir, error);
  if (!result->Check(!error, "create " + in.dir)) return false;

  std::unique_ptr<aujoin::Engine> engine;
  {
    std::optional<Tracer::Scope> span;
    if (tracer) span.emplace(tracer, "api.Open", 0);
    engine = OpenEngine(in, env, nullptr, result);
  }
  if (engine == nullptr) return false;
  aujoin::Result<std::shared_ptr<const aujoin::PreparedIndex>> base =
      engine->ServingIndex();
  if (base.ok()) {
    ep->index_prepare_s = (*base)->prepare_seconds();
    ep->index_serving_build_s = (*base)->index_seconds();
  }

  env->Reset();
  uint64_t checkpoints = 0;
  size_t appended_at_checkpoint = 0;
  Clock::time_point loop_start = Clock::now();
  for (size_t i = 0; i < in.appends.size(); ++i) {
    const uint64_t request = i + 1;
    {
      Clock::time_point sent = Clock::now();
      std::optional<Tracer::Scope> span;
      if (tracer) span.emplace(tracer, "api.Append", request);
      aujoin::Result<uint32_t> id = engine->Append(in.appends[i]);
      double ms = SecondsSince(sent) * 1e3;
      ep->append_ms.push_back(ms);
      result->Check(id.ok() && *id == kBaseStrings + i,
                    "Engine::Append " + std::to_string(i));
      result->Check(engine->auto_checkpoint_status().ok(),
                    "auto-checkpoint: " +
                        engine->auto_checkpoint_status().ToString());
      if (engine->auto_checkpoints() != checkpoints) {
        checkpoints = engine->auto_checkpoints();
        appended_at_checkpoint = i + 1;
        ep->checkpoint_append_ms.push_back(ms);
      }
    }
    ep->text_bytes += in.appends[i].size();
    if ((i + 1) % kAppendsPerSearch != 0) continue;
    const size_t searches_per_episode = kAppends / kAppendsPerSearch;
    const aujoin::Record& query =
        in.queries[(number * searches_per_episode + i / kAppendsPerSearch) %
                   in.queries.size()];
    Clock::time_point sent = Clock::now();
    std::optional<Tracer::Scope> span;
    if (tracer) span.emplace(tracer, "api.TopK", request);
    aujoin::Result<Matches> matches =
        engine->TopK(query, kTopK, SearchOptions());
    ep->search_ms.push_back(SecondsSince(sent) * 1e3);
    result->Check(matches.ok(), "Engine::TopK failed");
  }
  ep->loop_s = SecondsSince(loop_start);
  ep->loop_counts = env->counts();
  result->Check(checkpoints >= 2, "fewer than two auto-checkpoints fired");

  // Restart: the live engine's answers, then a cold start from disk.
  std::vector<Matches> live;
  if (sweep) {
    live = Sweep(*engine, in, result);
    std::vector<std::pair<uint32_t, uint32_t>> found;
    for (size_t q = 0; q < kSweepQueries; ++q) {
      for (const auto& match : live[q]) {
        found.emplace_back(in.queries[q].id, match.id);
      }
    }
    // Scored against the planted pairs of the swept queries only.
    std::set<uint32_t> swept;
    for (size_t q = 0; q < kSweepQueries; ++q) swept.insert(in.queries[q].id);
    std::vector<std::pair<uint32_t, uint32_t>> truth;
    for (const auto& pair : in.world->corpus.truth_pairs) {
      if (swept.count(pair.first) > 0 || swept.count(pair.second) > 0) {
        truth.push_back(pair);
      }
    }
    ep->sweep_f1 = aujoin::ComputePrf(found, truth).f_measure;
  }
  engine.reset();
  std::unique_ptr<aujoin::Engine> recovered;
  {
    std::optional<Tracer::Scope> span;
    if (tracer) span.emplace(tracer, "api.Recover", 0);
    recovered = OpenEngine(in, env, &ep->recover_s, result);
  }
  if (recovered == nullptr) return false;
  ep->replayed = recovered->wal_recovered_records();
  result->Check(ep->replayed == in.appends.size() - appended_at_checkpoint,
                "replayed " + std::to_string(ep->replayed) +
                    " records, expected the " +
                    std::to_string(in.appends.size() -
                                   appended_at_checkpoint) +
                    " appended after the last checkpoint");
  if (sweep) {
    result->Check(Sweep(*recovered, in, result) == live,
                  "recovered engine answers differently from the live one");
  }
  return true;
}

// For every world: engine built, records bound and append mode enabled
// on an empty directory (which builds the base serving index).
double TimedSetUp(const std::vector<Inputs>& worlds, CountingEnv* env,
                  Result* result) {
  double seconds = 0;
  for (const Inputs& in : worlds) {
    std::error_code error;
    std::filesystem::remove_all(in.dir, error);
    std::filesystem::create_directories(in.dir, error);
    result->Check(!error, "create " + in.dir);
    Clock::time_point start = Clock::now();
    std::unique_ptr<aujoin::Engine> engine =
        OpenEngine(in, env, nullptr, result);
    seconds += SecondsSince(start);
  }
  return seconds;
}

void RunTimed(const Args& args, Result* result) {
  std::vector<Inputs> worlds;
  for (size_t w = 0; w < kWorlds; ++w) worlds.push_back(MakeInputs(args, w));
  CountingEnv env(aujoin::Env::Default());
  // Half the set-up samples before the episodes and half after them,
  // so one burst of load on the machine cannot move them all.
  std::vector<double> setups;
  for (int i = 0; i < kSetups / 2; ++i) {
    setups.push_back(TimedSetUp(worlds, &env, result));
  }

  // Another round starts only while it is expected to end within
  // --seconds.
  std::vector<Episode> episodes;
  bool ok = true;
  Clock::time_point start = Clock::now();
  for (size_t round = 0; ok; ++round) {
    double elapsed = SecondsSince(start);
    if (round >= kMinRounds &&
        elapsed + elapsed / static_cast<double>(round) > args.seconds) {
      break;
    }
    for (size_t w = 0; ok && w < kWorlds; ++w) {
      episodes.emplace_back();
      ok = RunEpisode(worlds[w], &env, nullptr, round, /*sweep=*/false,
                      &episodes.back(), result);
    }
  }
  // The recovery sweep, and the F-measure, come from one more episode
  // after the clock stops.
  Episode checked;
  ok = ok && RunEpisode(worlds[0], &env, nullptr, 0, /*sweep=*/true,
                        &checked, result);
  for (int i = kSetups / 2; i < kSetups; ++i) {
    setups.push_back(TimedSetUp(worlds, &env, result));
  }
  std::error_code error;
  std::filesystem::remove_all(worlds[0].dir, error);
  if (!ok) return;

  // Throughput is the median over episodes, so a burst of load on the
  // machine moves it less than it moves the mean.
  std::vector<double> recovers, write_amps, appends, searches, ops_per_s;
  double checkpoints = 0;
  for (const Episode& ep : episodes) {
    recovers.push_back(ep.recover_s);
    write_amps.push_back(static_cast<double>(ep.loop_counts.bytes_written) /
                         static_cast<double>(ep.text_bytes));
    appends.insert(appends.end(), ep.append_ms.begin(), ep.append_ms.end());
    searches.insert(searches.end(), ep.search_ms.begin(), ep.search_ms.end());
    ops_per_s.push_back(
        static_cast<double>(ep.append_ms.size() + ep.search_ms.size()) /
        ep.loop_s);
    checkpoints += static_cast<double>(ep.checkpoint_append_ms.size());
  }
  double f1 = checked.sweep_f1;
  result->Metric("setup_s", Median(setups), "s");
  // The append p50 is mostly one fsync, which drifted twofold between
  // runs on a shared 4-core VM; the search beside the appends is the
  // median this workload reports.
  result->Metric("op_p50_ms", Median(searches), "ms");
  result->Metric("op_tail_ms", Quantile(appends, 0.99), "ms");
  result->Metric("ops_per_s", Median(ops_per_s), "1/s");
  result->Metric("quality_f1", f1, "ratio");
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");

  result->Detail("append_p50_ms", Median(appends), "ms");
  result->Detail("append_p99_ms", Quantile(appends, 0.99), "ms");
  result->Detail("append_samples", static_cast<double>(appends.size()),
                 "count");
  result->Detail("append_samples_beyond_p99",
                 static_cast<double>(BeyondP99(appends.size())), "count");
  result->Detail("search_p50_ms", Median(searches), "ms");
  // Searches are a quarter of the appends: p90 is the highest
  // percentile their count supports in every run.
  result->Detail("search_p90_ms", Quantile(searches, 0.90), "ms");
  result->Detail("search_samples", static_cast<double>(searches.size()),
                 "count");
  result->Detail("recover_s", Median(recovers), "s");
  result->Detail("write_amp", Median(write_amps), "ratio");
  result->Detail("search_f1", f1, "ratio");
  result->Detail("episodes", static_cast<double>(episodes.size()), "count");
  result->Detail("checkpoints_per_episode",
                 checkpoints / static_cast<double>(episodes.size()), "count");
  result->Detail("replayed_records",
                 static_cast<double>(episodes.front().replayed), "count");
}

void RunTraced(const Args& args, Result* result) {
  Inputs in = MakeInputs(args, 0);
  CountingEnv env(aujoin::Env::Default());
  Tracer tracer;
  Episode untraced, traced;
  bool ok = RunEpisode(in, &env, nullptr, 0, /*sweep=*/false, &untraced,
                       result);
  env.set_tracer(&tracer);
  ok = ok &&
       RunEpisode(in, &env, &tracer, 0, /*sweep=*/true, &traced, result);
  env.set_tracer(nullptr);
  std::error_code error;
  std::filesystem::remove_all(in.dir, error);
  if (!ok) return;

  LayerFigures figures;
  figures.index_prepare_s = traced.index_prepare_s;
  figures.index_serving_build_s = traced.index_serving_build_s;
  const CountingEnv::Counts& counts = traced.loop_counts;
  figures.storage_bytes_written = static_cast<double>(counts.bytes_written);
  figures.storage_syncs = static_cast<double>(counts.syncs);
  figures.storage_sync_us_p50 = Quantile(counts.sync_us, 0.5);
  figures.storage_sync_us_p99 = Quantile(counts.sync_us, 0.99);
  figures.storage_dir_syncs = static_cast<double>(counts.dir_syncs);
  figures.storage_renames = static_cast<double>(counts.renames);
  figures.storage_checkpoints =
      static_cast<double>(traced.checkpoint_append_ms.size());
  // A checkpoint runs inside the append that triggers it: charge it
  // what that append took beyond a median append.
  double median_append_ms = Median(traced.append_ms);
  for (double ms : traced.checkpoint_append_ms) {
    figures.storage_checkpoint_s += (ms - median_append_ms) * 1e-3;
  }
  figures.storage_replayed_records = static_cast<double>(traced.replayed);
  figures.trace_overhead_share =
      (median_append_ms - Median(untraced.append_ms)) /
      Median(untraced.append_ms);
  ReportLayers(args, figures, tracer, result);
}

}  // namespace

void RunIngestWal(const Args& args, Result* result) {
  if (args.trace) {
    RunTraced(args, result);
  } else {
    RunTimed(args, result);
  }
}

}  // namespace perfbench
