// serve-sharded: closed-loop top-k search from two client threads
// against hash-sharded engines, one per world, taken in turn. Queries
// are held-out planted variants (not corpus members), so each one runs
// the query signature, the CSR probe of every shard, per-shard
// verification and the gather merge.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "bench.h"
#include "counting_env.h"
#include "index/prepared_index.h"
#include "join/search.h"
#include "shard/sharded_index.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kStrings = 1000;
/// Held-out planted variants searched per world.
constexpr size_t kQueries = 250;
/// Worlds per run, each with its own engine: the clients take them in
/// turn, so one seed's draw of strings moves the figures less, and a
/// run covers a thousand distinct queries.
constexpr size_t kWorlds = 4;
/// Consecutive searches that go to one world before the next takes
/// over; kQueries is a multiple, so the first kWorlds * kQueries
/// searches ask every query once.
constexpr size_t kBlock = 50;
constexpr size_t kShards = 4;
constexpr int kEngineThreads = 2;
constexpr int kClients = 2;
constexpr size_t kTopK = 10;
constexpr double kTheta = 0.8;
constexpr int kTau = 1;
constexpr int kSetups = 10;
/// Threads of the monolithic check, which runs after the clock stops.
constexpr int kCheckers = 4;
/// Enough searches for ten samples beyond the p99 with some to spare;
/// the loop runs past --seconds on a machine too slow to reach it.
constexpr size_t kMinSearches = 1100;
constexpr size_t kTracedQueries = 200;

using Matches = std::vector<aujoin::UnifiedSearcher::Match>;

// The indexed base strings and the held-out planted variants.
struct Inputs {
  std::unique_ptr<World> world;
  std::vector<aujoin::Record> base;
  std::vector<aujoin::Record> queries;
  /// The set-up's warm-up query: the first word of the first base
  /// string, cheap for every seed, so set-up time is the shard builds
  /// and not one query's verification.
  aujoin::Record warm;
};

Inputs MakeInputs(uint64_t seed, size_t index) {
  Inputs in;
  in.world = MakeMedWorld(kStrings, kQueries, WorldSeed(seed, index));
  const auto& records = in.world->corpus.records;
  in.base.assign(records.begin(), records.begin() + kStrings);
  in.queries.assign(records.begin() + kStrings, records.end());
  const std::string& text = in.base[0].text;
  in.warm = aujoin::MakeRecord(static_cast<uint32_t>(records.size()),
                               text.substr(0, text.find(' ')),
                               &in.world->vocab);
  return in;
}

aujoin::EngineSearchOptions SearchOptions() {
  aujoin::EngineSearchOptions options;
  options.theta = kTheta;
  options.tau = kTau;
  options.k = kTopK;
  return options;
}

std::unique_ptr<aujoin::Engine> MakeEngine(const Inputs& in,
                                           aujoin::Env* env) {
  auto engine = std::make_unique<aujoin::Engine>(
      aujoin::EngineBuilder()
          .SetKnowledge(in.world->knowledge())
          .SetMsimOptions(BenchMsim())
          .SetThreads(kEngineThreads)
          .SetNumShards(kShards)
          .SetShardBy(aujoin::ShardBy::kHash)
          .SetEnv(env)
          .Build());
  engine->SetRecords(in.base);
  return engine;
}

// Engine built, records bound, and every shard's index built by one
// untimed search.
std::unique_ptr<aujoin::Engine> SetUp(const Inputs& in, aujoin::Env* env,
                                      double* seconds, Result* result) {
  Clock::time_point start = Clock::now();
  std::unique_ptr<aujoin::Engine> engine = MakeEngine(in, env);
  aujoin::Result<Matches> warm = engine->Search(in.warm, SearchOptions());
  *seconds = SecondsSince(start);
  result->Check(warm.ok(), "warm-up search");
  return engine;
}

// Each query's ranked matches equal a monolithic searcher's over the
// same records; also adds the (query, match) pairs' agreement with the
// planted pairs to *prf.
void CheckAgainstMonolithic(const Inputs& in,
                            const std::vector<Matches>& answers,
                            aujoin::PrfScore* prf, Result* result) {
  aujoin::UnifiedSearcher monolithic(aujoin::PreparedIndex::Build(
      in.world->knowledge(), BenchMsim(), in.base, nullptr));
  aujoin::UnifiedSearcher::SearchOptions options;
  options.theta = kTheta;
  options.tau = kTau;
  std::vector<Matches> expected(in.queries.size());
  std::vector<std::thread> checkers;
  for (int c = 0; c < kCheckers; ++c) {
    checkers.emplace_back([&, c] {
      for (size_t q = c; q < in.queries.size(); q += kCheckers) {
        expected[q] = monolithic.TopK(in.queries[q], kTopK, kTheta, options);
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  std::vector<std::pair<uint32_t, uint32_t>> found;
  for (size_t q = 0; q < in.queries.size(); ++q) {
    result->Check(answers[q] == expected[q],
                  "query " + std::to_string(q) +
                      " ranks differently from a monolithic searcher");
    for (const auto& match : answers[q]) {
      found.emplace_back(in.queries[q].id, match.id);
    }
  }
  aujoin::PrfScore score =
      aujoin::ComputePrf(found, in.world->corpus.truth_pairs);
  prf->found += score.found;
  prf->truth += score.truth;
  prf->correct += score.correct;
}

void RunTimed(const Args& args, Result* result) {
  std::vector<Inputs> worlds;
  for (size_t w = 0; w < kWorlds; ++w) {
    worlds.push_back(MakeInputs(args.seed, w));
  }
  CountingEnv env(aujoin::Env::Default());
  // One set-up sample readies an engine for every world. Half the
  // samples are taken before the loop and half after it, so one burst of
  // load on the machine cannot move them all.
  std::vector<double> setups;
  std::vector<std::unique_ptr<aujoin::Engine>> engines(kWorlds);
  auto set_up_all = [&] {
    double total = 0;
    for (size_t w = 0; w < kWorlds; ++w) {
      engines[w].reset();
      double seconds = 0;
      engines[w] = SetUp(worlds[w], &env, &seconds, result);
      total += seconds;
    }
    setups.push_back(total);
  };
  for (int i = 0; i < kSetups / 2; ++i) set_up_all();

  // Closed loop: each client sends its next query when the last one
  // has been answered. Searches go to the worlds in blocks of kBlock,
  // so an engine's caches stay warm as they would for one corpus. The
  // first answer to every query is kept for the checks, which run after
  // the clock stops.
  std::vector<std::vector<Matches>> answers(
      kWorlds, std::vector<Matches>(kQueries));
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<std::vector<double>> completed_at(kClients);  // s from start
  std::vector<uint64_t> failures(kClients, 0);
  std::atomic<size_t> next{0};
  Clock::time_point start = Clock::now();
  auto client = [&](int c) {
    while (SecondsSince(start) < args.seconds || next.load() < kMinSearches) {
      const size_t i = next.fetch_add(1);
      const size_t block = i / kBlock;
      const size_t w = block % kWorlds;
      const size_t q = ((block / kWorlds) * kBlock + i % kBlock) % kQueries;
      Clock::time_point sent = Clock::now();
      aujoin::Result<Matches> matches =
          engines[w]->Search(worlds[w].queries[q], SearchOptions());
      latencies[c].push_back(SecondsSince(sent) * 1e3);
      completed_at[c].push_back(SecondsSince(start));
      if (!matches.ok()) {
        ++failures[c];
      } else if (i < kWorlds * kQueries) {
        answers[w][q] = std::move(*matches);
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  double measured = SecondsSince(start);
  for (int i = kSetups / 2; i < kSetups; ++i) set_up_all();

  std::vector<double> all;
  for (int c = 0; c < kClients; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    result->Count(latencies[c].size(), failures[c], "Engine::Search calls");
  }
  result->Check(all.size() >= kWorlds * kQueries,
                "every query answered at least once");
  aujoin::PrfScore prf;
  for (size_t w = 0; w < kWorlds; ++w) {
    CheckAgainstMonolithic(worlds[w], answers[w], &prf, result);
  }
  const double precision =
      prf.found > 0 ? static_cast<double>(prf.correct) / prf.found : 0.0;
  const double recall =
      prf.truth > 0 ? static_cast<double>(prf.correct) / prf.truth : 0.0;
  const double f1 = precision + recall > 0
                        ? 2 * precision * recall / (precision + recall)
                        : 0.0;
  result->Check(env.counts().bytes_written == 0,
                "storage wrote bytes on serve-sharded");

  double p50 = Median(all);
  double p99 = Quantile(all, 0.99);
  // Throughput is the median of the rates within the loop's whole
  // seconds, so a burst of load on the machine moves it less than it
  // moves the mean. Each second's rate spans its first to its last
  // completion.
  std::vector<double> done;
  for (const std::vector<double>& times : completed_at) {
    done.insert(done.end(), times.begin(), times.end());
  }
  std::sort(done.begin(), done.end());
  std::vector<double> per_second;
  for (size_t i = 0; i < done.size();) {
    double second = std::floor(done[i]);
    size_t j = i;
    while (j < done.size() && std::floor(done[j]) == second) ++j;
    if (second + 1.0 <= measured && j - i >= 2) {
      per_second.push_back(static_cast<double>(j - i - 1) /
                           (done[j - 1] - done[i]));
    }
    i = j;
  }
  double qps = Median(per_second);
  double mean_qps = static_cast<double>(all.size()) / measured;
  result->Metric("setup_s", Median(setups), "s");
  result->Metric("op_p50_ms", p50, "ms");
  // The gated tail is p95: p99 rests on the thirty or so slowest
  // searches and moved twice as much from seed to seed. p99 is reported
  // beside it.
  result->Metric("op_tail_ms", Quantile(all, 0.95), "ms");
  result->Metric("ops_per_s", qps, "1/s");
  result->Metric("quality_f1", f1, "ratio");
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");

  result->Detail("search_p50_ms", p50, "ms");
  result->Detail("search_p90_ms", Quantile(all, 0.90), "ms");
  result->Detail("search_p95_ms", Quantile(all, 0.95), "ms");
  result->Detail("search_p99_ms", p99, "ms");
  result->Detail("search_samples", static_cast<double>(all.size()), "count");
  result->Detail("search_samples_beyond_p99",
                 static_cast<double>(BeyondP99(all.size())), "count");
  result->Detail("search_qps", qps, "1/s");
  result->Detail("search_qps_mean", mean_qps, "1/s");
  result->Detail("search_f1", f1, "ratio");
  result->Detail("setup_samples", static_cast<double>(setups.size()),
                 "count");
  result->Detail("storage_bytes_written",
                 static_cast<double>(env.counts().bytes_written), "bytes");
}

void RunTraced(const Args& args, Result* result) {
  Inputs in = MakeInputs(args.seed, 0);
  CountingEnv env(aujoin::Env::Default());
  Tracer tracer;
  LayerFigures figures;

  // The shards the engine builds, built again one by one: the same
  // plan over the same records.
  aujoin::ShardedIndex sharded(
      in.world->knowledge(), BenchMsim(), in.base,
      aujoin::ShardPlan::Make(in.base.size(), kShards,
                              aujoin::ShardBy::kHash));
  std::vector<aujoin::UnifiedSearcher> searchers;
  for (size_t s = 0; s < kShards; ++s) {
    std::shared_ptr<const aujoin::PreparedIndex> index;
    {
      Tracer::Scope span(&tracer, "shard.ShardIndex", s);
      aujoin::Result<std::shared_ptr<const aujoin::PreparedIndex>> built =
          sharded.ShardIndex(s);
      if (!result->Check(built.ok(), "ShardIndex")) return;
      index = *built;
    }
    {
      Tracer::Scope span(&tracer, "index.ServingIndex", s);
      index->ServingIndex();
    }
    figures.index_prepare_s += index->prepare_seconds();
    figures.index_serving_build_s += index->index_seconds();
    searchers.emplace_back(index);
  }
  figures.shard_build_s = tracer.TotalMicros("shard.ShardIndex") * 1e-6;

  double setup_seconds = 0;
  std::unique_ptr<aujoin::Engine> engine =
      SetUp(in, &env, &setup_seconds, result);
  aujoin::UnifiedSearcher::SearchOptions shard_options;
  shard_options.theta = kTheta;
  shard_options.tau = kTau;

  std::vector<double> untraced, traced, pebbles_us, slowest_over_mean,
      gather_us;
  aujoin::SearchStats stats;
  for (size_t q = 0; q < kTracedQueries; ++q) {
    const aujoin::Record& query = in.queries[q];
    Clock::time_point sent = Clock::now();
    result->Check(engine->Search(query, SearchOptions()).ok(),
                  "Engine::Search failed");
    untraced.push_back(SecondsSince(sent) * 1e6);
    double engine_us = 0;
    {
      Tracer::Scope span(&tracer, "api.Search", q);
      result->Check(engine->Search(query, SearchOptions(), &stats).ok(),
                    "Engine::Search failed");
      engine_us = span.micros();
    }
    traced.push_back(engine_us);
    std::vector<double> shard_us;
    for (size_t s = 0; s < kShards; ++s) {
      {
        Tracer::Scope span(&tracer, "index.GenerateQueryPebbles", q);
        searchers[s].index()->GenerateQueryPebbles(query);
        pebbles_us.push_back(span.micros());
      }
      Tracer::Scope span(&tracer, "shard.SearchShard", q);
      searchers[s].TopK(query, kTopK, kTheta, shard_options);
      shard_us.push_back(span.micros());
    }
    double slowest = *std::max_element(shard_us.begin(), shard_us.end());
    double mean = 0;
    for (double us : shard_us) mean += us / static_cast<double>(kShards);
    slowest_over_mean.push_back(slowest / mean);
    gather_us.push_back(engine_us - slowest);
  }
  figures.index_query_pebbles_us = Median(pebbles_us);
  figures.join_search_candidates_per_query =
      static_cast<double>(stats.query_candidates) /
      static_cast<double>(stats.queries);
  figures.shard_slowest_over_mean = Median(slowest_over_mean);
  figures.shard_gather_us = Median(gather_us);
  figures.trace_overhead_share =
      (Median(traced) - Median(untraced)) / Median(untraced);
  result->Check(env.counts().bytes_written == 0,
                "storage wrote bytes on serve-sharded");
  ReportLayers(args, figures, tracer, result);
}

}  // namespace

void RunServeSharded(const Args& args, Result* result) {
  if (args.trace) {
    RunTraced(args, result);
  } else {
    RunTimed(args, result);
  }
}

}  // namespace perfbench
