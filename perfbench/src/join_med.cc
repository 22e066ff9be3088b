// join-med: the serial, monolithic unified self-join on the med
// profile. Verification is nearly all of its wall time; storage and
// shards do no work here, so it is the no-change control for them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "bench.h"
#include "core/pair_graph.h"
#include "core/segment.h"
#include "core/squareimp.h"
#include "core/usim.h"
#include "counting_env.h"
#include "join/join.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kStrings = 400;
constexpr size_t kPlantedPairs = 80;
constexpr double kTheta = 0.7;
constexpr int kTau = 2;
constexpr size_t kWorlds = 12;
constexpr int kSetups = 10;
constexpr size_t kMinJoins = kWorlds + 1;
/// The traced run verifies the candidates in this many slices.
constexpr size_t kSlices = 8;
/// The traced replay of verification (graph + SquareImp + GetSim +
/// improvement, i.e. Approx) must account for join.verify_s within this
/// share of it.
constexpr double kAccountingTolerance = 0.25;

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

std::unique_ptr<aujoin::Engine> MakeEngine(const World& world,
                                           aujoin::Env* env) {
  return std::make_unique<aujoin::Engine>(aujoin::EngineBuilder()
                                              .SetKnowledge(world.knowledge())
                                              .SetMsimOptions(BenchMsim())
                                              .SetThreads(1)
                                              .SetEnv(env)
                                              .Build());
}

aujoin::EngineJoinOptions JoinOptions() {
  aujoin::EngineJoinOptions options;
  options.theta = kTheta;
  options.tau = kTau;
  return options;
}

// Engine built, records bound and the prepared context forced.
std::unique_ptr<aujoin::Engine> SetUp(const World& world, aujoin::Env* env,
                                      double* seconds) {
  Clock::time_point start = Clock::now();
  std::unique_ptr<aujoin::Engine> engine = MakeEngine(world, env);
  engine->SetRecords(world.corpus.records);
  engine->PreparedContext();
  *seconds = SecondsSince(start);
  return engine;
}

// One Engine::Join; false (and a failed operation) when the call fails.
bool TimedJoin(aujoin::Engine* engine, Pairs* pairs, double* seconds,
               Result* result) {
  aujoin::CollectingSink sink;
  Clock::time_point start = Clock::now();
  aujoin::Result<aujoin::JoinStats> stats =
      engine->Join("unified", JoinOptions(), &sink);
  *seconds = SecondsSince(start);
  if (!result->Check(stats.ok(), "Engine::Join: " + (stats.ok()
                                                         ? std::string()
                                                         : stats.status()
                                                               .ToString()))) {
    return false;
  }
  *pairs = std::move(sink.pairs);
  return true;
}

// Every emitted pair re-scores >= theta with a fresh computer.
void CheckPairs(const World& world, const aujoin::MsimOptions& msim,
                const Pairs& pairs, Result* result) {
  aujoin::UsimOptions usim;
  usim.msim = msim;
  aujoin::UsimComputer fresh(world.knowledge(), usim);
  const auto& records = world.corpus.records;
  for (const auto& [a, b] : pairs) {
    double sim = fresh.Approx(records[a], records[b]);
    result->Check(sim >= kTheta, "pair (" + std::to_string(a) + ", " +
                                     std::to_string(b) + ") re-scores " +
                                     std::to_string(sim));
  }
}

void RunTimed(const Args& args, Result* result) {
  // Many corpora per run, each joined in turn, so one seed's draw of
  // strings moves the figures little.
  std::vector<std::unique_ptr<World>> worlds;
  for (size_t w = 0; w < kWorlds; ++w) {
    worlds.push_back(
        MakeMedWorld(kStrings, kPlantedPairs, WorldSeed(args.seed, w)));
  }
  CountingEnv env(aujoin::Env::Default());
  // One set-up sample readies an engine for every corpus. Half the
  // samples are taken before the joins and half after, so one burst of
  // load on the machine cannot move them all.
  std::vector<double> setups;
  std::vector<std::unique_ptr<aujoin::Engine>> engines(kWorlds);
  auto set_up_all = [&] {
    double total = 0;
    for (size_t w = 0; w < kWorlds; ++w) {
      engines[w].reset();
      double seconds = 0;
      engines[w] = SetUp(*worlds[w], &env, &seconds);
      total += seconds;
    }
    setups.push_back(total);
  };
  for (int i = 0; i < kSetups / 2; ++i) set_up_all();

  // The corpora are joined in turn for --seconds, and at least once
  // each plus one repeat, so every run checks a repeated join.
  std::vector<double> joins;
  std::vector<Pairs> first(kWorlds);
  Clock::time_point start = Clock::now();
  for (size_t n = 0; n < kMinJoins || SecondsSince(start) < args.seconds;
       ++n) {
    const size_t w = n % kWorlds;
    Pairs pairs;
    double seconds = 0;
    if (!TimedJoin(engines[w].get(), &pairs, &seconds, result)) return;
    joins.push_back(seconds);
    if (n < kWorlds) {
      first[w] = std::move(pairs);
    } else {
      result->Check(pairs == first[w], "pair set differs across repeats");
    }
  }
  const double loop_s = SecondsSince(start);
  for (int i = kSetups / 2; i < kSetups; ++i) set_up_all();

  // F-measure pooled over the corpora.
  double found = 0, truth = 0, correct = 0;
  for (size_t w = 0; w < kWorlds; ++w) {
    CheckPairs(*worlds[w], engines[w]->options().msim, first[w], result);
    aujoin::PrfScore prf =
        aujoin::ComputePrf(first[w], worlds[w]->corpus.truth_pairs);
    found += static_cast<double>(prf.found);
    truth += static_cast<double>(prf.truth);
    correct += static_cast<double>(prf.correct);
  }
  result->Check(env.counts().bytes_written == 0,
                "storage wrote bytes on join-med");
  double precision = found > 0 ? correct / found : 0.0;
  double recall = truth > 0 ? correct / truth : 0.0;
  double f1 = precision + recall > 0
                  ? 2 * precision * recall / (precision + recall)
                  : 0.0;

  // About 13 joins leave no percentile with ten samples beyond it; the
  // tail is their nearest-rank p90, the second-slowest join.
  double join_p50 = Median(joins);
  double join_p90 = Quantile(joins, 0.9);
  result->Metric("setup_s", Median(setups), "s");
  result->Metric("op_p50_ms", join_p50 * 1e3, "ms");
  result->Metric("op_tail_ms", join_p90 * 1e3, "ms");
  result->Metric("ops_per_s", static_cast<double>(joins.size()) / loop_s,
                 "1/s");
  result->Metric("quality_f1", f1, "ratio");
  result->Metric("peak_rss_mb", PeakRssMb(), "MB");

  result->Detail("join_s", join_p50, "s");
  result->Detail("join_p90_s", join_p90, "s");
  result->Detail("join_samples", static_cast<double>(joins.size()), "count");
  result->Detail("join_f1", f1, "ratio");
  result->Detail("join_precision", precision, "ratio");
  result->Detail("join_recall", recall, "ratio");
  result->Detail("join_results", found, "count");
  result->Detail("corpora", static_cast<double>(kWorlds), "count");
  result->Detail("setup_samples", static_cast<double>(setups.size()),
                 "count");
  result->Detail("storage_bytes_written",
                 static_cast<double>(env.counts().bytes_written), "bytes");
}

void RunTraced(const Args& args, Result* result) {
  std::unique_ptr<World> world_ptr =
      MakeMedWorld(kStrings, kPlantedPairs, WorldSeed(args.seed, 0));
  const World& world = *world_ptr;
  CountingEnv env(aujoin::Env::Default());
  Tracer tracer;
  LayerFigures figures;
  std::unique_ptr<aujoin::Engine> engine = MakeEngine(world, &env);
  engine->SetRecords(world.corpus.records);
  {
    Tracer::Scope span(&tracer, "index.Prepare", 0);
    engine->PreparedContext();
  }
  const aujoin::JoinContext& context = engine->PreparedContext();
  figures.index_prepare_s = context.prepare_seconds();

  // The same Engine::Join untraced, then inside a span.
  Pairs untraced_pairs, traced_pairs;
  double untraced = 0, traced = 0;
  if (!TimedJoin(engine.get(), &untraced_pairs, &untraced, result)) return;
  {
    Tracer::Scope span(&tracer, "api.Join", 1);
    if (!TimedJoin(engine.get(), &traced_pairs, &traced, result)) return;
  }
  figures.trace_overhead_share = (traced - untraced) / untraced;

  // The join's stages, called one by one.
  aujoin::SignatureOptions signature;
  signature.theta = kTheta;
  signature.tau = kTau;
  aujoin::JoinContext::FilterOutput filtered;
  {
    Tracer::Scope span(&tracer, "join.RunFilter", 2);
    filtered = context.RunFilter(signature, nullptr, nullptr, 1);
  }
  aujoin::JoinOptions join_options;
  join_options.theta = kTheta;
  join_options.tau = kTau;
  join_options.num_threads = 1;
  join_options.cache_evict_threshold = engine->options().cache_evict_threshold;
  const auto& records = world.corpus.records;
  {
    Tracer::Scope span(&tracer, "core.EnumerateSegments", 3);
    for (const aujoin::Record& record : records) {
      aujoin::EnumerateSegments(record, context.knowledge());
    }
    figures.core_segments_s = span.micros() * 1e-6;
  }

  // Verification, slice by slice, each slice also replayed through
  // Approx as a whole and through its parts (graph, SquareImp, first
  // GetSim; the rest of Approx is claw improvement). Short slices in
  // alternating order keep the machine's drift out of the comparison.
  aujoin::UsimOptions usim;
  usim.msim = context.msim_options();
  const auto& candidates = filtered.candidates;
  const size_t slice = (candidates.size() + kSlices - 1) / kSlices;
  aujoin::JoinResult verified;
  double vertices = 0;
  size_t rejected = 0;
  std::vector<double> approx_us;
  for (size_t begin = 0, round = 0; begin < candidates.size();
       begin += slice, ++round) {
    const size_t end = std::min(candidates.size(), begin + slice);
    auto verify = [&] {
      Tracer::Scope span(&tracer, "join.VerifyCandidates", 2);
      aujoin::VerifyCandidates(
          context, join_options,
          Pairs(candidates.begin() + begin, candidates.begin() + end),
          &verified);
    };
    // Each pass gets its own computer and the verifier's eviction rule.
    auto pass = [&](auto&& per_candidate) {
      aujoin::UsimComputer computer(context.knowledge(), usim);
      for (size_t c = begin; c < end; ++c) {
        if (computer.evaluator()->CacheSize() >
            join_options.cache_evict_threshold) {
          computer.evaluator()->ClearCache();
        }
        per_candidate(&computer, c, records[candidates[c].first],
                      records[candidates[c].second]);
      }
    };
    auto whole = [&] {
      pass([&](aujoin::UsimComputer* computer, size_t c,
               const aujoin::Record& s, const aujoin::Record& t) {
        Tracer::Scope span(&tracer, "core.Approx", c);
        rejected += computer->Approx(s, t, kTheta) < kTheta ? 1 : 0;
        approx_us.push_back(span.micros());
      });
    };
    auto parts = [&] {
      pass([&](aujoin::UsimComputer* computer, size_t c,
               const aujoin::Record& s, const aujoin::Record& t) {
        aujoin::PairGraph graph;
        std::vector<uint32_t> independent;
        {
          Tracer::Scope span(&tracer, "core.BuildPairGraph", c);
          graph = aujoin::BuildPairGraph(s, t, computer->evaluator(),
                                         usim.graph);
        }
        {
          Tracer::Scope span(&tracer, "core.SquareImp", c);
          independent = aujoin::SquareImp(graph, usim.squareimp);
        }
        {
          Tracer::Scope span(&tracer, "core.GetSim", c);
          computer->GetSim(s, t, graph, independent);
        }
        vertices += static_cast<double>(graph.num_vertices());
      });
    };
    if (round % 2 == 0) {
      verify();
      whole();
      parts();
    } else {
      parts();
      whole();
      verify();
    }
  }
  result->Check(verified.pairs == untraced_pairs &&
                    traced_pairs == untraced_pairs,
                "staged join differs from Engine::Join");
  figures.join_signature_s = filtered.signature_seconds;
  figures.join_filter_s = filtered.filter_seconds;
  figures.join_verify_s = verified.stats.verify_seconds;
  figures.join_processed_pairs =
      static_cast<double>(filtered.processed_pairs);
  figures.join_candidates = static_cast<double>(candidates.size());
  figures.join_candidate_yield =
      static_cast<double>(verified.pairs.size()) /
      static_cast<double>(candidates.size());

  double n = static_cast<double>(candidates.size());
  figures.core_pair_graph_s = tracer.TotalMicros("core.BuildPairGraph") * 1e-6;
  figures.core_squareimp_s = tracer.TotalMicros("core.SquareImp") * 1e-6;
  figures.core_getsim_s = tracer.TotalMicros("core.GetSim") * 1e-6;
  double approx_s = tracer.TotalMicros("core.Approx") * 1e-6;
  figures.core_improve_s = approx_s - figures.core_pair_graph_s -
                           figures.core_squareimp_s - figures.core_getsim_s;
  figures.core_pair_graph_vertices_mean = vertices / n;
  figures.core_approx_us_p50 = Quantile(approx_us, 0.5);
  figures.core_approx_us_p99 = Quantile(approx_us, 0.99);
  figures.core_reject_share = static_cast<double>(rejected) / n;
  figures.core_verify_unaccounted_share =
      std::abs(approx_s - figures.join_verify_s) / figures.join_verify_s;
  result->Check(
      figures.core_verify_unaccounted_share <= kAccountingTolerance,
      "graph + SquareImp + GetSim + improvement (" + std::to_string(approx_s) +
          " s) does not account for join.verify_s (" +
          std::to_string(figures.join_verify_s) + " s)");
  result->Check(env.counts().bytes_written == 0,
                "storage wrote bytes on join-med");
  result->Detail("core.accounting_tolerance", kAccountingTolerance, "ratio");
  ReportLayers(args, figures, tracer, result);
}

}  // namespace

void RunJoinMed(const Args& args, Result* result) {
  if (args.trace) {
    RunTraced(args, result);
  } else {
    RunTimed(args, result);
  }
}

}  // namespace perfbench
