#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "util/json.h"
#include "util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace aujoin {

uint64_t CurrentPeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::string BenchReport::ToJson() const {
  std::string out;
  out.reserve(1024 + runs.size() * 512);
  out += "{\n  \"schema_version\": 1,\n  \"name\": ";
  AppendJsonString(name, &out);
  out += ",\n  \"profile\": ";
  AppendJsonString(profile, &out);
  out += ",\n  \"num_records\": ";
  AppendJsonUint(num_records, &out);
  out += ",\n  \"num_truth_pairs\": ";
  AppendJsonUint(num_truth_pairs, &out);
  if (!dataset_manifest_json.empty()) {
    out += ",\n  \"dataset\": ";
    out += dataset_manifest_json;
  }
  out += ",\n  \"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    const BenchRun& run = runs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"algorithm\": ";
    AppendJsonString(run.algorithm, &out);
    out += ", \"variant\": ";
    AppendJsonString(run.variant, &out);
    out += ", \"measures\": ";
    AppendJsonString(run.measures, &out);
    out += ",\n     \"theta\": ";
    AppendJsonDouble(run.theta, &out);
    out += ", \"tau\": ";
    AppendJsonDouble(run.tau, &out);
    out += ", \"threads\": ";
    AppendJsonDouble(run.threads, &out);
    out += ", \"max_partition_records\": ";
    AppendJsonUint(run.max_partition_records, &out);
    out += ", \"num_records\": ";
    AppendJsonUint(run.num_records, &out);
    out += ",\n     \"ok\": ";
    out += run.ok ? "true" : "false";
    out += ", \"error\": ";
    AppendJsonString(run.error, &out);
    out += ",\n     \"prepare_seconds\": ";
    AppendJsonDouble(run.stats.prepare_seconds, &out);
    out += ", \"signature_seconds\": ";
    AppendJsonDouble(run.stats.signature_seconds, &out);
    out += ", \"filter_seconds\": ";
    AppendJsonDouble(run.stats.filter_seconds, &out);
    out += ", \"verify_seconds\": ";
    AppendJsonDouble(run.stats.verify_seconds, &out);
    out += ", \"suggest_seconds\": ";
    AppendJsonDouble(run.stats.suggest_seconds, &out);
    out += ", \"total_seconds\": ";
    AppendJsonDouble(run.total_seconds, &out);
    out += ", \"wall_seconds\": ";
    AppendJsonDouble(run.wall_seconds, &out);
    out += ",\n     \"processed_pairs\": ";
    AppendJsonUint(run.stats.processed_pairs, &out);
    out += ", \"candidates\": ";
    AppendJsonUint(run.stats.candidates, &out);
    out += ", \"results\": ";
    AppendJsonUint(run.stats.results, &out);
    out += ", \"partitions\": ";
    AppendJsonUint(run.stats.partitions, &out);
    out += ", \"partition_blocks\": ";
    AppendJsonUint(run.stats.partition_blocks, &out);
    out += ",\n     \"shards\": ";
    AppendJsonUint(run.stats.shards, &out);
    out += ", \"spill_runs\": ";
    AppendJsonUint(run.stats.spill_runs, &out);
    out += ", \"spill_pairs\": ";
    AppendJsonUint(run.stats.spill_pairs, &out);
    out += ", \"spill_bytes\": ";
    AppendJsonUint(run.stats.spill_bytes, &out);
    out += ",\n     \"index_seconds\": ";
    AppendJsonDouble(run.index_seconds, &out);
    out += ", \"queries\": ";
    AppendJsonUint(run.queries, &out);
    out += ", \"query_candidates\": ";
    AppendJsonUint(run.query_candidates, &out);
    out += ", \"peak_rss_bytes\": ";
    AppendJsonUint(run.peak_rss_bytes, &out);
    if (run.has_latency) {
      out += ",\n     \"qps\": ";
      AppendJsonDouble(run.qps, &out);
      out += ", \"p50_ms\": ";
      AppendJsonDouble(run.p50_ms, &out);
      out += ", \"p95_ms\": ";
      AppendJsonDouble(run.p95_ms, &out);
      out += ", \"p99_ms\": ";
      AppendJsonDouble(run.p99_ms, &out);
    }
    if (run.has_index_micro) {
      out += ",\n     \"index_build_seconds\": ";
      AppendJsonDouble(run.index_build_seconds, &out);
      out += ", \"probe_records_per_sec\": ";
      AppendJsonDouble(run.probe_records_per_sec, &out);
      out += ", \"probe_postings_per_sec\": ";
      AppendJsonDouble(run.probe_postings_per_sec, &out);
      if (!run.kernel.empty()) {
        out += ", \"kernel\": ";
        AppendJsonString(run.kernel, &out);
      }
    }
    if (!run.index_source.empty()) {
      out += ",\n     \"index_source\": ";
      AppendJsonString(run.index_source, &out);
      out += ", \"snapshot_load_ms\": ";
      AppendJsonDouble(run.snapshot_load_ms, &out);
    }
    if (run.has_snapshot) {
      out += ",\n     \"rebuild_seconds\": ";
      AppendJsonDouble(run.rebuild_seconds, &out);
      out += ", \"snapshot_write_seconds\": ";
      AppendJsonDouble(run.snapshot_write_seconds, &out);
      out += ", \"snapshot_load_seconds\": ";
      AppendJsonDouble(run.snapshot_load_seconds, &out);
      out += ", \"cold_start_speedup\": ";
      AppendJsonDouble(run.cold_start_speedup, &out);
      out += ",\n     \"snapshot_bytes\": ";
      AppendJsonUint(run.snapshot_bytes, &out);
      out += ", \"append_records_per_sec\": ";
      AppendJsonDouble(run.append_records_per_sec, &out);
      out += ", \"refreeze_seconds\": ";
      AppendJsonDouble(run.refreeze_seconds, &out);
    }
    if (run.has_shard) {
      out += ",\n     \"shard_by\": ";
      AppendJsonString(run.shard_by, &out);
      out += ", \"monolithic_seconds\": ";
      AppendJsonDouble(run.monolithic_seconds, &out);
      out += ", \"sharded_seconds\": ";
      AppendJsonDouble(run.sharded_seconds, &out);
      out += ", \"scatter_gather_speedup\": ";
      AppendJsonDouble(run.scatter_gather_speedup, &out);
    }
    if (run.has_wal) {
      out += ",\n     \"wal_append_records_per_sec\": ";
      AppendJsonDouble(run.wal_append_records_per_sec, &out);
      out += ", \"wal_recovery_seconds\": ";
      AppendJsonDouble(run.wal_recovery_seconds, &out);
      out += ", \"wal_recovered_records\": ";
      AppendJsonUint(run.wal_recovered_records, &out);
      out += ", \"wal_bytes\": ";
      AppendJsonUint(run.wal_bytes, &out);
      if (run.wal_mt_threads != 0) {
        out += ",\n     \"wal_mt_threads\": ";
        AppendJsonUint(run.wal_mt_threads, &out);
        out += ", \"wal_mt_append_records_per_sec\": ";
        AppendJsonDouble(run.wal_mt_append_records_per_sec, &out);
        out += ", \"wal_mt_syncs_per_append\": ";
        AppendJsonDouble(run.wal_mt_syncs_per_append, &out);
      }
    }
    if (run.has_prf) {
      out += ",\n     \"precision\": ";
      AppendJsonDouble(run.prf.precision, &out);
      out += ", \"recall\": ";
      AppendJsonDouble(run.prf.recall, &out);
      out += ", \"f_measure\": ";
      AppendJsonDouble(run.prf.f_measure, &out);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool BenchReport::WriteJsonFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::string json = ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  bool ok = written == json.size();
  ok = std::fclose(file) == 0 && ok;
  return ok;
}

LatencySummary SummarizeLatencySeconds(std::vector<double> seconds) {
  LatencySummary summary;
  if (seconds.empty()) return summary;
  std::sort(seconds.begin(), seconds.end());
  // Nearest-rank percentile: the smallest latency with at least p% of
  // the samples at or below it.
  auto percentile = [&seconds](double p) {
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(seconds.size())));
    if (rank == 0) rank = 1;
    return seconds[std::min(rank - 1, seconds.size() - 1)] * 1000.0;
  };
  summary.p50_ms = percentile(50.0);
  summary.p95_ms = percentile(95.0);
  summary.p99_ms = percentile(99.0);
  return summary;
}

uint64_t BenchReport::TotalResults(const std::string& algorithm) const {
  uint64_t total = 0;
  for (const BenchRun& run : runs) {
    if (run.ok && run.algorithm == algorithm) total += run.stats.results;
  }
  return total;
}

std::vector<std::string> BenchReport::ZeroResultConfigurations() const {
  std::map<std::string, uint64_t> totals;
  for (const BenchRun& run : runs) {
    char label[160];
    std::snprintf(label, sizeof(label), "%s partition=%zu threads=%d",
                  run.algorithm.c_str(), run.max_partition_records,
                  run.threads);
    // Failed runs seed the group with zero (not skip it), so a
    // configuration that errors on every cell still trips the gate.
    totals[label] += run.ok ? run.stats.results : 0;
  }
  std::vector<std::string> zero;
  for (const auto& [label, total] : totals) {
    if (total == 0) zero.push_back(label);
  }
  return zero;
}

std::vector<BenchRun> BenchHarness::RunGrid(
    const BenchGrid& grid,
    const std::vector<std::pair<uint32_t, uint32_t>>* truth) {
  std::vector<std::string> algorithms = grid.algorithms;
  if (algorithms.empty()) {
    algorithms = AlgorithmRegistry::Global().Names();
  }
  std::vector<int> taus = grid.taus.empty() ? std::vector<int>{1} : grid.taus;
  std::vector<BenchRun> runs;
  for (int num_threads : grid.threads) {
    for (size_t partition_limit : grid.partition_limits) {
      Engine engine = EngineBuilder()
                          .SetKnowledge(knowledge_)
                          .SetMeasures(grid.measures)
                          .SetQ(grid.q)
                          .SetThreads(num_threads)
                          .SetMaxPartitionRecords(partition_limit)
                          .Build();
      engine.SetRecords(*records_);
      if (partition_limit == 0) {
        // Build the lazily-prepared context up front so the first
        // unified cell's wall_seconds measures the join, not the
        // one-time preparation (which stats.prepare_seconds reports
        // separately). Partitioned engines never use this context —
        // blocks prepare their own, charged to every run alike.
        engine.PreparedContext();
      }
      for (const std::string& algorithm : algorithms) {
        // tau only shapes the unified AU filters; one value is enough
        // for everything else.
        size_t tau_count = algorithm == "unified" ? taus.size() : size_t{1};
        for (double theta : grid.thetas) {
          for (size_t t = 0; t < tau_count; ++t) {
            BenchRun run;
            run.algorithm = algorithm;
            run.measures = grid.measures;
            run.theta = theta;
            run.tau = taus[t];
            run.threads = num_threads;
            run.max_partition_records = partition_limit;
            run.num_records = records_->size();

            EngineJoinOptions options;
            options.theta = theta;
            options.tau = taus[t];
            WallTimer wall;
            Result<JoinResult> result = engine.Join(algorithm, options);
            run.wall_seconds = wall.Seconds();
            if (result.ok()) {
              run.ok = true;
              run.stats = result->stats;
              run.total_seconds =
                  result->stats.TotalSeconds(/*include_prepare=*/true);
              if (truth != nullptr) {
                run.has_prf = true;
                run.prf = ComputePrf(result->pairs, *truth);
              }
            } else {
              run.error = result.status().ToString();
            }
            run.peak_rss_bytes = CurrentPeakRssBytes();
            runs.push_back(std::move(run));
          }
        }
      }
    }
  }
  return runs;
}

}  // namespace aujoin
