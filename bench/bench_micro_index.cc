// Candidate-generation micro-bench: legacy hash-map inverted index vs
// the frozen CSR index (index/csr_index.h). Builds one PreparedIndex
// over a generated corpus, selects every record's signature once, then
// measures the two halves of the hot path separately for each variant:
//
//   build  — staging the postings (and, for CSR, freezing them)
//   probe  — candidate generation for every record, repeated --repeat
//            times: per-key posting lookups + hash-map overlap counting
//            (legacy) vs sequential posting-run merges + epoch-stamped
//            counting + required-overlap select (csr-scalar)
//
// Both variants must produce identical candidate and visited-posting
// counts (the bench exits non-zero otherwise — it doubles as a parity
// check), and the report lands in BENCH_<name>.json with the
// index_build_seconds / probe_records_per_sec / probe_postings_per_sec
// / kernel fields documented in docs/bench-schema.md.
//
// CI gate: --min_csr_speedup=<x> requires the csr-scalar probe to reach
// at least x times the legacy-map throughput.
//
// Typical invocation:
//   bench_micro_index --name=micro_index --profile=med --strings=300 \
//     --theta=0.7 --tau=2 --repeat=20 --min_csr_speedup=1.5

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "index/csr_index.h"
#include "index/inverted_index.h"
#include "index/prepared_index.h"
#include "join/signature.h"
#include "kernels/kernels.h"
#include "util/timer.h"

namespace aujoin {
namespace {

struct ProbeOutcome {
  uint64_t candidates = 0;        // per sweep over every record
  uint64_t postings_visited = 0;  // per sweep, after the self-pair skip
  double seconds = 0.0;           // total over every repeat
};

/// The pre-CSR candidate generation, kept verbatim as the baseline: an
/// unordered_map posting index probed key by key, overlaps deduped and
/// counted through a second per-record unordered_map.
ProbeOutcome ProbeLegacy(const std::vector<Signature>& sigs,
                         const InvertedIndex& index, int repeat) {
  ProbeOutcome out;
  std::unordered_map<uint32_t, const Signature*> sig_by_id;
  sig_by_id.reserve(sigs.size());
  for (uint32_t j = 0; j < sigs.size(); ++j) sig_by_id.emplace(j, &sigs[j]);
  WallTimer timer;
  for (int r = 0; r < repeat; ++r) {
    uint64_t candidates = 0, visited = 0;
    std::unordered_map<uint32_t, int> overlap;
    for (uint32_t s_id = 0; s_id < sigs.size(); ++s_id) {
      overlap.clear();
      for (uint64_t key : sigs[s_id].keys) {
        const std::vector<uint32_t>* postings = index.Find(key);
        if (postings == nullptr) continue;
        for (uint32_t t_id : *postings) {
          if (t_id <= s_id) continue;  // self-join pair dedup
          ++visited;
          ++overlap[t_id];
        }
      }
      for (const auto& [t_id, count] : overlap) {
        if (count >= MergeRequiredOverlap(sigs[s_id], *sig_by_id.at(t_id))) {
          ++candidates;
        }
      }
    }
    out.candidates = candidates;
    out.postings_visited = visited;
  }
  out.seconds = timer.Seconds();
  return out;
}

/// The shipped path: frozen CSR posting runs (the self-pair prefix
/// dropped with one upper_bound cut, exactly the join's dense
/// self-probe) merged through the epoch-stamped CandidateAccumulator,
/// survivors selected by the merged required-overlap select.
ProbeOutcome ProbeCsr(const std::vector<Signature>& sigs,
                      const std::vector<uint32_t>& taus, const CsrIndex& index,
                      int repeat) {
  ProbeOutcome out;
  WallTimer timer;
  CandidateAccumulator overlap;
  for (int r = 0; r < repeat; ++r) {
    uint64_t candidates = 0, visited = 0;
    for (uint32_t s_id = 0; s_id < sigs.size(); ++s_id) {
      overlap.Begin(sigs.size());
      for (uint64_t key : sigs[s_id].keys) {
        CsrIndex::Postings run = index.Find(key);
        const uint32_t* cut = std::upper_bound(run.begin(), run.end(), s_id);
        const size_t kept = static_cast<size_t>(run.end() - cut);
        visited += kept;
        overlap.BumpRun(cut, kept);
      }
      candidates +=
          overlap
              .SelectMergedGE(taus.data(),
                              static_cast<uint32_t>(sigs[s_id].effective_tau))
              .size();
    }
    out.candidates = candidates;
    out.postings_visited = visited;
  }
  out.seconds = timer.Seconds();
  return out;
}

BenchRun MakeRun(const std::string& variant, const ProbeOutcome& probe,
                 double build_seconds, size_t num_records, double theta,
                 int tau, int repeat, const char* kernel) {
  BenchRun run;
  run.algorithm = "index_probe";
  run.variant = variant;
  run.measures = "TJS";
  run.theta = theta;
  run.tau = tau;
  run.threads = 1;
  run.num_records = num_records;
  run.ok = true;
  run.stats.candidates = probe.candidates;
  run.stats.processed_pairs = probe.postings_visited;
  run.stats.filter_seconds = probe.seconds;
  run.wall_seconds = probe.seconds;
  run.total_seconds = build_seconds + probe.seconds;
  run.has_index_micro = true;
  run.index_build_seconds = build_seconds;
  double per_sweep = probe.seconds / repeat;
  if (per_sweep > 0.0) {
    run.probe_records_per_sec = static_cast<double>(num_records) / per_sweep;
    run.probe_postings_per_sec =
        static_cast<double>(probe.postings_visited) / per_sweep;
  }
  if (kernel != nullptr) run.kernel = kernel;
  run.peak_rss_bytes = CurrentPeakRssBytes();
  return run;
}

bool SameOutcome(const ProbeOutcome& a, const ProbeOutcome& b) {
  return a.candidates == b.candidates &&
         a.postings_visited == b.postings_visited;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string name = flags.GetString("name", "micro_index");
  std::string profile = flags.GetString("profile", "med");
  size_t strings = static_cast<size_t>(flags.GetInt("strings", 300));
  double theta = flags.GetDouble("theta", 0.7);
  int tau = static_cast<int>(flags.GetInt("tau", 2));
  int repeat = static_cast<int>(flags.GetInt("repeat", 20));
  double min_csr_speedup = flags.GetDouble("min_csr_speedup", 0.0);
  std::string out_path = flags.GetString("out", "BENCH_" + name + ".json");

  PrintBanner("candidate-index micro-bench", "hot path of Algorithms 3/6",
              "frozen CSR beats the pointer-chasing map");
  std::printf("corpus: profile=%s strings=%zu theta=%.2f tau=%d repeat=%d\n",
              profile.c_str(), strings, theta, tau, repeat);

  auto world = BuildWorld(profile, strings, /*num_truth_pairs=*/0);
  const std::vector<Record>& records = world->corpus.records;
  auto prepared = PreparedIndex::Build(world->knowledge(),
                                       MsimOptions{.q = 3}, records, nullptr);

  SignatureOptions sig_options;
  sig_options.theta = theta;
  sig_options.tau = tau;
  std::vector<Signature> sigs(records.size());
  std::vector<uint32_t> taus(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const PreparedRecord& pr = prepared->s_prepared()[i];
    sigs[i] = SelectSignature(pr.pebbles, pr.num_tokens, sig_options);
    taus[i] = static_cast<uint32_t>(sigs[i].effective_tau);
  }

  // Build both indexes over the same signatures, timed separately. The
  // CSR build honestly includes its staging pass — freezing is not free
  // and the bench exists to show the probe side pays it back.
  WallTimer build_timer;
  InvertedIndex legacy;
  for (uint32_t j = 0; j < sigs.size(); ++j) legacy.Add(j, sigs[j].keys);
  double legacy_build = build_timer.Seconds();

  build_timer.Restart();
  InvertedIndex staging;
  for (uint32_t j = 0; j < sigs.size(); ++j) staging.Add(j, sigs[j].keys);
  CsrIndex csr = CsrIndex::Freeze(staging);
  double csr_build = build_timer.Seconds();

  ProbeOutcome legacy_probe = ProbeLegacy(sigs, legacy, repeat);
  ProbeOutcome csr_probe = ProbeCsr(sigs, taus, csr, repeat);

  if (!SameOutcome(legacy_probe, csr_probe)) {
    std::fprintf(stderr,
                 "PARITY FAILURE: legacy candidates=%llu postings=%llu / "
                 "csr-scalar candidates=%llu postings=%llu\n",
                 static_cast<unsigned long long>(legacy_probe.candidates),
                 static_cast<unsigned long long>(legacy_probe.postings_visited),
                 static_cast<unsigned long long>(csr_probe.candidates),
                 static_cast<unsigned long long>(csr_probe.postings_visited));
    return 2;
  }

  double csr_speedup =
      csr_probe.seconds > 0.0 ? legacy_probe.seconds / csr_probe.seconds : 0.0;

  BenchReport report;
  report.name = name;
  report.profile = profile;
  report.num_records = records.size();
  report.runs.push_back(MakeRun("legacy-map", legacy_probe, legacy_build,
                                records.size(), theta, tau, repeat, nullptr));
  report.runs.push_back(MakeRun("csr-scalar", csr_probe, csr_build,
                                records.size(), theta, tau, repeat,
                                ActiveKernel().name));

  std::printf("index build: legacy=%.4fs csr=%.4fs (csr bytes=%zu)\n",
              legacy_build, csr_build, csr.memory_bytes());
  std::printf(
      "probe (%d sweeps, %llu candidates/sweep): legacy=%.4fs "
      "csr-scalar=%.4fs -> speedup %.2fx\n",
      repeat, static_cast<unsigned long long>(csr_probe.candidates),
      legacy_probe.seconds, csr_probe.seconds, csr_speedup);

  if (!report.WriteJsonFile(out_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(),
              report.runs.size());

  if (min_csr_speedup > 0.0 && csr_speedup < min_csr_speedup) {
    std::fprintf(stderr,
                 "SMOKE FAILURE: csr probe speedup %.2fx below the "
                 "--min_csr_speedup=%.2f gate\n",
                 csr_speedup, min_csr_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) { return aujoin::Run(argc, argv); }
