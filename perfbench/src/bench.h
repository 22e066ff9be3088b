// Shared pieces of the benchmark program: command-line arguments, the
// seeded synthetic world, sample statistics and the result the
// benchmark prints. See WORKLOADS.md for the workloads and metrics.

#ifndef AUJOIN_PERFBENCH_BENCH_H_
#define AUJOIN_PERFBENCH_BENCH_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/knowledge.h"
#include "core/measures.h"
#include "datagen/corpus_gen.h"
#include "synonym/rule_set.h"
#include "taxonomy/taxonomy.h"
#include "text/vocabulary.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where runs keep their files (created if absent).
  std::string out_dir = ".bench_out";
  /// Recorded in the environment block.
  std::string revision = "unknown";
};

/// The knowledge sources plus a labelled `med`-profile corpus, all made
/// from one seed by the library's datagen: `num_strings` base records
/// followed by `num_pairs` planted variants, each labelled in
/// corpus.truth_pairs as (base index, variant index).
struct World {
  aujoin::Vocabulary vocab;
  aujoin::Taxonomy taxonomy;
  aujoin::RuleSet rules;
  aujoin::Corpus corpus;

  aujoin::Knowledge knowledge() const {
    return aujoin::Knowledge{&vocab, &rules, &taxonomy};
  }
};

std::unique_ptr<World> MakeMedWorld(size_t num_strings, size_t num_pairs,
                                    uint64_t seed);

/// The measures every workload runs with: all of them, on 3-grams
/// (the library's benches use q = 3 on the synthetic corpora too).
inline aujoin::MsimOptions BenchMsim() {
  aujoin::MsimOptions msim;
  msim.q = 3;
  return msim;
}

/// The seed of the `index`-th world of a run seeded with `seed`: runs
/// with different seeds never share a world.
inline uint64_t WorldSeed(uint64_t seed, size_t index) {
  return seed * 16 + index;
}

/// Nearest-rank quantile (q in [0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Samples above the nearest-rank p99 of `n` samples, reported beside
/// each p99 (the workloads take enough samples for at least ten).
inline size_t BeyondP99(size_t n) {
  return n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
}

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// What one run reports. Metrics go on the last output line (the
/// end-to-end ones untraced, the per-layer ones traced); details are
/// printed on the line before it, under the names the workload note
/// uses, with the environment block.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& name, double value, const std::string& unit);

  /// One output check or one call into the engine: counted as
  /// attempted, and as failed (with the reason on stderr) when !ok.
  bool Check(bool ok, const std::string& what);

  /// `attempted` operations of which `failed` failed.
  void Count(uint64_t attempted, uint64_t failed, const std::string& what);

  /// Prints the detail line and the result line; returns the exit code
  /// (0 when every check and call passed).
  int Print(const Args& args) const;

  struct Value {
    double value;
    std::string unit;
  };

 private:
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> details_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

class Tracer;

/// The per-layer figures of one traced run. A workload fills the ones
/// its layers produce; the rest stay 0, which is itself the measurement
/// (e.g. no storage work on join-med). Named as in WORKLOADS.md.
struct LayerFigures {
  double index_prepare_s = 0;
  double index_serving_build_s = 0;
  double index_query_pebbles_us = 0;
  double join_signature_s = 0;
  double join_filter_s = 0;
  double join_verify_s = 0;
  double join_processed_pairs = 0;
  double join_candidates = 0;
  double join_candidate_yield = 0;
  double join_search_candidates_per_query = 0;
  double core_segments_s = 0;
  double core_pair_graph_s = 0;
  double core_pair_graph_vertices_mean = 0;
  double core_squareimp_s = 0;
  double core_getsim_s = 0;
  double core_improve_s = 0;
  double core_approx_us_p50 = 0;
  double core_approx_us_p99 = 0;
  double core_reject_share = 0;
  double core_verify_unaccounted_share = 0;
  double shard_build_s = 0;
  double shard_slowest_over_mean = 0;
  double shard_gather_us = 0;
  double storage_bytes_written = 0;
  double storage_syncs = 0;
  double storage_sync_us_p50 = 0;
  double storage_sync_us_p99 = 0;
  double storage_dir_syncs = 0;
  double storage_renames = 0;
  double storage_checkpoints = 0;
  double storage_checkpoint_s = 0;
  double storage_replayed_records = 0;
  /// (traced - untraced) / untraced latency of the workload's timed
  /// operation, measured in the traced run.
  double trace_overhead_share = 0;
};

/// Reports every per-layer metric (the figures plus each layer's span
/// self time) and writes the spans under args.out_dir.
void ReportLayers(const Args& args, const LayerFigures& figures,
                  const Tracer& tracer, Result* result);

void RunJoinMed(const Args& args, Result* result);
void RunServeSharded(const Args& args, Result* result);
void RunIngestWal(const Args& args, Result* result);

}  // namespace perfbench

#endif  // AUJOIN_PERFBENCH_BENCH_H_
