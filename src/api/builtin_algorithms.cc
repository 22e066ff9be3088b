// The five built-in JoinAlgorithm adapters: the paper's unified join plus
// the four Section 5.5 comparators, all streaming through MatchSink with
// normalized JoinStats.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "baselines/combination.h"
#include "core/usim.h"
#include "join/join.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace aujoin {
namespace {

/// Streams an already-sorted pair list to the sink, counting results.
/// Returns false when the sink requested early termination.
bool EmitPairs(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
               MatchSink* sink, JoinStats* stats) {
  for (const auto& [first, second] : pairs) {
    ++stats->results;
    if (!sink->OnMatch(first, second)) return false;
  }
  return true;
}

/// Maps a BaselineResult's normalized fields into JoinStats and streams
/// its (already sorted) pairs.
Status EmitBaseline(const BaselineResult& result, MatchSink* sink,
                    JoinStats* stats) {
  stats->filter_seconds = result.filter_seconds;
  stats->verify_seconds = result.verify_seconds;
  stats->candidates = result.candidates;
  EmitPairs(result.pairs, sink, stats);
  return Status::OK();
}

// ------------------------------------------------------------- unified

class UnifiedAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "unified"; }
  bool SupportsRsJoin() const override { return true; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    JoinContext& join_context = context.unified_context();

    SignatureOptions sig_options;
    sig_options.theta = options.theta;
    sig_options.tau = options.tau;
    sig_options.method = options.method;
    sig_options.exact_min_partition = options.exact_min_partition;

    JoinContext::FilterOutput filtered = join_context.RunFilter(
        sig_options, nullptr, nullptr, context.num_threads);
    stats->prepare_seconds = join_context.prepare_seconds();
    stats->signature_seconds = filtered.signature_seconds;
    stats->filter_seconds = filtered.filter_seconds;
    stats->processed_pairs = filtered.processed_pairs;
    stats->candidates = filtered.candidates.size();
    stats->avg_signature_pebbles = filtered.avg_signature_pebbles;

    // Verify in sorted batches: each batch's survivors are flushed to the
    // sink before the next batch starts, so peak memory is bounded by the
    // batch size and the emission order is globally sorted. Per-worker
    // computers (and their gram caches) persist across batches —
    // streaming must not cost cache warmth relative to the one-shot
    // VerifyCandidates path. MsimEvaluator is not thread-safe, hence one
    // computer per worker.
    std::sort(filtered.candidates.begin(), filtered.candidates.end());

    UsimOptions usim_options = options.usim;
    usim_options.msim = join_context.msim_options();
    const auto& s_records = join_context.s_records();
    const auto& t_records = join_context.t_records();
    const int workers = ResolveThreads(context.num_threads);
    std::vector<std::unique_ptr<UsimComputer>> computers(workers);
    for (auto& computer : computers) {
      computer = std::make_unique<UsimComputer>(join_context.knowledge(),
                                                usim_options);
    }

    const size_t batch = std::max<size_t>(1, context.stream_batch_size);
    for (size_t begin = 0; begin < filtered.candidates.size();
         begin += batch) {
      const size_t end = std::min(filtered.candidates.size(), begin + batch);
      WallTimer batch_timer;
      std::vector<std::vector<std::pair<uint32_t, uint32_t>>> worker_pairs(
          workers);
      ParallelFor(
          end - begin, context.num_threads,
          [&](size_t lo, size_t hi, int worker) {
            UsimComputer& computer = *computers[worker];
            for (size_t c = lo; c < hi; ++c) {
              const auto& [si, ti] = filtered.candidates[begin + c];
              if (computer.evaluator()->CacheSize() >
                  context.cache_evict_threshold) {
                computer.evaluator()->ClearCache();
              }
              // Verification only needs the predicate, so Algorithm 1
              // may stop as soon as theta is reached.
              double sim = computer.Approx(s_records[si], t_records[ti],
                                           options.theta);
              if (sim >= options.theta) {
                worker_pairs[worker].emplace_back(si, ti);
              }
            }
          });
      std::vector<std::pair<uint32_t, uint32_t>> verified;
      for (const auto& wp : worker_pairs) {
        verified.insert(verified.end(), wp.begin(), wp.end());
      }
      std::sort(verified.begin(), verified.end());
      stats->verify_seconds += batch_timer.Seconds();
      if (!EmitPairs(verified, sink, stats)) break;
    }
    for (const auto& computer : computers) {
      stats->bound_rejected += computer->bound_rejected();
    }
    return Status::OK();
  }
};

// ------------------------------------------------------------ baselines

class KJoinAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "kjoin"; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    KJoinOptions kjoin_options;
    kjoin_options.theta = options.theta;
    kjoin_options.num_threads = context.num_threads;
    KJoin join(*context.knowledge, kjoin_options);
    return EmitBaseline(join.SelfJoin(*context.s_records), sink, stats);
  }
};

class PkduckAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "pkduck"; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    PkduckOptions pkduck_options;
    pkduck_options.theta = options.theta;
    pkduck_options.max_derivations = options.pkduck_max_derivations;
    pkduck_options.num_threads = context.num_threads;
    PkduckJoin join(*context.knowledge, pkduck_options);
    return EmitBaseline(join.SelfJoin(*context.s_records), sink, stats);
  }
};

class AdaptJoinAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "adaptjoin"; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    AdaptJoinOptions adapt_options;
    adapt_options.theta = options.theta;
    adapt_options.q = options.adapt_q;
    adapt_options.ell_candidates = options.adapt_ell_candidates;
    adapt_options.sample_size = options.adapt_sample_size;
    adapt_options.num_threads = context.num_threads;
    AdaptJoin join(adapt_options);
    return EmitBaseline(join.SelfJoin(*context.s_records), sink, stats);
  }
};

class CombinationAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "combination"; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    CombinationOptions combo_options;
    combo_options.kjoin.theta = options.theta;
    combo_options.adaptjoin.theta = options.theta;
    combo_options.adaptjoin.q = options.adapt_q;
    combo_options.adaptjoin.ell_candidates = options.adapt_ell_candidates;
    combo_options.adaptjoin.sample_size = options.adapt_sample_size;
    combo_options.pkduck.theta = options.theta;
    combo_options.pkduck.max_derivations = options.pkduck_max_derivations;
    combo_options.num_threads = context.num_threads;
    return EmitBaseline(
        CombinationJoin(*context.knowledge, *context.s_records,
                        combo_options),
        sink, stats);
  }
};

}  // namespace

void RegisterBuiltinJoinAlgorithms(AlgorithmRegistry* registry) {
  registry->Register("unified",
                     [] { return std::make_unique<UnifiedAlgorithm>(); });
  registry->Register("kjoin",
                     [] { return std::make_unique<KJoinAlgorithm>(); });
  registry->Register("pkduck",
                     [] { return std::make_unique<PkduckAlgorithm>(); });
  registry->Register("adaptjoin",
                     [] { return std::make_unique<AdaptJoinAlgorithm>(); });
  registry->Register("combination",
                     [] { return std::make_unique<CombinationAlgorithm>(); });
}

}  // namespace aujoin
