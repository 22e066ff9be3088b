/// \file
/// The algorithm plug-in surface: JoinAlgorithm (implement + register
/// in AlgorithmRegistry to appear in the Engine facade, the benches
/// and the aujoin CLI), the per-run EngineJoinOptions, and the
/// AlgorithmContext an algorithm receives for one run.

#ifndef AUJOIN_API_JOIN_ALGORITHM_H_
#define AUJOIN_API_JOIN_ALGORITHM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "api/match_sink.h"
#include "core/knowledge.h"
#include "core/record.h"
#include "join/join.h"
#include "util/status.h"

namespace aujoin {

/// Per-run knobs shared by every registered algorithm. `theta` applies to
/// all of them; the remaining fields configure specific families and are
/// ignored by the others (a kjoin run does not look at `tau`).
struct EngineJoinOptions {
  /// Similarity threshold of the join predicate.
  double theta = 0.8;

  // --- unified-join knobs (Algorithms 3 / 6) ---
  /// Overlap constraint for the AU filters; 1 = U-Filter behaviour.
  int tau = 1;
  FilterMethod method = FilterMethod::kAuDp;
  bool exact_min_partition = true;
  /// Verification settings; the msim sub-options are overridden by the
  /// engine's measures so filtering and verification agree.
  UsimOptions usim;

  // --- baseline knobs ---
  /// PKduck: cap on enumerated derivations per record.
  size_t pkduck_max_derivations = 16;
  /// AdaptJoin: gram length and adaptive-prefix cost-model inputs.
  int adapt_q = 2;
  std::vector<int> adapt_ell_candidates = {1, 2, 3, 4};
  size_t adapt_sample_size = 200;
};

/// Everything an algorithm needs from the engine for one run. Pointers
/// are non-owning and valid for the duration of Run().
struct AlgorithmContext {
  const Knowledge* knowledge = nullptr;
  const std::vector<Record>* s_records = nullptr;
  /// nullptr for a self-join.
  const std::vector<Record>* t_records = nullptr;
  MsimOptions msim;
  /// 1 = serial, 0 = all hardware threads (ResolveThreads semantics).
  int num_threads = 1;
  size_t cache_evict_threshold = 500000;
  /// Pairs verified per streaming flush to the sink (bounds the memory a
  /// streaming run holds between sink calls).
  size_t stream_batch_size = 4096;
  /// Returns the engine's lazily-prepared unified JoinContext (pebbles +
  /// global frequency order). Only pebble-based algorithms call this, so
  /// baseline runs never pay for preparation.
  std::function<JoinContext&()> unified_context;

  bool self_join() const { return t_records == nullptr; }
};

/// The unified join's JoinOptions for one run: `options`' filter and
/// verification knobs under the context's threading and gram-cache
/// policy. Every engine path into the join core converts here.
inline JoinOptions ToJoinOptions(const EngineJoinOptions& options,
                                 const AlgorithmContext& context) {
  JoinOptions join_options;
  join_options.theta = options.theta;
  join_options.tau = options.tau;
  join_options.method = options.method;
  join_options.exact_min_partition = options.exact_min_partition;
  join_options.usim = options.usim;
  join_options.cache_evict_threshold = context.cache_evict_threshold;
  join_options.num_threads = context.num_threads;
  return join_options;
}

/// A join algorithm runnable through the Engine facade. Implementations
/// stream matches to the sink in ascending (first, second) order (see the
/// MatchSink contract) and fill `stats` with the normalized breakdown:
/// phase times where the algorithm can attribute them, `candidates`,
/// and `results`, leaving every other field as the caller set it.
class JoinAlgorithm {
 public:
  virtual ~JoinAlgorithm() = default;

  /// The registry key this instance was created under.
  virtual const char* name() const = 0;

  /// Whether the algorithm supports joining two distinct collections.
  /// The ported baselines are self-join only, like their originals.
  virtual bool SupportsRsJoin() const { return false; }

  virtual Status Run(const AlgorithmContext& context,
                     const EngineJoinOptions& options, MatchSink* sink,
                     JoinStats* stats) = 0;
};

}  // namespace aujoin

#endif  // AUJOIN_API_JOIN_ALGORITHM_H_
