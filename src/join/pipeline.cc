#include "join/pipeline.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "storage/spill_file.h"
#include "util/parallel.h"

namespace aujoin {
namespace {

using PairVec = std::vector<std::pair<uint32_t, uint32_t>>;

/// Copies one shard's records, renumbering ids to local indexes so an
/// algorithm that reads Record::id agrees with the pair indexes it emits.
std::vector<Record> SliceRecords(const std::vector<Record>& records,
                                 const std::vector<uint32_t>& ids) {
  std::vector<Record> out;
  out.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    Record r = records[ids[i]];
    r.id = static_cast<uint32_t>(i);
    out.push_back(std::move(r));
  }
  return out;
}

/// Everything one block produces. `weight` is the block's record count,
/// used to average avg_signature_pebbles across blocks.
struct BlockResult {
  Status status = Status::OK();
  PairVec pairs;
  JoinStats stats;
  double weight = 0.0;
  bool done = false;
};

/// Runs one shard-pair block to completion: builds the block's record
/// slices, lazily prepares a block-local JoinContext, runs a fresh
/// algorithm instance serially, and maps the local pairs back to global
/// ids through the shard id lists. Cross blocks of a self-join keep
/// only pairs straddling the two shards — the structural half of
/// boundary dedup — and, on non-contiguous (hash) plans, normalise
/// every self-join pair to (min, max) so the global first < second
/// contract survives interleaved shard membership.
void RunBlock(const AlgorithmFactory& factory,
              const AlgorithmContext& base_context,
              const EngineJoinOptions& options, const PartitionBlock& block,
              const ShardPlan& s_plan, const ShardPlan& t_plan,
              BlockResult* result) {
  const std::vector<Record>& s = *base_context.s_records;
  const bool self = base_context.self_join();
  const std::vector<Record>& t = self ? s : *base_context.t_records;
  const std::vector<uint32_t>& s_ids = s_plan.shard_ids[block.s_part];
  const std::vector<uint32_t>& t_ids = t_plan.shard_ids[block.t_part];

  std::unique_ptr<JoinAlgorithm> algo = factory();
  if (algo == nullptr) {
    result->status = Status::Internal("algorithm factory returned null");
    return;
  }

  // Blocks run serially inside; parallelism comes from the block pool.
  AlgorithmContext ctx = base_context;
  ctx.num_threads = 1;

  std::vector<Record> local_s, local_t;
  bool concatenated = false;

  if (self && block.diagonal()) {
    local_s = SliceRecords(s, s_ids);
    ctx.s_records = &local_s;
    ctx.t_records = nullptr;
  } else if (self && !algo->SupportsRsJoin()) {
    // Self-join-only algorithm on a cross block: self-join the
    // concatenation [shard s_part ++ shard t_part] and keep only the
    // straddling pairs below.
    local_s = SliceRecords(s, s_ids);
    std::vector<Record> tail = SliceRecords(s, t_ids);
    for (Record& r : tail) {
      r.id += static_cast<uint32_t>(local_s.size());
      local_s.push_back(std::move(r));
    }
    ctx.s_records = &local_s;
    ctx.t_records = nullptr;
    concatenated = true;
  } else {
    // R-S block: either a genuine R-S join, or the cross block of a
    // self-join run as S-shard × T-shard (pairs come out with first in
    // s_part and second in t_part, already deduped).
    local_s = SliceRecords(s, s_ids);
    local_t = SliceRecords(t, t_ids);
    ctx.s_records = &local_s;
    ctx.t_records = &local_t;
  }

  // Each block borrows a slice-local PreparedIndex through the one
  // shared build path (PreparedIndex::Build, via JoinContext::Prepare);
  // bounding prepared memory by blocks in flight is exactly why blocks
  // do not share the engine's whole-collection index. Candidate
  // generation inside the block likewise rides the one shared probe
  // path (JoinContext::RunFilter): a slice-local frozen CsrIndex
  // scanned with count-based merging, so sharded and monolithic joins
  // stay byte-identical per construction.
  std::unique_ptr<JoinContext> block_join_context;
  ctx.unified_context = [&ctx, &block_join_context]() -> JoinContext& {
    if (block_join_context == nullptr) {
      block_join_context =
          std::make_unique<JoinContext>(*ctx.knowledge, ctx.msim);
      block_join_context->Prepare(*ctx.s_records, ctx.t_records);
    }
    return *block_join_context;
  };

  CollectingSink collected;
  result->status = algo->Run(ctx, options, &collected, &result->stats);
  if (!result->status.ok()) return;
  result->weight = static_cast<double>(local_s.size() + local_t.size());

  // Self-join cross blocks of a hash plan interleave: a straddling pair
  // may globalise with first > second, so restore the contract by
  // swapping to (min, max). Contiguous plans never need it (the id
  // lists of stripe i precede stripe j > i entirely), and genuine R-S
  // joins keep their (s, t) orientation.
  const bool normalize = self && !block.diagonal() && !s_plan.contiguous;
  const uint32_t cut = concatenated
                           ? static_cast<uint32_t>(s_ids.size())
                           : 0;  // unused unless concatenated
  result->pairs.reserve(collected.pairs.size());
  for (const auto& [a, b] : collected.pairs) {
    uint32_t first, second;
    if (concatenated) {
      // Within-shard pairs belong to the two diagonal blocks.
      if (a >= cut || b < cut) continue;
      first = s_ids[a];
      second = t_ids[b - cut];
    } else {
      first = s_ids[a];
      second = t_ids[b];
    }
    if (normalize && second < first) std::swap(first, second);
    result->pairs.emplace_back(first, second);
  }
  // The id maps are monotone, so ascending local order usually survives
  // globalisation, but sort anyway: the merge relies on it, not on
  // every algorithm upholding the contract perfectly (and hash-plan
  // normalisation genuinely reorders).
  std::sort(result->pairs.begin(), result->pairs.end());
}

}  // namespace

Status RunPartitionedJoin(const AlgorithmFactory& factory,
                          const AlgorithmContext& context,
                          const EngineJoinOptions& options,
                          const ShardPlan& s_plan, const ShardPlan& t_plan,
                          const PipelineOptions& pipeline_options,
                          MatchSink* sink, JoinStats* stats) {
  if (context.s_records == nullptr) {
    return Status::FailedPrecondition("pipeline requires bound records");
  }
  if (sink == nullptr || stats == nullptr) {
    return Status::InvalidArgument("pipeline requires a sink and stats");
  }
  const bool self = context.self_join();
  if (s_plan.num_records != context.s_records->size() ||
      t_plan.num_records !=
          (self ? context.s_records : context.t_records)->size()) {
    return Status::InvalidArgument(
        "pipeline shard plans do not cover the bound records");
  }
  std::vector<PartitionBlock> blocks =
      EnumerateBlocks(s_plan.num_shards(), t_plan.num_shards(), self);

  if (blocks.size() <= 1) {
    // One block covers everything: run the algorithm directly on the
    // caller's context (the engine's shared prepared one), not a block
    // copy. Nothing is buffered, so there is nothing to spill.
    std::unique_ptr<JoinAlgorithm> algo = factory();
    if (algo == nullptr) {
      return Status::Internal("algorithm factory returned null");
    }
    return algo->Run(context, options, sink, stats);
  }

  const bool spilling = pipeline_options.spill_budget_bytes > 0;
  // Stripe streaming needs stripe i's firsts to precede stripe i + 1's;
  // hash plans interleave, and a spill budget needs the collect path's
  // buffer accounting, so both fall through to collect-and-merge.
  const bool streaming = s_plan.contiguous && !spilling;

  std::vector<BlockResult> results(blocks.size());
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::atomic<bool> cancel{false};

  // One shared pool runs every block: context preparation, candidate
  // generation and verification all execute inside the block task.
  ThreadPool pool(pipeline_options.num_threads);
  for (size_t b = 0; b < blocks.size(); ++b) {
    const std::vector<uint32_t>& bs = s_plan.shard_ids[blocks[b].s_part];
    const std::vector<uint32_t>& bt = t_plan.shard_ids[blocks[b].t_part];
    if (bs.empty() || (bt.empty() && !(self && blocks[b].diagonal()))) {
      results[b].done = true;  // empty side ⇒ no pairs; skip the work
      continue;
    }
    pool.Submit([&, b] {
      if (!cancel.load(std::memory_order_relaxed)) {
        RunBlock(factory, context, options, blocks[b], s_plan, t_plan,
                 &results[b]);
      }
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        results[b].done = true;
      }
      done_cv.notify_all();
    });
  }

  SpillWriter spill_writer(pipeline_options.env, pipeline_options.spill_dir);
  PairVec collect;  // collect-and-merge buffer (unused when streaming)

  // Consume stripe by stripe: once every block of S-shard i has
  // finished, its results are folded in. Under streaming emission the
  // union of the stripe's (disjoint) sorted pair lists is the complete,
  // globally contiguous run of results whose first component lies in
  // shard i, and goes straight to the sink; otherwise stripes append to
  // the collect buffer, spilling sorted runs when over budget, and one
  // final merge emits everything globally ascending.
  Status status = Status::OK();
  double pebble_weight = 0.0, pebble_weighted_sum = 0.0;
  bool terminated = false;
  size_t next = 0;
  while (next < blocks.size() && status.ok() && !terminated) {
    size_t stripe_begin = next;
    uint32_t stripe = blocks[next].s_part;
    while (next < blocks.size() && blocks[next].s_part == stripe) ++next;
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      done_cv.wait(lock, [&] {
        for (size_t b = stripe_begin; b < next; ++b) {
          if (!results[b].done) return false;
        }
        return true;
      });
    }

    PairVec merged;
    for (size_t b = stripe_begin; b < next; ++b) {
      BlockResult& r = results[b];
      if (!r.status.ok()) {
        status = r.status;
        break;
      }
      stats->prepare_seconds += r.stats.prepare_seconds;
      stats->signature_seconds += r.stats.signature_seconds;
      stats->filter_seconds += r.stats.filter_seconds;
      stats->verify_seconds += r.stats.verify_seconds;
      stats->processed_pairs += r.stats.processed_pairs;
      stats->candidates += r.stats.candidates;
      stats->bound_rejected += r.stats.bound_rejected;
      pebble_weighted_sum += r.stats.avg_signature_pebbles * r.weight;
      pebble_weight += r.weight;
      merged.insert(merged.end(), r.pairs.begin(), r.pairs.end());
      PairVec().swap(r.pairs);  // release stripe memory as we go
    }
    if (!status.ok()) break;

    if (streaming) {
      std::sort(merged.begin(), merged.end());
      for (const auto& [first, second] : merged) {
        ++stats->results;
        if (!sink->OnMatch(first, second)) {
          terminated = true;
          break;
        }
      }
    } else {
      collect.insert(collect.end(), merged.begin(), merged.end());
      PairVec().swap(merged);
      if (spilling &&
          collect.size() * sizeof(collect[0]) >
              pipeline_options.spill_budget_bytes) {
        status = spill_writer.Spill(&collect);
      }
    }
  }

  // Stop feeding queued blocks and drain in-flight ones before the
  // results vector goes out of scope.
  cancel.store(true, std::memory_order_relaxed);
  pool.WaitIdle();
  if (pebble_weight > 0.0) {
    stats->avg_signature_pebbles = pebble_weighted_sum / pebble_weight;
  }

  if (!streaming && status.ok() && !terminated) {
    std::sort(collect.begin(), collect.end());
    SpillMerger merger(spill_writer.runs(), collect);
    std::pair<uint32_t, uint32_t> pair;
    while (merger.Next(&pair)) {
      ++stats->results;
      if (!sink->OnMatch(pair.first, pair.second)) break;
    }
  }
  stats->spill_runs = spill_writer.runs().size();
  stats->spill_pairs = spill_writer.spilled_pairs();
  stats->spill_bytes = spill_writer.spilled_bytes();
  return status;
}

}  // namespace aujoin
