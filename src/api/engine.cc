#include "api/engine.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "join/pipeline.h"
#include "shard/sharded_index.h"
#include "storage/env.h"
#include "storage/generational_index.h"
#include "storage/index_checkpoint.h"
#include "storage/wal_format.h"
#include "storage/wal_reader.h"
#include "storage/wal_writer.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace aujoin {
namespace {

Env* ResolveEnv(const EngineOptions& options) {
  return options.env != nullptr ? options.env : Env::Default();
}

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

void Engine::SetRecords(const std::vector<Record>& s,
                        const std::vector<Record>* t) {
  s_records_ = &s;
  t_records_ = (t == &s) ? nullptr : t;
  context_.reset();
  from_snapshot_ = false;
  snapshot_load_seconds_ = 0.0;
  // Append mode is bound to the old records; tear it down. Destruction
  // order: the generational index borrows the WAL writer.
  generational_.reset();
  wal_.reset();
  make_record_ = nullptr;
  base_count_ = 0;
  wal_recovered_ = 0;
  checkpoint_path_.clear();
  auto_checkpoint_status_ = Status::OK();
  auto_checkpoints_ = 0;
  sharded_->Reset();
  index_->Reset();
  layout_->Reset();
}

Result<std::shared_ptr<const Engine::Layout>> Engine::CheckLayout(
    const char* caller, Needs needs) const {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(std::string(caller) +
                                      " called before SetRecords()");
  }
  Result<std::shared_ptr<const Layout>> layout = layout_->Get([this] {
    auto out = std::make_shared<Layout>();
    out->self_join = t_records_ == nullptr;
    out->sharded = options_.num_shards > 0;
    const bool partitioned =
        !out->sharded && options_.max_partition_records > 0;
    auto plan = [&](size_t num_records) {
      return out->sharded ? ShardPlan::Make(num_records, options_.num_shards,
                                            options_.shard_by)
                          : ShardPlan::Bounded(num_records,
                                               options_.max_partition_records);
    };
    out->s_plan = plan(s_records_->size());
    if (!out->self_join) out->t_plan = plan(t_records_->size());
    const size_t s_shards = out->s_plan.num_shards();
    if (out->sharded) out->shape.shards = s_shards;
    if (partitioned) {
      out->shape.partitions = s_shards + out->t_plan.num_shards();
    }
    if (out->sharded || partitioned) {
      out->shape.partition_blocks =
          EnumerateBlocks(s_shards, out->target_plan().num_shards(),
                          out->self_join)
              .size();
    }
    return std::shared_ptr<const Layout>(std::move(out));
  });
  if (!layout.ok()) return layout.status();
  const bool appending = generational_ != nullptr;
  if (appending && needs == Needs::kNotAppending) {
    return Status::FailedPrecondition(
        std::string(caller) +
        " is unavailable in append mode: it covers the bound records only, "
        "not the appends (Checkpoint persists them)");
  }
  if (!appending && needs == Needs::kAppending) {
    return Status::FailedPrecondition(
        std::string(caller) + " requires append mode (EnableAppend first)");
  }
  if (needs == Needs::kAppendable && (appending || (*layout)->sharded)) {
    return Status::FailedPrecondition(
        appending ? "append mode is already enabled (SetRecords resets it)"
                  : "append mode serves one growing collection as frozen + "
                    "staging generations; it cannot run on a sharded engine "
                    "(num_shards > 0)");
  }
  return layout;
}

Result<std::shared_ptr<const ShardedIndex>> Engine::Shards(
    const Layout& layout, double* built_seconds) const {
  return sharded_->Get(
      [&] {
        return std::make_shared<const ShardedIndex>(
            options_.knowledge, options_.msim, targets(), layout.target_plan());
      },
      built_seconds);
}

Status Engine::SaveIndex(const std::string& path) const {
  Result<std::shared_ptr<const Layout>> layout =
      CheckLayout("Engine::SaveIndex", Needs::kNotAppending);
  if (!layout.ok()) return layout.status();
  if ((*layout)->sharded) {
    // One snapshot file per shard behind a manifest, so a later engine
    // can mount shards independently.
    Result<std::shared_ptr<const ShardedIndex>> sharded = Shards(**layout);
    if (!sharded.ok()) return sharded.status();
    return (*sharded)->Save(path, ResolveEnv(options_));
  }
  Result<std::shared_ptr<const PreparedIndex>> index = ServingIndex();
  if (!index.ok()) return index.status();
  return (*index)->Save(path, ResolveEnv(options_));
}

Status Engine::LoadIndex(const std::string& path) {
  Result<std::shared_ptr<const Layout>> layout =
      CheckLayout("Engine::LoadIndex", Needs::kNotAppending);
  if (!layout.ok()) return layout.status();
  WallTimer timer;
  if ((*layout)->sharded) {
    // The manifest mounts now, each shard's file lazily at that shard's
    // first probe.
    Result<std::unique_ptr<ShardedIndex>> loaded = ShardedIndex::Load(
        options_.knowledge, options_.msim, targets(),
        (*layout)->target_plan(), path, ResolveEnv(options_));
    if (!loaded.ok()) return loaded.status();
    from_snapshot_ = true;
    snapshot_load_seconds_ = timer.Seconds();
    sharded_->Set(std::move(*loaded));
    return Status::OK();
  }
  Result<std::shared_ptr<const PreparedIndex>> loaded = PreparedIndex::Load(
      options_.knowledge, options_.msim, *s_records_, t_records_, path,
      ResolveEnv(options_));
  if (!loaded.ok()) return loaded.status();
  context_.reset();  // a prepared join context would borrow the old index
  from_snapshot_ = true;
  snapshot_load_seconds_ = timer.Seconds();
  index_->Set(*loaded);
  return Status::OK();
}

Status Engine::EnableAppend(const std::string& wal_path,
                            RecordFactory make_record,
                            const std::string& checkpoint_path) {
  AUJOIN_RETURN_NOT_OK(
      CheckLayout("Engine::EnableAppend", Needs::kAppendable).status());
  if (t_records_ != nullptr) {
    return Status::InvalidArgument(
        "append mode serves a single growing collection (self-join only)");
  }
  if (make_record == nullptr) {
    return Status::InvalidArgument(
        "EnableAppend requires a record factory to tokenise appends");
  }
  Env* env = ResolveEnv(options_);

  // 1. The frozen base: a checkpoint when one exists, else the engine's
  // own lazy serving index over the bound records.
  std::shared_ptr<const std::vector<Record>> base_records;
  std::shared_ptr<const PreparedIndex> base_index;
  if (!checkpoint_path.empty() && env->FileExists(checkpoint_path)) {
    Result<CheckpointTexts> texts = ReadCheckpointTexts(checkpoint_path, env);
    if (!texts.ok()) return texts.status();
    if (texts->base_count != s_records_->size()) {
      return Status::FailedPrecondition(
          checkpoint_path + ": checkpoint base is " +
          std::to_string(texts->base_count) + " records, " +
          std::to_string(s_records_->size()) + " are bound");
    }
    // Rebuild the full record vector the checkpoint indexed: the bound
    // base plus its appended texts, re-tokenised in id order (which
    // reproduces the original interning, and thus the fingerprints).
    auto full = std::make_shared<std::vector<Record>>(*s_records_);
    full->reserve(full->size() + texts->texts.size());
    for (const std::string& text : texts->texts) {
      Record record = make_record(text);
      record.id = static_cast<uint32_t>(full->size());
      full->push_back(std::move(record));
    }
    Result<std::shared_ptr<const PreparedIndex>> loaded =
        PreparedIndex::Load(options_.knowledge, options_.msim, *full, nullptr,
                            checkpoint_path, env);
    if (!loaded.ok()) return loaded.status();
    base_records = std::move(full);
    base_index = std::move(*loaded);
  } else {
    Result<std::shared_ptr<const PreparedIndex>> index = ServingIndex();
    if (!index.ok()) return index.status();
    base_index = *index;
    // Aliased: the engine's contract already keeps the bound records
    // alive, the shared_ptr just ties them to the index for the ride.
    base_records = std::shared_ptr<const std::vector<Record>>(base_index,
                                                              s_records_);
  }

  auto generational = std::make_unique<GenerationalIndex>(
      options_.knowledge, options_.msim, std::move(base_records),
      std::move(base_index));

  // 2. Replay the WAL on top of the base. Ids below the current size
  // are already covered (by the checkpoint — the log survives a crash
  // between checkpoint and log reset); a gap means mid-log loss.
  uint64_t recovered = 0;
  if (env->FileExists(wal_path)) {
    Result<WalReplay> replay = WalReader::ReadAll(env, wal_path);
    if (!replay.ok()) return replay.status();
    for (const std::string& payload : replay->records) {
      uint32_t id = 0;
      std::string_view text;
      if (!DecodeWalAppend(payload, &id, &text)) {
        return Status::Corruption(wal_path +
                                  ": WAL record too short for an append");
      }
      uint64_t size = generational->size();
      if (id < size) continue;
      if (id > size) {
        return Status::Corruption(
            wal_path + ": WAL append id " + std::to_string(id) +
            " skips past the " + std::to_string(size) +
            " records recovered so far (lost log records)");
      }
      generational->Append(make_record(std::string(text)));
      ++recovered;
    }
    // Trim a torn tail (and any zero-padding past the last complete
    // record) so the reopened writer resumes on a clean boundary.
    Result<uint64_t> size = env->GetFileSize(wal_path);
    if (!size.ok()) return size.status();
    if (*size != replay->valid_bytes) {
      AUJOIN_RETURN_NOT_OK(env->TruncateFile(wal_path, replay->valid_bytes));
    }
  }

  // 3. Reopen for appending and go live (with extents reserved so
  // steady-state appends don't pay allocation metadata per fsync).
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(env, wal_path, /*truncate=*/false,
                      WalWriter::kDefaultPreallocateBytes);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  generational_ = std::move(generational);
  generational_->AttachWal(wal_.get());
  make_record_ = std::move(make_record);
  base_count_ = s_records_->size();
  wal_recovered_ = recovered;
  checkpoint_path_ = checkpoint_path;
  auto_checkpoint_status_ = Status::OK();
  auto_checkpoints_ = 0;
  return Status::OK();
}

Result<uint32_t> Engine::Append(const std::string& text) {
  AUJOIN_RETURN_NOT_OK(
      CheckLayout("Engine::Append", Needs::kAppending).status());
  Result<uint32_t> id = generational_->AppendDurable(make_record_(text));
  if (!id.ok()) return id;
  // Size-driven checkpointing: the append above is already durable (WAL
  // synced), so a failed checkpoint must not retro-fail it — the
  // outcome is recorded for the caller to poll and the log keeps
  // growing until a later attempt succeeds.
  if (options_.wal_checkpoint_bytes > 0 && !checkpoint_path_.empty() &&
      wal_ != nullptr && wal_->size() >= options_.wal_checkpoint_bytes) {
    auto_checkpoint_status_ = Checkpoint(checkpoint_path_);
    if (auto_checkpoint_status_.ok()) ++auto_checkpoints_;
  }
  return id;
}

Status Engine::Refreeze() {
  AUJOIN_RETURN_NOT_OK(
      CheckLayout("Engine::Refreeze", Needs::kAppending).status());
  generational_->Refreeze();
  return Status::OK();
}

Status Engine::Checkpoint(const std::string& path) {
  AUJOIN_RETURN_NOT_OK(
      CheckLayout("Engine::Checkpoint", Needs::kAppending).status());
  generational_->Refreeze();
  std::shared_ptr<const PreparedIndex> frozen = generational_->frozen_index();
  AUJOIN_RETURN_NOT_OK(
      SaveIndexCheckpoint(*frozen, base_count_, path, ResolveEnv(options_)));
  // The durably renamed checkpoint covers every logged record, so the
  // log restarts empty. A crash before this reset is fine (replay skips
  // covered ids); an append racing it is not — see the header contract.
  return wal_->Reset();
}

Result<std::shared_ptr<const PreparedIndex>> Engine::ServingIndex(
    double* built_seconds) const {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::ServingIndex called before SetRecords()");
  }
  return index_->Get(
      [this] {
        return PreparedIndex::Build(options_.knowledge, options_.msim,
                                    *s_records_, t_records_);
      },
      built_seconds);
}

JoinContext& Engine::PreparedContext() {
  if (s_records_ == nullptr) {
    // Returning a reference leaves no status channel; fail loudly rather
    // than dereferencing null inside Prepare().
    std::fprintf(stderr,
                 "Engine::PreparedContext() called before SetRecords()\n");
    std::abort();
  }
  if (context_ == nullptr) {
    context_ =
        std::make_unique<JoinContext>(options_.knowledge, options_.msim);
    // Joins borrow the same shared immutable index that serves Search.
    context_->Adopt(*ServingIndex());
  }
  return *context_;
}

AlgorithmContext Engine::MakeAlgorithmContext() {
  AlgorithmContext ctx;
  ctx.knowledge = &options_.knowledge;
  ctx.s_records = s_records_;
  ctx.t_records = t_records_;
  ctx.msim = options_.msim;
  ctx.num_threads = options_.num_threads;
  ctx.cache_evict_threshold = options_.cache_evict_threshold;
  ctx.stream_batch_size = options_.stream_batch_size;
  ctx.unified_context = [this]() -> JoinContext& {
    return PreparedContext();
  };
  return ctx;
}

Result<JoinStats> Engine::Join(const std::string& algorithm,
                               const EngineJoinOptions& options,
                               MatchSink* sink) {
  Result<std::shared_ptr<const Layout>> layout =
      CheckLayout("Engine::Join", Needs::kNotAppending);
  if (!layout.ok()) return layout.status();
  if (sink == nullptr) {
    return Status::InvalidArgument("Engine::Join requires a sink");
  }
  std::unique_ptr<JoinAlgorithm> algo =
      AlgorithmRegistry::Global().Create(algorithm);
  if (algo == nullptr) {
    std::string known;
    for (const std::string& name : AlgorithmRegistry::Global().Names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::NotFound("unknown join algorithm '" + algorithm +
                            "' (registered: " + known + ")");
  }
  if (t_records_ != nullptr && !algo->SupportsRsJoin()) {
    return Status::InvalidArgument("algorithm '" + algorithm +
                                   "' supports self-joins only");
  }
  PipelineOptions pipeline_options;
  pipeline_options.num_threads = options_.num_threads;
  pipeline_options.spill_budget_bytes = options_.spill_budget_bytes;
  pipeline_options.spill_dir = options_.spill_dir;
  pipeline_options.env = ResolveEnv(options_);
  JoinStats stats = (*layout)->shape;
  AUJOIN_RETURN_NOT_OK(RunPartitionedJoin(
      [&algorithm] { return AlgorithmRegistry::Global().Create(algorithm); },
      MakeAlgorithmContext(), options, (*layout)->s_plan,
      (*layout)->target_plan(), pipeline_options, sink, &stats));
  return stats;
}

Result<JoinResult> Engine::Join(const std::string& algorithm,
                                const EngineJoinOptions& options) {
  CollectingSink sink;
  Result<JoinStats> stats = Join(algorithm, options, &sink);
  if (!stats.ok()) return stats.status();
  JoinResult result;
  result.pairs = std::move(sink.pairs);
  result.stats = *stats;
  return result;
}

namespace {

UnifiedSearcher::SearchOptions ToSearcherOptions(
    const EngineSearchOptions& options) {
  UnifiedSearcher::SearchOptions out;
  out.theta = options.theta;
  out.tau = options.tau;
  out.method = options.method;
  return out;
}

/// Folds one call's statistics into the caller's.
void AddSearchStats(const SearchStats& call, SearchStats* stats) {
  if (stats == nullptr) return;
  stats->queries += call.queries;
  stats->query_candidates += call.query_candidates;
  stats->bound_rejected += call.bound_rejected;
  stats->results += call.results;
  stats->index_seconds += call.index_seconds;
  stats->search_seconds += call.search_seconds;
  if (call.shards > 0) stats->shards = call.shards;
}

}  // namespace

Result<Engine::ServingView> Engine::ServingSlices(SearchStats* stats) const {
  Result<std::shared_ptr<const Layout>> layout =
      CheckLayout("Engine serving", Needs::kAnyMode);
  if (!layout.ok()) return layout.status();
  ServingView view;
  if (generational_ != nullptr) {
    view.slices = generational_->Slices(&stats->index_seconds);
  } else if ((*layout)->sharded) {
    Result<std::shared_ptr<const ShardedIndex>> sharded =
        Shards(**layout, &stats->index_seconds);
    if (!sharded.ok()) return sharded.status();
    Result<std::vector<SearchSlice>> slices =
        (*sharded)->Slices(options_.num_threads, &stats->index_seconds);
    if (!slices.ok()) return slices.status();
    view.slices = std::move(*slices);
    view.scatter_threads = options_.num_threads;
    stats->shards = (*sharded)->num_shards();
  } else {
    Result<std::shared_ptr<const PreparedIndex>> index =
        ServingIndex(&stats->index_seconds);
    if (!index.ok()) return index.status();
    view.slices.push_back(SearchSlice{*index});
  }
  return view;
}

Result<std::vector<UnifiedSearcher::Match>> Engine::Search(
    const Record& query, const EngineSearchOptions& options,
    SearchStats* stats) const {
  WallTimer wall;
  SearchStats call;
  Result<ServingView> view = ServingSlices(&call);
  if (!view.ok()) return view.status();
  std::vector<UnifiedSearcher::Match> matches =
      SearchSlices(view->slices, query, options.k, ToSearcherOptions(options),
                   view->scatter_threads, &call);
  call.results = matches.size();
  call.search_seconds = wall.Seconds();
  AddSearchStats(call, stats);
  return matches;
}

Status Engine::Search(const Record& query, const EngineSearchOptions& options,
                      MatchSink* sink, SearchStats* stats) const {
  if (sink == nullptr) {
    return Status::InvalidArgument("Engine::Search requires a sink");
  }
  // Count `results` as matches actually emitted (the sink may stop
  // early), matching BatchSearch's streaming semantics; the other
  // counters pass through from the vector Search.
  SearchStats call;
  Result<std::vector<UnifiedSearcher::Match>> matches =
      Search(query, options, &call);
  if (!matches.ok()) return matches.status();
  uint64_t emitted = 0;
  for (const UnifiedSearcher::Match& m : *matches) {
    ++emitted;
    if (!sink->OnMatch(query.id, m.id)) break;
  }
  call.results = emitted;
  AddSearchStats(call, stats);
  return Status::OK();
}

Result<std::vector<UnifiedSearcher::Match>> Engine::TopK(
    const Record& query, size_t k, const EngineSearchOptions& options,
    SearchStats* stats) const {
  EngineSearchOptions bounded = options;
  bounded.k = k;
  if (k == 0) {
    // TopK's k is authoritative: explicitly asking for zero results
    // must not fall through to Search's "0 = unbounded" — and must not
    // force the lazy index build just to return nothing.
    AUJOIN_RETURN_NOT_OK(
        CheckLayout("Engine::TopK", Needs::kAnyMode).status());
    if (stats != nullptr) {
      ++stats->queries;
    }
    return std::vector<UnifiedSearcher::Match>{};
  }
  return Search(query, bounded, stats);
}

Status Engine::BatchSearch(
    const std::vector<Record>& queries, const EngineSearchOptions& options,
    const std::function<bool(uint32_t, const UnifiedSearcher::Match&)>&
        on_match,
    SearchStats* stats) const {
  if (on_match == nullptr) {
    return Status::InvalidArgument("BatchSearch requires a callback");
  }
  WallTimer wall;
  SearchStats call;
  Result<ServingView> view = ServingSlices(&call);
  if (!view.ok()) return view.status();
  const UnifiedSearcher::SearchOptions searcher_options =
      ToSearcherOptions(options);
  const int workers = ResolveThreads(options_.num_threads);
  std::vector<std::vector<UnifiedSearcher::Match>> results(queries.size());
  std::vector<SearchStats> worker_stats(workers);
  // Parallelism lives at the query level here (each worker owns a query
  // range and reuses one thread_local count-merge accumulator across
  // it), so every query scatters over the slices serially — never a
  // pool inside a pool.
  ParallelFor(queries.size(), options_.num_threads,
              [&](size_t begin, size_t end, int worker) {
                for (size_t q = begin; q < end; ++q) {
                  results[q] = SearchSlices(
                      view->slices, queries[q], options.k, searcher_options,
                      /*num_threads=*/1, &worker_stats[worker]);
                }
              });

  uint64_t emitted = 0;
  bool stopped = false;
  for (size_t q = 0; q < queries.size() && !stopped; ++q) {
    for (const UnifiedSearcher::Match& m : results[q]) {
      ++emitted;
      if (!on_match(static_cast<uint32_t>(q), m)) {
        stopped = true;
        break;
      }
    }
  }
  for (const SearchStats& worker : worker_stats) AddSearchStats(worker, &call);
  call.results = emitted;
  call.search_seconds = wall.Seconds();
  AddSearchStats(call, stats);
  return Status::OK();
}

Status Engine::BatchSearch(const std::vector<Record>& queries,
                           const EngineSearchOptions& options,
                           MatchSink* sink, SearchStats* stats) const {
  if (sink == nullptr) {
    return Status::InvalidArgument("BatchSearch requires a sink");
  }
  return BatchSearch(
      queries, options,
      [sink](uint32_t query_index, const UnifiedSearcher::Match& m) {
        return sink->OnMatch(query_index, m.id);
      },
      stats);
}

Result<TauRecommendation> Engine::SuggestTau(
    const EngineJoinOptions& options, const TunerOptions& tuner_options) {
  AUJOIN_RETURN_NOT_OK(
      CheckLayout("Engine::SuggestTau", Needs::kNotAppending).status());
  const JoinOptions join_options =
      ToJoinOptions(options, MakeAlgorithmContext());
  return aujoin::SuggestTau(PreparedContext(), join_options, tuner_options);
}

}  // namespace aujoin
