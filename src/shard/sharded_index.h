/// \file
/// ShardedIndex — first-class shards for serving. The collection is
/// split by a ShardPlan; each shard owns its records (ids renumbered
/// locally), its local→global id list and an immutable PreparedIndex
/// over them, built lazily on first probe or mounted lazily from its
/// own snapshot file. Slices() pins the shards as SearchSlices, and
/// SearchSlices (join/search.h) scatters a query over them and merges
/// under the serving order — the same scatter-gather the monolithic
/// and append serving paths use, and byte-identical to one monolithic
/// searcher over the whole collection.
///
/// Thread-safety: after construction every const method is safe to
/// call concurrently. Each shard's index is published through its own
/// LazyShared, so concurrent first probes block only on that one shard,
/// never on each other.

#ifndef AUJOIN_SHARD_SHARDED_INDEX_H_
#define AUJOIN_SHARD_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/knowledge.h"
#include "core/measures.h"
#include "core/record.h"
#include "index/prepared_index.h"
#include "join/search.h"
#include "shard/shard_plan.h"
#include "util/lazy_shared.h"
#include "util/status.h"

namespace aujoin {

class Env;

class ShardedIndex {
 public:
  /// Splits `records` under `plan` (each shard copies its slice with
  /// ids renumbered 0..n-1, so the index owns everything it serves) and
  /// fingerprints the whole collection for the manifest. Shard indexes
  /// are built lazily; nothing heavy happens here.
  ShardedIndex(const Knowledge& knowledge, const MsimOptions& msim,
               const std::vector<Record>& records, const ShardPlan& plan);
  ~ShardedIndex();

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  size_t num_shards() const { return shards_.size(); }
  /// Shards whose index is currently resident (built or mounted) — lets
  /// tests assert that mounting one shard leaves the rest untouched.
  size_t num_resident_shards() const;

  /// Pins every non-empty shard as a SearchSlice (its index plus its
  /// local→global id list, which lives as long as this object). Shards
  /// not yet resident are built or mounted first, in parallel over
  /// `num_threads` (ResolveThreads semantics); `built_seconds` (when
  /// given) gains the build/mount seconds THIS call paid, charged once
  /// across concurrent callers. Fails when a lazy snapshot mount fails;
  /// that shard stays unpublished, so the next call retries it.
  Result<std::vector<SearchSlice>> Slices(
      int num_threads, double* built_seconds = nullptr) const;

  /// Shard `s`'s prepared index, building it from the shard's records
  /// (or mounting its snapshot file) on first use. Thread-safe.
  Result<std::shared_ptr<const PreparedIndex>> ShardIndex(
      size_t s, double* built_seconds = nullptr) const;

  /// Saves every shard's index as its own snapshot file
  /// (`<path>.shard-<s>`, forcing lazy builds first) and then commits
  /// the manifest at `path` — manifest durable implies every shard file
  /// is. All files go through the usual temp + rename + SyncDir
  /// sequence, so a crash never leaves a half-written file under a
  /// final name.
  Status Save(const std::string& path, Env* env = nullptr) const;

  /// Mounts a sharded snapshot saved by Save: validates the manifest at
  /// `path` against `records` split under `plan` (shard count, placement
  /// scheme, per-shard sizes and the full-collection fingerprint must
  /// match), then arms every shard for LAZY mounting —
  /// a shard's file is mapped on that shard's first probe, without
  /// touching the rest. Per-shard fingerprints are validated by that
  /// mount, so a tampered shard file surfaces as a typed error at first
  /// probe, never as UB.
  static Result<std::unique_ptr<ShardedIndex>> Load(
      const Knowledge& knowledge, const MsimOptions& msim,
      const std::vector<Record>& records, const ShardPlan& plan,
      const std::string& path, Env* env = nullptr);

  /// `<path>.shard-<s>` — where Save puts shard s's snapshot.
  static std::string ShardFileName(const std::string& path, size_t s);

 private:
  /// One shard: the owned records (local ids), its global id map, and
  /// the lazily built/mounted immutable index.
  struct Shard {
    std::vector<Record> records;
    std::vector<uint32_t> global_ids;
    /// Non-empty = mount from this snapshot file instead of building.
    std::string snapshot_path;
    LazyShared<PreparedIndex> index;
  };

  Knowledge knowledge_;
  MsimOptions msim_;
  ShardBy shard_by_ = ShardBy::kRange;
  size_t num_records_ = 0;
  /// Order-sensitive fingerprint of the unsharded collection (ids and
  /// tokens), written to and checked against the manifest.
  uint64_t records_hash_ = 0;
  Env* env_ = nullptr;  // used only for lazy snapshot mounts
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace aujoin

#endif  // AUJOIN_SHARD_SHARDED_INDEX_H_
