#include "shard/sharded_index.h"

#include <cstring>
#include <utility>

#include "storage/env.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace aujoin {
namespace {

/// Order-sensitive fingerprint of the full record vector — the same
/// formula the snapshot meta uses for its record hashes, computed here
/// over the unsharded collection so a manifest refuses a different
/// world before any shard file is opened.
uint64_t HashFullCollection(const std::vector<Record>& records) {
  uint64_t h = records.size();
  for (const Record& r : records) {
    h = HashCombine(h, r.id);
    h = HashCombine(h, HashTokenSpan(r.tokens.data(), r.tokens.size()));
  }
  return h;
}

}  // namespace

ShardedIndex::ShardedIndex(const Knowledge& knowledge,
                           const MsimOptions& msim,
                           const std::vector<Record>& records,
                           const ShardPlan& plan)
    : knowledge_(knowledge),
      msim_(msim),
      shard_by_(plan.shard_by),
      num_records_(records.size()),
      records_hash_(HashFullCollection(records)) {
  shards_.reserve(plan.num_shards());
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->global_ids = plan.shard_ids[s];
    shard->records.reserve(shard->global_ids.size());
    for (size_t i = 0; i < shard->global_ids.size(); ++i) {
      Record r = records[shard->global_ids[i]];
      r.id = static_cast<uint32_t>(i);
      shard->records.push_back(std::move(r));
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedIndex::~ShardedIndex() = default;

size_t ShardedIndex::num_resident_shards() const {
  size_t resident = 0;
  for (const auto& shard : shards_) {
    if (shard->index.resident()) ++resident;
  }
  return resident;
}

Result<std::shared_ptr<const PreparedIndex>> ShardedIndex::ShardIndex(
    size_t s, double* built_seconds) const {
  const Shard& shard = *shards_[s];
  return shard.index.Get(
      [&]() -> Result<std::shared_ptr<const PreparedIndex>> {
        if (shard.snapshot_path.empty()) {
          return PreparedIndex::Build(knowledge_, msim_, shard.records,
                                      nullptr);
        }
        return PreparedIndex::Load(knowledge_, msim_, shard.records, nullptr,
                                   shard.snapshot_path, env_);
      },
      built_seconds);
}

Result<std::vector<SearchSlice>> ShardedIndex::Slices(
    int num_threads, double* built_seconds) const {
  const size_t n = shards_.size();
  // Empty shards hold nothing to match; they are never built or pinned.
  auto wanted = [&](size_t s) { return !shards_[s]->records.empty(); };
  std::vector<Status> status(n, Status::OK());
  std::vector<double> built(n, 0.0);
  bool cold = false;
  for (size_t s = 0; s < n && !cold; ++s) {
    cold = wanted(s) && !shards_[s]->index.resident();
  }
  if (cold) {
    ParallelFor(n, num_threads, [&](size_t begin, size_t end, int) {
      for (size_t s = begin; s < end; ++s) {
        if (wanted(s)) status[s] = ShardIndex(s, &built[s]).status();
      }
    });
  }
  std::vector<SearchSlice> slices;
  slices.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    if (!status[s].ok()) return status[s];
    if (built_seconds != nullptr) *built_seconds += built[s];
    if (!wanted(s)) continue;
    // Resident now, so this is a lock-free read.
    Result<std::shared_ptr<const PreparedIndex>> index = ShardIndex(s);
    if (!index.ok()) return index.status();
    slices.push_back(SearchSlice{*index, &shards_[s]->global_ids, 0});
  }
  return slices;
}

std::string ShardedIndex::ShardFileName(const std::string& path, size_t s) {
  return path + ".shard-" + std::to_string(s);
}

Status ShardedIndex::Save(const std::string& path, Env* env) const {
  if (env == nullptr) env = Env::Default();
  // Shard files first, manifest last: once the manifest's rename is
  // durable, every file it references already is.
  for (size_t s = 0; s < shards_.size(); ++s) {
    Result<std::shared_ptr<const PreparedIndex>> index = ShardIndex(s);
    if (!index.ok()) return index.status();
    AUJOIN_RETURN_NOT_OK((*index)->Save(ShardFileName(path, s), env));
  }
  std::vector<uint8_t> payload(sizeof(ShardManifestHeader) +
                               shards_.size() * sizeof(uint64_t));
  ShardManifestHeader header;
  header.num_records = num_records_;
  header.num_shards = static_cast<uint32_t>(shards_.size());
  header.shard_by = static_cast<uint32_t>(shard_by_);
  header.records_hash = records_hash_;
  std::memcpy(payload.data(), &header, sizeof(header));
  for (size_t s = 0; s < shards_.size(); ++s) {
    uint64_t count = shards_[s]->records.size();
    std::memcpy(payload.data() + sizeof(header) + s * sizeof(uint64_t),
                &count, sizeof(count));
  }
  SnapshotWriter writer(path, env);
  writer.AddSection(kSectionShardManifest, payload.data(), payload.size());
  return writer.Finish();
}

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Load(
    const Knowledge& knowledge, const MsimOptions& msim,
    const std::vector<Record>& records, const ShardPlan& plan,
    const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  Result<std::shared_ptr<const SnapshotReader>> reader =
      SnapshotReader::Open(path, env);
  if (!reader.ok()) return reader.status();
  Result<SnapshotReader::Section> section =
      (*reader)->Find(kSectionShardManifest);
  if (!section.ok()) {
    return Status::FailedPrecondition(
        path + ": not a sharded-index manifest (no shard section)");
  }
  if (section->size < sizeof(ShardManifestHeader)) {
    return Status::Corruption(path + ": shard manifest truncated");
  }
  ShardManifestHeader header;
  std::memcpy(&header, section->data, sizeof(header));
  if (section->size !=
      sizeof(header) + header.num_shards * sizeof(uint64_t)) {
    return Status::Corruption(path + ": shard manifest size mismatch");
  }
  if (header.num_records != records.size()) {
    return Status::FailedPrecondition(
        path + ": manifest covers " + std::to_string(header.num_records) +
        " records, " + std::to_string(records.size()) + " are bound");
  }
  if (header.num_shards != plan.num_shards() ||
      header.shard_by != static_cast<uint32_t>(plan.shard_by)) {
    return Status::FailedPrecondition(
        path + ": manifest is " + std::to_string(header.num_shards) +
        " shards by " +
        ShardByName(static_cast<ShardBy>(header.shard_by)) +
        ", engine wants " + std::to_string(plan.num_shards()) + " by " +
        ShardByName(plan.shard_by));
  }
  auto index = std::make_unique<ShardedIndex>(knowledge, msim, records, plan);
  if (header.records_hash != index->records_hash_) {
    return Status::FailedPrecondition(
        path + ": bound records do not match the manifest fingerprint");
  }
  index->env_ = env;
  for (size_t s = 0; s < index->shards_.size(); ++s) {
    uint64_t count = 0;
    std::memcpy(&count,
                section->data + sizeof(header) + s * sizeof(uint64_t),
                sizeof(count));
    if (count != index->shards_[s]->records.size()) {
      return Status::Corruption(
          path + ": shard " + std::to_string(s) + " holds " +
          std::to_string(count) + " records in the manifest, plan says " +
          std::to_string(index->shards_[s]->records.size()));
    }
    // Arm the lazy mount; the shard file is opened (and its own
    // fingerprints validated) on this shard's first probe.
    index->shards_[s]->snapshot_path = ShardFileName(path, s);
  }
  return index;
}

}  // namespace aujoin
