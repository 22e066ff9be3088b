#include "storage/generational_index.h"

#include <string>
#include <utility>

#include "storage/wal_format.h"
#include "storage/wal_writer.h"
#include "util/timer.h"

namespace aujoin {

GenerationalIndex::GenerationalIndex(const Knowledge& knowledge,
                                     const MsimOptions& msim,
                                     std::vector<Record> initial)
    : knowledge_(knowledge), msim_(msim) {
  for (size_t i = 0; i < initial.size(); ++i) {
    initial[i].id = static_cast<uint32_t>(i);
  }
  frozen_ = BuildGeneration(knowledge_, msim_, std::move(initial));
}

GenerationalIndex::GenerationalIndex(
    const Knowledge& knowledge, const MsimOptions& msim,
    std::shared_ptr<const std::vector<Record>> records,
    std::shared_ptr<const PreparedIndex> index)
    : knowledge_(knowledge), msim_(msim) {
  auto gen = std::make_shared<Generation>();
  gen->records = std::move(records);
  gen->index = std::move(index);
  frozen_ = std::move(gen);
}

void GenerationalIndex::AttachWal(WalWriter* wal) {
  std::lock_guard<std::mutex> lock(mutex_);
  wal_ = wal;
  wal_status_ = Status::OK();
}

Result<uint32_t> GenerationalIndex::AppendDurable(Record record) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "no WAL attached (AttachWal first, or use the volatile Append)");
  }
  if (!wal_status_.ok()) {
    return Status::FailedPrecondition(
        "appends disabled after a WAL failure (" + wal_status_.message() +
        "): reusing the failed append's id would resurrect the wrong " +
        "record at replay");
  }
  // Ids are handed out at enqueue time: staged records plus every
  // in-flight append ahead of us. Queue order == id order == log order.
  PendingDurable entry;
  entry.id = static_cast<uint32_t>(frozen_->records->size() +
                                   staging_records_.size() + wal_in_flight_);
  record.id = entry.id;
  entry.record = std::move(record);
  EncodeWalAppend(entry.id, entry.record.text, &entry.payload);
  wal_pending_.push_back(&entry);
  ++wal_in_flight_;

  if (wal_flush_in_flight_) {
    // Follower: a leader is (or will be) flushing; it drains the queue
    // and wakes us once our record is durable (or the batch failed).
    wal_cv_.wait(lock, [&] { return entry.done; });
    if (!entry.status.ok()) return entry.status;
    return entry.id;
  }

  // Leader: drain queued appends in batches, one fsync per batch. The
  // WAL calls run with the mutex released so followers can keep
  // queueing (and queries keep serving); wal_flush_in_flight_ keeps
  // every other thread away from the writer meanwhile.
  wal_flush_in_flight_ = true;
  while (!wal_pending_.empty()) {
    std::vector<PendingDurable*> batch(wal_pending_.begin(),
                                       wal_pending_.end());
    wal_pending_.clear();
    Status flushed = wal_status_;
    if (flushed.ok()) {
      lock.unlock();
      for (PendingDurable* e : batch) {
        flushed = wal_->AddRecord(e->payload.data(), e->payload.size());
        if (!flushed.ok()) break;
      }
      if (flushed.ok()) flushed = wal_->Sync();
      lock.lock();
    }
    if (!flushed.ok() && wal_status_.ok()) wal_status_ = flushed;
    for (PendingDurable* e : batch) {
      e->status = flushed;
      // Stage in batch (== id) order, and only after durability: a
      // record visible to queries was always acknowledged by the disk
      // first. A failed batch stages nothing — none of its appends are
      // acknowledged, so none may resurrect at replay.
      if (flushed.ok()) staging_records_.push_back(std::move(e->record));
      e->done = true;
      --wal_in_flight_;
    }
    if (flushed.ok()) staging_gen_.reset();
    wal_cv_.notify_all();
  }
  wal_flush_in_flight_ = false;
  wal_cv_.notify_all();
  if (!entry.status.ok()) return entry.status;
  return entry.id;
}

std::shared_ptr<const GenerationalIndex::Generation>
GenerationalIndex::BuildGeneration(const Knowledge& knowledge,
                                   const MsimOptions& msim,
                                   std::vector<Record> records) {
  auto gen = std::make_shared<Generation>();
  gen->records =
      std::make_shared<const std::vector<Record>>(std::move(records));
  gen->index = PreparedIndex::Build(knowledge, msim, *gen->records, nullptr);
  return gen;
}

uint32_t GenerationalIndex::Append(Record record) {
  std::unique_lock<std::mutex> lock(mutex_);
  // In-flight durable appends hold ids past the staged tail; wait for
  // the batch to land so the volatile id cannot collide with one.
  wal_cv_.wait(lock, [&] { return wal_in_flight_ == 0; });
  uint32_t id = static_cast<uint32_t>(frozen_->records->size() +
                                      staging_records_.size());
  record.id = id;
  staging_records_.push_back(std::move(record));
  staging_gen_.reset();  // the next query re-prepares the staging side
  return id;
}

std::vector<SearchSlice> GenerationalIndex::Slices(
    double* built_seconds) const {
  std::shared_ptr<const Generation> frozen;
  std::shared_ptr<const Generation> staging;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (staging_gen_ == nullptr && !staging_records_.empty()) {
      // Prepare the staging mini index over a COPY of the buffer: a
      // concurrent Append may grow (and reallocate) staging_records_
      // while this generation is still serving queries.
      WallTimer timer;
      staging_gen_ = BuildGeneration(knowledge_, msim_, staging_records_);
      if (built_seconds != nullptr) *built_seconds += timer.Seconds();
    }
    frozen = frozen_;
    staging = staging_gen_;
  }
  // Aliasing pointers: each slice's index owns its whole generation,
  // records included.
  std::vector<SearchSlice> slices;
  slices.push_back(SearchSlice{
      std::shared_ptr<const PreparedIndex>(frozen, frozen->index.get())});
  if (staging != nullptr) {
    slices.push_back(SearchSlice{
        std::shared_ptr<const PreparedIndex>(staging, staging->index.get()),
        nullptr, static_cast<uint32_t>(frozen->records->size())});
  }
  return slices;
}

void GenerationalIndex::Refreeze() {
  std::lock_guard<std::mutex> refreeze_lock(refreeze_mutex_);
  std::vector<Record> merged;
  size_t batch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch = staging_records_.size();
    if (batch == 0) return;
    merged.reserve(frozen_->records->size() + batch);
    merged = *frozen_->records;
    merged.insert(merged.end(), staging_records_.begin(),
                  staging_records_.begin() + batch);
  }
  // The expensive part — pebble generation + freeze over the union —
  // runs with no lock held; queries keep serving the old generation.
  std::shared_ptr<const Generation> next =
      BuildGeneration(knowledge_, msim_, std::move(merged));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    frozen_ = next;
    // Records appended during the rebuild stay in staging. Their global
    // ids are unchanged: the frozen side grew by exactly the `batch`
    // records that left staging ahead of them.
    staging_records_.erase(staging_records_.begin(),
                           staging_records_.begin() + batch);
    staging_gen_.reset();
    ++generation_;
  }
}

std::string GenerationalIndex::TextOf(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t frozen = frozen_->records->size();
  if (id < frozen) return (*frozen_->records)[id].text;
  size_t staged = id - frozen;
  if (staged < staging_records_.size()) return staging_records_[staged].text;
  return std::string();
}

size_t GenerationalIndex::num_frozen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frozen_->records->size();
}

size_t GenerationalIndex::num_staged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return staging_records_.size();
}

size_t GenerationalIndex::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frozen_->records->size() + staging_records_.size();
}

uint64_t GenerationalIndex::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

std::shared_ptr<const PreparedIndex> GenerationalIndex::frozen_index() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frozen_->index;
}

}  // namespace aujoin
