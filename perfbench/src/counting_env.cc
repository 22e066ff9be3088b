#include "counting_env.h"

#include <optional>

#include "bench.h"
#include "trace.h"

namespace perfbench {

namespace {

// A storage span under whatever engine call is open on this thread.
void OpenSpan(std::optional<Tracer::Scope>* span, Tracer* tracer,
              const char* name) {
  if (tracer != nullptr) span->emplace(tracer, name, Tracer::kInheritRequest);
}

}  // namespace

class CountingFile : public aujoin::WritableFile {
 public:
  CountingFile(std::unique_ptr<aujoin::WritableFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}

  aujoin::Status Append(const void* data, size_t size) override {
    aujoin::Status status = base_->Append(data, size);
    if (status.ok()) env_->AddBytes(size);
    return status;
  }
  aujoin::Status Sync() override {
    std::optional<Tracer::Scope> span;
    OpenSpan(&span, env_->tracer_.load(), "storage.Sync");
    Clock::time_point start = Clock::now();
    aujoin::Status status = base_->Sync();
    env_->AddSync(SecondsSince(start) * 1e6);
    return status;
  }
  aujoin::Status Allocate(uint64_t size) override {
    return base_->Allocate(size);
  }
  aujoin::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<aujoin::WritableFile> base_;
  CountingEnv* env_;
};

CountingEnv::Counts CountingEnv::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

void CountingEnv::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_ = Counts{};
}

aujoin::Result<std::unique_ptr<aujoin::WritableFile>>
CountingEnv::NewWritableFile(const std::string& path, bool truncate) {
  aujoin::Result<std::unique_ptr<aujoin::WritableFile>> file =
      base_->NewWritableFile(path, truncate);
  if (!file.ok()) return file.status();
  return std::unique_ptr<aujoin::WritableFile>(
      std::make_unique<CountingFile>(std::move(*file), this));
}

aujoin::Status CountingEnv::RenameFile(const std::string& from,
                                       const std::string& to) {
  std::optional<Tracer::Scope> span;
  OpenSpan(&span, tracer_.load(), "storage.Rename");
  aujoin::Status status = base_->RenameFile(from, to);
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_.renames;
  return status;
}

aujoin::Status CountingEnv::SyncDir(const std::string& dir) {
  std::optional<Tracer::Scope> span;
  OpenSpan(&span, tracer_.load(), "storage.SyncDir");
  aujoin::Status status = base_->SyncDir(dir);
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_.dir_syncs;
  return status;
}

void CountingEnv::AddBytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_.bytes_written += bytes;
}

void CountingEnv::AddSync(double micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_.syncs;
  counts_.sync_us.push_back(micros);
}

}  // namespace perfbench
