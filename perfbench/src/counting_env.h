// A storage Env that forwards to another Env (normally Env::Default())
// and counts what the engine asks of storage: bytes appended, content
// syncs and how long each took, directory syncs and renames. Passed in
// through EngineOptions::env, so it sees every file the engine touches.

#ifndef AUJOIN_PERFBENCH_COUNTING_ENV_H_
#define AUJOIN_PERFBENCH_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/env.h"

namespace perfbench {

class Tracer;

class CountingEnv : public aujoin::Env {
 public:
  struct Counts {
    uint64_t bytes_written = 0;
    uint64_t syncs = 0;
    uint64_t dir_syncs = 0;
    uint64_t renames = 0;
    /// Microseconds of each content sync, in call order.
    std::vector<double> sync_us;
  };

  /// `base` must outlive this env.
  explicit CountingEnv(aujoin::Env* base) : base_(base) {}

  Counts counts() const;
  void Reset();

  /// While set, every sync, directory sync and rename runs inside a
  /// "storage." span of `tracer` (nullptr stops tracing).
  void set_tracer(Tracer* tracer) { tracer_.store(tracer); }

  aujoin::Result<std::unique_ptr<aujoin::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  aujoin::Result<std::shared_ptr<const aujoin::FileMapping>> MapFile(
      const std::string& path) override {
    return base_->MapFile(path);
  }
  aujoin::Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  aujoin::Status RenameFile(const std::string& from,
                            const std::string& to) override;
  aujoin::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  aujoin::Status TruncateFile(const std::string& path,
                              uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  aujoin::Status SyncDir(const std::string& dir) override;

 private:
  friend class CountingFile;

  void AddBytes(uint64_t bytes);
  void AddSync(double micros);

  aujoin::Env* base_;
  std::atomic<Tracer*> tracer_{nullptr};
  mutable std::mutex mutex_;
  Counts counts_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // AUJOIN_PERFBENCH_COUNTING_ENV_H_
