/// \file
/// LazyShared<T> — a build-once, publish-once shared_ptr slot. The
/// serving path's lazily built structures (the engine's prepared index,
/// its sharded index, every shard's index) all follow one discipline:
/// the first caller builds under a mutex, publishes with a release
/// store, and every later caller reads the published pointer after one
/// acquire load without touching the mutex.

#ifndef AUJOIN_UTIL_LAZY_SHARED_H_
#define AUJOIN_UTIL_LAZY_SHARED_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "util/status.h"
#include "util/timer.h"

namespace aujoin {

/// Thread-safety: Get, Peek and resident are safe to call concurrently
/// with each other. Set and Reset are mutations: never run them
/// concurrently with a Get or Peek (the owner's usual rule that
/// rebinding an engine is never concurrent with serving it). That rule
/// is what lets a reader who saw the value published use it lock-free.
/// Neither copyable nor movable (readers hold its address); an owner
/// that must move holds it behind a unique_ptr.
template <typename T>
class LazyShared {
 public:
  LazyShared() = default;
  LazyShared(const LazyShared&) = delete;
  LazyShared& operator=(const LazyShared&) = delete;

  /// The published value, building it first with `build` (a callable
  /// returning Result<std::shared_ptr<const T>>) when none is.
  /// Concurrent first callers run `build` once; the rest wait for it. A
  /// failed build returns its status and publishes nothing, so the next
  /// Get retries. `built_seconds`, when given, gains the build's wall
  /// seconds if and only if this call ran it.
  template <typename Build>
  Result<std::shared_ptr<const T>> Get(Build&& build,
                                       double* built_seconds = nullptr) const {
    if (ready_.load(std::memory_order_acquire)) return value_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ready_.load(std::memory_order_relaxed)) {
      WallTimer timer;
      Result<std::shared_ptr<const T>> built = build();
      if (!built.ok()) return built.status();
      value_ = std::move(*built);
      if (built_seconds != nullptr) *built_seconds += timer.Seconds();
      ready_.store(true, std::memory_order_release);
    }
    return value_;
  }

  /// The published value, or nullptr before the first successful Get
  /// or Set. Never builds.
  std::shared_ptr<const T> Peek() const {
    return ready_.load(std::memory_order_acquire) ? value_ : nullptr;
  }

  bool resident() const { return ready_.load(std::memory_order_acquire); }

  /// Publishes `value` directly (e.g. a structure mounted from disk).
  void Set(std::shared_ptr<const T> value) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ = std::move(value);
    ready_.store(true, std::memory_order_release);
  }

  /// Unpublishes: the next Get builds afresh. Holders of the old value
  /// keep it alive.
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    ready_.store(false, std::memory_order_relaxed);
    value_.reset();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::atomic<bool> ready_{false};
  mutable std::shared_ptr<const T> value_;
};

}  // namespace aujoin

#endif  // AUJOIN_UTIL_LAZY_SHARED_H_
