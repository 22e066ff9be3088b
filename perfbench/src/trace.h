// The span recorder of the traced run. The benchmark opens a span
// around each call it makes into a layer of the library; a span records its
// name ("<layer>.<call>"), start and end, the span open on the same
// thread when it began (its parent) and the request it served. Spans
// stay in memory and are written out once, when the run ends.

#ifndef AUJOIN_PERFBENCH_TRACE_H_
#define AUJOIN_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;
  /// Pass as a span's request to take the request of its parent.
  static constexpr uint64_t kInheritRequest = UINT64_MAX;

  struct Span {
    const char* name;  // a string literal
    double start_us;
    double end_us;
    int32_t parent;
    uint64_t request;

    double micros() const { return end_us - start_us; }
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Microseconds since the span opened.
    double micros() const;

   private:
    Tracer* tracer_;
    int32_t index_;
    int32_t saved_current_;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Total microseconds of the closed spans named `name`.
  double TotalMicros(const std::string& name) const;

  /// Seconds per layer (the name before the first '.') that spans of
  /// the layer did not spend in child spans.
  std::map<std::string, double> LayerSelfSeconds() const;

  size_t size() const;

  /// Writes one JSON object per span to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double NowMicros() const;

  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // AUJOIN_PERFBENCH_TRACE_H_
