#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

namespace perfbench {

namespace {

// The span currently open on this thread (an index into the one live
// tracer's spans), so nested scopes find their parent.
thread_local int32_t current_span = Tracer::kNoParent;

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer), saved_current_(current_span) {
  double now = tracer_->NowMicros();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  if (request == kInheritRequest) {
    request = current_span == kNoParent
                  ? 0
                  : tracer_->spans_[current_span].request;
  }
  tracer_->spans_.push_back(Span{name, now, -1.0, current_span, request});
  current_span = index_;
}

Tracer::Scope::~Scope() {
  double now = tracer_->NowMicros();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_[index_].end_us = now;
  current_span = saved_current_;
}

double Tracer::Scope::micros() const {
  double now = tracer_->NowMicros();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  return now - tracer_->spans_[index_].start_us;
}

double Tracer::NowMicros() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

double Tracer::TotalMicros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.end_us >= 0.0 && name == span.name) total += span.micros();
  }
  return total;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent && span.end_us >= 0.0) {
      child_us[span.parent] += span.micros();
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_us < 0.0) continue;
    std::string name = spans_[i].name;
    std::string layer = name.substr(0, name.find('.'));
    self[layer] += (spans_[i].micros() - child_us[i]) * 1e-6;
  }
  return self;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu}\n",
                 i, span.name, span.start_us, span.end_us, span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(file) == 0;
}

void ReportLayers(const Args& args, const LayerFigures& f,
                  const Tracer& tracer, Result* result) {
  const struct {
    const char* name;
    double value;
    const char* unit;
  } figures[] = {
      {"index.prepare_s", f.index_prepare_s, "s"},
      {"index.serving_build_s", f.index_serving_build_s, "s"},
      {"index.query_pebbles_us", f.index_query_pebbles_us, "us"},
      {"join.signature_s", f.join_signature_s, "s"},
      {"join.filter_s", f.join_filter_s, "s"},
      {"join.verify_s", f.join_verify_s, "s"},
      {"join.processed_pairs", f.join_processed_pairs, "count"},
      {"join.candidates", f.join_candidates, "count"},
      {"join.candidate_yield", f.join_candidate_yield, "ratio"},
      {"join.search_candidates_per_query",
       f.join_search_candidates_per_query, "count"},
      {"core.segments_s", f.core_segments_s, "s"},
      {"core.pair_graph_s", f.core_pair_graph_s, "s"},
      {"core.pair_graph_vertices_mean", f.core_pair_graph_vertices_mean,
       "count"},
      {"core.squareimp_s", f.core_squareimp_s, "s"},
      {"core.getsim_s", f.core_getsim_s, "s"},
      {"core.improve_s", f.core_improve_s, "s"},
      {"core.approx_us_p50", f.core_approx_us_p50, "us"},
      {"core.approx_us_p99", f.core_approx_us_p99, "us"},
      {"core.reject_share", f.core_reject_share, "ratio"},
      {"core.verify_unaccounted_share", f.core_verify_unaccounted_share,
       "ratio"},
      {"shard.build_s", f.shard_build_s, "s"},
      {"shard.slowest_over_mean", f.shard_slowest_over_mean, "ratio"},
      {"shard.gather_us", f.shard_gather_us, "us"},
      {"storage.bytes_written", f.storage_bytes_written, "bytes"},
      {"storage.syncs", f.storage_syncs, "count"},
      {"storage.sync_us_p50", f.storage_sync_us_p50, "us"},
      {"storage.sync_us_p99", f.storage_sync_us_p99, "us"},
      {"storage.dir_syncs", f.storage_dir_syncs, "count"},
      {"storage.renames", f.storage_renames, "count"},
      {"storage.checkpoints", f.storage_checkpoints, "count"},
      {"storage.checkpoint_s", f.storage_checkpoint_s, "s"},
      {"storage.replayed_records", f.storage_replayed_records, "count"},
      {"trace.overhead_share", f.trace_overhead_share, "ratio"},
  };
  for (const auto& figure : figures) {
    result->Metric(figure.name, figure.value, figure.unit);
  }
  std::map<std::string, double> self = tracer.LayerSelfSeconds();
  for (const char* layer : {"api", "index", "join", "core", "shard",
                            "storage"}) {
    result->Metric(std::string(layer) + ".self_s", self[layer], "s");
  }
  result->Detail("trace.spans", static_cast<double>(tracer.size()), "count");

  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                     std::to_string(args.seed) + ".jsonl";
  result->Check(!error && tracer.WriteJsonLines(path),
                "write spans to " + path);
}

}  // namespace perfbench
