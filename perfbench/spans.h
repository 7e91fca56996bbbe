#ifndef MEMGOAL_PERFBENCH_SPANS_H_
#define MEMGOAL_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace memgoal::perfbench {

/// In-memory span recorder of the traced run. Spans are opened and closed
/// around calls into the simulator's layers from the benchmark's side;
/// nothing is written until the run ends.
class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = kNoParent;
  };

  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  /// Opens a span and returns its id.
  int Begin(const char* name, int parent = kNoParent) {
    spans_.push_back(Span{name, NowNs(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    uint64_t count = 0;
    double total_ms = 0.0;
    /// Duration minus the time the span's children cover.
    double self_ms = 0.0;
  };
  /// Per-name count, total and self time.
  std::map<std::string, Totals> Summarize() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != kNoParent) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, Totals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      Totals& t = totals[spans_[i].name];
      ++t.count;
      t.total_ms += static_cast<double>(duration) / 1e6;
      t.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
    }
    return totals;
  }

  /// One JSON object per span: id, name, start/end (ns since the recorder
  /// was created), parent id (-1 for roots) and run id.
  void WriteJsonl(std::FILE* out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"run\":\"%s\"}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   run_id_.c_str());
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope when a recorder is given;
/// a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             int parent = SpanRecorder::kNoParent)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent)
                                : SpanRecorder::kNoParent) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace memgoal::perfbench

#endif  // MEMGOAL_PERFBENCH_SPANS_H_
