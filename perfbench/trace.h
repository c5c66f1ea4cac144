#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans the traced mode records around each public xmlq call the workload
// makes. They are kept in memory by the thread that records them and
// written out when the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int32_t parent;  // index in the same recorder; -1 for an op's root span
  uint64_t op;
};

/// One thread's spans. Untraced code passes a null recorder to Scope.
class TraceRecorder {
 public:
  TraceRecorder() { spans_.reserve(1 << 16); }

  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(const char* name, uint64_t op) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNanos(), 0, parent, op});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t index) {
    spans_[index].end = NowNanos();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(TraceRecorder* rec, const char* name, uint64_t op)
      : rec_(rec), index_(rec ? rec->Begin(name, op) : -1) {}
  ~Scope() {
    if (rec_) rec_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TraceRecorder* rec_;
  int32_t index_;
};

/// Self time of each span: its duration minus the union of the intervals
/// its child spans cover. Returns name -> total self nanoseconds.
inline std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (auto [b, e] : k) {
      if (b > cur_e) {
        if (cur_e >= cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e >= cur_b) covered += cur_e - cur_b;
    self[spans[i].name] += (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
