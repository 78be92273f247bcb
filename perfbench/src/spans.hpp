// In-memory span recorder for the traced run.
//
// A span is one public library call made by the benchmark (or a benchmark
// phase): name ("<layer>.<call>"), start, end, parent span and the batch or
// round id it belongs to.  Spans nest strictly on the one thread that records
// them, so a span's self time is its duration minus the summed durations of
// its direct children.  Nothing is written while the run is timed; write()
// dumps the spans at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t id = 0;  // batch or round number
};

class Spans {
 public:
  bool on = false;

  int32_t begin(const char* name, uint64_t id) {
    if (!on) return -1;
    const int32_t idx = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                      id});
    stack_.push_back(idx);
    return idx;
  }
  void end(int32_t idx) {
    if (idx < 0) return;
    spans_[idx].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Self time (ns) summed per span name.
  [[nodiscard]] std::map<std::string, int64_t> self_by_name() const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end_ns - spans_[i].start_ns - child[i];
    }
    return out;
  }

  // Inclusive time (ns) summed per span name.
  [[nodiscard]] std::map<std::string, int64_t> total_by_name() const {
    std::map<std::string, int64_t> out;
    for (const Span& s : spans_) out[s.name] += s.end_ns - s.start_ns;
    return out;
  }

  // Self time per layer: the span name up to its first '.'.
  [[nodiscard]] std::map<std::string, int64_t> self_by_layer() const {
    std::map<std::string, int64_t> out;
    for (const auto& [name, ns] : self_by_name()) {
      out[name.substr(0, name.find('.'))] += ns;
    }
    return out;
  }

  // One tab-separated line per span: id name start_ns end_ns parent batch.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "span\tname\tstart_ns\tend_ns\tparent\tid\n");
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\n", i, s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   static_cast<unsigned long long>(s.id));
    }
    return std::fclose(f) == 0;
  }

  void clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// RAII span; a no-op when the recorder is off.
class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name, uint64_t id)
      : spans_(spans), idx_(spans.begin(name, id)) {}
  ~SpanScope() { spans_.end(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  int32_t idx_;
};

}  // namespace perfbench
