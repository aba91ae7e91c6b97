// Spans recorded by the traced run around the calls into each layer's
// public functions. Nothing here reaches inside the library: a span covers
// exactly one public call (or one benchmark-side grouping of them).

#ifndef PERFBENCH_LOADGEN_TRACE_H_
#define PERFBENCH_LOADGEN_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Span {
  int64_t request = 0;
  const char* name = "";
  /// Index of the enclosing span in the same Tracer; -1 at top level.
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans, kept in memory until the run ends. Spans nest: a
/// span begun while another is open becomes its child.
class Tracer {
 public:
  int Begin(const char* name, int64_t request) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{request, name, open_.empty() ? -1 : open_.back(),
                          NowNs(), 0});
    open_.push_back(id);
    return id;
  }
  /// Closes span `id` (the innermost open one) and returns its length.
  int64_t End(int id) {
    open_.pop_back();
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    return s.end_ns - s.start_ns;
  }
  /// Renames a span once the call's outcome is known (a plan-cache lookup
  /// that turned out to be a miss is a plan build).
  void Rename(int id, const char* name) {
    spans_[static_cast<size_t>(id)].name = name;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span name across all tracers: each span's length
/// minus the part its child spans cover, summed, with the number of
/// distinct requests that recorded the name.
struct SelfTime {
  double total_ms = 0;
  int64_t requests = 0;
  /// Mean self time per request that made the call; 0 if none did.
  double PerRequestMs() const {
    return requests == 0 ? 0.0 : total_ms / static_cast<double>(requests);
  }
};

inline std::map<std::string, SelfTime> SelfTimes(
    const std::vector<Tracer>& tracers) {
  std::map<std::string, SelfTime> out;
  std::map<std::string, int64_t> last_request;
  for (const Tracer& t : tracers) {
    const std::vector<Span>& spans = t.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SelfTime& st = out[s.name];
      st.total_ms += NsToMs(s.end_ns - s.start_ns - child_ns[i]);
      auto [it, inserted] = last_request.emplace(s.name, s.request);
      if (inserted || it->second != s.request) {
        it->second = s.request;
        ++st.requests;
      }
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_TRACE_H_
