// Bench-side wall-clock spans: name, start, end and parent, kept in
// memory and written once at exit as a Chrome trace.  Each span carries
// its self time (its duration minus the part its child spans cover), so
// the trace says where the outside view of a layer call spent its time.
//
// Spans nest strictly (a stack): a child always closes before its
// parent, so children never overlap and self time is a subtraction.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace tg::e2e {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  /// Run `fn` inside a span named `name` (child of the innermost open
  /// span) and return its duration in seconds.
  template <typename F>
  double time(std::string name, F&& fn) {
    const int id = open(std::move(name));
    std::forward<F>(fn)();
    return close(id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  [[nodiscard]] double self_seconds(std::size_t id) const {
    double children = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(id)) children += s.end_s - s.start_s;
    }
    return spans_[id].end_s - spans_[id].start_s - children;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), one
  /// event per span with args.self_us and args.parent.
  [[nodiscard]] std::string chrome_json() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string parent =
          s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
      if (i != 0) out += ',';
      out += "\n{\"name\":\"" + s.name + "\",\"cat\":\"bench_e2e\",\"ph\":\"X\"";
      std::snprintf(buf, sizeof buf,
                    ",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"self_us\":%.3f,\"parent\":\"",
                    s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                    self_seconds(i) * 1e6);
      out += buf + parent + "\"}}";
    }
    out += "\n]}\n";
    return out;
  }

 private:
  using clock = std::chrono::steady_clock;

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  int open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_s = now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now();
    stack_.pop_back();
    return s.end_s - s.start_s;
  }

  clock::time_point origin_ = clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace tg::e2e
