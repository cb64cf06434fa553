// Spans and counters the traced run records around its calls into each
// layer (src/ module). Spans stay in memory and are written out as JSON
// lines when the run ends; nothing here reaches into the program itself.

#ifndef CPR_PERFBENCH_TRACE_H_
#define CPR_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cpr::perfbench {

struct Span {
  std::string name;
  double start_seconds = 0;  // Since the tracer was created.
  double end_seconds = 0;
  int parent = -1;           // Index of the enclosing span, -1 for a root.
  int64_t request = -1;      // Request the span belongs to.
};

// Single-threaded span recorder. A null Tracer* makes every Scope a no-op,
// so the same replay code runs traced and untraced.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_request(int64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  // Sum of the durations of every span called `name`.
  double TotalSeconds(std::string_view name) const;

  // One JSON object per span and line. Returns false when the file cannot
  // be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t request_ = -1;
};

// Per-layer counters, keyed by metric name.
using Counters = std::map<std::string, double>;

}  // namespace cpr::perfbench

#endif  // CPR_PERFBENCH_TRACE_H_
