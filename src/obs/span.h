// Nestable stage spans: where the pipeline's wall-clock time goes.
//
// A StageSpan is an RAII timer. While a Trace is enabled, constructing one
// records a span (name, start offset, duration, parent span, thread) into
// the trace; nesting follows the call tree per thread via a thread-local
// stack. When the trace is disabled — the default — a StageSpan costs one
// relaxed atomic load and never reads the clock, so instrumented code paths
// are free until someone attaches a sink (`cpr --stats-json`, tests).
//
// Typical use:
//
//   obs::StageSpan span("repair.encode");
//   ... encode ...            // duration recorded when `span` destructs
//
// Spans parent within their own thread. A span opened on a thread with no
// open span takes the parent of the thread's TraceScope — the spawning
// stage's StageSpan::index(), so worker spans nest under the stage that fed
// them — and is a root (parent == -1) when the scope names none. Span
// records are only appended, so indices are stable identifiers within one
// enabled trace.

#ifndef CPR_SRC_OBS_SPAN_H_
#define CPR_SRC_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cpr::obs {

struct SpanRecord {
  std::string name;
  int32_t parent = -1;  // Index into the trace's record list; -1 for roots.
  int32_t thread = 0;   // Dense per-trace thread index (0 = first thread seen).
  double start_seconds = 0;     // Offset from Trace enable time.
  double duration_seconds = 0;  // 0 while the span is still open.
  // Key/value annotations (StageSpan::Annotate) — solver events such as
  // backend, status, and cost ride along into trace exports.
  std::vector<std::pair<std::string, std::string>> args;
};

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  // The process-wide default trace. StageSpan goes through CurrentTrace(),
  // which resolves to this unless a TraceScope is active on the thread.
  static Trace& Global();

  // Enables recording, discarding any previous records and re-basing the
  // time origin. Not meant to be called while spans are open.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Copy of all records so far (open spans have duration 0).
  std::vector<SpanRecord> Records() const;

 private:
  friend class StageSpan;

  int32_t BeginSpan(std::string_view name);
  void EndSpan(int32_t index);
  void Annotate(int32_t index, std::string_view key, std::string_view value);

  std::atomic<bool> enabled_{false};
  Clock::time_point origin_{};
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  int32_t next_thread_index_ = 0;
  // Globally unique per Enable() across every Trace instance, so a thread
  // that alternates between per-request traces (a shared solve pool) never
  // reuses stale TLS span state from another trace.
  uint64_t generation_ = 0;
};

// The trace StageSpan records into on this thread: a thread-local override
// when a TraceScope is active (cprd gives every request its own trace),
// Global() otherwise.
Trace& CurrentTrace();

// RAII: routes CurrentTrace() on this thread to `trace` (nullptr restores
// Global()). `parent`, a span index in `trace`, becomes the parent of every
// span this thread opens while its own span stack is empty (-1: roots).
// Scopes nest; each restores the previous binding.
class TraceScope {
 public:
  explicit TraceScope(Trace* trace, int32_t parent = -1);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Trace* previous_;
  int32_t previous_parent_;
};

class StageSpan {
 public:
  explicit StageSpan(std::string_view name) : trace_(&CurrentTrace()) {
    if (trace_->enabled()) {
      index_ = trace_->BeginSpan(name);
    }
  }
  ~StageSpan() {
    if (index_ >= 0) {
      trace_->EndSpan(index_);
    }
  }

  // Attaches a key/value pair to this span's record (no-op while the trace
  // is disabled). Values appear under "args" in trace exports.
  void Annotate(std::string_view key, std::string_view value) {
    if (index_ >= 0) {
      trace_->Annotate(index_, key, value);
    }
  }

  // This span's record index in its trace, or -1 while the trace is
  // disabled. Hand it to a worker's TraceScope to parent the worker's spans.
  int32_t index() const { return index_; }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Trace* trace_;  // Captured at construction so destruction pairs correctly.
  int32_t index_ = -1;
};

}  // namespace cpr::obs

#endif  // CPR_SRC_OBS_SPAN_H_
