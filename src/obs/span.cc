#include "obs/span.h"

namespace cpr::obs {

namespace {

// Per-thread span state. The generation ties it to one Enable() epoch: a
// trace restart invalidates every thread's stack and thread index lazily.
struct ThreadState {
  uint64_t generation = 0;
  int32_t thread_index = -1;
  std::vector<int32_t> open;
};

thread_local ThreadState tls_state;

// One generation counter shared by every Trace instance: each Enable() gets
// a process-unique epoch, so TLS state from one trace can never be mistaken
// for state belonging to another (pool threads hop between request traces).
std::atomic<uint64_t> g_generation{0};

thread_local Trace* tls_trace = nullptr;
thread_local int32_t tls_parent = -1;  // The active TraceScope's parent.

}  // namespace

Trace& Trace::Global() {
  static Trace* trace = new Trace();  // Leaked: outlives every user.
  return *trace;
}

Trace& CurrentTrace() { return tls_trace != nullptr ? *tls_trace : Trace::Global(); }

TraceScope::TraceScope(Trace* trace, int32_t parent)
    : previous_(tls_trace), previous_parent_(tls_parent) {
  tls_trace = trace;
  tls_parent = parent;
}

TraceScope::~TraceScope() {
  tls_trace = previous_;
  tls_parent = previous_parent_;
}

void Trace::Enable() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  next_thread_index_ = 0;
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  origin_ = Clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Trace::Disable() { enabled_.store(false, std::memory_order_relaxed); }

std::vector<SpanRecord> Trace::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

int32_t Trace::BeginSpan(std::string_view name) {
  Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    return -1;  // Raced with Disable().
  }
  ThreadState& state = tls_state;
  if (state.generation != generation_) {
    state.generation = generation_;
    state.thread_index = next_thread_index_++;
    state.open.clear();
  }
  SpanRecord record;
  record.name = std::string(name);
  record.parent = state.open.empty() ? tls_parent : state.open.back();
  record.thread = state.thread_index;
  record.start_seconds = std::chrono::duration<double>(now - origin_).count();
  records_.push_back(std::move(record));
  int32_t index = static_cast<int32_t>(records_.size()) - 1;
  state.open.push_back(index);
  return index;
}

void Trace::Annotate(int32_t index, std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tls_state.generation != generation_) {
    return;  // The trace restarted while this span was open.
  }
  if (index >= 0 && static_cast<size_t>(index) < records_.size()) {
    records_[static_cast<size_t>(index)].args.emplace_back(std::string(key),
                                                           std::string(value));
  }
}

void Trace::EndSpan(int32_t index) {
  Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  ThreadState& state = tls_state;
  if (state.generation != generation_) {
    return;  // The trace restarted while this span was open.
  }
  if (index >= 0 && static_cast<size_t>(index) < records_.size()) {
    SpanRecord& record = records_[static_cast<size_t>(index)];
    record.duration_seconds =
        std::chrono::duration<double>(now - origin_).count() - record.start_seconds;
  }
  // RAII guarantees LIFO order per thread.
  if (!state.open.empty() && state.open.back() == index) {
    state.open.pop_back();
  }
}

}  // namespace cpr::obs
