// cprd's core: repair-as-a-service over the one-shot pipeline.
//
//   Submit ──admission──▶ bounded queue ──workers──▶ Cpr::Repair
//                │               │                       │
//           checkpoint       (drain stops here)     shared solve pool
//
// The daemon owns four robustness invariants:
//
//   Admission control.  The queue is bounded; a saturated daemon rejects
//   with a retry-after hint instead of growing without bound. A rejected
//   request was never accepted, so it owes the client nothing.
//
//   Crash isolation.  A request that fails — unreadable configs, a backend
//   exception, a poisoned snapshot — produces a structured error report and
//   counts against serve.requests.failed; it never takes the daemon down.
//   Transient backend failures (RepairStatus::kError, escaped exceptions)
//   are retried with exponential backoff + seeded jitter before the request
//   is declared failed.
//
//   Deadline propagation.  Each request's wall-clock budget starts ticking
//   at ADMISSION, so queue wait spends it. The absolute deadline rides into
//   RepairOptions::deadline, where the solver layers cancel cooperatively;
//   a request whose budget dies in the queue reports kDeadlineExceeded
//   without touching a solver.
//
//   Exactly-once across graceful drain.  Every admitted request is durable
//   (serve/checkpoint.h) before the client hears "admitted". Drain() stops
//   admission, lets in-flight requests finish within the drain deadline,
//   and rewrites the queued requests' remaining budgets; a restarted daemon
//   re-queues exactly the requests that never completed. A hard kill
//   degrades to at-least-once for the requests that were mid-execution.
//
// Metric scoping: per-request pipeline instruments land in a per-request
// obs::Registry/Trace (so two concurrent repairs never interleave counts in
// each other's stats JSON); daemon-level serve.* instruments land in the
// process-global registry.

#ifndef CPR_SRC_SERVE_DAEMON_H_
#define CPR_SRC_SERVE_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "incremental/session.h"
#include "netbase/deadline.h"
#include "netbase/result.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/checkpoint.h"
#include "serve/request.h"
#include "serve/snapshot_cache.h"
#include "serve/thread_pool.h"

namespace cpr::serve {

struct DaemonOptions {
  int workers = 2;        // Concurrent requests in execution.
  int solve_threads = 4;  // Shared per-problem solver pool (all requests).
  size_t queue_capacity = 16;

  // How long Drain() waits for in-flight requests before giving up and
  // returning with deadline_hit (the requests keep running; their
  // checkpoints survive, so a restart re-runs them — at-least-once).
  double drain_deadline_seconds = 30;

  // Budget applied when a request does not carry its own (spec.deadline == 0).
  // <= 0 means unbounded.
  double default_deadline_seconds = 0;

  // Transient-failure retry policy (RepairStatus::kError or an escaped
  // exception): total attempts, base backoff doubling per retry, cap, and
  // the jitter seed (seeded so soak tests are reproducible).
  int max_request_attempts = 3;
  double retry_backoff_seconds = 0.05;
  double retry_max_backoff_seconds = 1.0;
  unsigned retry_jitter_seed = 1;

  std::string checkpoint_dir;  // Required.
  std::string results_dir;     // Per-request stats JSON files; empty = none.
  size_t cache_capacity = 8;   // Snapshot cache entries.

  // --- Telemetry (DESIGN.md §14) -------------------------------------
  // Master switch for the event log + flight recorder (the exposition
  // endpoint stays available either way — it only reads the registry).
  // bench/telemetry_overhead flips this for its A/B.
  bool telemetry = true;
  // JSONL sink for every event (cprd --event-log PATH); empty = no file
  // (events still feed the flight recorder).
  std::string event_log_path;
  // Where drain/crash dumps land; empty = <checkpoint_dir>/flightrec.json.
  std::string flight_dump_path;
  // Echo daemon-scoped (request_id == 0) events to stderr. cprd turns this
  // on so operators see start/drain marks; per-request events never go to
  // stderr (that is the stats-interleaving fix).
  bool echo_daemon_events = false;
};

enum class RequestState {
  kQueued,
  kRunning,
  kDone,    // Terminal: the pipeline produced a report (any RepairStatus).
  kFailed,  // Terminal: structured failure (bad inputs, retries exhausted).
};

const char* RequestStateName(RequestState state);

// Client-visible view of one request's lifecycle.
struct RequestStatus {
  uint64_t id = 0;
  RequestState state = RequestState::kQueued;
  std::string tag;
  std::string status;  // RepairStatusName once done; empty before.
  std::string error;   // Failure detail when state == kFailed.
  int attempts = 0;
  bool recovered = false;  // Re-queued from a previous daemon's checkpoint.
  double queue_seconds = 0;
  double exec_seconds = 0;
  std::string stats_json;  // Per-request --stats-json document (done/failed).
  // The document was dropped from memory: only the newest
  // Daemon::kRetainedStatsDocuments finished requests keep theirs.
  bool stats_expired = false;
};

struct AdmissionDecision {
  bool admitted = false;
  uint64_t id = 0;                  // Valid when admitted.
  double retry_after_seconds = 0;   // > 0 on a saturation reject.
  std::string error;                // Why not (saturated, draining, ...).
};

struct DrainReport {
  int completed_in_drain = 0;   // In-flight + queued requests that finished.
  int checkpointed = 0;         // Queued requests handed to the next daemon.
  double drain_seconds = 0;
  bool deadline_hit = false;    // Gave up waiting on in-flight requests.
};

class Daemon {
 public:
  // Finished requests whose stats document stays in memory (newest first
  // out of the window); results_dir, when set, keeps every document.
  static constexpr size_t kRetainedStatsDocuments = 256;

  // Opens the checkpoint store, recovers un-completed requests from a
  // previous daemon into the queue (mark-and-sweep), and starts the workers.
  static Result<std::unique_ptr<Daemon>> Start(const DaemonOptions& options);

  // Drains if the caller never did.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  AdmissionDecision Submit(const RequestSpec& spec);

  std::optional<RequestStatus> GetStatus(uint64_t id) const;
  std::vector<RequestStatus> Statuses() const;

  // Blocks until `id` reaches a terminal state or `timeout_seconds` passes.
  // Returns true when terminal.
  bool WaitFor(uint64_t id, double timeout_seconds);

  // Blocks until the queue is empty and no request is executing.
  void WaitIdle();

  // Stops admission, waits for in-flight work (bounded by
  // drain_deadline_seconds), persists remaining budgets of queued requests,
  // and stops the workers. Idempotent; the first call wins.
  DrainReport Drain();

  // Prometheus text exposition of the process-global registry (the `metrics`
  // wire op / `cprd scrape`). Finished requests' private registries are
  // merged into the global one at completion, so the scrape covers the
  // pipeline's cdcl.*/repair.*/certify.* instruments cumulatively alongside
  // the live serve.* signals.
  std::string ScrapeMetrics() const;

  // The flight-recorder dump document (the `dump` wire op). `reason` is
  // recorded verbatim ("dump_op", "drain", "crash_isolated", ...).
  std::string FlightDumpJson(const std::string& reason) const;

  size_t queue_depth() const;
  bool draining() const;
  // Retained incremental-repair sessions (one per source, see sessions_).
  size_t session_count() const;
  // Requests re-queued from the previous daemon's checkpoint at Start().
  int recovered_count() const { return recovered_count_; }
  const DaemonOptions& options() const { return options_; }

 private:
  struct Request {
    uint64_t id = 0;
    RequestSpec spec;
    Deadline deadline;          // Fixed at admission; queue wait spends it.
    RequestState state = RequestState::kQueued;
    int attempts = 0;           // Completed execution attempts.
    bool recovered = false;
    Deadline::Clock::time_point admitted_at{};
    double queue_seconds = 0;
    double exec_seconds = 0;
    std::string status;
    std::string error;
    std::string stats_json;
    bool stats_expired = false;
    // Per-request instrument sinks; unique_ptr for address stability while
    // solve-pool tasks write through RegistryScope/TraceScope. Released when
    // the request finishes, after the global merge.
    std::unique_ptr<obs::Registry> registry = std::make_unique<obs::Registry>();
    std::unique_ptr<obs::Trace> trace = std::make_unique<obs::Trace>();
  };

  // Result of one pipeline attempt, committed into the Request under the
  // daemon lock (GetStatus may be reading concurrently).
  struct Attempt {
    bool terminal = true;
    // True only when the repair pipeline genuinely ran solvers. Requests
    // that short-circuit (expired budget, lint gate, malformed input) finish
    // in ~0ms and must not drag the retry-after EMA toward zero.
    bool solved = false;
    std::string status;
    std::string error;  // Empty: the attempt is a clean completion.
    std::string stats_json;
  };

  explicit Daemon(const DaemonOptions& options, CheckpointStore store);

  void WorkerLoop();
  // Runs one request to a terminal state (including retries). Returns with
  // the daemon lock NOT held.
  void Execute(Request* request);
  // One pipeline attempt; only reads the request's immutable fields
  // (spec/deadline) and its private registry/trace.
  Attempt ExecuteOnce(Request* request);
  void FinishRequest(Request* request, RequestState terminal, double exec_seconds,
                     bool solved);

  // Session retention for incremental re-repair. A session is checked OUT
  // of the map for the duration of a request (exclusive use — the request
  // decides what replaces it) and checked back IN afterwards, rebuilt from
  // the repaired snapshot when the result was sound. A concurrent request
  // for the same source finds the map empty and takes the full path — at
  // worst a missed reuse.
  std::shared_ptr<const incremental::RepairSession> CheckOutSession(const std::string& source);
  void CheckInSession(const std::string& source,
                      std::shared_ptr<const incremental::RepairSession> session);

  // Budget convention for checkpoint records (serve/checkpoint.h): > 0
  // remaining seconds, 0 unbounded, < 0 expired.
  double BudgetOf(const Deadline& deadline) const;
  Deadline DeadlineFromBudget(double budget) const;
  double JitteredBackoff(int attempt);

  // Telemetry tap: no-op when options_.telemetry is false. Stamps nothing —
  // the EventLog fills the timestamp.
  void EmitEvent(obs::Event event);
  // Durable flight dump to options_.flight_dump_path; failures are counted,
  // never fatal (the recorder is a diagnostic, not a journal).
  void DumpFlightRecorderDurably(const std::string& reason);

  const DaemonOptions options_;  // flight_dump_path defaulted before ctor.
  CheckpointStore store_;
  SnapshotCache cache_;
  std::unique_ptr<ThreadPool> solve_pool_;
  obs::Registry& serve_metrics_;  // Process-global; daemon-level signals.
  obs::FlightRecorder flight_recorder_;
  obs::EventLog event_log_;  // Taps flight_recorder_; file/stderr optional.

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;     // Queue became non-empty / draining.
  std::condition_variable terminal_cv_;  // Some request reached a terminal state.
  std::deque<uint64_t> queue_;
  std::map<uint64_t, Request> requests_;
  // Finished requests still holding their stats document, oldest first.
  std::deque<uint64_t> stats_retained_;
  uint64_t next_id_ = 1;
  int running_ = 0;
  bool draining_ = false;
  bool drained_ = false;
  int recovered_count_ = 0;
  int64_t completed_total_ = 0;  // Terminal requests (done + failed).
  double exec_seconds_ema_ = 0;  // Feeds the retry-after hint.
  // source (config_dir) -> retained session; see CheckOutSession.
  std::map<std::string, std::shared_ptr<const incremental::RepairSession>> sessions_;
  std::mt19937 jitter_rng_;

  std::vector<std::thread> workers_;
};

}  // namespace cpr::serve

#endif  // CPR_SRC_SERVE_DAEMON_H_
