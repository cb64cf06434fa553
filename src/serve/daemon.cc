#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/policy_spec.h"
#include "core/stats_report.h"
#include "obs/expose.h"

namespace cpr::serve {

namespace {

using Clock = Deadline::Clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

const char* RequestStateName(RequestState state) {
  switch (state) {
    case RequestState::kQueued:
      return "queued";
    case RequestState::kRunning:
      return "running";
    case RequestState::kDone:
      return "done";
    case RequestState::kFailed:
      return "failed";
  }
  return "?";
}

Daemon::Daemon(const DaemonOptions& options, CheckpointStore store)
    : options_(options),
      store_(std::move(store)),
      cache_(options.cache_capacity),
      solve_pool_(std::make_unique<ThreadPool>(options.solve_threads)),
      serve_metrics_(obs::Registry::Global()),
      jitter_rng_(options.retry_jitter_seed) {
  event_log_.set_recorder(&flight_recorder_);
  event_log_.set_echo_daemon_events(options_.echo_daemon_events);
}

Result<std::unique_ptr<Daemon>> Daemon::Start(const DaemonOptions& options_in) {
  DaemonOptions options = options_in;
  if (options.checkpoint_dir.empty()) {
    return Error("daemon requires a checkpoint dir");
  }
  if (options.flight_dump_path.empty()) {
    options.flight_dump_path = options.checkpoint_dir + "/flightrec.json";
  }
  Result<CheckpointStore> store = CheckpointStore::Open(options.checkpoint_dir);
  if (!store.ok()) {
    return store.error();
  }
  Result<std::vector<CheckpointRecord>> recovered = store->LoadAndSweep();
  if (!recovered.ok()) {
    return recovered.error();
  }
  if (!options.results_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.results_dir, ec);
    if (ec) {
      return Error("cannot create results dir " + options.results_dir + ": " + ec.message());
    }
  }

  std::unique_ptr<Daemon> daemon(new Daemon(options, std::move(store).value()));
  if (options.telemetry && !options.event_log_path.empty()) {
    std::string error;
    if (!daemon->event_log_.OpenFile(options.event_log_path, &error)) {
      return Error("cannot open event log: " + error);
    }
  }
  daemon->next_id_ = daemon->store_.max_seen_id() + 1;
  for (CheckpointRecord& record : *recovered) {
    Request request;
    request.id = record.id;
    request.spec = std::move(record.spec);
    if (request.spec.trace_id.empty()) {
      request.spec.trace_id = obs::MintTraceId();
    }
    request.attempts = record.attempts;
    request.deadline = daemon->DeadlineFromBudget(record.budget);
    request.recovered = true;
    request.admitted_at = Clock::now();
    daemon->EmitEvent(obs::Event::Of("request.recovered", request.id, request.spec.trace_id)
                          .With("tag", request.spec.tag)
                          .With("attempts", std::to_string(request.attempts)));
    daemon->queue_.push_back(request.id);
    daemon->requests_.emplace(request.id, std::move(request));
    daemon->serve_metrics_.counter("serve.recovered").Increment();
  }
  daemon->recovered_count_ = static_cast<int>(recovered->size());
  daemon->serve_metrics_.gauge("serve.queue.depth")
      .Set(static_cast<int64_t>(daemon->queue_.size()));

  int workers = std::max(1, options.workers);
  daemon->EmitEvent(obs::Event::Of("daemon.start")
                        .With("workers", std::to_string(workers))
                        .With("queue_capacity", std::to_string(options.queue_capacity))
                        .With("recovered", std::to_string(daemon->recovered_count_)));
  daemon->workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    daemon->workers_.emplace_back([d = daemon.get()] { d->WorkerLoop(); });
  }
  return daemon;
}

void Daemon::EmitEvent(obs::Event event) {
  if (!options_.telemetry) {
    return;
  }
  event_log_.Emit(std::move(event));
}

void Daemon::DumpFlightRecorderDurably(const std::string& reason) {
  if (!options_.telemetry || options_.flight_dump_path.empty()) {
    return;
  }
  std::string error;
  if (!flight_recorder_.DumpTo(options_.flight_dump_path, reason, &error)) {
    serve_metrics_.counter("serve.flight.dump_failures").Increment();
    EmitEvent(obs::Event::Of("flight.dump_failed").With("error", error));
  } else {
    serve_metrics_.counter("serve.flight.dumps").Increment();
  }
}

std::string Daemon::ScrapeMetrics() const {
  return obs::RenderPrometheus(obs::Registry::Global().TakeSnapshot());
}

std::string Daemon::FlightDumpJson(const std::string& reason) const {
  return flight_recorder_.DumpJson(reason);
}

Daemon::~Daemon() {
  Drain();
  // Drain() skips the join when its deadline fires; destruction cannot.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  solve_pool_->Shutdown();
}

double Daemon::BudgetOf(const Deadline& deadline) const {
  if (deadline.unbounded()) {
    return 0;
  }
  // One read: a budget that runs out between two reads must come out
  // expired, never as 0 (unbounded).
  const double remaining = deadline.RemainingSeconds();
  return remaining > 0 ? remaining : -1;
}

Deadline Daemon::DeadlineFromBudget(double budget) const {
  if (budget > 0) {
    return Deadline::After(budget);
  }
  if (budget < 0) {
    return Deadline::Exhausted();
  }
  return Deadline::Never();
}

double Daemon::JitteredBackoff(int attempt) {
  double base = options_.retry_backoff_seconds;
  for (int i = 1; i < attempt; ++i) {
    base *= 2;
  }
  if (options_.retry_max_backoff_seconds > 0) {
    base = std::min(base, options_.retry_max_backoff_seconds);
  }
  // Full jitter on the upper half: [base/2, base). Decorrelates retry storms
  // without ever retrying earlier than half the nominal backoff.
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  std::lock_guard<std::mutex> lock(mu_);
  return base * jitter(jitter_rng_);
}

AdmissionDecision Daemon::Submit(const RequestSpec& spec) {
  AdmissionDecision decision;
  uint64_t id = 0;
  CheckpointRecord record;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      decision.error = "daemon is draining";
      serve_metrics_.counter("serve.admission.drain_rejects").Increment();
      EmitEvent(obs::Event::Of("admission.reject", 0, spec.trace_id)
                    .With("tag", spec.tag)
                    .With("reason", "draining"));
      return decision;
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Saturated: reject with a hint scaled to how much work is ahead of
      // the caller. Never admit-and-drop; the queue bound is the contract.
      double per_request = std::max(exec_seconds_ema_, 0.05);
      double workers = static_cast<double>(std::max(1, options_.workers));
      decision.retry_after_seconds =
          per_request * (static_cast<double>(queue_.size()) + 1.0) / workers;
      decision.error = "queue full";
      serve_metrics_.counter("serve.admission.rejects").Increment();
      EmitEvent(obs::Event::Of("admission.reject", 0, spec.trace_id)
                    .With("tag", spec.tag)
                    .With("reason", "saturated")
                    .With("retry_after_seconds",
                          std::to_string(decision.retry_after_seconds)));
      return decision;
    }
    id = next_id_++;
    Request request;
    request.id = id;
    request.spec = spec;
    // The correlation ID is minted HERE — at admission — so queue wait,
    // every solve attempt, and the terminal event all share it; it rides
    // request.spec into the checkpoint record below, surviving restarts.
    if (request.spec.trace_id.empty()) {
      request.spec.trace_id = obs::MintTraceId();
    }
    if (spec.deadline_seconds > 0) {
      request.deadline = Deadline::After(spec.deadline_seconds);
    } else if (spec.deadline_seconds < 0) {
      request.deadline = Deadline::Exhausted();
    } else {
      request.deadline = Deadline::After(options_.default_deadline_seconds);
    }
    request.admitted_at = Clock::now();
    record.id = id;
    record.attempts = 0;
    record.budget = BudgetOf(request.deadline);
    record.spec = request.spec;
    requests_.emplace(id, std::move(request));
  }

  // Durability before acknowledgment — but outside the lock: Persist fsyncs,
  // and workers must not stall on disk while a request is being admitted.
  Status persisted = store_.Persist(record);

  std::lock_guard<std::mutex> lock(mu_);
  if (!persisted.ok()) {
    requests_.erase(id);
    decision.error = "checkpoint failed: " + persisted.error().message();
    serve_metrics_.counter("serve.admission.persist_failures").Increment();
    EmitEvent(obs::Event::Of("admission.reject", 0, record.spec.trace_id)
                  .With("tag", spec.tag)
                  .With("reason", "persist_failure"));
    return decision;
  }
  queue_.push_back(id);
  serve_metrics_.counter("serve.admitted").Increment();
  serve_metrics_.gauge("serve.queue.depth").Set(static_cast<int64_t>(queue_.size()));
  EmitEvent(obs::Event::Of("admit", id, record.spec.trace_id)
                .With("tag", spec.tag)
                .With("budget_seconds", std::to_string(record.budget))
                .With("queue_depth", std::to_string(queue_.size())));
  queue_cv_.notify_one();
  decision.admitted = true;
  decision.id = id;
  return decision;
}

void Daemon::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
    if (draining_) {
      return;  // Queued requests stay queued — Drain() checkpoints them.
    }
    uint64_t id = queue_.front();
    queue_.pop_front();
    serve_metrics_.gauge("serve.queue.depth").Set(static_cast<int64_t>(queue_.size()));
    Request& request = requests_.at(id);
    request.state = RequestState::kRunning;
    request.queue_seconds = Seconds(request.admitted_at);
    ++running_;
    serve_metrics_.gauge("serve.running").Set(running_);
    lock.unlock();

    serve_metrics_.histogram("serve.queue_wait_seconds").Observe(request.queue_seconds);
    EmitEvent(obs::Event::Of("dequeue", request.id, request.spec.trace_id)
                  .With("queue_seconds", std::to_string(request.queue_seconds)));
    Execute(&request);

    lock.lock();
    --running_;
    serve_metrics_.gauge("serve.running").Set(running_);
    terminal_cv_.notify_all();
  }
}

void Daemon::Execute(Request* request) {
  Clock::time_point exec_start = Clock::now();
  for (;;) {
    Attempt attempt;
    EmitEvent(obs::Event::Of("attempt.start", request->id, request->spec.trace_id)
                  .With("attempt", std::to_string(request->attempts + 1)));
    // Crash isolation: whatever a request does — throwing parsers, backend
    // exceptions, filesystem surprises — is converted to a structured
    // failure on THIS request; the daemon and its siblings keep running.
    bool crashed = false;
    try {
      attempt = ExecuteOnce(request);
    } catch (const std::exception& e) {
      attempt.terminal = false;
      attempt.status = "error";
      attempt.error = std::string("exception: ") + e.what();
      crashed = true;
      serve_metrics_.counter("serve.requests.crash_isolated").Increment();
    } catch (...) {
      attempt.terminal = false;
      attempt.status = "error";
      attempt.error = "unknown exception";
      crashed = true;
      serve_metrics_.counter("serve.requests.crash_isolated").Increment();
    }
    if (crashed) {
      // The event first (so the dump contains it), then the durable dump:
      // a crash-isolation trip is exactly the moment the ring exists for.
      EmitEvent(obs::Event::Of("crash_isolated", request->id, request->spec.trace_id)
                    .With("error", attempt.error));
      DumpFlightRecorderDurably("crash_isolated");
    }
    int attempts;
    bool exhausted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      attempts = ++request->attempts;
      exhausted = attempts >= std::max(1, options_.max_request_attempts);
      request->status = attempt.status;
      request->error =
          (!attempt.terminal && exhausted)
              ? "transient failure persisted across " + std::to_string(attempts) +
                    " attempt(s): " + attempt.error
              : attempt.error;
      if (!attempt.stats_json.empty()) {
        request->stats_json = std::move(attempt.stats_json);
      }
    }
    if (attempt.terminal || exhausted) {
      FinishRequest(request,
                    attempt.terminal && attempt.error.empty() ? RequestState::kDone
                                                              : RequestState::kFailed,
                    Seconds(exec_start), attempt.solved);
      return;
    }
    serve_metrics_.counter("serve.retries").Increment();
    double backoff = JitteredBackoff(attempts);
    // Never sleep past the request's own deadline; an expired deadline makes
    // the next attempt report kDeadlineExceeded immediately.
    backoff = std::min(backoff, request->deadline.ClampTimeout(backoff));
    EmitEvent(obs::Event::Of("retry", request->id, request->spec.trace_id)
                  .With("attempt", std::to_string(attempts))
                  .With("backoff_seconds", std::to_string(backoff))
                  .With("error", attempt.error));
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

Daemon::Attempt Daemon::ExecuteOnce(Request* request) {
  Clock::time_point start = Clock::now();
  Attempt attempt;
  // Per-request instrument sinks: concurrent requests never interleave
  // counts, and the stats document below reflects exactly one request.
  request->registry->Reset();
  request->trace->Enable();
  obs::RegistryScope registry_scope(request->registry.get());
  obs::TraceScope trace_scope(request->trace.get());

  auto write_stats = [&](const CprReport* report, const std::string& status) {
    StatsRunInfo run;
    run.command = "serve";
    run.config_dir = request->spec.config_dir;
    run.policy_file = request->spec.policy_file;
    run.backend = request->spec.backend;
    run.granularity = request->spec.granularity;
    run.threads = options_.solve_threads;
    run.status = status;
    run.wall_seconds = Seconds(start);
    run.trace_id = request->spec.trace_id;
    attempt.stats_json = BuildStatsJson(run, report);
  };

  // The budget died in the queue (or arrived dead): a clean, solver-free
  // deadline report. This is a DONE request, not a failed one — the daemon
  // did exactly what the budget allowed.
  if (request->deadline.Expired()) {
    attempt.status = RepairStatusName(RepairStatus::kDeadlineExceeded);
    serve_metrics_.counter("serve.deadline_expired").Increment();
    EmitEvent(obs::Event::Of("deadline.expired", request->id, request->spec.trace_id));
    write_stats(nullptr, attempt.status);
    return attempt;
  }

  obs::StageSpan span("serve.request");
  span.Annotate("tag", request->spec.tag);
  if (!request->spec.trace_id.empty()) {
    span.Annotate("trace_id", request->spec.trace_id);
  }

  auto reject = [&](const std::string& why) {
    attempt.status = "invalid-request";
    attempt.error = why;
    write_stats(nullptr, attempt.status);
    serve_metrics_.counter("serve.requests.invalid").Increment();
    EmitEvent(obs::Event::Of("request.invalid", request->id, request->spec.trace_id)
                  .With("error", why));
    return attempt;  // Malformed input never becomes valid by retrying.
  };

  Result<CprOptions> options = ToCprOptions(request->spec);
  if (!options.ok()) {
    return reject(options.error().message());
  }
  Result<RequestInputs> inputs = LoadRequestInputs(request->spec);
  if (!inputs.ok()) {
    return reject(inputs.error().message());
  }

  // Incremental re-repair: check out any session retained from this source's
  // previous sound result. Checked-out means exclusive — a concurrent request
  // for the same source finds the map empty and takes the full path. If this
  // attempt throws, the session is deliberately dropped with the stack; the
  // next submission runs the full pipeline and retains a fresh one.
  std::shared_ptr<const incremental::RepairSession> session;
  if (request->spec.incremental != "off") {
    session = CheckOutSession(request->spec.config_dir);
  }
  auto reject_with_session = [&](const std::string& why) {
    if (session != nullptr) {
      CheckInSession(request->spec.config_dir, std::move(session));
    }
    return reject(why);
  };

  std::shared_ptr<const Cpr> pipeline;
  std::shared_ptr<compress::CompressionCache> compression;
  if (session != nullptr) {
    // Incremental path: skip the snapshot cache — its from-scratch HARC
    // build is exactly the cost the session's clone-and-rebuild avoids.
    Result<NetworkAnnotations> annotations = ParseSpecAnnotations(inputs->policy_text);
    if (!annotations.ok()) {
      return reject_with_session(annotations.error().message());
    }
    Result<Cpr> built =
        Cpr::FromBaseline(session, inputs->config_texts, std::move(*annotations));
    if (!built.ok()) {
      return reject_with_session(built.error().message());
    }
    pipeline = std::make_shared<const Cpr>(std::move(built).value());
    serve_metrics_.counter("serve.sessions.reused").Increment();
  } else {
    Result<Snapshot> snapshot = cache_.GetOrBuildSnapshot(
        request->spec.config_dir, inputs->config_texts, inputs->policy_text);
    if (!snapshot.ok()) {
      return reject(snapshot.error().message());
    }
    pipeline = snapshot->cpr;
    compression = snapshot->compression;
  }
  Result<std::vector<Policy>> policies =
      ParseSpecPolicies(inputs->policy_text, pipeline->network());
  if (!policies.ok()) {
    return reject_with_session(policies.error().message());
  }

  options->repair.deadline = request->deadline;
  // Every solve pass runs up to one drain task per pool thread on the pool.
  options->repair.solve_runner = solve_pool_.get();
  options->repair.num_threads = options_.solve_threads;
  // Per-request certificate retention: when the client asked for checking
  // and the daemon persists results, the certificates land next to them so
  // `cpr certify <results>/certs/<id>` can re-validate the run offline.
  if (options->repair.certify != certify::CertifyMode::kOff &&
      !options_.results_dir.empty()) {
    options->repair.certify_artifact_dir =
        options_.results_dir + "/certs/" + std::to_string(request->id);
  }
  // The snapshot's compression cache persists the base partition and
  // quotients across re-submissions of the same snapshot; differ-driven
  // invalidation drops it with the entry. The incremental path has none —
  // its scoped problems run with compression off.
  options->repair.compress.cache = compression != nullptr ? compression.get() : nullptr;

  Result<CprReport> report = pipeline->Repair(*policies, *options);
  if (!report.ok()) {
    // Structural repair errors (unmappable paths) are deterministic.
    return reject_with_session(report.error().message());
  }

  if (request->spec.incremental != "off") {
    // Retain a session for the next same-lineage submission: the snapshot
    // this run rebuilt from its sound patch (no violations, or none left)
    // and verified, taken over as it is. Any other outcome keeps the old
    // session — its baseline is still the last sound state.
    std::shared_ptr<const incremental::RepairSession> next;
    if (report->Sound() && report->repaired_harc != nullptr &&
        !request->deadline.Expired()) {
      next = incremental::SessionFromVerified(
          report->repaired_network, report->repaired_harc, report->patched_annotations,
          *policies, report->residual_graph_violations, options->repair);
      serve_metrics_.counter("serve.sessions.retained").Increment();
    }
    if (next == nullptr) {
      next = std::move(session);
    }
    if (next != nullptr) {
      CheckInSession(request->spec.config_dir, std::move(next));
    }
  }

  attempt.status = RepairStatusName(report->status);
  // Short-circuit statuses (lint gate, budget died between the admission
  // check and the pipeline's own) never reached a solver; everything else
  // represents genuine execution time worth folding into the EMA.
  attempt.solved = report->status != RepairStatus::kLintRejected &&
                   report->status != RepairStatus::kDeadlineExceeded;
  span.Annotate("status", attempt.status);
  write_stats(&*report, attempt.status);
  EmitEvent(obs::Event::Of("solve", request->id, request->spec.trace_id)
                .With("status", attempt.status)
                .With("backend", request->spec.backend)
                .With("wall_seconds", std::to_string(report->stats.wall_seconds)));
  // Failovers happen deep in the solver stack; the per-request registry is
  // the only place they surface before the stats document. One event per
  // attempt that had any.
  if (int64_t failovers = request->registry->counter("solver.failovers").value();
      failovers > 0) {
    EmitEvent(obs::Event::Of("failover", request->id, request->spec.trace_id)
                  .With("count", std::to_string(failovers)));
  }
  if (options->repair.certify != certify::CertifyMode::kOff) {
    EmitEvent(obs::Event::Of("certify", request->id, request->spec.trace_id)
                  .With("checked", std::to_string(report->stats.certify_checked))
                  .With("verified", std::to_string(report->stats.certify_verified))
                  .With("failed", std::to_string(report->stats.certify_failed)));
  }
  if (report->status == RepairStatus::kError) {
    // A backend failed internally — the one failure class worth retrying
    // (fault injection, resource exhaustion, Z3 hiccups).
    std::string detail;
    for (const ProblemReport& problem : report->stats.problem_reports) {
      if (!problem.message.empty()) {
        detail = problem.message;
        break;
      }
    }
    attempt.terminal = false;
    attempt.error = detail.empty() ? "backend error" : detail;
    serve_metrics_.counter("serve.requests.transient_errors").Increment();
  }
  return attempt;
}

void Daemon::FinishRequest(Request* request, RequestState terminal, double exec_seconds,
                           bool solved) {
  // Mark first, then surface: once a request's completion is durable, no
  // future daemon will re-run it.
  Status marked = store_.MarkCompleted(request->id);
  if (!marked.ok()) {
    serve_metrics_.counter("serve.checkpoint.mark_failures").Increment();
  }
  if (!options_.results_dir.empty() && !request->stats_json.empty()) {
    std::ofstream out(options_.results_dir + "/result-" + std::to_string(request->id) +
                      ".json");
    out << request->stats_json << "\n";
  }
  serve_metrics_.histogram("serve.exec_seconds").Observe(exec_seconds);
  serve_metrics_
      .counter(terminal == RequestState::kDone ? "serve.requests.completed"
                                               : "serve.requests.failed")
      .Increment();
  // Fold the request's private pipeline instruments (cdcl.*, repair.*,
  // certify.*, ...) into the global registry so `cprd scrape` sees them
  // cumulatively. Only the final attempt's counts are merged — ExecuteOnce
  // resets the registry per attempt, and double-counting retried work would
  // skew rates worse than missing it.
  if (options_.telemetry) {
    obs::Registry::Global().Merge(request->registry->TakeSnapshot());
  }
  // Nothing reads a finished request's instrument sinks again.
  request->registry.reset();
  request->trace.reset();
  EmitEvent(obs::Event::Of(terminal == RequestState::kDone ? "request.done"
                                                           : "request.failed",
                           request->id, request->spec.trace_id)
                .With("status", request->status)
                .With("error", request->error)
                .With("exec_seconds", std::to_string(exec_seconds)));
  if (terminal == RequestState::kFailed) {
    // Every structured failure — an injected crash that persisted across
    // all attempts, a poisoned input, retries exhausted — leaves a durable
    // dump behind. Ordered after the terminal event (so the dump holds the
    // request's COMPLETE lifecycle) and before the terminal notification
    // below (so a client that observed the failure can already read it).
    DumpFlightRecorderDurably("request_failed");
  }

  std::lock_guard<std::mutex> lock(mu_);
  request->exec_seconds = exec_seconds;
  request->state = terminal;
  ++completed_total_;
  // Only the newest kRetainedStatsDocuments finished requests keep their
  // stats document in memory; results_dir keeps every one on disk.
  stats_retained_.push_back(request->id);
  while (stats_retained_.size() > kRetainedStatsDocuments) {
    Request& expired = requests_.at(stats_retained_.front());
    stats_retained_.pop_front();
    std::string().swap(expired.stats_json);
    expired.stats_expired = true;
  }
  // EMA of execution time feeds the admission retry-after hint. Only
  // genuinely-solved executions count: deadline-expired and rejected
  // requests complete in ~0ms, and folding them in would tell clients to
  // retry almost immediately exactly when the daemon is overloaded.
  if (solved) {
    exec_seconds_ema_ = exec_seconds_ema_ <= 0
                            ? exec_seconds
                            : 0.8 * exec_seconds_ema_ + 0.2 * exec_seconds;
  }
  terminal_cv_.notify_all();
}

std::optional<RequestStatus> Daemon::GetStatus(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = requests_.find(id);
  if (it == requests_.end()) {
    return std::nullopt;
  }
  const Request& request = it->second;
  RequestStatus status;
  status.id = request.id;
  status.state = request.state;
  status.tag = request.spec.tag;
  status.status = request.status;
  status.error = request.error;
  status.attempts = request.attempts;
  status.recovered = request.recovered;
  status.queue_seconds = request.queue_seconds;
  status.exec_seconds = request.exec_seconds;
  status.stats_json = request.stats_json;
  status.stats_expired = request.stats_expired;
  return status;
}

std::vector<RequestStatus> Daemon::Statuses() const {
  std::vector<RequestStatus> statuses;
  std::lock_guard<std::mutex> lock(mu_);
  statuses.reserve(requests_.size());
  for (const auto& [id, request] : requests_) {
    RequestStatus status;
    status.id = request.id;
    status.state = request.state;
    status.tag = request.spec.tag;
    status.status = request.status;
    status.error = request.error;
    status.attempts = request.attempts;
    status.recovered = request.recovered;
    status.queue_seconds = request.queue_seconds;
    status.exec_seconds = request.exec_seconds;
    statuses.push_back(std::move(status));
  }
  return statuses;
}

bool Daemon::WaitFor(uint64_t id, double timeout_seconds) {
  Deadline deadline = Deadline::After(timeout_seconds);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = requests_.find(id);
    if (it == requests_.end()) {
      return false;
    }
    if (it->second.state == RequestState::kDone ||
        it->second.state == RequestState::kFailed) {
      return true;
    }
    if (deadline.Expired()) {
      return false;
    }
    terminal_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void Daemon::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  terminal_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

size_t Daemon::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::shared_ptr<const incremental::RepairSession> Daemon::CheckOutSession(
    const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(source);
  if (it == sessions_.end()) {
    return nullptr;
  }
  std::shared_ptr<const incremental::RepairSession> session = std::move(it->second);
  sessions_.erase(it);
  serve_metrics_.gauge("serve.sessions").Set(static_cast<int64_t>(sessions_.size()));
  return session;
}

void Daemon::CheckInSession(const std::string& source,
                            std::shared_ptr<const incremental::RepairSession> session) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_[source] = std::move(session);
  // Sessions hold a full network + HARC each; bound them like the snapshot
  // cache. Eviction only costs the evicted source one full repair.
  while (options_.cache_capacity > 0 && sessions_.size() > options_.cache_capacity) {
    auto victim = sessions_.begin();
    if (victim->first == source) {
      ++victim;
    }
    sessions_.erase(victim);
    serve_metrics_.counter("serve.sessions.evicted").Increment();
  }
  serve_metrics_.gauge("serve.sessions").Set(static_cast<int64_t>(sessions_.size()));
}

size_t Daemon::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

bool Daemon::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

DrainReport Daemon::Drain() {
  Clock::time_point start = Clock::now();
  DrainReport report;
  std::unique_lock<std::mutex> lock(mu_);
  if (drained_) {
    return report;
  }
  int64_t completed_before = completed_total_;
  draining_ = true;
  EmitEvent(obs::Event::Of("drain.begin")
                .With("queued", std::to_string(queue_.size()))
                .With("running", std::to_string(running_)));
  queue_cv_.notify_all();

  // Let in-flight requests finish — they were admitted, the client was
  // promised exactly-once, and their checkpoints only clear on completion.
  Deadline drain_deadline = Deadline::After(options_.drain_deadline_seconds);
  while (running_ > 0) {
    if (drain_deadline.Expired()) {
      report.deadline_hit = true;
      break;
    }
    terminal_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }

  // Hand the queued requests to the next daemon with their REMAINING
  // budgets — a request that waited 20s of a 30s budget restarts with 10s,
  // and one that expired while queued restarts already exhausted (budget
  // < 0) so it reports kDeadlineExceeded instead of silently rejuvenating.
  for (uint64_t id : queue_) {
    const Request& request = requests_.at(id);
    CheckpointRecord record;
    record.id = request.id;
    record.attempts = request.attempts;
    record.budget = BudgetOf(request.deadline);
    record.spec = request.spec;
    if (store_.Persist(record).ok()) {
      ++report.checkpointed;
    } else {
      serve_metrics_.counter("serve.checkpoint.mark_failures").Increment();
    }
  }
  report.completed_in_drain = static_cast<int>(completed_total_ - completed_before);
  drained_ = true;
  lock.unlock();

  if (!report.deadline_hit) {
    for (std::thread& worker : workers_) {
      if (worker.joinable()) {
        worker.join();
      }
    }
    solve_pool_->Shutdown();
  }
  report.drain_seconds = Seconds(start);
  serve_metrics_.histogram("serve.drain_seconds").Observe(report.drain_seconds);
  serve_metrics_.counter("serve.drains").Increment();
  EmitEvent(obs::Event::Of("drain.end")
                .With("completed_in_drain", std::to_string(report.completed_in_drain))
                .With("checkpointed", std::to_string(report.checkpointed))
                .With("deadline_hit", report.deadline_hit ? "1" : "0"));
  // The dump is the drain's black box: every in-flight lifecycle that was
  // still racing the deadline is now on disk, whatever happens next.
  DumpFlightRecorderDurably("drain");
  return report;
}

}  // namespace cpr::serve
