// cprd — the CPR repair daemon and its client, in one binary.
//
// Server:
//   cprd serve --socket PATH --checkpoint-dir DIR
//        [--workers N] [--solve-threads N] [--queue-capacity N]
//        [--drain-deadline S] [--default-deadline S] [--max-attempts N]
//        [--results-dir DIR] [--cache-capacity N]
//
// Client (one wire op per invocation, against a running daemon):
//   cprd ping   --socket PATH
//   cprd submit --socket PATH <config-dir> <policy-file>
//        [--tag T] [--deadline S] [--timeout S] [--backend internal|z3]
//        [--granularity perdst|alltcs] [--max-retries N] [--simulate]
//        [--lint gate|warn|off] [--compress on|off|auto]
//        [--incremental auto|off] [--certify[=on|off|auto|log]]
//        [--inject-fault SPEC] [--wait S]
//   cprd status --socket PATH [--id N]
//   cprd wait   --socket PATH --id N [--timeout S]
//   cprd result --socket PATH --id N         per-request stats JSON
//   cprd stats  --socket PATH                serve.* counters/gauges
//   cprd scrape --socket PATH                Prometheus text exposition
//   cprd top    --socket PATH                one-shot pretty-printed scrape
//   cprd dump   --socket PATH                flight-recorder dump JSON
//   cprd drain  --socket PATH                stop admitting; daemon exits
//
// The wire protocol is one key=value line per request and response
// (serve/wire.h); every client op prints the daemon's response line verbatim
// so scripts can parse it the same way the client does (scrape/top/dump
// decode their payload field instead, since the whole point is the decoded
// document). stdout carries ONLY protocol/payload output; daemon diagnostics
// are structured events — per-request events go to the --event-log file and
// the in-memory flight recorder, never to stderr, and the few daemon-scoped
// lifecycle marks (start, drain) echo to stderr as single-write JSONL lines,
// so they cannot interleave with each other or shred client output mid-line.
//
// SIGTERM (or a drain
// op) makes the server stop admitting, finish in-flight repairs within the
// drain deadline, checkpoint the still-queued requests, and exit 0; a
// restarted daemon on the same --checkpoint-dir re-queues exactly the
// requests that never completed.
//
// The control socket is a low-rate path: connections are handled inline on
// the accept loop (repairs execute on the daemon's worker pool, never on the
// connection loop), and blocking ops (`wait`) are clamped server-side so the
// loop keeps polling for SIGTERM; the client re-issues until its own timeout.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "netbase/deadline.h"
#include "netbase/string_util.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/request.h"
#include "serve/wire.h"

namespace {

namespace fs = std::filesystem;
using cpr::serve::Daemon;
using cpr::serve::DaemonOptions;
using cpr::serve::RequestSpec;
using cpr::serve::RequestStatus;
using cpr::serve::WireFields;
using cpr::serve::WireView;

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: cprd serve  --socket PATH --checkpoint-dir DIR [server options]\n"
      "       cprd submit --socket PATH <config-dir> <policy-file> [request options]\n"
      "       cprd ping|status|wait|result|stats|drain --socket PATH [--id N] "
      "[--timeout S]\n"
      "       cprd scrape --socket PATH     Prometheus text exposition of every\n"
      "                                     registered counter/gauge/histogram\n"
      "       cprd top    --socket PATH     the same scrape, pretty-printed once\n"
      "       cprd dump   --socket PATH     flight-recorder dump (recent request\n"
      "                                     lifecycles + events, JSON)\n"
      "server options:\n"
      "  --workers N           concurrent requests in execution (default 2)\n"
      "  --solve-threads N     shared solver pool size (default 4)\n"
      "  --queue-capacity N    admission bound (default 16)\n"
      "  --drain-deadline S    wait for in-flight work on drain (default 30)\n"
      "  --default-deadline S  budget for requests without one (default none)\n"
      "  --max-attempts N      attempts per request on transient failure (default 3)\n"
      "  --results-dir DIR     write per-request stats JSON files\n"
      "  --cache-capacity N    snapshot cache entries (default 8)\n"
      "  --event-log PATH      append one JSON event line per request-lifecycle\n"
      "                        transition (admit, solve, retry, drain, ...)\n"
      "  --flight-dump PATH    where drain/crash flight-recorder dumps land\n"
      "                        (default <checkpoint-dir>/flightrec.json)\n"
      "request options:\n"
      "  --tag T  --deadline S  --timeout S\n"
      "  --backend internal|z3  internal (default): the CDCL/MaxSAT engine,\n"
      "             fewest lines among equally cheap repairs; problems with\n"
      "             PC4 integer costs fail over to z3\n"
      "  --granularity perdst|alltcs  --max-retries N  --simulate\n"
      "  --lint gate|warn|off  --compress on|off|auto  --inject-fault SPEC\n"
      "  --incremental auto|off  auto (default) re-repairs a re-submitted\n"
      "             source incrementally against its retained session\n"
      "  --certify[=on|off|auto|log]  independent certificate checking (log:\n"
      "             record proofs only); artifacts under <results>/certs/<id>/\n"
      "  --wait S   block until the request is terminal (then exit 0 iff done)\n");
  return 2;
}

// --flag value / --flag=value, shared by every subcommand.
struct ArgReader {
  int argc;
  char** argv;
  int next = 2;

  // Returns false when exhausted; on true, `flag` is set and `value` holds
  // the inline value if `--flag=value` was used.
  bool NextFlag(std::string* flag, std::optional<std::string>* value) {
    if (next >= argc) {
      return false;
    }
    *flag = argv[next++];
    value->reset();
    if (size_t eq = flag->find('=');
        flag->rfind("--", 0) == 0 && eq != std::string::npos) {
      *value = flag->substr(eq + 1);
      flag->resize(eq);
    }
    return true;
  }

  // Reads the flag's value (inline or the next argument) into *out:
  // strings verbatim, numbers strictly — the whole value must parse and fit
  // T. On a missing or malformed value, prints an error naming the flag and
  // returns false.
  template <typename T>
  bool Read(const std::string& flag, const std::optional<std::string>& inline_value, T* out) {
    if (!inline_value.has_value() && next >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = inline_value.has_value() ? *inline_value : argv[next++];
    bool ok = true;
    if constexpr (std::is_same_v<T, std::string>) {
      *out = value;
    } else if constexpr (std::is_floating_point_v<T>) {
      ok = cpr::ParseDouble(value, out);
    } else {
      int64_t parsed = 0;
      ok = cpr::ParseInt64(value, &parsed) && std::in_range<T>(parsed);
      if (ok) {
        *out = static_cast<T>(parsed);
      }
    }
    if (!ok) {
      const char* expected = std::is_floating_point_v<T> ? "a number"
                             : std::is_unsigned_v<T>     ? "a non-negative integer"
                                                         : "an integer";
      std::fprintf(stderr, "error: %s: expected %s, got '%s'\n", flag.c_str(), expected,
                   value.c_str());
    }
    return ok;
  }
};

// ---- server ---------------------------------------------------------------

std::string StatusFields(const RequestStatus& status) {
  WireFields fields;
  fields.emplace_back("found", "1");
  fields.emplace_back("id", std::to_string(status.id));
  fields.emplace_back("state", cpr::serve::RequestStateName(status.state));
  if (!status.tag.empty()) {
    fields.emplace_back("tag", status.tag);
  }
  fields.emplace_back("status", status.status);
  if (!status.error.empty()) {
    fields.emplace_back("error", status.error);
  }
  fields.emplace_back("attempts", std::to_string(status.attempts));
  fields.emplace_back("recovered", status.recovered ? "1" : "0");
  fields.emplace_back("queue_seconds", std::to_string(status.queue_seconds));
  fields.emplace_back("exec_seconds", std::to_string(status.exec_seconds));
  return cpr::serve::EncodeWireLine(fields);
}

// One request line in, one response line out. Returns true when the op asks
// the daemon to drain (the accept loop exits and drains).
bool HandleConnection(Daemon* daemon, int fd) {
  cpr::Result<std::string> line = cpr::serve::RecvLine(fd);
  if (!line.ok()) {
    return false;
  }
  auto respond = [fd](const WireFields& fields) {
    cpr::serve::SendLine(fd, cpr::serve::EncodeWireLine(fields));
  };
  cpr::Result<WireFields> decoded = cpr::serve::DecodeWireLine(*line);
  if (!decoded.ok()) {
    respond({{"error", decoded.error().message()}});
    return false;
  }
  WireView view(*decoded);
  std::string op = view.Get("op");

  if (op == "ping") {
    respond({{"ok", "1"}, {"pid", std::to_string(::getpid())}});
    return false;
  }
  if (op == "submit") {
    cpr::Result<RequestSpec> spec = cpr::serve::SpecFromFields(*decoded);
    if (!spec.ok()) {
      respond({{"error", spec.error().message()}});
      return false;
    }
    cpr::serve::AdmissionDecision decision = daemon->Submit(*spec);
    WireFields fields;
    fields.emplace_back("admitted", decision.admitted ? "1" : "0");
    if (decision.admitted) {
      fields.emplace_back("id", std::to_string(decision.id));
    } else {
      fields.emplace_back("retry_after", std::to_string(decision.retry_after_seconds));
      fields.emplace_back("error", decision.error);
    }
    respond(fields);
    return false;
  }
  // A malformed id is answered with an error, never read as 0.
  cpr::Result<uint64_t> id = view.GetInt<uint64_t>("id");
  if (!id.ok()) {
    respond({{"error", id.error().message()}});
    return false;
  }
  if (op == "status") {
    if (view.Has("id")) {
      std::optional<RequestStatus> status = daemon->GetStatus(*id);
      if (!status.has_value()) {
        respond({{"found", "0"}});
        return false;
      }
      cpr::serve::SendLine(fd, StatusFields(*status));
      return false;
    }
    int queued = 0, running = 0, done = 0, failed = 0;
    for (const RequestStatus& status : daemon->Statuses()) {
      switch (status.state) {
        case cpr::serve::RequestState::kQueued: ++queued; break;
        case cpr::serve::RequestState::kRunning: ++running; break;
        case cpr::serve::RequestState::kDone: ++done; break;
        case cpr::serve::RequestState::kFailed: ++failed; break;
      }
    }
    respond({{"queued", std::to_string(queued)},
             {"running", std::to_string(running)},
             {"done", std::to_string(done)},
             {"failed", std::to_string(failed)},
             {"draining", daemon->draining() ? "1" : "0"}});
    return false;
  }
  if (op == "wait") {
    // Clamped so a long wait cannot wedge the accept loop against SIGTERM;
    // the client loops until its own timeout.
    cpr::Result<double> timeout = view.GetDouble("timeout", 2.0);
    if (!timeout.ok()) {
      respond({{"error", timeout.error().message()}});
      return false;
    }
    bool terminal = daemon->WaitFor(*id, std::min(*timeout, 2.0));
    std::optional<RequestStatus> status = daemon->GetStatus(*id);
    WireFields fields;
    fields.emplace_back("done", terminal ? "1" : "0");
    if (status.has_value()) {
      fields.emplace_back("state", cpr::serve::RequestStateName(status->state));
      fields.emplace_back("status", status->status);
      if (!status->error.empty()) {
        fields.emplace_back("error", status->error);
      }
    } else {
      fields.emplace_back("error", "unknown id");
    }
    respond(fields);
    return false;
  }
  if (op == "result") {
    std::optional<RequestStatus> status = daemon->GetStatus(*id);
    if (!status.has_value()) {
      respond({{"found", "0"}});
      return false;
    }
    if (status->stats_expired) {
      respond({{"found", "1"},
               {"expired", "1"},
               {"error", "stats document expired: only the newest " +
                             std::to_string(cpr::serve::Daemon::kRetainedStatsDocuments) +
                             " finished requests keep theirs in memory"}});
      return false;
    }
    respond({{"found", "1"}, {"stats", status->stats_json}});
    return false;
  }
  if (op == "stats") {
    cpr::obs::Snapshot snapshot = cpr::obs::Registry::Global().TakeSnapshot();
    WireFields fields;
    fields.emplace_back("queue_depth", std::to_string(daemon->queue_depth()));
    fields.emplace_back("recovered", std::to_string(daemon->recovered_count()));
    for (const auto& [name, value] : snapshot.counters) {
      if (name.rfind("serve.", 0) == 0) {
        fields.emplace_back(name, std::to_string(value));
      }
    }
    for (const auto& [name, value] : snapshot.gauges) {
      if (name.rfind("serve.", 0) == 0) {
        fields.emplace_back(name, std::to_string(value));
      }
    }
    respond(fields);
    return false;
  }
  if (op == "metrics") {
    // The whole Prometheus document rides as ONE wire value: EncodeWireLine
    // %-escapes newlines, so the multi-line text survives the one-line
    // protocol and the client decodes it back verbatim.
    respond({{"ok", "1"}, {"metrics", daemon->ScrapeMetrics()}});
    return false;
  }
  if (op == "dump") {
    respond({{"ok", "1"}, {"flight", daemon->FlightDumpJson("dump_op")}});
    return false;
  }
  if (op == "drain") {
    respond({{"draining", "1"}});
    return true;
  }
  respond({{"error", "unknown op: " + op}});
  return false;
}

int CmdServe(ArgReader* args) {
  DaemonOptions options;
  std::string socket_path;
  std::string flag;
  std::optional<std::string> inline_value;
  while (args->NextFlag(&flag, &inline_value)) {
    if (flag == "--socket") {
      if (!args->Read(flag, inline_value, &socket_path)) return Usage();
    } else if (flag == "--checkpoint-dir") {
      if (!args->Read(flag, inline_value, &options.checkpoint_dir)) return Usage();
    } else if (flag == "--workers") {
      if (!args->Read(flag, inline_value, &options.workers)) return Usage();
    } else if (flag == "--solve-threads") {
      if (!args->Read(flag, inline_value, &options.solve_threads)) return Usage();
    } else if (flag == "--queue-capacity") {
      if (!args->Read(flag, inline_value, &options.queue_capacity)) return Usage();
    } else if (flag == "--drain-deadline") {
      if (!args->Read(flag, inline_value, &options.drain_deadline_seconds)) return Usage();
    } else if (flag == "--default-deadline") {
      if (!args->Read(flag, inline_value, &options.default_deadline_seconds)) return Usage();
    } else if (flag == "--max-attempts") {
      if (!args->Read(flag, inline_value, &options.max_request_attempts)) return Usage();
    } else if (flag == "--results-dir") {
      if (!args->Read(flag, inline_value, &options.results_dir)) return Usage();
    } else if (flag == "--cache-capacity") {
      if (!args->Read(flag, inline_value, &options.cache_capacity)) return Usage();
    } else if (flag == "--event-log") {
      if (!args->Read(flag, inline_value, &options.event_log_path)) return Usage();
    } else if (flag == "--flight-dump") {
      if (!args->Read(flag, inline_value, &options.flight_dump_path)) return Usage();
    } else {
      std::fprintf(stderr, "error: unknown serve flag %s\n", flag.c_str());
      return Usage();
    }
  }
  if (socket_path.empty() || options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "error: serve requires --socket and --checkpoint-dir\n");
    return Usage();
  }
  // Operators see daemon-scoped lifecycle events (daemon.start, drain.*) on
  // stderr as JSONL; per-request events stay in --event-log / the recorder.
  options.echo_daemon_events = true;

  cpr::Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "error: %s\n", daemon.error().message().c_str());
    return 1;
  }
  cpr::Result<cpr::serve::UnixFd> listener = cpr::serve::ListenUnix(socket_path);
  if (!listener.ok()) {
    std::fprintf(stderr, "error: %s\n", listener.error().message().c_str());
    return 1;
  }
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);  // A vanished client must not kill the daemon.

  std::fprintf(stderr,
               "cprd listening on %s (workers=%d solve_threads=%d queue=%zu "
               "recovered=%d)\n",
               socket_path.c_str(), options.workers, options.solve_threads,
               options.queue_capacity, (*daemon)->recovered_count());

  bool drain_requested = false;
  while (!g_shutdown && !drain_requested) {
    struct pollfd pfd = {(*listener).fd(), POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) {
      continue;  // Timeout or EINTR: re-check the shutdown flag.
    }
    cpr::Result<cpr::serve::UnixFd> conn = cpr::serve::AcceptUnix(*listener);
    if (!conn.ok() || !conn->valid()) {
      continue;
    }
    drain_requested = HandleConnection(daemon->get(), conn->fd());
  }

  std::fprintf(stderr, "cprd draining (%s)...\n",
               g_shutdown ? "signal" : "drain op");
  cpr::serve::DrainReport report = (*daemon)->Drain();
  std::fprintf(stderr,
               "cprd drained in %.2fs: %d completed, %d checkpointed for restart%s\n",
               report.drain_seconds, report.completed_in_drain, report.checkpointed,
               report.deadline_hit ? " (drain deadline hit; in-flight work continues)"
                                   : "");
  daemon->reset();  // Joins any stragglers before the socket disappears.
  ::unlink(socket_path.c_str());
  return 0;
}

// ---- client ---------------------------------------------------------------

// Sends one line, prints the response line verbatim, and returns it.
cpr::Result<WireFields> RoundTrip(const std::string& socket_path,
                                  const WireFields& request, bool print = true) {
  cpr::Result<cpr::serve::UnixFd> conn = cpr::serve::ConnectUnix(socket_path);
  if (!conn.ok()) {
    return conn.error();
  }
  cpr::Status sent = cpr::serve::SendLine(conn->fd(), cpr::serve::EncodeWireLine(request));
  if (!sent.ok()) {
    return sent.error();
  }
  cpr::Result<std::string> response = cpr::serve::RecvLine(conn->fd());
  if (!response.ok()) {
    return response.error();
  }
  if (print) {
    std::printf("%s\n", response->c_str());
  }
  return cpr::serve::DecodeWireLine(*response);
}

// `cprd top`: one-shot human-readable rendering of the Prometheus scrape.
// Counters and gauges print as aligned name/value rows; histograms (exported
// as summaries) print count plus the p50/p90/p99 quantiles on one row.
void PrintTop(const std::string& prometheus_text) {
  struct Summary {
    double count = 0, sum = 0, p50 = 0, p90 = 0, p99 = 0;
  };
  std::map<std::string, double> scalars;    // counters + gauges
  std::map<std::string, Summary> summaries;

  std::string::size_type pos = 0;
  while (pos < prometheus_text.size()) {
    std::string::size_type end = prometheus_text.find('\n', pos);
    if (end == std::string::npos) end = prometheus_text.size();
    std::string line = prometheus_text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;

    // `name{labels} value` or `name value`.
    std::string::size_type brace = line.find('{');
    std::string::size_type space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string name =
        line.substr(0, brace == std::string::npos ? space : brace);
    std::string labels = brace == std::string::npos
                             ? std::string()
                             : line.substr(brace, line.rfind('}') - brace + 1);
    double value = std::atof(line.c_str() + space + 1);

    auto strip_suffix = [&name](const char* suffix) -> std::optional<std::string> {
      std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        return name.substr(0, name.size() - s.size());
      }
      return std::nullopt;
    };
    std::string::size_type q = labels.find("quantile=\"");
    if (q != std::string::npos) {
      Summary& summary = summaries[name];
      std::string quantile = labels.substr(q + 10, 4);
      if (quantile.rfind("0.5\"", 0) == 0) summary.p50 = value;
      else if (quantile.rfind("0.9\"", 0) == 0) summary.p90 = value;
      else if (quantile.rfind("0.99", 0) == 0) summary.p99 = value;
    } else if (auto base = strip_suffix("_sum"); base && summaries.count(*base)) {
      summaries[*base].sum = value;
    } else if (auto base = strip_suffix("_count"); base && summaries.count(*base)) {
      summaries[*base].count = value;
    } else {
      scalars[name] = value;
    }
  }

  size_t width = 6;
  for (const auto& [name, value] : scalars) width = std::max(width, name.size());
  for (const auto& [name, summary] : summaries) width = std::max(width, name.size());
  for (const auto& [name, value] : scalars) {
    std::printf("%-*s  %g\n", static_cast<int>(width), name.c_str(), value);
  }
  if (!summaries.empty()) {
    std::printf("%-*s  %10s  %12s  %12s  %12s\n", static_cast<int>(width),
                "-- summaries --", "count", "p50", "p90", "p99");
    for (const auto& [name, s] : summaries) {
      std::printf("%-*s  %10g  %12g  %12g  %12g\n", static_cast<int>(width),
                  name.c_str(), s.count, s.p50, s.p90, s.p99);
    }
  }
}

// Client-side wait loop: the server clamps each wait op, so poll until the
// deadline. Returns 0 when the request finished as "done".
int WaitLoop(const std::string& socket_path, uint64_t id, double timeout) {
  cpr::Deadline deadline = cpr::Deadline::After(timeout);
  for (;;) {
    WireFields request{{"op", "wait"}, {"id", std::to_string(id)}, {"timeout", "2"}};
    cpr::Result<WireFields> response = RoundTrip(socket_path, request, false);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n", response.error().message().c_str());
      return 1;
    }
    WireView view(*response);
    if (view.Get("done") == "1") {
      std::printf("%s\n", cpr::serve::EncodeWireLine(*response).c_str());
      return view.Get("state") == "done" ? 0 : 1;
    }
    if (deadline.Expired()) {
      std::printf("%s\n", cpr::serve::EncodeWireLine(*response).c_str());
      std::fprintf(stderr, "error: timed out waiting for request %llu\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }
}

int CmdClient(const std::string& command, ArgReader* args) {
  std::string socket_path;
  RequestSpec spec;
  uint64_t id = 0;
  bool have_id = false;
  double timeout = 60;
  double submit_wait = -1;
  std::vector<std::string> positionals;

  std::string flag;
  std::optional<std::string> inline_value;
  while (args->NextFlag(&flag, &inline_value)) {
    if (flag.rfind('-', 0) != 0) {
      positionals.push_back(flag);
    } else if (flag == "--socket") {
      if (!args->Read(flag, inline_value, &socket_path)) return Usage();
    } else if (flag == "--id") {
      if (!args->Read(flag, inline_value, &id)) return Usage();
      have_id = true;
    } else if (flag == "--timeout" && command != "submit") {
      if (!args->Read(flag, inline_value, &timeout)) return Usage();
    } else if (flag == "--tag") {
      if (!args->Read(flag, inline_value, &spec.tag)) return Usage();
    } else if (flag == "--deadline") {
      if (!args->Read(flag, inline_value, &spec.deadline_seconds)) return Usage();
      if (spec.deadline_seconds <= 0) {
        spec.deadline_seconds = -1;  // Explicit zero budget, not "default".
      }
    } else if (flag == "--timeout") {
      if (!args->Read(flag, inline_value, &spec.timeout_seconds)) return Usage();
    } else if (flag == "--backend") {
      if (!args->Read(flag, inline_value, &spec.backend)) return Usage();
    } else if (flag == "--granularity") {
      if (!args->Read(flag, inline_value, &spec.granularity)) return Usage();
    } else if (flag == "--max-retries") {
      if (!args->Read(flag, inline_value, &spec.max_retries)) return Usage();
    } else if (flag == "--simulate") {
      spec.simulate = true;
    } else if (flag == "--lint") {
      if (!args->Read(flag, inline_value, &spec.lint)) return Usage();
    } else if (flag == "--compress") {
      if (!args->Read(flag, inline_value, &spec.compress)) return Usage();
    } else if (flag == "--incremental") {
      if (!args->Read(flag, inline_value, &spec.incremental)) return Usage();
    } else if (flag == "--certify") {
      // Bare --certify means "on"; --certify=auto|off|on selects a mode.
      spec.certify = inline_value.has_value() ? *inline_value : "on";
    } else if (flag == "--inject-fault") {
      if (!args->Read(flag, inline_value, &spec.inject_fault)) return Usage();
    } else if (flag == "--wait") {
      if (!args->Read(flag, inline_value, &submit_wait)) return Usage();
    } else {
      std::fprintf(stderr, "error: unknown %s flag %s\n", command.c_str(), flag.c_str());
      return Usage();
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "error: %s requires --socket\n", command.c_str());
    return Usage();
  }
  if (command == "submit") {
    if (positionals.size() != 2) {
      std::fprintf(stderr, "error: submit requires <config-dir> <policy-file>\n");
      return Usage();
    }
    // The daemon resolves paths in its own working directory; pin them here.
    spec.config_dir = fs::absolute(positionals[0]).string();
    spec.policy_file = fs::absolute(positionals[1]).string();
  }

  if (command == "ping" || command == "stats" || command == "drain") {
    cpr::Result<WireFields> response = RoundTrip(socket_path, {{"op", command}});
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n", response.error().message().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "scrape" || command == "top" || command == "dump") {
    // These print the DECODED payload, not the wire line: scrape emits the
    // Prometheus document exactly as a monitoring agent would ingest it, and
    // dump emits the flight-recorder JSON ready for cpr_json_validate.
    std::string op = command == "dump" ? "dump" : "metrics";
    cpr::Result<WireFields> response = RoundTrip(socket_path, {{"op", op}}, false);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n", response.error().message().c_str());
      return 1;
    }
    WireView view(*response);
    if (view.Get("ok") != "1") {
      std::fprintf(stderr, "error: %s\n", view.Get("error", "scrape failed").c_str());
      return 1;
    }
    if (command == "dump") {
      std::printf("%s\n", view.Get("flight").c_str());
    } else if (command == "top") {
      PrintTop(view.Get("metrics"));
    } else {
      std::fputs(view.Get("metrics").c_str(), stdout);
    }
    return 0;
  }
  if (command == "submit") {
    WireFields request = cpr::serve::FieldsFromSpec(spec);
    request.insert(request.begin(), {"op", "submit"});
    cpr::Result<WireFields> response = RoundTrip(socket_path, request);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n", response.error().message().c_str());
      return 1;
    }
    WireView view(*response);
    if (view.Get("admitted") != "1") {
      return 1;
    }
    if (submit_wait > 0) {
      cpr::Result<uint64_t> admitted_id = view.GetInt<uint64_t>("id");
      if (!admitted_id.ok()) {
        std::fprintf(stderr, "error: %s\n", admitted_id.error().message().c_str());
        return 1;
      }
      return WaitLoop(socket_path, *admitted_id, submit_wait);
    }
    return 0;
  }
  if (command == "status" || command == "result") {
    WireFields request{{"op", command}};
    if (have_id) {
      request.emplace_back("id", std::to_string(id));
    }
    cpr::Result<WireFields> response = RoundTrip(socket_path, request);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n", response.error().message().c_str());
      return 1;
    }
    WireView view(*response);
    return view.Get("found", "1") == "1" && view.Get("expired", "0") == "0" ? 0 : 1;
  }
  if (command == "wait") {
    if (!have_id) {
      std::fprintf(stderr, "error: wait requires --id\n");
      return Usage();
    }
    return WaitLoop(socket_path, id, timeout);
  }
  return Usage();
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  ArgReader args{argc, argv};
  if (command == "serve") {
    return CmdServe(&args);
  }
  if (command == "ping" || command == "submit" || command == "status" ||
      command == "wait" || command == "result" || command == "stats" ||
      command == "scrape" || command == "top" || command == "dump" ||
      command == "drain") {
    return CmdClient(command, &args);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown exception\n");
    return 1;
  }
}
