// cprd-lineage: two closed-loop clients against an in-process serve::Daemon
// with its default workers, solve pool and cache capacity.
//
// Each client owns half of the lineages and visits them round-robin. A
// visit is six requests on the lineage's config_dir:
//
//   position 0   every third visit: a fresh generation (a new directory
//                holding the broken snapshot: a cache miss and the full
//                pipeline); otherwise a one-router edit of the baseline
//   position 1   an unchanged re-submission with incremental off (served
//                from the snapshot cache when the entry survived)
//   position 2-5 one-router edits (the incremental re-repair path while the
//                daemon still retains the lineage's session)
//
// More lineages are live than the daemon's cache holds, so revisits also
// exercise eviction. The request kinds follow this plan, not timing, so the
// checked outputs are the same on every run of a seed.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>

#include "core/policy_spec.h"
#include "incremental/session.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "perfbench/check.h"
#include "perfbench/inputs.h"
#include "perfbench/replay.h"
#include "perfbench/workloads.h"
#include "serve/daemon.h"

namespace cpr::perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 2;
constexpr int kVisitLength = 6;
// Requests per lineage the traced run replays outside the daemon.
constexpr size_t kReplayedPerLineage = 8;
// A request not admitted within this long counts as never admitted.
constexpr double kAdmissionPatienceSeconds = 30;
constexpr double kRequestTimeoutSeconds = 120;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Kind { kFresh, kResubmit, kEdit };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kFresh:
      return "fresh";
    case Kind::kResubmit:
      return "resubmit";
    case Kind::kEdit:
      return "edit";
  }
  return "?";
}

Kind PlannedKind(int visit, int position) {
  if (position == 0) {
    return visit % 3 == 0 ? Kind::kFresh : Kind::kEdit;
  }
  return position == 1 ? Kind::kResubmit : Kind::kEdit;
}

// The snapshot a request carries: -1 is the broken snapshot, e >= 0 is edit
// e of the repaired baseline.
constexpr int kBroken = -1;

// What the daemon reported for one request.
struct Record {
  int lineage = 0;
  Kind kind = Kind::kFresh;
  int input = kBroken;
  bool admitted = false;
  bool terminal = false;
  int rejects = 0;
  double latency = 0;
  double submit_seconds = 0;
  double queue_seconds = 0;
  double exec_seconds = 0;
  serve::RequestState state = serve::RequestState::kQueued;
  std::string status;
  int64_t lines_changed = -1;
  int64_t residual_graph = -1;
  int64_t residual_sim = -1;

  bool Failed() const {
    return !admitted || !terminal || state != serve::RequestState::kDone ||
           status == "error" || status == "timeout" || status == "partial" ||
           status == "deadline-exceeded";
  }
  bool ClaimsSound() const {
    return (status == "success" || status == "no-violations") && residual_graph == 0 &&
           residual_sim == 0;
  }
};

// Empty when the daemon's per-request stats match `output`.
std::string CompareWithDaemon(const Record& record, const RepairOutput& output) {
  if (record.status != RepairStatusName(output.status) ||
      record.lines_changed != output.lines_changed ||
      record.residual_graph != static_cast<int64_t>(output.residual_graph.size()) ||
      record.residual_sim != static_cast<int64_t>(output.residual_sim.size())) {
    return "daemon reported " + record.status + "/" + std::to_string(record.lines_changed) +
           " lines, expected " + RepairStatusName(output.status) + "/" +
           std::to_string(output.lines_changed) + " lines";
  }
  return "";
}

std::string ConfigFileName(size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "r%03zu.cfg", index);
  return name;
}

// Writes the files of `texts` that differ from what `dir` holds.
bool WriteSnapshot(const fs::path& dir, const std::vector<std::string>& texts,
                   std::vector<std::string>* on_disk) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return false;
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    if (on_disk->size() == texts.size() && (*on_disk)[i] == texts[i]) {
      continue;
    }
    std::ofstream out(dir / ConfigFileName(i), std::ios::trunc);
    out << texts[i];
    if (!out.flush()) {
      return false;
    }
  }
  *on_disk = texts;
  return true;
}

int64_t GlobalCounter(const std::string& name) {
  for (const auto& [counter, value] : obs::Registry::Global().TakeSnapshot().counters) {
    if (counter == name) {
      return value;
    }
  }
  return 0;
}

struct Cursor {
  int visits = 0;
  int generation = 0;
  int next_edit = 0;
  int content = kBroken;
  fs::path dir;
  std::vector<std::string> on_disk;
};

// One setup: inputs, snapshot directories, policy files and a warm daemon.
// Destroying it drains the daemon and removes the directories.
class Setup {
 public:
  static Result<std::unique_ptr<Setup>> Create(uint32_t seed, const fs::path& root);
  ~Setup() {
    daemon_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  const std::vector<LineageInput>& lineages() const { return lineages_; }
  const std::vector<std::string>& Texts(int lineage, int input) const {
    const LineageInput& l = lineages_[static_cast<size_t>(lineage)];
    return input == kBroken ? l.broken_texts : l.edits[static_cast<size_t>(input)];
  }

  // One client's closed loop until `deadline`.
  std::vector<Record> Client(int client, Clock::time_point deadline);

 private:
  Setup() = default;
  Record Request(int lineage, Kind kind);

  std::vector<LineageInput> lineages_;
  fs::path root_;
  std::vector<Cursor> cursors_;  // One per lineage; only its client touches it.
  std::unique_ptr<serve::Daemon> daemon_;
};

fs::path PolicyFile(const fs::path& root, int lineage) {
  return root / "policies" / (std::to_string(lineage) + ".policies");
}

Result<std::unique_ptr<Setup>> Setup::Create(uint32_t seed, const fs::path& root) {
  std::unique_ptr<Setup> setup(new Setup());
  setup->root_ = root;
  Result<std::vector<LineageInput>> lineages = MakeLineages(seed);
  if (!lineages.ok()) {
    return lineages.error();
  }
  setup->lineages_ = std::move(lineages).value();

  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root / "policies", ec);
  if (ec) {
    return Error("cannot create " + root.string() + ": " + ec.message());
  }
  for (size_t l = 0; l < setup->lineages_.size(); ++l) {
    std::ofstream(PolicyFile(root, static_cast<int>(l))) << setup->lineages_[l].policy_text;
    Cursor cursor;
    cursor.dir = root / std::to_string(l) / "g0";
    if (!WriteSnapshot(cursor.dir, setup->lineages_[l].broken_texts, &cursor.on_disk)) {
      return Error("cannot write " + cursor.dir.string());
    }
    setup->cursors_.push_back(std::move(cursor));
  }

  serve::DaemonOptions options;
  options.checkpoint_dir = (root / "checkpoints").string();
  Result<std::unique_ptr<serve::Daemon>> daemon = serve::Daemon::Start(options);
  if (!daemon.ok()) {
    return daemon.error();
  }
  setup->daemon_ = std::move(daemon).value();

  // Warm-up: one full repair on a directory no lineage uses.
  std::vector<std::string> on_disk;
  if (!WriteSnapshot(root / "warmup", setup->lineages_[0].broken_texts, &on_disk)) {
    return Error("cannot write the warm-up snapshot");
  }
  serve::AdmissionDecision decision = setup->daemon_->Submit(
      LineageSpec((root / "warmup").string(), PolicyFile(root, 0).string(), "auto"));
  if (!decision.admitted || !setup->daemon_->WaitFor(decision.id, kRequestTimeoutSeconds)) {
    return Error("warm-up request did not complete");
  }
  std::optional<serve::RequestStatus> status = setup->daemon_->GetStatus(decision.id);
  if (!status.has_value() || status->status != "success") {
    return Error("warm-up request did not succeed");
  }
  return setup;
}

Record Setup::Request(int lineage, Kind kind) {
  Cursor& cursor = cursors_[static_cast<size_t>(lineage)];
  const LineageInput& input = lineages_[static_cast<size_t>(lineage)];
  if (kind == Kind::kFresh) {
    if (cursor.visits > 0) {
      std::error_code ec;
      fs::remove_all(cursor.dir, ec);
      std::string generation = "g";
      generation += std::to_string(++cursor.generation);
      cursor.dir = root_ / std::to_string(lineage) / generation;
      cursor.on_disk.clear();
    }
    WriteSnapshot(cursor.dir, input.broken_texts, &cursor.on_disk);
    cursor.content = kBroken;
  } else if (kind == Kind::kEdit) {
    cursor.content = cursor.next_edit++ % static_cast<int>(input.edits.size());
    WriteSnapshot(cursor.dir, input.edits[static_cast<size_t>(cursor.content)],
                  &cursor.on_disk);
  }

  Record record;
  record.lineage = lineage;
  record.kind = kind;
  record.input = cursor.content;
  const serve::RequestSpec spec =
      LineageSpec(cursor.dir.string(), PolicyFile(root_, lineage).string(),
                  kind == Kind::kResubmit ? "off" : "auto");
  const Clock::time_point start = Clock::now();
  serve::AdmissionDecision decision;
  for (;;) {
    const Clock::time_point submit = Clock::now();
    decision = daemon_->Submit(spec);
    record.submit_seconds += Since(submit);
    if (decision.admitted) {
      break;
    }
    ++record.rejects;
    if (Since(start) > kAdmissionPatienceSeconds) {
      record.latency = Since(start);
      return record;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::clamp(decision.retry_after_seconds, 0.001, 0.25)));
  }
  record.admitted = true;
  record.terminal = daemon_->WaitFor(decision.id, kRequestTimeoutSeconds);
  record.latency = Since(start);
  std::optional<serve::RequestStatus> status = daemon_->GetStatus(decision.id);
  if (!status.has_value()) {
    return record;
  }
  record.state = status->state;
  record.status = status->status;
  record.queue_seconds = status->queue_seconds;
  record.exec_seconds = status->exec_seconds;
  obs::JsonValue stats;
  if (obs::ParseJson(status->stats_json, &stats)) {
    if (const obs::JsonValue* repair = stats.Find("repair"); repair != nullptr) {
      auto field = [&](const char* key) {
        const obs::JsonValue* value = repair->Find(key);
        return value != nullptr ? value->AsInt(-1) : -1;
      };
      record.lines_changed = field("lines_changed");
      record.residual_graph = field("residual_graph_violations");
      record.residual_sim = field("residual_simulation_violations");
    }
  }
  return record;
}

std::vector<Record> Setup::Client(int client, Clock::time_point deadline) {
  std::vector<int> mine;
  for (int l = client; l < static_cast<int>(lineages_.size()); l += kClients) {
    mine.push_back(l);
  }
  std::vector<Record> records;
  for (size_t turn = 0; Clock::now() < deadline; ++turn) {
    const int lineage = mine[turn % mine.size()];
    Cursor& cursor = cursors_[static_cast<size_t>(lineage)];
    for (int position = 0; position < kVisitLength && Clock::now() < deadline; ++position) {
      records.push_back(Request(lineage, PlannedKind(cursor.visits, position)));
    }
    ++cursor.visits;
  }
  return records;
}

// The in-process reference for one snapshot, checked independently.
struct Reference {
  RepairOutput output;
  CheckVerdict verdict;
};

// Replays the first requests of every lineage outside the daemon: cold
// requests layer by layer (ReplayRequest) or plainly (RunRequest), warm ones
// through Cpr::FromBaseline + Repair, and a session rebuilt after every sound
// auto-mode result, as the daemon does. Compares each output with the
// daemon's stats and returns the replay's wall.
double ReplayLineages(const Setup& setup, const std::vector<std::vector<Record>>& by_lineage,
                      Tracer* tracer, Counters* counters, RunResult* result) {
  using Scope = Tracer::Scope;
  const CprOptions options = LineageOptions();
  Counters scratch;
  Counters& c = counters != nullptr ? *counters : scratch;
  const Clock::time_point start = Clock::now();
  int64_t request_id = 0;
  for (size_t l = 0; l < by_lineage.size(); ++l) {
    const LineageInput& lineage = setup.lineages()[l];
    Result<NetworkAnnotations> annotations = ParseSpecAnnotations(lineage.policy_text);
    Result<Cpr> topology = annotations.ok()
                               ? Cpr::FromConfigTexts(lineage.broken_texts, *annotations)
                               : Result<Cpr>(annotations.error());
    Result<std::vector<Policy>> policies =
        topology.ok() ? ParseSpecPolicies(lineage.policy_text, topology->network())
                      : Result<std::vector<Policy>>(topology.error());
    if (!policies.ok()) {
      result->problems.push_back(lineage.name + ": cannot resolve the policy file");
      continue;
    }
    std::shared_ptr<incremental::RepairSession> session;
    for (const Record& record : by_lineage[l]) {
      if (tracer != nullptr) {
        tracer->set_request(request_id++);
      }
      if (record.kind == Kind::kFresh) {
        session = nullptr;  // A new directory: the daemon has no session for it.
      }
      const RepairInput input{lineage.name, setup.Texts(static_cast<int>(l), record.input),
                              lineage.policy_text, options};
      std::optional<RepairOutput> output;
      std::vector<Config> patched;
      std::string error;
      if (record.kind == Kind::kResubmit || session == nullptr) {
        if (tracer != nullptr) {
          Result<ReplayResult> replay = ReplayRequest(input, tracer, &c);
          if (replay.ok()) {
            output = std::move(replay->output);
            patched = std::move(replay->patched_configs);
          } else {
            error = replay.error().message();
          }
        } else {
          Result<CprReport> report = RunRequest(input);
          if (report.ok()) {
            output = OutputOf(*report);
            patched = std::move(report->patched_configs);
          } else {
            error = report.error().message();
          }
        }
      } else {
        Scope request_span(tracer, "request");
        Result<Cpr> cpr = [&] {
          Scope span(tracer, "incremental.from_baseline");
          return Cpr::FromBaseline(session, input.config_texts, *annotations);
        }();
        Result<CprReport> report = cpr.ok() ? [&] {
          Scope span(tracer, "incremental.repair");
          return cpr->Repair(*policies, options);
        }()
                                            : Result<CprReport>(cpr.error());
        if (report.ok()) {
          AddRepairStats(report->stats, &c);
          const incremental::IncrementalStats& stats = report->incremental;
          c["incremental.groups_reused"] += stats.groups_reused;
          c["incremental.groups_total"] += stats.groups_total;
          c["incremental.warm_hits"] += stats.warm_hits;
          c["incremental.fallbacks"] += stats.fell_back ? 1 : 0;
          output = OutputOf(*report);
          patched = std::move(report->patched_configs);
        } else {
          error = report.error().message();
        }
      }
      if (!output.has_value()) {
        result->problems.push_back(lineage.name + " replay failed: " + error);
        continue;
      }
      if (record.kind != Kind::kResubmit && output->ClaimsSound() && !patched.empty()) {
        Scope span(tracer, "incremental.build_session");
        Result<std::shared_ptr<incremental::RepairSession>> built = incremental::BuildSession(
            std::move(patched), output->patched_annotations, *policies, options.repair);
        if (built.ok()) {
          session = std::move(built).value();
        }
      }
      if (!record.Failed()) {
        if (std::string diff = CompareWithDaemon(record, *output); !diff.empty()) {
          result->problems.push_back(lineage.name + " " + KindName(record.kind) +
                                     " replay: " + diff);
        }
      }
    }
  }
  return Since(start);
}

}  // namespace

Result<RunResult> RunCprdLineage(const BenchArgs& args, const std::string& workdir) {
  std::vector<double> setup_times;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    setup.reset();  // Tears the previous setup down before timing the next.
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<Setup>> created = Setup::Create(
        args.seed, fs::path(workdir) / ("lineage-" + std::to_string(::getpid()) + "-" +
                                        std::to_string(i)));
    setup_times.push_back(Since(start));
    if (!created.ok()) {
      return created.error();
    }
    setup = std::move(created).value();
  }

  // Measure: the clients' closed loops.
  const int64_t hits_before = GlobalCounter("serve.cache.hits");
  const int64_t misses_before = GlobalCounter("serve.cache.misses");
  const int64_t retries_before = GlobalCounter("serve.retries");
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(args.seconds);
  std::vector<std::vector<Record>> per_client(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] { per_client[static_cast<size_t>(c)] = setup->Client(c, deadline); });
    }
    for (std::thread& client : clients) {
      client.join();
    }
  }
  const double wall = Since(start);

  RunResult result;
  std::vector<Record> records;
  std::vector<std::vector<Record>> by_lineage(setup->lineages().size());
  for (const std::vector<Record>& client : per_client) {
    for (const Record& record : client) {
      records.push_back(record);
      by_lineage[static_cast<size_t>(record.lineage)].push_back(record);
    }
  }

  // Check: an in-process reference for every snapshot of every lineage,
  // checked independently, then every daemon result against it.
  std::map<std::pair<int, int>, Reference> references;
  int lines_changed = 0;
  for (size_t l = 0; l < setup->lineages().size(); ++l) {
    const LineageInput& lineage = setup->lineages()[l];
    for (int input = kBroken; input < static_cast<int>(lineage.edits.size()); ++input) {
      const std::vector<std::string>& texts = setup->Texts(static_cast<int>(l), input);
      Result<CprReport> report =
          RunRequest(RepairInput{lineage.name, texts, lineage.policy_text, LineageOptions()});
      if (!report.ok()) {
        return Error(lineage.name + " reference: " + report.error().message());
      }
      Reference reference{OutputOf(*report), {}};
      reference.verdict = CheckOutput(texts, lineage.policy_text, reference.output, false, 2);
      if (std::string d = Disagreement(reference.output, reference.verdict, false); !d.empty()) {
        result.problems.push_back(lineage.name + " reference: " + d);
      }
      lines_changed += reference.verdict.lines_changed;
      references.emplace(std::make_pair(static_cast<int>(l), input), std::move(reference));
    }
  }
  int64_t sound = 0;
  std::map<std::string, std::vector<double>> latency_by_kind;
  for (const Record& record : records) {
    ++result.attempted;
    latency_by_kind[KindName(record.kind)].push_back(record.latency);
    if (record.Failed()) {
      ++result.failed;
      continue;
    }
    const Reference& reference = references.at({record.lineage, record.input});
    const std::string diff = CompareWithDaemon(record, reference.output);
    if (!diff.empty()) {
      result.problems.push_back(setup->lineages()[static_cast<size_t>(record.lineage)].name +
                                " " + KindName(record.kind) + ": " + diff);
    } else if (record.ClaimsSound() != reference.verdict.sound) {
      result.problems.push_back("daemon soundness claim disagrees with the check");
    } else if (reference.verdict.sound) {
      ++sound;
    }
  }
  for (const auto& [kind, latencies] : latency_by_kind) {
    std::printf("%-9s %5zu requests, p50 %.4fs\n", kind.c_str(), latencies.size(),
                Median(latencies));
  }
  const int64_t hits = GlobalCounter("serve.cache.hits") - hits_before;
  const int64_t misses = GlobalCounter("serve.cache.misses") - misses_before;
  std::printf("cprd-lineage seed %u: %zu requests in %.2fs, cache %lld hits / %lld misses\n",
              args.seed, records.size(), wall, static_cast<long long>(hits),
              static_cast<long long>(misses));

  if (!args.trace) {
    std::vector<double> latencies;
    for (const Record& record : records) {
      latencies.push_back(record.latency);
    }
    SetEndToEnd(&result, latencies, result.attempted - result.failed, wall, Median(setup_times),
                sound, lines_changed);
    return result;
  }

  // Traced: serve metrics from the daemon run above, every other layer from
  // an in-process replay of each lineage's first requests.
  Counters counters;
  double submit = 0, queue = 0, exec = 0, rejects = 0;
  for (const Record& record : records) {
    submit += record.submit_seconds;
    queue += record.queue_seconds;
    exec += record.exec_seconds;
    rejects += record.rejects;
  }
  const double n = static_cast<double>(std::max<size_t>(1, records.size()));
  counters["serve.submit_s"] = submit / n;
  counters["serve.queue_wait_s"] = queue / n;
  counters["serve.exec_s"] = exec / n;
  counters["serve.rejects"] = rejects;
  counters["serve.retries"] =
      static_cast<double>(GlobalCounter("serve.retries") - retries_before);
  counters["serve.cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0;

  size_t replayed = 0;
  for (std::vector<Record>& lineage : by_lineage) {
    if (lineage.size() > kReplayedPerLineage) {
      lineage.resize(kReplayedPerLineage);
    }
    replayed += lineage.size();
  }
  const double untraced = ReplayLineages(*setup, by_lineage, nullptr, nullptr, &result);
  Tracer tracer;
  const double traced = ReplayLineages(*setup, by_lineage, &tracer, &counters, &result);
  result.attempted += 2 * static_cast<int64_t>(replayed);
  if (counters["incremental.groups_total"] > 0) {
    counters["incremental.reuse_ratio"] =
        counters["incremental.groups_reused"] / counters["incremental.groups_total"];
  }
  counters["trace.overhead_ratio"] = untraced > 0 ? traced / untraced : 0;
  SetLayerMetrics(&result, tracer, counters, static_cast<double>(replayed), 1);
  const std::string spans = workdir + "/spans-cprd-lineage-" + std::to_string(args.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(spans)) {
    result.problems.push_back("cannot write " + spans);
  }
  std::printf("replayed %zu requests: untraced %.2fs, traced %.2fs, %zu spans written to %s\n",
              replayed, untraced, traced, tracer.spans().size(), spans.c_str());
  return result;
}

}  // namespace cpr::perfbench
