// fattree-sym: one closed-loop client calling the library directly, in whole
// passes over the workload's requests so that every run has the same request
// mix whatever its length.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "perfbench/check.h"
#include "perfbench/inputs.h"
#include "perfbench/replay.h"
#include "perfbench/workloads.h"

namespace cpr::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Whole passes a run makes: --seconds divided by the nominal time of one
// untraced pass on a 4-core machine (a traced cycle is about twice that).
// Fixing the count, not a deadline, gives every run of a given length the
// same request mix and sample count, so the percentiles sit at the same
// rank on every run.
int64_t Passes(const BenchArgs& args, double cycle_factor) {
  constexpr double nominal_pass_seconds = 5.0;
  return std::max<int64_t>(
      1, std::llround(args.seconds / (nominal_pass_seconds * cycle_factor)));
}

// Generates the inputs and runs one warm-up request (the first PC1).
Result<std::vector<RepairInput>> SetUp(const BenchArgs& args) {
  Result<std::vector<RepairInput>> inputs = MakeFatTreeSym(args.seed);
  if (!inputs.ok()) {
    return inputs.error();
  }
  Result<CprReport> warm = RunRequest(inputs->front());
  if (!warm.ok()) {
    return Error("warm-up request: " + warm.error().message());
  }
  return inputs;
}

// What the untraced passes saw of one request.
struct RequestLog {
  std::optional<RepairOutput> first;  // Output of the first successful run.
  int64_t matching_runs = 0;          // Runs whose output equals `first`.
  std::vector<double> latencies;
};

class OneShotRun {
 public:
  OneShotRun(const std::vector<RepairInput>& requests, RunResult* result)
      : requests_(requests), result_(result), logs_(requests.size()) {}

  // Runs every request once through Cpr::Repair; returns the pass's wall.
  double UntracedPass(std::vector<double>* latencies) {
    const Clock::time_point pass_start = Clock::now();
    for (size_t i = 0; i < requests_.size(); ++i) {
      const Clock::time_point start = Clock::now();
      Result<CprReport> report = RunRequest(requests_[i]);
      const double latency = Since(start);
      latencies->push_back(latency);
      logs_[i].latencies.push_back(latency);
      ++result_->attempted;
      if (!report.ok()) {
        ++result_->failed;
        std::fprintf(stderr, "%s: %s\n", requests_[i].name.c_str(),
                     report.error().message().c_str());
        continue;
      }
      if (FailedStatus(report->status)) {
        ++result_->failed;
      }
      RepairOutput output = OutputOf(*report);
      if (!logs_[i].first.has_value()) {
        logs_[i].first = std::move(output);
      } else if (!SameOutput(*logs_[i].first, output)) {
        result_->problems.push_back(requests_[i].name + ": output differs between runs");
        continue;
      }
      ++logs_[i].matching_runs;
    }
    return Since(pass_start);
  }

  // Replays every request layer by layer and compares with Cpr::Repair's
  // output from the untraced passes; returns the pass's wall.
  double TracedPass(Tracer* tracer, Counters* counters) {
    const Clock::time_point pass_start = Clock::now();
    for (size_t i = 0; i < requests_.size(); ++i) {
      tracer->set_request(next_request_++);
      Result<ReplayResult> replay = ReplayRequest(requests_[i], tracer, counters);
      ++result_->attempted;
      if (!replay.ok()) {
        ++result_->failed;
        result_->problems.push_back(requests_[i].name + ": replay failed: " +
                                    replay.error().message());
      } else if (!logs_[i].first.has_value() ||
                 !SameOutput(*logs_[i].first, replay->output)) {
        result_->problems.push_back(requests_[i].name +
                                    ": layer-by-layer replay differs from Cpr::Repair");
      }
    }
    return Since(pass_start);
  }

  // The independent check of every distinct output. Returns the sound runs
  // and adds each request's checked changed lines to `lines_changed`.
  int64_t Check(int* lines_changed) {
    int64_t sound_runs = 0;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const RepairInput& request = requests_[i];
      const RequestLog& log = logs_[i];
      if (!log.first.has_value()) {
        continue;  // Every run errored: counted in `failed`.
      }
      const bool simulate = request.options.validate_with_simulator;
      const CheckVerdict verdict =
          CheckOutput(request.config_texts, request.policy_text, *log.first, simulate,
                      request.options.simulator_failure_cap);
      const std::string disagreement = Disagreement(*log.first, verdict, simulate);
      if (!disagreement.empty()) {
        result_->problems.push_back(request.name + ": " + disagreement);
      }
      *lines_changed += verdict.lines_changed;
      if (verdict.sound && disagreement.empty() && !FailedStatus(log.first->status)) {
        sound_runs += log.matching_runs;
      }
      std::printf("%-20s runs %3zu  p50 %8.4fs  %-13s lines %4d  residual graph %zu sim %zu  %s\n",
                  request.name.c_str(), log.latencies.size(), Median(log.latencies),
                  RepairStatusName(log.first->status), verdict.lines_changed,
                  verdict.graph_violations.size(), verdict.sim_violations.size(),
                  verdict.sound ? "sound" : "UNSOUND");
    }
    return sound_runs;
  }

  const RequestLog& log(size_t i) const { return logs_[i]; }

 private:
  const std::vector<RepairInput>& requests_;
  RunResult* result_;
  std::vector<RequestLog> logs_;
  int64_t next_request_ = 0;
};

}  // namespace

Result<RunResult> RunFatTreeSym(const BenchArgs& args, const std::string& workdir) {
  std::vector<double> setup_times;
  Result<std::vector<RepairInput>> requests = Error("not set up");
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    const Clock::time_point start = Clock::now();
    requests = SetUp(args);
    setup_times.push_back(Since(start));
    if (!requests.ok()) {
      return requests.error();
    }
  }

  RunResult result;
  OneShotRun run(*requests, &result);
  std::vector<double> latencies;
  const Clock::time_point start = Clock::now();
  if (!args.trace) {
    const int64_t passes = Passes(args, 1);
    for (int64_t pass = 0; pass < passes; ++pass) {
      run.UntracedPass(&latencies);
    }
    const double wall = Since(start);
    int lines_changed = 0;
    const int64_t sound = run.Check(&lines_changed);
    std::printf("%s seed %u: %lld passes of %zu requests in %.2fs\n", args.workload.c_str(),
                args.seed, static_cast<long long>(passes), requests->size(), wall);
    SetEndToEnd(&result, latencies, result.attempted - result.failed, wall,
                Median(setup_times), sound, lines_changed);
    return result;
  }

  Tracer tracer;
  Counters counters;
  double untraced = 0;
  double traced = 0;
  const int64_t passes = Passes(args, 2);
  for (int64_t pass = 0; pass < passes; ++pass) {
    untraced += run.UntracedPass(&latencies);
    traced += run.TracedPass(&tracer, &counters);
  }
  int lines_changed = 0;
  run.Check(&lines_changed);

  // Lines with compression auto over lines with it off, on the same
  // internal-engine PC3 scenarios.
  double lines_auto = 0;
  double lines_off = 0;
  for (size_t i = 0; i < requests->size(); ++i) {
    const RepairOptions& options = (*requests)[i].options.repair;
    const RequestLog& log = run.log(i);
    if (options.backend != BackendChoice::kInternal || !log.first.has_value()) {
      continue;
    }
    (options.compress.mode == CompressMode::kOff ? lines_off : lines_auto) +=
        log.first->lines_changed;
  }
  if (lines_auto > 0 && lines_off > 0) {
    counters["compress.lines_ratio"] = lines_auto / lines_off;
  }
  counters["trace.overhead_ratio"] = untraced > 0 ? traced / untraced : 0;
  SetLayerMetrics(&result, tracer, counters,
                  static_cast<double>(passes) * static_cast<double>(requests->size()),
                  static_cast<double>(passes));
  const std::string spans =
      workdir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(spans)) {
    result.problems.push_back("cannot write " + spans);
  }
  std::printf("%s seed %u: %lld traced passes, %zu spans written to %s\n",
              args.workload.c_str(), args.seed, static_cast<long long>(passes),
              tracer.spans().size(), spans.c_str());
  return result;
}

}  // namespace cpr::perfbench
