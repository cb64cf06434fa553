// Run results and the one-line JSON document the benchmark ends with.

#ifndef CPR_PERFBENCH_REPORT_H_
#define CPR_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/trace.h"

namespace cpr::perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::vector<std::string> problems;  // Empty: every check passed.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  bool correct() const { return problems.empty(); }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// Median, and the highest percentile with at least ten samples above it
// (the maximum when there are fewer than eleven samples).
struct LatencySummary {
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 100;
  size_t samples = 0;
};
LatencySummary Summarize(std::vector<double> samples);

double Median(std::vector<double> samples);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Sets the end-to-end metrics every workload shares and prints the
// latency sample count and tail percentile on stdout.
void SetEndToEnd(RunResult* result, const std::vector<double>& latencies, int64_t completed,
                 double wall_seconds, double setup_seconds, int64_t sound, int lines_changed);

// Sets every per-layer metric of a traced run. Span times and the repair
// engine's own encode/solve times are means per replayed request; counts
// are totals per pass over the workload's requests; ratios and the serve
// metrics are taken from `counters` as they are.
void SetLayerMetrics(RunResult* result, const Tracer& tracer, const Counters& counters,
                     double requests, double passes);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string ResultJson(const RunResult& result);

}  // namespace cpr::perfbench

#endif  // CPR_PERFBENCH_REPORT_H_
