#include "perfbench/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace cpr::perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary summary;
  summary.samples = samples.size();
  if (samples.empty()) {
    return summary;
  }
  summary.p50 = Median(samples);
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n >= 11) {
    summary.tail = samples[n - 11];
    summary.tail_percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    summary.tail = samples.back();
  }
  return summary;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void SetEndToEnd(RunResult* result, const std::vector<double>& latencies, int64_t completed,
                 double wall_seconds, double setup_seconds, int64_t sound, int lines_changed) {
  const LatencySummary latency = Summarize(latencies);
  std::printf("latency: %zu samples, p50 %.4fs, tail p%.1f %.4fs%s\n", latency.samples,
              latency.p50, latency.tail_percentile, latency.tail,
              latency.samples < 11 ? " (fewer than 11 samples: maximum)" : "");
  const double attempted = static_cast<double>(std::max<int64_t>(1, result->attempted));
  result->Set("latency_s.p50", latency.p50, "s");
  result->Set("latency_s.tail", latency.tail, "s");
  result->Set("repairs_per_s",
              wall_seconds > 0 ? static_cast<double>(completed) / wall_seconds : 0, "1/s");
  result->Set("setup_s", setup_seconds, "s");
  result->Set("sound_frac", static_cast<double>(sound) / attempted, "fraction");
  result->Set("lines_changed", lines_changed, "lines");
  result->Set("ok_frac", 1.0 - static_cast<double>(result->failed) / attempted, "fraction");
  result->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

namespace {

enum class Aggregate { kSpanMean, kCounterMean, kPerPass, kAsIs };

struct LayerMetric {
  const char* name;
  const char* source;  // Span name or counter name.
  Aggregate aggregate;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"config.parse_s", "config.parse", Aggregate::kSpanMean, "s"},
    {"config.parse_calls", "config.parse_calls", Aggregate::kPerPass, "count"},
    {"topo.build_s", "topo.build", Aggregate::kSpanMean, "s"},
    {"arc.build_s", "arc.build", Aggregate::kSpanMean, "s"},
    {"arc.candidate_edges", "arc.candidate_edges", Aggregate::kPerPass, "count"},
    {"lint.run_s", "lint.run", Aggregate::kSpanMean, "s"},
    {"lint.findings", "lint.findings", Aggregate::kPerPass, "count"},
    {"verify.find_violations_s", "verify.find_violations", Aggregate::kSpanMean, "s"},
    {"verify.violated_policies", "verify.violated_policies", Aggregate::kPerPass, "count"},
    {"repair.compute_s", "repair.compute", Aggregate::kSpanMean, "s"},
    {"repair.encode_s", "repair.encode_s", Aggregate::kCounterMean, "s"},
    {"repair.solve_wall_s", "repair.solve_wall_s", Aggregate::kCounterMean, "s"},
    {"repair.problems", "repair.problems", Aggregate::kPerPass, "count"},
    {"repair.problems_failed", "repair.problems_failed", Aggregate::kPerPass, "count"},
    {"repair.destinations_skipped", "repair.destinations_skipped", Aggregate::kPerPass,
     "count"},
    {"solver.bool_vars", "solver.bool_vars", Aggregate::kPerPass, "count"},
    {"solver.hard_constraints", "solver.hard_constraints", Aggregate::kPerPass, "count"},
    {"solver.retries", "solver.retries", Aggregate::kPerPass, "count"},
    {"smt.cdcl.conflicts", "smt.cdcl.conflicts", Aggregate::kPerPass, "count"},
    {"smt.cdcl.propagations", "smt.cdcl.propagations", Aggregate::kPerPass, "count"},
    {"smt.cdcl.learnt_deleted", "smt.cdcl.learnt_deleted", Aggregate::kPerPass, "count"},
    {"smt.maxsat.sat_calls", "smt.maxsat.sat_calls", Aggregate::kPerPass, "count"},
    {"translate.edits_s", "translate.edits", Aggregate::kSpanMean, "s"},
    {"translate.lines_changed", "translate.lines_changed", Aggregate::kPerPass, "lines"},
    {"simulate.find_violations_s", "simulate.find_violations", Aggregate::kSpanMean, "s"},
    {"simulate.policies_checked", "simulate.policies_checked", Aggregate::kPerPass, "count"},
    {"simulate.residual_violations", "simulate.residual_violations", Aggregate::kPerPass,
     "count"},
    {"compress.try_s", "compress.try", Aggregate::kSpanMean, "s"},
    {"compress.quotient_ratio", "compress.quotient_ratio", Aggregate::kAsIs, "ratio"},
    {"compress.groups_compressed", "compress.groups_compressed", Aggregate::kPerPass, "count"},
    {"compress.lift_verify_failures", "compress.lift_verify_failures", Aggregate::kPerPass,
     "count"},
    {"compress.lines_ratio", "compress.lines_ratio", Aggregate::kAsIs, "ratio"},
    {"incremental.build_session_s", "incremental.build_session", Aggregate::kSpanMean, "s"},
    {"incremental.from_baseline_s", "incremental.from_baseline", Aggregate::kSpanMean, "s"},
    {"incremental.repair_s", "incremental.repair", Aggregate::kSpanMean, "s"},
    {"incremental.reuse_ratio", "incremental.reuse_ratio", Aggregate::kAsIs, "ratio"},
    {"incremental.warm_hits", "incremental.warm_hits", Aggregate::kPerPass, "count"},
    {"incremental.fallbacks", "incremental.fallbacks", Aggregate::kPerPass, "count"},
    {"serve.submit_s", "serve.submit_s", Aggregate::kAsIs, "s"},
    {"serve.queue_wait_s", "serve.queue_wait_s", Aggregate::kAsIs, "s"},
    {"serve.exec_s", "serve.exec_s", Aggregate::kAsIs, "s"},
    {"serve.rejects", "serve.rejects", Aggregate::kAsIs, "count"},
    {"serve.retries", "serve.retries", Aggregate::kAsIs, "count"},
    {"serve.cache_hit_ratio", "serve.cache_hit_ratio", Aggregate::kAsIs, "ratio"},
    {"trace.overhead_ratio", "trace.overhead_ratio", Aggregate::kAsIs, "ratio"},
};

}  // namespace

void SetLayerMetrics(RunResult* result, const Tracer& tracer, const Counters& counters,
                     double requests, double passes) {
  auto counter = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  for (const LayerMetric& metric : kLayerMetrics) {
    double value = 0;
    switch (metric.aggregate) {
      case Aggregate::kSpanMean:
        value = requests > 0 ? tracer.TotalSeconds(metric.source) / requests : 0;
        break;
      case Aggregate::kCounterMean:
        value = requests > 0 ? counter(metric.source) / requests : 0;
        break;
      case Aggregate::kPerPass:
        value = passes > 0 ? counter(metric.source) / passes : 0;
        break;
      case Aggregate::kAsIs:
        value = counter(metric.source);
        break;
    }
    result->Set(metric.name, value, metric.unit);
  }
}

std::string ResultJson(const RunResult& result) {
  // Values keep every digit (%.17g); names and units are plain ASCII.
  std::string out = std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, metric] : result.metrics) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
    out.append(separator).append("\"").append(obs::JsonEscape(name));
    out.append("\": {\"value\": ").append(value).append(", \"unit\": \"");
    out.append(obs::JsonEscape(metric.unit)).append("\"}");
    separator = ", ";
  }
  return out + "}}";
}

}  // namespace cpr::perfbench
