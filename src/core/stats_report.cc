#include "core/stats_report.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/schema_versions.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/span.h"

namespace cpr {

namespace {

void WriteRun(obs::JsonWriter* w, const StatsRunInfo& run) {
  w->Key("run").BeginObject();
  w->Key("command").String(run.command);
  w->Key("config_dir").String(run.config_dir);
  w->Key("policy_file").String(run.policy_file);
  w->Key("backend").String(run.backend);
  w->Key("granularity").String(run.granularity);
  w->Key("threads").Int(run.threads);
  w->Key("status").String(run.status);
  w->Key("wall_seconds").Double(run.wall_seconds);
  w->Key("trace_id").String(run.trace_id);
  w->EndObject();
}

void WriteStages(obs::JsonWriter* w) {
  w->Key("stages").BeginArray();
  for (const obs::SpanRecord& span : obs::CurrentTrace().Records()) {
    w->BeginObject();
    w->Key("name").String(span.name);
    w->Key("parent").Int(span.parent);
    w->Key("thread").Int(span.thread);
    w->Key("start_seconds").Double(span.start_seconds);
    w->Key("duration_seconds").Double(span.duration_seconds);
    if (!span.args.empty()) {
      w->Key("args").BeginObject();
      for (const auto& [key, value] : span.args) {
        w->Key(key).String(value);
      }
      w->EndObject();
    }
    w->EndObject();
  }
  w->EndArray();
}

void WriteInstruments(obs::JsonWriter* w) {
  obs::Snapshot snapshot = obs::CurrentRegistry().TakeSnapshot();
  w->Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w->Key(name).Int(value);
  }
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w->Key(name).Int(value);
  }
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, data] : snapshot.histograms) {
    w->Key(name).BeginObject();
    w->Key("count").Int(data.count);
    w->Key("sum_seconds").Double(data.sum_seconds);
    w->Key("min_seconds").Double(data.min_seconds);
    w->Key("max_seconds").Double(data.max_seconds);
    w->Key("p50_seconds").Double(data.QuantileSeconds(0.50));
    w->Key("p90_seconds").Double(data.QuantileSeconds(0.90));
    w->Key("p99_seconds").Double(data.QuantileSeconds(0.99));
    w->EndObject();
  }
  w->EndObject();
}

void WriteCounterPairs(obs::JsonWriter* w,
                       const std::vector<std::pair<std::string, double>>& pairs) {
  // Per-problem counters arrive in backend order; sort for a deterministic
  // document.
  std::map<std::string, double> sorted(pairs.begin(), pairs.end());
  w->BeginObject();
  for (const auto& [name, value] : sorted) {
    w->Key(name).Double(value);
  }
  w->EndObject();
}

void WriteRepair(obs::JsonWriter* w, const CprReport& report) {
  const RepairStats& stats = report.stats;
  w->Key("repair").BeginObject();
  w->Key("trace_id").String(stats.trace_id);
  w->Key("status").String(RepairStatusName(report.status));
  w->Key("predicted_cost").Int(report.predicted_cost);
  w->Key("lines_changed").Int(report.lines_changed);
  w->Key("traffic_classes_impacted").Int(report.traffic_classes_impacted);
  w->Key("problems_formulated").Int(stats.problems_formulated);
  w->Key("problems_solved").Int(stats.problems_solved);
  w->Key("problems_failed").Int(stats.problems_failed);
  w->Key("destinations_skipped").Int(stats.destinations_skipped);
  w->Key("encode_seconds").Double(stats.encode_seconds);
  w->Key("solve_seconds_sum").Double(stats.solve_seconds);
  w->Key("solve_wall_seconds").Double(stats.solve_wall_seconds);
  w->Key("wall_seconds").Double(stats.wall_seconds);
  w->Key("bool_vars").Int(stats.bool_vars);
  w->Key("hard_constraints").Int(stats.hard_constraints);
  w->Key("soft_constraints").Int(stats.soft_constraints);
  w->Key("residual_graph_violations")
      .Int(static_cast<int64_t>(report.residual_graph_violations.size()));
  w->Key("residual_simulation_violations")
      .Int(static_cast<int64_t>(report.residual_simulation_violations.size()));
  // The verdict; "status" above is the solver outcome alone.
  w->Key("sound").Bool(report.Sound());
  w->Key("simulated").Bool(report.simulated);
  w->Key("lint_errors").Int(stats.lint_errors);
  w->Key("lint_warnings").Int(stats.lint_warnings);
  w->Key("lint_audit_new_findings").Int(stats.lint_audit_new_findings);
  w->Key("solver_counter_totals");
  WriteCounterPairs(w, stats.solver_counter_totals);
  w->Key("problems").BeginArray();
  for (const ProblemReport& problem : stats.problem_reports) {
    w->BeginObject();
    w->Key("dsts").BeginArray();
    for (SubnetId dst : problem.dsts) {
      w->Int(dst);
    }
    w->EndArray();
    w->Key("status").String(MaxSmtStatusName(problem.status));
    w->Key("attempts").Int(problem.attempts);
    w->Key("backend").String(problem.backend);
    w->Key("solve_seconds").Double(problem.solve_seconds);
    w->Key("cost").Int(problem.cost);
    w->Key("message").String(problem.message);
    w->Key("certification").String(CertificationName(problem.certification));
    w->Key("certify_message").String(problem.certify_message);
    w->Key("solver_counters");
    WriteCounterPairs(w, problem.solver_counters);
    w->Key("violated_softs").BeginArray();
    for (const auto& [label, weight] : problem.violated_softs) {
      w->BeginObject();
      w->Key("label").String(label);
      w->Key("weight").Int(weight);
      w->EndObject();
    }
    w->EndArray();
    w->Key("unsat_core").BeginArray();
    for (const std::string& label : problem.unsat_core_labels) {
      w->String(label);
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void WriteDiagnostics(obs::JsonWriter* w, const std::vector<lint::Diagnostic>& diags) {
  w->BeginArray();
  for (const lint::Diagnostic& d : diags) {
    w->BeginObject();
    w->Key("rule").String(d.rule);
    w->Key("severity").String(lint::SeverityName(d.severity));
    w->Key("device").String(d.device);
    w->Key("path").String(d.path);
    w->Key("message").String(d.message);
    w->Key("hint").String(d.hint);
    w->EndObject();
  }
  w->EndArray();
}

// Symmetry-quotient compression pre-pass telemetry (DESIGN.md §11).
// quotient_ratio is 1.0 whenever compression did not apply — the
// clean-fallback signature check.sh asserts on asymmetric input.
void WriteCompression(obs::JsonWriter* w, const CprReport& report) {
  const compress::CompressionStats& c = report.compression;
  w->Key("compression").BeginObject();
  w->Key("attempted").Bool(c.attempted);
  w->Key("applied").Bool(c.applied);
  w->Key("skipped_reason").String(c.skipped_reason);
  w->Key("routers").Int(c.routers);
  w->Key("base_blocks").Int(c.base_blocks);
  w->Key("quotient_ratio").Double(c.quotient_ratio);
  w->Key("groups_total").Int(c.groups_total);
  w->Key("groups_compressed").Int(c.groups_compressed);
  w->Key("groups_fallback").Int(c.groups_fallback);
  w->Key("abstract_edits").Int(c.abstract_edits);
  w->Key("lifted_edits").Int(c.lifted_edits);
  w->Key("lift_verify_failures").Int(c.lift_verify_failures);
  w->Key("fallback_policies").Int(c.fallback_policies);
  w->Key("cache_hits").Int(c.cache_hits);
  w->Key("cache_misses").Int(c.cache_misses);
  w->Key("partition_seconds").Double(c.partition_seconds);
  w->Key("quotient_seconds").Double(c.quotient_seconds);
  w->Key("solve_seconds").Double(c.solve_seconds);
  w->Key("lift_seconds").Double(c.lift_seconds);
  w->EndObject();
}

// Incremental re-repair telemetry (DESIGN.md §12). attempted is false unless
// the pipeline was built with Cpr::FromBaseline; check.sh asserts
// groups_reused > 0 on its one-router-edit smoke.
void WriteIncremental(obs::JsonWriter* w, const CprReport& report) {
  const incremental::IncrementalStats& i = report.incremental;
  w->Key("incremental").BeginObject();
  w->Key("attempted").Bool(i.attempted);
  w->Key("applied").Bool(i.applied);
  w->Key("skipped_reason").String(i.skipped_reason);
  w->Key("devices_changed").Int(i.devices_changed);
  w->Key("everything_dirty").Bool(i.everything_dirty);
  w->Key("harc_cloned").Bool(i.harc_cloned);
  w->Key("dirty_destinations").Int(i.dirty_destinations);
  w->Key("dirty_traffic_classes").Int(i.dirty_traffic_classes);
  w->Key("groups_total").Int(i.groups_total);
  w->Key("groups_reused").Int(i.groups_reused);
  w->Key("groups_resolved").Int(i.groups_resolved);
  w->Key("warm_hits").Int(i.warm_hits);
  w->Key("warm_misses").Int(0);  // Both always 0; schema v1 is append-only.
  w->Key("fell_back").Bool(i.fell_back);
  w->Key("diff_seconds").Double(i.diff_seconds);
  w->Key("clone_seconds").Double(i.clone_seconds);
  w->Key("solve_seconds").Double(i.solve_seconds);
  w->Key("verify_seconds").Double(i.verify_seconds);
  w->EndObject();
}

// The lint section carries its own schema version: the rule catalog evolves
// independently of the surrounding run schema.
void WriteLint(obs::JsonWriter* w, const CprReport& report) {
  w->Key("lint").BeginObject();
  w->Key("schema_version").Int(kLintSchemaVersion);
  w->Key("errors").Int(report.lint_report.errors);
  w->Key("warnings").Int(report.lint_report.warnings);
  w->Key("infos").Int(report.lint_report.infos);
  w->Key("diagnostics");
  WriteDiagnostics(w, report.lint_report.diagnostics);
  w->Key("audit_new_findings");
  WriteDiagnostics(w, report.lint_new_findings);
  w->EndObject();
}

// Certification telemetry (DESIGN.md §13). Carries its own schema version:
// the proof/checker formats evolve independently of the run schema. `mode`
// echoes the request; the counts summarize the independent checker's
// verdicts over the problem reports.
void WriteCertify(obs::JsonWriter* w, const CprReport& report) {
  const RepairStats& stats = report.stats;
  w->Key("certify").BeginObject();
  w->Key("schema_version").Int(kCertifySchemaVersion);
  w->Key("mode").String(report.certify_mode);
  w->Key("checked").Int(stats.certify_checked);
  w->Key("verified").Int(stats.certify_verified);
  w->Key("failed").Int(stats.certify_failed);
  w->Key("artifacts").Int(stats.certify_artifacts);
  w->Key("artifact_dir").String(report.certify_artifact_dir);
  w->EndObject();
}

// Like the lint section, provenance carries its own schema version so `cpr
// explain --json` and --stats-json stay in lockstep (both delegate to
// obs::WriteProvenanceFields).
void WriteProvenance(obs::JsonWriter* w, const CprReport& report) {
  w->Key("provenance").BeginObject();
  w->Key("schema_version").Int(kProvenanceSchemaVersion);
  obs::WriteProvenanceFields(w, report.provenance);
  w->EndObject();
}

}  // namespace

std::string BuildStatsJson(const StatsRunInfo& run, const CprReport* report) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(kStatsSchemaVersion);
  WriteRun(&w, run);
  WriteStages(&w);
  WriteInstruments(&w);
  if (report != nullptr) {
    WriteRepair(&w, *report);
    WriteCompression(&w, *report);
    WriteIncremental(&w, *report);
    WriteCertify(&w, *report);
    WriteLint(&w, *report);
    WriteProvenance(&w, *report);
  }
  w.EndObject();
  return w.str();
}

Status WriteStatsJson(const std::string& path, const std::string& json) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Error("cannot open stats file '" + path + "' for writing");
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  bool newline_ok = std::fputc('\n', file) != EOF;
  int close_rc = std::fclose(file);
  if (written != json.size() || !newline_ok || close_rc != 0) {
    return Error("short write to stats file '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace cpr
