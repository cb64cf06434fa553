#include "core/cpr.h"

#include <chrono>
#include <unordered_map>

#include "config/parser.h"
#include "incremental/incremental.h"
#include "lint/lint.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "simulate/simulator.h"
#include "translate/patch.h"
#include "verify/checker.h"

namespace cpr {

namespace {

// Completes provenance chains with the configuration lines each edit
// produced, joined by canonical construct key.
void JoinConfigChanges(const std::vector<EditTrace>& edit_traces,
                       obs::ProvenanceReport* provenance) {
  std::unordered_map<std::string, const EditTrace*> traces;
  for (const EditTrace& trace : edit_traces) {
    traces.emplace(trace.construct, &trace);
  }
  for (obs::ProvenanceChain& chain : provenance->chains) {
    auto it = traces.find(chain.construct);
    if (it != traces.end()) {
      chain.config_changes = it->second->changes;
    }
  }
}

// Parses every configuration text under one pipeline.parse_configs span.
Result<std::vector<Config>> ParseConfigTexts(const std::vector<std::string>& texts) {
  std::vector<Config> configs;
  configs.reserve(texts.size());
  {
    obs::StageSpan span("pipeline.parse_configs");
    for (size_t i = 0; i < texts.size(); ++i) {
      Result<Config> parsed = ParseConfig(texts[i]);
      if (!parsed.ok()) {
        return Error("config " + std::to_string(i) + ": " + parsed.error().message());
      }
      configs.push_back(std::move(parsed).value());
    }
  }
  obs::CurrentRegistry().gauge("pipeline.configs_parsed")
      .Set(static_cast<int64_t>(configs.size()));
  return configs;
}

}  // namespace

Result<Cpr> Cpr::FromConfigTexts(const std::vector<std::string>& texts,
                                 NetworkAnnotations annotations) {
  Result<std::vector<Config>> configs = ParseConfigTexts(texts);
  if (!configs.ok()) {
    return configs.error();
  }
  return FromConfigs(std::move(configs).value(), std::move(annotations));
}

Result<Cpr> Cpr::FromConfigs(std::vector<Config> configs, NetworkAnnotations annotations) {
  obs::StageSpan span("pipeline.build_network");
  Result<Network> network = Network::Build(std::move(configs), std::move(annotations));
  if (!network.ok()) {
    return network.error();
  }
  return Cpr(std::make_unique<Network>(std::move(network).value()));
}

Result<Cpr> Cpr::FromBaseline(std::shared_ptr<const incremental::RepairSession> baseline,
                              const std::vector<std::string>& texts,
                              NetworkAnnotations annotations) {
  if (baseline == nullptr) {
    return Error("incremental repair requires a baseline session");
  }
  Result<std::vector<Config>> configs = ParseConfigTexts(texts);
  if (!configs.ok()) {
    return configs.error();
  }

  incremental::IncrementalStats stats;
  stats.attempted = true;
  const auto diff_start = std::chrono::steady_clock::now();
  auto dirty = std::make_shared<incremental::DirtySet>(incremental::ComputeDirtySet(
      baseline->network->configs(), baseline->annotations, *configs, annotations));
  stats.diff_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - diff_start)
          .count();

  Result<Network> network = [&]() {
    obs::StageSpan span("pipeline.build_network");
    return Network::Build(std::move(configs).value(), std::move(annotations));
  }();
  if (!network.ok()) {
    return network.error();
  }
  auto owned = std::make_unique<Network>(std::move(network).value());

  // Clone the session's HARC when the edit is destination-scopable; a full
  // build otherwise (the incremental path then declines in Repair(), but the
  // report still carries the differ's verdict).
  std::optional<Harc> prepared =
      incremental::PrepareHarc(*baseline, *owned, *dirty, &stats);
  Cpr cpr = prepared.has_value() ? Cpr(std::move(owned), std::move(*prepared))
                                 : Cpr(std::move(owned));
  cpr.baseline_session_ = std::move(baseline);
  cpr.baseline_dirty_ = std::move(dirty);
  cpr.incremental_stats_ = stats;
  return cpr;
}

std::vector<Policy> Cpr::InferPolicies(const InferenceOptions& options) const {
  return cpr::InferPolicies(harc_, options);
}

Result<CprReport> Cpr::Repair(const std::vector<Policy>& policies,
                              const CprOptions& options) const {
  Result<CprReport> result = RepairImpl(policies, options);
  if (result.ok()) {
    result->stats.trace_id = options.trace_id;
  }
  return result;
}

Result<CprReport> Cpr::RepairImpl(const std::vector<Policy>& policies,
                                  const CprOptions& options) const {
  CprReport report;
  report.incremental = incremental_stats_;
  report.certify_mode = certify::CertifyModeName(options.repair.certify);
  report.certify_artifact_dir = options.repair.certify_artifact_dir;

  // A request whose wall-clock budget is already gone — zero, negative, or
  // consumed while queued — must not start any work, not even the lint
  // gate: the caller gets a clean kDeadlineExceeded report immediately.
  if (options.repair.deadline.Expired()) {
    report.status = RepairStatus::kDeadlineExceeded;
    obs::CurrentRegistry().counter("repair.deadline_rejects").Increment();
    return report;
  }

  // Pre-repair lint gate: a config that references undefined constructs or
  // carries an inconsistent topology produces a wrong HARC and therefore a
  // confidently wrong repair — refuse it up front (paper §9 offloads this to
  // Batfish; lint/lint.h is our equivalent).
  if (options.lint_mode != LintMode::kOff) {
    obs::StageSpan lint_span("pipeline.lint");
    report.lint_report = lint::Run(network_->configs());
    obs::Registry& registry = obs::CurrentRegistry();
    registry.counter("lint.findings")
        .Add(static_cast<int64_t>(report.lint_report.diagnostics.size()));
    registry.counter("lint.errors").Add(report.lint_report.errors);
    registry.counter("lint.warnings").Add(report.lint_report.warnings);
    report.stats.lint_errors = report.lint_report.errors;
    report.stats.lint_warnings = report.lint_report.warnings;
    if (options.lint_mode == LintMode::kGate && report.lint_report.errors > 0) {
      report.status = RepairStatus::kLintRejected;
      return report;
    }
  }

  // One repair path (DESIGN.md §7): an ordered chain — incremental
  // re-repair (§12), the compression pre-pass (§11), the plain engine —
  // where each step either declines to the next or yields a PatchedRepair.
  // The pre-passes hand over their concretely re-verified network and HARC;
  // only the plain path leaves the rebuild to CloseLoop. pipeline.repair
  // spans the whole chain, and its elapsed time is the report's
  // wall_seconds.
  const auto repair_start = std::chrono::steady_clock::now();
  Result<PatchedRepair> patched = [&]() -> Result<PatchedRepair> {
    obs::StageSpan repair_span("pipeline.repair");
    if (!options.trace_id.empty()) {
      repair_span.Annotate("trace_id", options.trace_id);
    }
    // Incremental re-repair declines on global dirt, changed policies, a
    // clone-incompatible snapshot, or a failed scoped or fallback solve.
    if (baseline_session_ != nullptr) {
      obs::StageSpan incremental_span("pipeline.incremental");
      Result<incremental::IncrementalOutcome> inc = incremental::TryIncrementalRepair(
          *baseline_session_, *network_, harc_, *baseline_dirty_, policies,
          options.repair, incremental_stats_);
      if (!inc.ok()) {
        return inc.error();
      }
      report.incremental = inc->stats;
      obs::Registry& registry = obs::CurrentRegistry();
      registry.counter("incremental.attempts").Increment();
      registry.counter("incremental.groups_reused").Add(inc->stats.groups_reused);
      registry.counter("incremental.groups_resolved").Add(inc->stats.groups_resolved);
      if (inc->stats.fell_back) {
        registry.counter("incremental.fallbacks").Increment();
      }
      if (inc->result.has_value()) {
        registry.counter("incremental.applied").Increment();
        return std::move(*inc->result);
      }
    }
    // Compression declines when the network is too small, not symmetric
    // enough, or its policy mix does not map onto a quotient.
    if (options.repair.compress.mode != CompressMode::kOff &&
        options.repair.granularity == Granularity::kPerDst) {
      Result<compress::CompressionOutcome> compressed =
          compress::TryCompressedRepair(*network_, harc_, policies, options.repair);
      if (!compressed.ok()) {
        return compressed.error();
      }
      report.compression = compressed->stats;
      if (compressed->result.has_value()) {
        return std::move(*compressed->result);
      }
    }
    Result<RepairOutcome> solved = ComputeRepair(harc_, policies, options.repair);
    if (!solved.ok()) {
      return solved.error();
    }
    PatchedRepair plain = FromSolve(std::move(solved).value());
    // kPartial proceeds: the solved problems' edits are translated and
    // re-verified, and the failed problems' policies simply show up in
    // residual_graph_violations (Sound() stays false).
    if (plain.HasRepair()) {
      Status translated = TranslateRepair(*network_, &plain);
      if (!translated.ok()) {
        return translated.error();
      }
    }
    return plain;
  }();
  if (!patched.ok()) {
    return patched.error();
  }
  report.status = patched->status;
  report.predicted_cost = patched->predicted_cost;
  report.stats = std::move(patched->stats);
  report.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - repair_start).count();
  // The repair engine's stats start from zero; restore the gate's counts.
  report.stats.lint_errors = report.lint_report.errors;
  report.stats.lint_warnings = report.lint_report.warnings;
  report.edits = std::move(patched->edits);
  // Provenance is adopted before the no-repair early return so unsat cores
  // from fully-failed runs still reach `cpr explain`.
  report.provenance = std::move(patched->provenance);
  if (!patched->HasRepair()) {
    return report;  // kUnsat / kTimeout / kUnsupported / kError: nothing was
                    // translated.
  }
  report.patched_configs = std::move(patched->patched_configs);
  report.patched_annotations = std::move(patched->patched_annotations);
  report.change_log = std::move(patched->change_log);
  report.diff_text = std::move(patched->diff_text);
  report.lines_changed = patched->lines_changed;
  JoinConfigChanges(patched->edit_traces, &report.provenance);
  Status closed = CloseLoop(policies, options, &*patched, &report);
  if (!closed.ok()) {
    return closed.error();
  }
  return report;
}

Status Cpr::CloseLoop(const std::vector<Policy>& policies, const CprOptions& options,
                      PatchedRepair* patched, CprReport* report) const {
  // Close the loop: rebuild the network and HARC from the patched
  // configurations and re-check every policy. The pre-passes hand over the
  // pair they already rebuilt, and its verdict when it is still current.
  std::shared_ptr<const Network> rebuilt = std::move(patched->rebuilt_network);
  if (rebuilt == nullptr) {
    obs::StageSpan rebuild_span("pipeline.rebuild");
    Result<Network> built =
        Network::Build(report->patched_configs, report->patched_annotations);
    if (!built.ok()) {
      return Error("patched configurations no longer form a valid network: " +
                   built.error().message());
    }
    rebuilt = std::make_shared<const Network>(std::move(built).value());
  }
  std::shared_ptr<const Harc> rebuilt_harc = std::move(patched->rebuilt_harc);
  {
    obs::StageSpan reverify_span("pipeline.reverify");
    if (rebuilt_harc == nullptr) {
      rebuilt_harc = std::make_shared<const Harc>(Harc::Build(*rebuilt));
    }
    report->residual_graph_violations =
        patched->rebuilt_violations.has_value()
            ? std::move(*patched->rebuilt_violations)
            : FindViolations(*rebuilt_harc, policies);
  }
  if (options.validate_with_simulator) {
    obs::StageSpan simulate_span("pipeline.simulate");
    report->residual_simulation_violations =
        FindSimulationViolations(*rebuilt, policies, options.simulator_failure_cap);
    report->simulated = true;
  }

  // Post-translate lint audit: the patched configurations must introduce no
  // error/warning finding the originals did not already have. Any fresh
  // finding is a translator defect surfaced for free.
  if (options.lint_mode != LintMode::kOff) {
    obs::StageSpan audit_span("pipeline.lint_audit");
    lint::Report patched_lint = lint::Run(report->patched_configs);
    report->lint_new_findings = lint::NewFindings(report->lint_report, patched_lint);
    report->stats.lint_audit_new_findings =
        static_cast<int>(report->lint_new_findings.size());
    obs::CurrentRegistry()
        .counter("lint.audit_new_findings")
        .Add(static_cast<int64_t>(report->lint_new_findings.size()));
  }

  // Traffic classes impacted: tcETGs whose edge set changed (§8.3). The
  // universes enumerate candidate edges identically because devices, links,
  // subnets, and processes are unchanged by translation.
  {
    obs::StageSpan impact_span("pipeline.impact");
    const int subnet_count = harc_.SubnetCount();
    for (SubnetId s = 0; s < subnet_count; ++s) {
      for (SubnetId d = 0; d < subnet_count; ++d) {
        if (s != d && !harc_.tcetg(s, d).SamePresence(rebuilt_harc->tcetg(s, d))) {
          ++report->traffic_classes_impacted;
        }
      }
    }
  }

  report->repaired_network = std::move(rebuilt);
  report->repaired_harc = std::move(rebuilt_harc);
  return Status::Ok();
}

}  // namespace cpr
