#include "perfbench/replay.h"

#include <algorithm>
#include <memory>

#include "compress/compress.h"
#include "config/parser.h"
#include "config/printer.h"
#include "core/policy_spec.h"
#include "lint/lint.h"
#include "repair/repair.h"
#include "simulate/simulator.h"
#include "translate/translator.h"
#include "verify/checker.h"

namespace cpr::perfbench {

Result<CprReport> RunRequest(const RepairInput& input) {
  Result<NetworkAnnotations> annotations = ParseSpecAnnotations(input.policy_text);
  if (!annotations.ok()) {
    return annotations.error();
  }
  Result<Cpr> cpr = Cpr::FromConfigTexts(input.config_texts, std::move(annotations).value());
  if (!cpr.ok()) {
    return cpr.error();
  }
  Result<std::vector<Policy>> policies = ParseSpecPolicies(input.policy_text, cpr->network());
  if (!policies.ok()) {
    return policies.error();
  }
  return cpr->Repair(*policies, input.options);
}

void AddRepairStats(const RepairStats& stats, Counters* counters) {
  Counters& c = *counters;
  c["repair.encode_s"] += stats.encode_seconds;
  c["repair.solve_wall_s"] += stats.solve_wall_seconds;
  c["repair.problems"] += stats.problems_formulated;
  c["repair.problems_failed"] += stats.problems_failed;
  c["repair.destinations_skipped"] += stats.destinations_skipped;
  c["solver.bool_vars"] += static_cast<double>(stats.bool_vars);
  c["solver.hard_constraints"] += static_cast<double>(stats.hard_constraints);
  for (const ProblemReport& problem : stats.problem_reports) {
    c["solver.retries"] += std::max(0, problem.attempts - 1);
  }
  for (const auto& [name, value] : stats.solver_counter_totals) {
    if (name == "cdcl.conflicts" || name == "cdcl.propagations" ||
        name == "cdcl.learnt_deleted" || name == "maxsat.sat_calls") {
      c["smt." + name] += value;
    }
  }
}

Result<ReplayResult> ReplayRequest(const RepairInput& input, Tracer* tracer,
                                   Counters* counters) {
  using Scope = Tracer::Scope;
  Counters& c = *counters;
  const CprOptions& options = input.options;
  Scope request_span(tracer, "request");

  // Cpr::FromConfigTexts: parse, build the network, build the HARC.
  Result<NetworkAnnotations> annotations = ParseSpecAnnotations(input.policy_text);
  if (!annotations.ok()) {
    return annotations.error();
  }
  std::vector<Config> configs;
  {
    Scope span(tracer, "config.parse");
    for (const std::string& text : input.config_texts) {
      Result<Config> parsed = ParseConfig(text);
      if (!parsed.ok()) {
        return parsed.error();
      }
      configs.push_back(std::move(parsed).value());
    }
  }
  c["config.parse_calls"] += static_cast<double>(input.config_texts.size());
  std::unique_ptr<Network> network;
  {
    Scope span(tracer, "topo.build");
    Result<Network> built = Network::Build(std::move(configs), std::move(annotations).value());
    if (!built.ok()) {
      return built.error();
    }
    network = std::make_unique<Network>(std::move(built).value());
  }
  std::unique_ptr<Harc> harc;
  {
    Scope span(tracer, "arc.build");
    harc = std::make_unique<Harc>(Harc::Build(*network));
  }
  c["arc.candidate_edges"] += harc->universe().EdgeCount();
  Result<std::vector<Policy>> policies = ParseSpecPolicies(input.policy_text, *network);
  if (!policies.ok()) {
    return policies.error();
  }
  {
    Scope span(tracer, "verify.find_violations");
    c["verify.violated_policies"] += static_cast<double>(FindViolations(*harc, *policies).size());
  }

  // Cpr::RepairImpl: lint gate, compression pre-pass, or repair + translate.
  ReplayResult result;
  RepairOutput& out = result.output;
  lint::Report lint_report;
  if (options.lint_mode != LintMode::kOff) {
    Scope span(tracer, "lint.run");
    lint_report = lint::Run(network->configs());
    c["lint.findings"] += static_cast<double>(lint_report.diagnostics.size());
    if (options.lint_mode == LintMode::kGate && lint_report.errors > 0) {
      out.status = RepairStatus::kLintRejected;
      return result;
    }
  }
  NetworkAnnotations patched_annotations;
  std::unique_ptr<Network> rebuilt;
  std::unique_ptr<Harc> rebuilt_harc;
  bool compressed = false;
  if (options.repair.compress.mode != CompressMode::kOff &&
      options.repair.granularity == Granularity::kPerDst) {
    Result<compress::CompressionOutcome> outcome = [&] {
      Scope span(tracer, "compress.try");
      return compress::TryCompressedRepair(*network, *harc, *policies, options.repair);
    }();
    if (!outcome.ok()) {
      return outcome.error();
    }
    const compress::CompressionStats& stats = outcome->stats;
    c["compress.quotient_ratio"] = std::max(c["compress.quotient_ratio"], stats.quotient_ratio);
    c["compress.groups_compressed"] += stats.groups_compressed;
    c["compress.lift_verify_failures"] += stats.lift_verify_failures;
    if (outcome->result.has_value()) {
      compressed = true;
      compress::CompressedRepairResult& repaired = *outcome->result;
      AddRepairStats(repaired.stats, counters);
      out.status = repaired.status;
      out.lines_changed = repaired.lines_changed;
      result.patched_configs = std::move(repaired.patched_configs);
      patched_annotations = std::move(repaired.patched_annotations);
      rebuilt = std::move(repaired.rebuilt_network);
      rebuilt_harc = std::move(repaired.rebuilt_harc);
    }
  }
  if (!compressed) {
    Result<RepairOutcome> outcome = [&] {
      Scope span(tracer, "repair.compute");
      return ComputeRepair(*harc, *policies, options.repair);
    }();
    if (!outcome.ok()) {
      return outcome.error();
    }
    AddRepairStats(outcome->stats, counters);
    out.status = outcome->status;
    if (!outcome->HasRepair()) {
      return result;
    }
    Result<TranslationResult> translation = [&] {
      Scope span(tracer, "translate.edits");
      return TranslateEdits(*network, outcome->edits);
    }();
    if (!translation.ok()) {
      return translation.error();
    }
    out.lines_changed = translation->LinesChanged();
    c["translate.lines_changed"] += out.lines_changed;
    result.patched_configs = std::move(translation->patched_configs);
    patched_annotations = std::move(translation->annotations);
  }

  // Cpr::CloseLoop: rebuild, re-verify, simulate, lint audit.
  if (rebuilt == nullptr) {
    Scope span(tracer, "topo.build");
    Result<Network> built = Network::Build(result.patched_configs, patched_annotations);
    if (!built.ok()) {
      return built.error();
    }
    rebuilt = std::make_unique<Network>(std::move(built).value());
  }
  if (rebuilt_harc == nullptr) {
    Scope span(tracer, "arc.build");
    rebuilt_harc = std::make_unique<Harc>(Harc::Build(*rebuilt));
  }
  {
    Scope span(tracer, "verify.find_violations");
    out.residual_graph = FindViolations(*rebuilt_harc, *policies);
  }
  if (options.validate_with_simulator) {
    Scope span(tracer, "simulate.find_violations");
    out.residual_sim =
        FindSimulationViolations(*rebuilt, *policies, options.simulator_failure_cap);
    c["simulate.policies_checked"] += static_cast<double>(policies->size());
    c["simulate.residual_violations"] += static_cast<double>(out.residual_sim.size());
  }
  if (options.lint_mode != LintMode::kOff) {
    Scope span(tracer, "lint.run");
    const lint::Report patched_lint = lint::Run(result.patched_configs);
    c["lint.findings"] +=
        static_cast<double>(lint::NewFindings(lint_report, patched_lint).size());
  }
  for (const Config& config : result.patched_configs) {
    out.patched_texts.push_back(PrintConfig(config));
  }
  out.patched_annotations = std::move(patched_annotations);
  return result;
}

}  // namespace cpr::perfbench
