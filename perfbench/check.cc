#include "perfbench/check.h"

#include "config/diff.h"
#include "config/parser.h"
#include "config/printer.h"
#include "core/policy_spec.h"
#include "simulate/simulator.h"
#include "verify/checker.h"

namespace cpr::perfbench {

bool RepairOutput::ClaimsSound() const {
  return (status == RepairStatus::kSuccess || status == RepairStatus::kNoViolations) &&
         residual_graph.empty() && residual_sim.empty();
}

RepairOutput OutputOf(const CprReport& report) {
  RepairOutput output;
  output.status = report.status;
  for (const Config& config : report.patched_configs) {
    output.patched_texts.push_back(PrintConfig(config));
  }
  output.patched_annotations = report.patched_annotations;
  output.lines_changed = report.lines_changed;
  output.residual_graph = report.residual_graph_violations;
  output.residual_sim = report.residual_simulation_violations;
  return output;
}

bool SameOutput(const RepairOutput& a, const RepairOutput& b) {
  return a.status == b.status && a.patched_texts == b.patched_texts &&
         a.patched_annotations.waypoint_links == b.patched_annotations.waypoint_links &&
         a.lines_changed == b.lines_changed && a.residual_graph == b.residual_graph &&
         a.residual_sim == b.residual_sim;
}

bool FailedStatus(RepairStatus status) {
  return status == RepairStatus::kError || status == RepairStatus::kTimeout ||
         status == RepairStatus::kPartial || status == RepairStatus::kDeadlineExceeded;
}

CheckVerdict CheckOutput(const std::vector<std::string>& original_texts,
                         const std::string& policy_text, const RepairOutput& output,
                         bool simulate, int failure_cap) {
  CheckVerdict verdict;
  const bool patched = !output.patched_texts.empty();
  const std::vector<std::string>& texts = patched ? output.patched_texts : original_texts;
  if (texts.size() != original_texts.size()) {
    verdict.error = "patched snapshot has " + std::to_string(texts.size()) + " configs, input " +
                    std::to_string(original_texts.size());
    return verdict;
  }
  NetworkAnnotations annotations = output.patched_annotations;
  if (!patched) {
    Result<NetworkAnnotations> parsed = ParseSpecAnnotations(policy_text);
    if (!parsed.ok()) {
      verdict.error = parsed.error().message();
      return verdict;
    }
    annotations = std::move(parsed).value();
  }

  std::vector<Config> configs;
  for (size_t i = 0; i < texts.size(); ++i) {
    Result<Config> parsed = ParseConfig(texts[i]);
    if (!parsed.ok()) {
      verdict.error = "config " + std::to_string(i) + ": " + parsed.error().message();
      return verdict;
    }
    configs.push_back(std::move(parsed).value());
    verdict.lines_changed += DiffConfigText(original_texts[i], texts[i]).total();
  }
  Result<Network> network = Network::Build(std::move(configs), std::move(annotations));
  if (!network.ok()) {
    verdict.error = network.error().message();
    return verdict;
  }
  Result<std::vector<Policy>> policies = ParseSpecPolicies(policy_text, *network);
  if (!policies.ok()) {
    verdict.error = policies.error().message();
    return verdict;
  }
  const Harc harc = Harc::Build(*network);
  verdict.graph_violations = FindViolations(harc, *policies);
  if (simulate) {
    verdict.sim_violations = FindSimulationViolations(*network, *policies, failure_cap);
  }
  verdict.sound = verdict.graph_violations.empty() && verdict.sim_violations.empty();
  return verdict;
}

std::string Disagreement(const RepairOutput& output, const CheckVerdict& verdict,
                         bool simulate) {
  if (!verdict.error.empty()) {
    return "output does not rebuild: " + verdict.error;
  }
  if (output.ClaimsSound() != verdict.sound) {
    return std::string("report claims ") + (output.ClaimsSound() ? "sound" : "unsound") +
           ", check finds " + (verdict.sound ? "sound" : "unsound");
  }
  if (output.lines_changed != verdict.lines_changed) {
    return "report counts " + std::to_string(output.lines_changed) + " changed lines, check " +
           std::to_string(verdict.lines_changed);
  }
  if (output.residual_graph != verdict.graph_violations) {
    return "residual graph violations differ";
  }
  if (simulate && output.residual_sim != verdict.sim_violations) {
    return "residual simulation violations differ";
  }
  return "";
}

}  // namespace cpr::perfbench
