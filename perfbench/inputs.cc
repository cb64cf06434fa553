#include "perfbench/inputs.h"

#include <string_view>
#include <tuple>
#include <utility>

#include "config/parser.h"
#include "config/printer.h"
#include "core/policy_spec.h"
#include "serve/daemon.h"
#include "workload/fattree.h"

namespace cpr::perfbench {

namespace {

// SplitMix64 finalizer: decorrelates the per-scenario seeds drawn from one
// benchmark seed.
uint32_t Mix(uint32_t seed, uint32_t salt) {
  uint64_t z = (static_cast<uint64_t>(seed) << 32 | salt) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<uint32_t>(z ^ (z >> 31));
}

// Renders `policies` as a policy specification, waypoint annotations first
// (the same layout `cpr gen` writes).
Result<std::string> PolicyText(const std::vector<std::string>& texts,
                               const NetworkAnnotations& annotations,
                               const std::vector<Policy>& policies) {
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> parsed = ParseConfig(text);
    if (!parsed.ok()) {
      return parsed.error();
    }
    configs.push_back(std::move(parsed).value());
  }
  Result<Network> network = Network::Build(std::move(configs), annotations);
  if (!network.ok()) {
    return network.error();
  }
  std::string out;
  for (const auto& [a, b] : annotations.waypoint_links) {
    out += "waypoint-link " + a + " " + b + "\n";
  }
  return out + FormatPolicySpec(policies, *network);
}

CprOptions OneShotOptions(BackendChoice backend, CompressMode compress) {
  CprOptions options;
  options.repair.granularity = Granularity::kPerDst;
  options.repair.backend = backend;
  options.repair.compress.mode = compress;
  options.repair.num_threads = 4;
  options.validate_with_simulator = true;
  return options;
}

Result<RepairInput> FatTreeRequest(const std::string& name, const FatTreeScenario& scenario,
                                   const CprOptions& options) {
  Result<std::string> policy_text =
      PolicyText(scenario.broken_configs, scenario.annotations, scenario.policies);
  if (!policy_text.ok()) {
    return policy_text.error();
  }
  return RepairInput{name, scenario.broken_configs, std::move(policy_text).value(), options};
}

}  // namespace

Result<std::vector<RepairInput>> MakeFatTreeSym(uint32_t seed, const FatTreeSymSize& size) {
  std::vector<RepairInput> requests;
  auto add = [&](const std::string& name, const FatTreeScenario& scenario,
                 const CprOptions& options) -> Status {
    Result<RepairInput> request = FatTreeRequest(name, scenario, options);
    if (!request.ok()) {
      return Error(name + ": " + request.error().message());
    }
    requests.push_back(std::move(request).value());
    return Status::Ok();
  };
  const CprOptions z3 = OneShotOptions(BackendChoice::kZ3, CompressMode::kOff);
  uint32_t salt = 0;
  for (PolicyClass pc : {PolicyClass::kAlwaysBlocked, PolicyClass::kAlwaysWaypoint}) {
    const std::string name = pc == PolicyClass::kAlwaysBlocked ? "pc1-z3-" : "pc2-z3-";
    for (int s = 0; s < size.small_scenarios; ++s) {
      const FatTreeScenario scenario =
          MakeFatTreeScenario(size.small_ports, pc, size.small_policies, Mix(seed, ++salt));
      if (Status added = add(name + std::to_string(s), scenario, z3); !added.ok()) {
        return added.error();
      }
    }
  }
  for (int s = 0; s < size.pc3_scenarios; ++s) {
    const FatTreeScenario scenario = MakeFatTreeScenario(
        size.pc3_ports, PolicyClass::kReachability, size.pc3_policies, Mix(seed, ++salt));
    for (CompressMode mode : {CompressMode::kOff, CompressMode::kAuto}) {
      const std::string name = std::string("pc3-internal-") +
                               (mode == CompressMode::kOff ? "off-" : "auto-") +
                               std::to_string(s);
      if (Status added = add(name, scenario, OneShotOptions(BackendChoice::kInternal, mode));
          !added.ok()) {
        return added.error();
      }
    }
  }
  return requests;
}

serve::RequestSpec LineageSpec(const std::string& config_dir, const std::string& policy_file,
                               const std::string& incremental) {
  serve::RequestSpec spec;
  spec.config_dir = config_dir;
  spec.policy_file = policy_file;
  spec.incremental = incremental;
  return spec;
}

bool BreakOneRouter(std::vector<std::string>* texts, int skip) {
  // The first `needle` occurrence, from there through its line's end, on a
  // line that also contains `also`; npos when there is none.
  auto find = [](const std::string& text, std::string_view needle, std::string_view also) {
    for (size_t at = text.find(needle); at != std::string::npos; at = text.find(needle, at + 1)) {
      const size_t end = text.find('\n', at);
      if (end != std::string::npos && text.substr(at, end - at).find(also) != std::string::npos) {
        return std::make_pair(at, end + 1 - at);
      }
    }
    return std::make_pair(std::string::npos, size_t{0});
  };
  for (std::string& text : *texts) {
    auto [at, length] = text.find("access-group") != std::string::npos
                            ? find(text, " deny ip 10.", "")
                            : std::make_pair(std::string::npos, size_t{0});
    if (at == std::string::npos) {
      std::tie(at, length) = find(text, "ip prefix-list CPR-FLT", " deny ");
    }
    if (at == std::string::npos || skip-- > 0) {
      continue;
    }
    text.erase(at, length);
    return true;
  }
  return false;
}

CprOptions LineageOptions() {
  Result<CprOptions> options = serve::ToCprOptions(LineageSpec("", "", "auto"));
  // The spec carries only valid defaults, so the mapping cannot fail.
  options->repair.num_threads = serve::DaemonOptions{}.solve_threads;
  return std::move(options).value();
}

Result<std::vector<LineageInput>> MakeLineages(uint32_t seed, const LineageSize& size) {
  const CprOptions options = LineageOptions();
  std::vector<LineageInput> lineages;
  for (int l = 0; l < size.lineages; ++l) {
    const FatTreeScenario scenario =
        MakeFatTreeScenario(size.ports, PolicyClass::kAlwaysBlocked, size.policies,
                            Mix(seed, 1000 + static_cast<uint32_t>(l)));
    LineageInput lineage;
    lineage.name = "lineage-" + std::to_string(l);
    lineage.broken_texts = scenario.broken_configs;
    Result<std::string> policy_text =
        PolicyText(scenario.broken_configs, scenario.annotations, scenario.policies);
    if (!policy_text.ok()) {
      return Error(lineage.name + ": " + policy_text.error().message());
    }
    lineage.policy_text = std::move(policy_text).value();

    // The repaired baseline: what the operator applies after the lineage's
    // first repair, and what every later edit starts from.
    Result<Cpr> cpr = Cpr::FromConfigTexts(lineage.broken_texts, scenario.annotations);
    if (!cpr.ok()) {
      return Error(lineage.name + ": " + cpr.error().message());
    }
    Result<std::vector<Policy>> policies = ParseSpecPolicies(lineage.policy_text, cpr->network());
    if (!policies.ok()) {
      return Error(lineage.name + ": " + policies.error().message());
    }
    Result<CprReport> report = cpr->Repair(*policies, options);
    if (!report.ok() || !report->Sound()) {
      return Error(lineage.name + ": baseline repair is not sound");
    }
    for (const Config& config : report->patched_configs) {
      lineage.baseline_texts.push_back(PrintConfig(config));
    }
    for (int e = 0; e < size.edits; ++e) {
      std::vector<std::string> edit = lineage.baseline_texts;
      if (!BreakOneRouter(&edit, e)) {
        return Error(lineage.name + ": fewer than " + std::to_string(size.edits) +
                     " routers carry a repairable deny");
      }
      lineage.edits.push_back(std::move(edit));
    }
    lineages.push_back(std::move(lineage));
  }
  return lineages;
}

}  // namespace cpr::perfbench
