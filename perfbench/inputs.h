// Seeded input generation for the three workloads.
//
// Every generator is a pure function of its seed and size: the same seed
// yields byte-identical texts, a different seed different ones. What the
// program under test receives is only text — configuration files and a
// policy specification (core/policy_spec.h) — never the generator's
// in-memory Policy objects, exactly as `cpr repair` or cprd would.

#ifndef CPR_PERFBENCH_INPUTS_H_
#define CPR_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cpr.h"
#include "netbase/result.h"
#include "serve/request.h"

namespace cpr::perfbench {

// One one-shot repair request: texts in, CprOptions as the CLI would set
// them from flags.
struct RepairInput {
  std::string name;
  std::vector<std::string> config_texts;
  std::string policy_text;
  CprOptions options;
};

// fattree-sym: per pass, `small_scenarios` PC1 and as many PC2 scenarios on
// a small fat-tree (Z3, policies on most inter-pod traffic classes so that
// seeds differ in detail but not in size), then
// `pc3_scenarios` PC3 scenarios on a larger one, each solved by the internal
// engine with compression off and with compression auto (the solver, resp.
// compression and the simulator, do most of the work). Every request
// validates on the simulator. Output order: PC1s, PC2s, then (off, auto)
// pairs.
struct FatTreeSymSize {
  int small_ports = 4;
  int small_policies = 40;  // Of the 48 inter-pod traffic classes.
  int small_scenarios = 3;
  int pc3_ports = 6;
  int pc3_policies = 32;
  int pc3_scenarios = 2;
};
Result<std::vector<RepairInput>> MakeFatTreeSym(uint32_t seed, const FatTreeSymSize& size = {});

// cprd-lineage: fat-tree PC1 snapshots. Each lineage carries its broken
// snapshot, the repaired baseline (what an operator applies), and a stream
// of one-router edits of that baseline, each re-breaking one traffic class.
struct LineageInput {
  std::string name;
  std::string policy_text;
  std::vector<std::string> broken_texts;
  std::vector<std::string> baseline_texts;
  std::vector<std::vector<std::string>> edits;
};
struct LineageSize {
  int lineages = 10;
  int ports = 8;
  int policies = 16;
  int edits = 4;
};

// The request every lineage client sends (cprd defaults: Z3, per-dst, no
// simulator); `incremental` is "auto" or "off".
serve::RequestSpec LineageSpec(const std::string& config_dir, const std::string& policy_file,
                               const std::string& incremental);

// The pipeline options the daemon derives from LineageSpec, with the
// daemon's solve pool size as local threads: for in-process references.
CprOptions LineageOptions();

Result<std::vector<LineageInput>> MakeLineages(uint32_t seed, const LineageSize& size = {});

// Re-breaks one traffic class of a repaired snapshot: removes the `skip`-th
// bound ACL deny entry or repair-introduced route-filter deny. Returns false
// when fewer than skip+1 routers carry one.
bool BreakOneRouter(std::vector<std::string>* texts, int skip);

}  // namespace cpr::perfbench

#endif  // CPR_PERFBENCH_INPUTS_H_
