// Incremental re-repair edit replay (DESIGN.md §12): the daemon's
// steady-state workload, measured head-to-head against the full pipeline.
//
// Build one RepairSession from a repaired fat-tree snapshot, then replay a
// stream of one-router ACL edits (each re-breaking a single traffic class).
// For every edit, run the same snapshot through (a) Cpr::FromBaseline with
// the retained session — diff, HARC clone, re-solve of the dirty group,
// concrete re-verification — and (b) Cpr::FromConfigTexts, the from-scratch
// pipeline. Both sides parse the same texts and end concretely verified, so
// the ratio is end-to-end, not engine-only. The session build itself is
// reported separately: it is the one-time cost a daemon amortizes across the
// whole edit stream.
//
// Knobs (environment, like every bench):
//   CPR_BENCH_PORTS     fat-tree port count (default 10: 125 routers, large
//                       enough that per-snapshot work dominates fixed
//                       overheads and the incremental advantage is visible)
//   CPR_BENCH_POLICIES  PC1 policies over inter-pod traffic (default 8)
//   CPR_BENCH_EDITS     edits replayed (default 8; capped by how many
//                       routers carry a repaired, bound ACL deny)
//   CPR_BENCH_BACKEND   "internal" (default) or "z3"; z3 inflates both
//                       sides with solver time, so the internal backend is
//                       the cleaner pipeline ratio
//
// Summary keys: `speedup` (full / incremental total, enforced
// higher-is-better by scripts/bench_compare.py), `verdicts_equal` (edits
// where both sides reached the same status — anything below edits_replayed
// is a correctness bug, enforced), `groups_reused_fraction`, and
// informational timing medians.

#include <cstdio>
#include <regex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "config/printer.h"
#include "incremental/session.h"
#include "repair/repair.h"
#include "workload/fattree.h"

namespace {

using cpr::BenchConfig;
using cpr::BenchJson;
using cpr::Cpr;
using cpr::CprOptions;
using cpr::CprReport;
using cpr::EnvInt;
using cpr::FatTreeScenario;
using cpr::WallTimer;

// Reverts one repair edit on the `skip`-th eligible router, re-breaking the
// traffic the edit policed: either an ACL deny entry (the internal backend's
// preferred PC1 fix) or a repair-introduced route-filter deny (z3's). Both
// diff as scoped dirt — one traffic class resp. one destination — so the
// incremental path re-solves a single group. Returns false when fewer than
// skip+1 routers are eligible.
bool BreakOneRouter(std::vector<std::string>* texts, int skip) {
  static const std::regex acl_deny("( deny ip 10\\.[^\n]*\n)");
  static const std::regex filter_deny("(ip prefix-list CPR-FLT[^\n]* deny [^\n]*\n)");
  for (std::string& text : *texts) {
    std::smatch match;
    const bool bound_acl = text.find("access-group") != std::string::npos &&
                           std::regex_search(text, match, acl_deny);
    if (!bound_acl && !std::regex_search(text, match, filter_deny)) {
      continue;
    }
    if (skip-- > 0) {
      continue;
    }
    text.erase(static_cast<size_t>(match.position(1)),
               static_cast<size_t>(match.length(1)));
    return true;
  }
  return false;
}

}  // namespace

int main() {
  BenchConfig config;
  const int ports = EnvInt("CPR_BENCH_PORTS", 10);
  const int policies = EnvInt("CPR_BENCH_POLICIES", 8);
  const int edits = EnvInt("CPR_BENCH_EDITS", 8);
  const char* backend_env = std::getenv("CPR_BENCH_BACKEND");
  const std::string backend = backend_env != nullptr ? backend_env : "internal";

  CprOptions options;
  options.repair.backend =
      backend == "internal" ? cpr::BackendChoice::kInternal : cpr::BackendChoice::kZ3;
  options.repair.granularity = cpr::Granularity::kPerDst;
  options.repair.num_threads = config.threads;
  options.repair.timeout_seconds = config.timeout;
  options.validate_with_simulator = false;

  FatTreeScenario scenario =
      cpr::MakeFatTreeScenario(ports, cpr::PolicyClass::kAlwaysBlocked, policies, 7);

  // The baseline snapshot a daemon would retain: repair the broken scenario
  // once, keep the patched configurations.
  Cpr broken = cpr::MustBuildCpr(scenario.broken_configs, scenario.annotations);
  cpr::Result<CprReport> repaired = broken.Repair(scenario.policies, options);
  if (!repaired.ok() || !repaired->Sound()) {
    std::fprintf(stderr, "fatal: baseline repair not sound\n");
    return 1;
  }
  std::vector<std::string> baseline_texts;
  for (const cpr::Config& cfg : repaired->patched_configs) {
    baseline_texts.push_back(cpr::PrintConfig(cfg));
  }

  WallTimer session_timer;
  cpr::Result<std::shared_ptr<cpr::incremental::RepairSession>> session =
      cpr::incremental::BuildSession(repaired->patched_configs,
                                     repaired->patched_annotations, scenario.policies,
                                     options.repair);
  if (!session.ok()) {
    std::fprintf(stderr, "fatal: %s\n", session.error().message().c_str());
    return 1;
  }
  const double session_seconds = session_timer.Seconds();

  BenchJson bench("incremental_rerepair", config);
  std::printf("incremental re-repair: %d-port fat-tree, %d policies, %d edits\n",
              ports, policies, edits);
  std::printf("%-6s %12s %12s %9s %8s %8s\n", "edit", "full(s)", "incr(s)", "ratio",
              "reused", "verdict");

  std::vector<double> full_times, incremental_times;
  int verdicts_equal = 0;
  int replayed = 0;
  int64_t groups_reused = 0, groups_total = 0;
  for (int edit = 0; edit < edits; ++edit) {
    std::vector<std::string> texts = baseline_texts;
    if (!BreakOneRouter(&texts, edit)) {
      break;  // Ran out of eligible routers.
    }
    ++replayed;

    WallTimer full_timer;
    Cpr cold = cpr::MustBuildCpr(texts, repaired->patched_annotations);
    cpr::Result<CprReport> full = cold.Repair(scenario.policies, options);
    const double full_seconds = full_timer.Seconds();

    WallTimer incremental_timer;
    cpr::Result<Cpr> pipeline =
        Cpr::FromBaseline(*session, texts, repaired->patched_annotations);
    cpr::Result<CprReport> incremental =
        pipeline.ok() ? pipeline->Repair(scenario.policies, options)
                      : cpr::Result<CprReport>(pipeline.error());
    const double incremental_seconds = incremental_timer.Seconds();

    if (!full.ok() || !incremental.ok()) {
      std::fprintf(stderr, "fatal: edit %d failed to repair\n", edit);
      return 1;
    }
    const bool equal = full->status == incremental->status &&
                       full->Sound() == incremental->Sound();
    verdicts_equal += equal ? 1 : 0;
    full_times.push_back(full_seconds);
    incremental_times.push_back(incremental_seconds);
    groups_reused += incremental->incremental.groups_reused;
    groups_total += incremental->incremental.groups_total;

    std::printf("%-6d %12.4f %12.4f %8.2fx %8d %8s\n", edit, full_seconds,
                incremental_seconds,
                incremental_seconds > 0 ? full_seconds / incremental_seconds : 0.0,
                incremental->incremental.groups_reused, equal ? "equal" : "DIFFER");

    BenchJson::Row& row = bench.AddRow();
    row.Set("edit", edit)
        .Set("full_seconds", full_seconds)
        .Set("incremental_seconds", incremental_seconds)
        .Set("groups_reused", incremental->incremental.groups_reused)
        .Set("groups_resolved", incremental->incremental.groups_resolved)
        .Set("fell_back", incremental->incremental.fell_back ? 1 : 0)
        .Set("verdict_equal", equal ? 1 : 0);
  }

  double full_total = 0, incremental_total = 0;
  for (double t : full_times) full_total += t;
  for (double t : incremental_times) incremental_total += t;
  const double speedup = incremental_total > 0 ? full_total / incremental_total : 0;
  std::printf("replayed %d edits: full %.3fs, incremental %.3fs -> %.2fx "
              "(session build %.3fs, amortized)\n",
              replayed, full_total, incremental_total, speedup, session_seconds);

  bench.SetSummary("edits_replayed", replayed);
  bench.SetSummary("verdicts_equal", verdicts_equal);
  bench.SetSummary("speedup", speedup);
  bench.SetSummary("groups_reused_fraction",
                   groups_total > 0
                       ? static_cast<double>(groups_reused) / static_cast<double>(groups_total)
                       : 0.0);
  bench.SetSummary("full_p50_seconds", cpr::Percentile(full_times, 0.5));
  bench.SetSummary("incremental_p50_seconds", cpr::Percentile(incremental_times, 0.5));
  bench.SetSummary("session_build_seconds", session_seconds);
  bench.Write();
  return verdicts_equal == replayed && replayed > 0 ? 0 : 1;
}
