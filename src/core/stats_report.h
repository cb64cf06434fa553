// Assembles the --stats-json document: one self-describing JSON object per
// pipeline run, combining run metadata, the stage-span trace, every registry
// instrument, and (for repair runs) the per-problem reports with their
// solver-internal counters.
//
// Schema (schema_version 1; additions are append-only):
//
//   {
//     "schema_version": 1,
//     "run": { "command", "config_dir", "policy_file", "backend",
//              "granularity", "threads", "status", "wall_seconds",
//              "trace_id" },
//     "stages": [ { "name", "parent", "thread", "start_seconds",
//                   "duration_seconds", "args"? }, ... ],
//     "counters": { "<name>": <int>, ... },
//     "gauges": { "<name>": <int>, ... },
//     "histograms": { "<name>": { "count", "sum_seconds", "min_seconds",
//                                 "max_seconds", "p50_seconds",
//                                 "p90_seconds", "p99_seconds" }, ... },
//     "repair": {                      // present only when a repair ran
//       "status", "predicted_cost", "lines_changed",
//       "traffic_classes_impacted", "problems_formulated",
//       "problems_solved", "problems_failed", "destinations_skipped",
//       "encode_seconds", "solve_seconds_sum", "solve_wall_seconds",
//       "wall_seconds", "bool_vars", "hard_constraints",
//       "soft_constraints", "residual_graph_violations",
//       "residual_simulation_violations",
//       "sound",                       // solved, and no residual violation
//                                      // (graph or simulated); "status" is
//                                      // the solver outcome alone
//       "simulated",                   // whether the simulator ran; false
//                                      // makes "sound" the graph verdict
//       "solver_counter_totals": { "<name>": <double>, ... },
//       "problems": [ { "dsts", "status", "attempts", "backend",
//                       "solve_seconds", "cost", "message",
//                       "certification", "certify_message",
//                       "solver_counters": { ... },
//                       "violated_softs": [ { "label", "weight" }, ... ],
//                       "unsat_core": [ "<label>", ... ] }, ... ]
//     },
//     "certify": {                     // present only when a repair ran
//       "schema_version": 1, "mode", "checked", "verified", "failed",
//       "artifacts", "artifact_dir"
//     },
//     "provenance": {                  // present only when a repair ran
//       "schema_version": 1, "edits_total", "edits_attributed",
//       "orphan_edits": [ ... ], "chains": [ ... ], "unsat_cores": [ ... ]
//       // field layout shared with `cpr explain --json`
//       // (obs/provenance.h)
//     }
//   }
//
// The obs library stays dependency-free; this sink is the only place that
// knows both the obs types and the pipeline report types.

#ifndef CPR_SRC_CORE_STATS_REPORT_H_
#define CPR_SRC_CORE_STATS_REPORT_H_

#include <string>

#include "core/cpr.h"
#include "netbase/result.h"

namespace cpr {

// Run metadata echoed into the "run" object verbatim.
struct StatsRunInfo {
  std::string command;      // CLI subcommand ("repair", "verify", ...).
  std::string config_dir;
  std::string policy_file;
  std::string backend;
  std::string granularity;
  int threads = 1;
  std::string status;       // Final pipeline status string.
  double wall_seconds = 0;  // End-to-end process wall time.
  std::string trace_id;     // Correlation ID (empty outside cprd/--trace-id).
};

// Serializes the current global registry + trace (and the repair report, when
// non-null) into the schema above. Deterministic for a given state: maps are
// sorted by name.
std::string BuildStatsJson(const StatsRunInfo& run, const CprReport* report);

// Writes `json` to `path` (creating/truncating). Fails with the OS error.
Status WriteStatsJson(const std::string& path, const std::string& json);

}  // namespace cpr

#endif  // CPR_SRC_CORE_STATS_REPORT_H_
