// CPR — Control Plane Repair: the end-to-end pipeline (paper §3).
//
//   configurations ──parse──▶ Network ──Algorithm 1──▶ HARC
//        ▲                                               │
//        │                                     MaxSMT repair (§5)
//        │                                               │
//   patched configs ◀──translate (§6)── construct edits ─┘
//
// After translation the pipeline closes the loop the paper closes by
// construction: it re-parses the patched configurations, rebuilds the HARC,
// re-verifies every policy graph-theoretically, and (optionally) validates
// them again on the control-plane simulator under failure enumeration.

#ifndef CPR_SRC_CORE_CPR_H_
#define CPR_SRC_CORE_CPR_H_

#include <memory>
#include <string>
#include <vector>

#include "arc/harc.h"
#include "compress/compress.h"
#include "incremental/stats.h"
#include "lint/lint.h"
#include "netbase/result.h"
#include "repair/repair.h"
#include "topo/network.h"
#include "translate/translator.h"
#include "verify/inference.h"
#include "verify/policy.h"

namespace cpr {

namespace incremental {
struct RepairSession;
}  // namespace incremental

struct PatchedRepair;

// How the pre-repair lint gate treats the input configurations.
enum class LintMode {
  kGate,      // Default: refuse to repair when lint reports errors
              // (RepairStatus::kLintRejected).
  kWarnOnly,  // Lint, record findings, proceed regardless.
  kOff,       // Skip linting (and the post-translate audit) entirely.
};

struct CprOptions {
  RepairOptions repair;
  // Correlation ID for this repair (16 hex chars when set; cprd mints one at
  // admission, the CLI accepts --trace-id). Echoed into the stage-span tree,
  // RepairStats, the stats-json "run" section, and every event-log line the
  // serving layer emits for the request — one grep joins all four surfaces.
  std::string trace_id;
  // Pre-repair lint gate + post-translate lint audit (lint/lint.h).
  LintMode lint_mode = LintMode::kGate;
  // Re-check the repaired network on the control-plane simulator.
  bool validate_with_simulator = true;
  // Maximum simultaneous failures the simulator enumerates for PC1/PC2.
  int simulator_failure_cap = 2;
};

struct CprReport {
  RepairStatus status = RepairStatus::kSuccess;
  // Construct-level changes and their configuration realization.
  RepairEdits edits;
  std::vector<Config> patched_configs;
  NetworkAnnotations patched_annotations;
  std::vector<std::string> change_log;
  std::string diff_text;

  // Metrics (the paper's evaluation measures).
  int64_t predicted_cost = 0;       // MaxSMT objective (§5.2).
  int lines_changed = 0;            // Measured via config diff (§8.3).
  int traffic_classes_impacted = 0; // tcETGs whose edge set changed (§8.3).
  RepairStats stats;

  // Symmetry-quotient compression pre-pass telemetry (DESIGN.md §11):
  // whether it ran, what ratio it achieved, and how much fell back to the
  // uncompressed path. attempted == false when CompressMode::kOff.
  compress::CompressionStats compression;

  // Certification echo (DESIGN.md §13): the requested mode ("off" | "log" |
  // "auto" | "on") and the artifact directory, for the stats-json "certify"
  // section.
  // The verdict counts live in stats.certify_*.
  std::string certify_mode = "off";
  std::string certify_artifact_dir;

  // Incremental re-repair telemetry (DESIGN.md §12): the HARC diff's dirty
  // counts, group verdict reuse, and whether the scoped result fell back to
  // a full repair. attempted == false unless the pipeline was built with
  // FromBaseline.
  incremental::IncrementalStats incremental;

  // Provenance: one chain per emitted edit (policy → problem → flipped soft
  // constraint → construct → configuration lines) plus per-problem unsat
  // cores. The config-change legs are joined in from the translator's edit
  // traces by construct key; `cpr explain` renders this report.
  obs::ProvenanceReport provenance;

  // Policies still violated after the repair — both must be empty for a
  // sound repair. `simulated` says whether the simulator ran at all: when it
  // did not (validate_with_simulator off), the simulated list is empty
  // unchecked and Sound() is the graph verdict alone.
  std::vector<Policy> residual_graph_violations;
  std::vector<Policy> residual_simulation_violations;
  bool simulated = false;

  // The network and HARC rebuilt from patched_configs, the snapshot
  // residual_graph_violations was checked on; null when nothing was
  // translated. cprd keeps them as the next incremental baseline
  // (incremental::SessionFromVerified) instead of building them again.
  std::shared_ptr<const Network> repaired_network;
  std::shared_ptr<const Harc> repaired_harc;

  // Lint gate findings on the *input* configurations (empty when
  // LintMode::kOff), and the post-translate audit: error/warning findings
  // the patched configurations have that the originals did not. A correct
  // translation leaves `lint_new_findings` empty — a free end-to-end
  // regression oracle for the translator.
  lint::Report lint_report;
  std::vector<lint::Diagnostic> lint_new_findings;

  // A kPartial repair is never sound: its failed problems' policies remain
  // violated (and appear in residual_graph_violations), but the merged
  // patch for the solved problems is still valid and worth applying.
  bool Sound() const {
    return (status == RepairStatus::kSuccess || status == RepairStatus::kNoViolations) &&
           residual_graph_violations.empty() && residual_simulation_violations.empty();
  }
};

class Cpr {
 public:
  // Builds the pipeline from raw configuration texts.
  static Result<Cpr> FromConfigTexts(const std::vector<std::string>& texts,
                                     NetworkAnnotations annotations = {});
  static Result<Cpr> FromConfigs(std::vector<Config> configs,
                                 NetworkAnnotations annotations = {});

  // FromConfigTexts for a new snapshot of the same lineage as a retained
  // RepairSession (src/incremental). Repair() then runs the incremental
  // path: the snapshot's HARC is diffed against the session's, clean groups
  // reuse their baseline verdicts, dirty groups re-solve exactly as a full
  // repair would, and the result is re-verified concretely (falling back to
  // a full repair on any residual violation). The session is only read, so
  // one session can serve any number of pipelines.
  static Result<Cpr> FromBaseline(std::shared_ptr<const incremental::RepairSession> baseline,
                                  const std::vector<std::string>& texts,
                                  NetworkAnnotations annotations = {});

  const Network& network() const { return *network_; }
  const Harc& harc() const { return harc_; }

  // Infers the PC1/PC3 policies the current configurations satisfy (§8).
  std::vector<Policy> InferPolicies(const InferenceOptions& options = {}) const;

  // Repairs the network to satisfy `policies`; returns the patched
  // configurations, metrics, and residual-violation checks.
  Result<CprReport> Repair(const std::vector<Policy>& policies,
                           const CprOptions& options = {}) const;

 private:
  // The network lives behind a stable pointer: the HARC's universe refers to
  // it, and Cpr itself must stay movable.
  explicit Cpr(std::unique_ptr<Network> network)
      : network_(std::move(network)), harc_(Harc::Build(*network_)) {}

  // Repair() minus the trace-id stamping the public wrapper applies to every
  // successful return path.
  Result<CprReport> RepairImpl(const std::vector<Policy>& policies,
                               const CprOptions& options) const;

  // Shared tail of Repair(): rebuild and re-verify (unless a pre-pass hands
  // over its already rebuilt network/HARC and, when no fallback rebuilt them
  // since, its verdict), simulate, lint-audit, and count impacted traffic
  // classes.
  Status CloseLoop(const std::vector<Policy>& policies, const CprOptions& options,
                   PatchedRepair* patched, CprReport* report) const;

  std::unique_ptr<Network> network_;
  Harc harc_;

  // Set by FromBaseline: the retained session Repair() re-repairs against.
  std::shared_ptr<const incremental::RepairSession> baseline_session_;
};

}  // namespace cpr

#endif  // CPR_SRC_CORE_CPR_H_
