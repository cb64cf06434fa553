// Options controlling repair computation.

#ifndef CPR_SRC_REPAIR_OPTIONS_H_
#define CPR_SRC_REPAIR_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "certify/certify.h"
#include "netbase/deadline.h"
#include "solver/fault_injection.h"

namespace cpr {

namespace compress {
class CompressionCache;
}  // namespace compress

// Where the repair engine runs its drain tasks (repair.h, SolveProblemSet).
// By default it starts `num_threads` local threads per solve pass; a
// long-running server instead installs a shared executor
// (serve/thread_pool.h) so the drain tasks of *concurrent* repair requests
// share one bounded pool instead of multiplying threads per request.
// Implementations must run every submitted task exactly once; tasks never
// block on other tasks, so a fixed-size pool cannot deadlock.
class SolveTaskRunner {
 public:
  virtual ~SolveTaskRunner() = default;
  virtual void Submit(std::function<void()> task) = 0;
};

// Repairs may place a new waypoint on any link (paper footnote 2: virtual
// network functions let waypoints be added on arbitrary links); each
// placement is a soft constraint of this weight.
inline constexpr int64_t kWaypointWeight = 1;
// Upper bound for PC4 edge-cost variables.
inline constexpr int kMaxEdgeCost = 64;

// Which MaxSMT problem granularity to use (paper §5.3).
//
// kAllTcs builds one problem over every policied traffic class and leaves
// the aETG mutable.
//
// kPerDst builds one problem per destination with a violated policy. The
// aETG is held fixed in this mode: per-destination problems then commute
// (static routes, route filters, and ACLs are destination- or
// traffic-class-scoped), which is what makes solving them independently —
// and in parallel — sound. Destinations carrying PC4 policies share edge
// costs, so all of them are merged into a single problem (§5.3).
enum class Granularity {
  kAllTcs,
  kPerDst,
};

enum class BackendChoice {
  kZ3,        // Z3 Optimize; required when PC4 policies are present.
  kInternal,  // Homegrown CDCL/MaxSAT; boolean-only policy sets.
};

// What the MaxSMT objective minimizes (paper §5.2: "Similar sets of
// constraints can be constructed for other objectives such as minimal number
// of devices changed").
enum class MinimizeObjective {
  kLines,    // Number of configuration lines changed (the paper's default).
  kDevices,  // Number of devices touched first; lines changed as tiebreak.
};

// Symmetry-quotient compression pre-pass (src/compress, DESIGN.md §11).
//
// kAuto compresses only when it is likely to pay off: the network must have
// at least `min_routers` devices and the base behavioral partition must
// shrink it by at least `min_ratio`. kOn attempts compression whenever the
// instance is structurally compressible (per-destination granularity, no
// PC4/PC5 group). Either way the lifted patch is re-verified on the concrete
// network and any still-violated policy is re-repaired uncompressed, so
// correctness never depends on the abstraction.
enum class CompressMode {
  kOff,
  kAuto,
  kOn,
};

struct CompressOptions {
  CompressMode mode = CompressMode::kOff;
  // kAuto: minimum devices-per-block ratio of the base partition before the
  // pre-pass engages (and minimum per-group quotient shrinkage to solve a
  // group on its quotient instead of falling back).
  double min_ratio = 1.5;
  // kAuto: networks smaller than this solve fast enough uncompressed.
  int min_routers = 8;
  // Optional cross-request cache of partitions and quotient networks, scoped
  // to one configuration snapshot (serve/snapshot_cache.h evicts it together
  // with the snapshot when the differ reports a change).
  compress::CompressionCache* cache = nullptr;
};

struct RepairOptions {
  Granularity granularity = Granularity::kPerDst;
  BackendChoice backend = BackendChoice::kZ3;
  MinimizeObjective objective = MinimizeObjective::kLines;
  // Drain tasks per solve pass, at most one per problem (the paper runs 10
  // solves in parallel).
  int num_threads = 1;
  // Per-problem solver time limit; <= 0 means unbounded.
  double timeout_seconds = 0;

  // --- Robustness controls (degraded modes; see DESIGN.md §6) ---
  // Total wall-clock budget for the whole repair; every per-problem solver
  // call derives its timeout from the remaining budget. <= 0 means
  // unbounded.
  double deadline_seconds = 0;
  // Absolute wall-clock deadline; when bounded it takes precedence over
  // deadline_seconds. This is how a server propagates a per-request budget
  // that started ticking at admission (queue wait included): an already
  // expired deadline makes the repair return RepairStatus::kDeadlineExceeded
  // immediately, before any solver work.
  Deadline deadline = Deadline::Never();
  // Shared cross-request solve executor; nullptr means "run the drain
  // tasks on local threads" (the CLI path). See SolveTaskRunner above.
  SolveTaskRunner* solve_runner = nullptr;
  // Extra attempts after a per-problem solver timeout, each with twice the
  // previous call's budget (FailoverPolicy's defaults). 0 (the default)
  // preserves the paper pipeline's one-shot behavior and bench timings.
  int max_retries = 0;
  // When the internal backend reports kUnsupported for a problem, re-solve
  // that problem on Z3 instead of failing the run.
  bool enable_failover = true;
  // Merge the edits of solved problems even when other problems failed
  // (RepairStatus::kPartial); failed problems contribute no edits.
  bool allow_partial = true;
  // Testing hook: deterministically degrade solver calls (see
  // solver/fault_injection.h). Disabled by default.
  FaultInjectionSpec fault_injection;

  // --- Certification (src/certify; DESIGN.md §13) ---
  // kAuto checks UNSAT claims only; kOn checks every optimal/unsat result;
  // kLog records proofs and attaches certificates but defers checking to
  // the offline auditor (`cpr certify` over the artifact dir).
  // A result whose certificate fails the inline check is rerouted to
  // the failover engine and, failing that too, demoted to kError — an
  // unproven repair never ships as a success.
  certify::CertifyMode certify = certify::CertifyMode::kOff;
  // When non-empty (and certify != kOff), every problem's certificate is
  // persisted as <dir>/p<seq>-<claim>.cert.json for offline re-checking
  // with `cpr certify <dir>`.
  std::string certify_artifact_dir;

  // Whether construct softs carry the configuration lines their change adds
  // (SoftConstraint::lines), by which the internal engine breaks ties
  // between equally cheap repairs. Internal: only the compression pre-pass
  // clears it, for its quotient solves. A representative's lines do not
  // describe the lifted repair, where each quotient construct fans out over
  // its block; with them, the compressed 6-port PC1 fat-tree repair grew
  // from 49 to 144 lines.
  bool line_tie_break = true;

  // Symmetry-quotient compression pre-pass (off by default; the bench rows
  // and the paper pipeline are measured uncompressed unless asked).
  CompressOptions compress;
};

}  // namespace cpr

#endif  // CPR_SRC_REPAIR_OPTIONS_H_
