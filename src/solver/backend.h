// MaxSMT backend interface.
//
// CPR's repair formulation is solved by one of two interchangeable engines:
// Z3's Optimize facility (the paper's choice, required for PC4's integer
// edge costs) or the repository's own CDCL + core-guided MaxSAT stack
// (boolean-only, fully self-contained). bench/ablation_backend compares
// them. Every Solve call is independent: an engine keeps no solver state
// between calls, so each per-destination problem is its own solve (§5.3).

#ifndef CPR_SRC_SOLVER_BACKEND_H_
#define CPR_SRC_SOLVER_BACKEND_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "solver/constraint_system.h"

namespace cpr {

struct Certificate;  // smt/certificate.h

struct MaxSmtResult {
  enum class Status {
    kOptimal,      // All hard constraints satisfied, soft weight maximized.
    kUnsat,        // Hard constraints unsatisfiable.
    kTimeout,      // Gave up within the time limit.
    kUnsupported,  // Backend cannot express the problem (ints on internal).
    kError,        // Backend failed internally (e.g. threw); see `message`.
  };
  Status status = Status::kUnsat;
  // Total weight of *violated* soft constraints.
  int64_t cost = 0;
  std::vector<bool> bool_values;     // Indexed by BVarId.
  std::vector<int64_t> int_values;   // Indexed by IVarId.

  // Diagnostics: which backend produced this result, how many solve
  // attempts (retries and failovers) it took, and failure detail for
  // kError/kUnsupported/kTimeout.
  std::string backend;
  int attempts = 1;
  std::string message;

  // Solver-internal counters for observability: CDCL statistics
  // ("cdcl.decisions", "cdcl.conflicts", ...) from the internal backend, Z3
  // Optimize statistics ("z3.<key>") from the Z3 backend. Kept as ordered
  // name/value pairs so per-problem reports serialize deterministically.
  std::vector<std::pair<std::string, double>> solver_counters;

  // Provenance. For kOptimal: indices into ConstraintSystem::soft() of the
  // soft constraints the optimum violates (their weights sum to `cost`).
  // For kUnsat: indices into ConstraintSystem::hard() forming an
  // unsatisfiable core — minimal where the backend supports minimization
  // (Z3 core.minimize), a failed-assumption subset otherwise (internal
  // CDCL). Empty when the backend could not extract one.
  std::vector<int> violated_soft;
  std::vector<int> unsat_core;

  // Certification (src/certify/). A backend's SolveCertified attaches the
  // evidence bundle; the certifying wrapper sets `certification` after
  // checking it. kFailed results must never ship: FailoverBackend reroutes
  // them to the secondary engine or demotes them to kError.
  enum class Certification {
    kNone,      // Not requested / not applicable for this status.
    kVerified,  // The independent checker validated the claim.
    kFailed,    // The check failed; treat the result as untrusted.
  };
  Certification certification = Certification::kNone;
  std::string certify_message;  // Failure detail when kFailed.
  std::shared_ptr<const Certificate> certificate;

  bool ok() const { return status == Status::kOptimal; }
};

inline const char* CertificationName(MaxSmtResult::Certification certification) {
  switch (certification) {
    case MaxSmtResult::Certification::kNone:
      return "none";
    case MaxSmtResult::Certification::kVerified:
      return "verified";
    case MaxSmtResult::Certification::kFailed:
      return "failed";
  }
  return "?";
}

inline const char* MaxSmtStatusName(MaxSmtResult::Status status) {
  switch (status) {
    case MaxSmtResult::Status::kOptimal:
      return "optimal";
    case MaxSmtResult::Status::kUnsat:
      return "unsat";
    case MaxSmtResult::Status::kTimeout:
      return "timeout";
    case MaxSmtResult::Status::kUnsupported:
      return "unsupported";
    case MaxSmtResult::Status::kError:
      return "error";
  }
  return "?";
}

// Converts a positive per-call timeout in seconds to the milliseconds unit
// solver APIs (Z3's "timeout" parameter) expect, clamped to [1, UINT_MAX].
// The clamp matters at both edges: a sub-millisecond budget must not
// truncate to 0 (which Z3 reads as "no timeout", defeating the Deadline
// contract), and a huge remaining budget (> ~49.7 days) must saturate
// instead of wrapping the unsigned cast into a bogus small value.
// Callers gate on `timeout_seconds > 0` first: non-positive means unbounded
// by the MaxSmtBackend convention and should not reach this conversion.
inline unsigned TimeoutMillis(double timeout_seconds) {
  double millis = timeout_seconds * 1000.0;
  constexpr double kMax = static_cast<double>(std::numeric_limits<unsigned>::max());
  if (!(millis < kMax)) {  // Also saturates on NaN.
    return std::numeric_limits<unsigned>::max();
  }
  if (millis < 1.0) {
    return 1u;
  }
  return static_cast<unsigned>(millis);
}

class MaxSmtBackend {
 public:
  virtual ~MaxSmtBackend() = default;

  // `timeout_seconds` <= 0 means unbounded.
  virtual MaxSmtResult Solve(const ConstraintSystem& system, double timeout_seconds) = 0;

  // Like Solve, but additionally attaches proof evidence to the result
  // (MaxSmtResult::certificate) when the engine can produce it. The default
  // falls back to a plain solve — the certifying wrapper then builds the
  // weaker model-only certificate from the result itself. Engines with a
  // proof-logging path (the internal CDCL/MaxSAT stack) override this;
  // decorators (fault injection, failover, certification) must forward it.
  virtual MaxSmtResult SolveCertified(const ConstraintSystem& system, double timeout_seconds) {
    return Solve(system, timeout_seconds);
  }

  virtual std::string name() const = 0;
};

// Z3 Optimize with assert_soft (handles integers).
std::unique_ptr<MaxSmtBackend> MakeZ3Backend();

// Homegrown Tseitin -> CDCL/MaxSAT pipeline (boolean problems only).
std::unique_ptr<MaxSmtBackend> MakeInternalBackend();

}  // namespace cpr

#endif  // CPR_SRC_SOLVER_BACKEND_H_
