// Solver-independent certificates for MaxSMT results.
//
// A Certificate is the evidence bundle a backend attaches to its answer so
// that a checker — in-process (src/certify/check.h) or offline over a
// persisted artifact (`cpr certify <dir>`) — can validate the claim without
// re-running any solver.
//
// Two kinds:
//
//   kClausal    produced by the internal CDCL/MaxSAT stack. Carries the full
//               proof log, the soft-clause inventory at solve entry, the
//               Fu-Malik relaxation trail (one entry per extracted core), the
//               witness model, and — for UNSAT-core extraction — a separate
//               assumption sub-proof with the assumption→hard-index map.
//
//   kModelOnly  produced for Z3 (no proof API is exposed through our
//               binding) and for any backend in `--certify on` that cannot
//               log clauses. Carries only the arithmetic the certifying
//               wrapper established by re-evaluating the model against the
//               original ConstraintSystem; strictly weaker (see DESIGN.md
//               §13 trust model).
//
// Claims:
//
//   kOptimal  "this model satisfies all hards and no cheaper model exists".
//             Clausal evidence: the relaxation trail is a lower-bound proof
//             (each core lemma is RUP; each transformation step is replayed
//             by the checker against a scratch encoder), and the witness
//             model's cost over the *original* soft inventory equals the
//             accumulated lower bound.
//
//   kUnsat    "the hard constraints are unsatisfiable" (whole-problem) or,
//             with core_* populated, "this subset of hards is jointly
//             unsatisfiable".
//
// Coordinates are solver-level: BoolVar/Lit from smt/literal.h. The repair
// layer's hard/soft indices appear only in core_hards/reported_core.

#ifndef CPR_SRC_SMT_CERTIFICATE_H_
#define CPR_SRC_SMT_CERTIFICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "smt/literal.h"
#include "smt/proof_log.h"

namespace cpr {

// One soft clause as the MaxSAT layer saw it at solve entry. `selector` is
// the assumption literal whose falsification relaxes the clause (for unit
// softs it is the clause's own literal; for guarded softs it is the fresh
// selector variable, positive phase).
struct CertSoft {
  Clause clause;
  int64_t weight = 0;
  Lit selector = kUndefLit;
};

// One Fu-Malik iteration: the soft-inventory indices of the core members and
// the index (into Certificate::events) of the core lemma that justifies
// charging their minimum weight.
struct CertIteration {
  std::vector<int64_t> members;
  int64_t core_event = -1;
};

struct Certificate {
  enum class Kind { kModelOnly, kClausal };
  enum class Claim { kOptimal, kUnsat };

  Kind kind = Kind::kModelOnly;
  Claim claim = Claim::kOptimal;
  std::string backend;  // "internal", "z3", ... — provenance only.
  std::string problem;  // Repair-layer problem key, for artifact naming.
  int64_t cost = 0;     // Claimed optimum (kOptimal only).

  // True when `events` begins at an empty solver (cold solve): the events
  // before baseline_events are exactly the encoding of the problem, and an
  // in-process checker can regenerate and compare them. Every engine solve
  // is cold; the field stays in artifact schema v1, and an artifact that
  // says false skips the encoding replay.
  bool cold = true;

  // --- kClausal payload -----------------------------------------------
  ProofStream events;
  int32_t baseline_vars = 0;    // Solver var count when Solve() was entered.
  int64_t baseline_events = 0;  // Log size when Solve() was entered.
  std::vector<CertSoft> softs;  // Soft inventory at solve entry.
  std::vector<CertIteration> iterations;
  std::vector<bool> model;      // Witness assignment over all solver vars.

  // --- kClausal UNSAT-core sub-proof ----------------------------------
  // ExtractInternalCore solves a fresh encoding under one assumption per
  // distinct hard-root literal; this is that solver's own log plus the data
  // needed to audit the lit→hard mapping.
  ProofStream core_events;
  std::vector<Lit> core_assumptions;           // In assumption order.
  std::vector<std::vector<int64_t>> core_hards;  // Hard indices per assumption.
  std::vector<Lit> core_lits;                  // Failed assumption subset.
  int64_t core_event = -1;                     // Core lemma index in core_events.
  std::vector<int64_t> reported_core;          // result.unsat_core at build time.

  // --- kModelOnly payload (filled by the certifying wrapper) ----------
  int64_t hards_total = 0;
  int64_t hards_violated = 0;
  int64_t model_cost = 0;      // Sum of violated soft weights under the model.
  bool core_tracked = true;    // Every core member indexes a tracked hard.
};

inline const char* CertificateKindName(Certificate::Kind kind) {
  switch (kind) {
    case Certificate::Kind::kModelOnly:
      return "model-only";
    case Certificate::Kind::kClausal:
      return "clausal";
  }
  return "unknown";
}

inline const char* CertificateClaimName(Certificate::Claim claim) {
  switch (claim) {
    case Certificate::Claim::kOptimal:
      return "optimal";
    case Certificate::Claim::kUnsat:
      return "unsat";
  }
  return "unknown";
}

}  // namespace cpr

#endif  // CPR_SRC_SMT_CERTIFICATE_H_
