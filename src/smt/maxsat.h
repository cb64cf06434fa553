// Weighted partial MaxSAT via core-guided search (Fu-Malik / WPM1).
//
// CPR turns its repair formulation into a MaxSMT problem: hard constraints
// encode policy compliance and HARC well-formedness, soft constraints (one
// per candidate edge per ETG level, Table 2) encode similarity to the
// original configurations. This engine solves the boolean fragment: it
// maximizes the total weight of satisfied soft clauses, equivalently
// minimizing the number of configuration lines the repair changes.
//
// Algorithm: solve with all (remaining-weight) soft selectors assumed; on
// UNSAT take the failed-assumption core, split the minimum weight off every
// core member, relax each with a fresh variable, assert exactly-one over the
// relaxation variables, and repeat. Weight strata are processed highest
// first so expensive softs are settled before cheap ones. A stratum whose
// selectors the last model already sets is skipped: solving it would only
// return that model again.

#ifndef CPR_SRC_SMT_MAXSAT_H_
#define CPR_SRC_SMT_MAXSAT_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "smt/certificate.h"
#include "smt/sat_solver.h"

namespace cpr {

struct MaxSatStats {
  int cores = 0;
  int sat_calls = 0;
  int strata_skipped = 0;  // Strata the last model already satisfied.
};

class MaxSatSolver {
 public:
  BoolVar NewVar() { return sat_.NewVar(); }
  int VarCount() const { return sat_.VarCount(); }

  void AddHard(std::span<const Lit> clause);
  void AddHard(std::initializer_list<Lit> clause) {
    AddHard(std::span<const Lit>(clause.begin(), clause.size()));
  }
  // Soft clauses carry positive weights; satisfying one earns its weight.
  void AddSoft(Clause clause, int64_t weight);

  struct Solution {
    // Total weight of violated soft clauses (the minimized objective).
    int64_t cost = 0;
    // Model values indexed by BoolVar.
    std::vector<bool> model;
  };

  // Returns nullopt when the hard clauses alone are unsatisfiable, or when
  // the deadline expired mid-search — TimedOut() distinguishes the two.
  std::optional<Solution> Solve();

  // Deadline for the underlying SAT search; expiry makes Solve return
  // nullopt with TimedOut() true.
  void SetDeadline(Deadline deadline) { sat_.SetDeadline(deadline); }
  bool TimedOut() const { return timed_out_; }

  const MaxSatStats& stats() const { return stats_; }
  const SatStats& sat_stats() const { return sat_.stats(); }

  // Proof logging (see smt/proof_log.h). The log is forwarded to the SAT
  // engine, and every Solve() additionally records a certificate trail: the
  // soft inventory + var/event watermarks at entry, and one CertIteration per
  // extracted core, so an independent checker can replay the Fu-Malik
  // transformation and validate the claimed optimum (DESIGN.md §13).
  void SetProofLog(ProofLog* log) {
    log_ = log;
    sat_.SetProofLog(log);
  }
  ProofLog* proof_log() const { return log_; }

  struct CertTrail {
    std::vector<CertSoft> softs;  // Inventory snapshot at Solve() entry.
    int32_t baseline_vars = 0;    // SAT var count at Solve() entry.
    int64_t baseline_events = 0;  // Log size at Solve() entry.
    std::vector<CertIteration> iterations;
  };
  // Valid after Solve() while a proof log is attached; overwritten per call.
  const CertTrail& cert_trail() const { return cert_trail_; }

 private:
  struct Soft {
    Clause clause;
    int64_t weight = 0;
    Lit selector = kUndefLit;  // Assuming it enforces the clause.
  };

  Lit MakeSelector(const Clause& clause);

  SatSolver sat_;
  std::vector<Lit> guarded_;  // MakeSelector's scratch clause.
  std::vector<Soft> softs_;
  bool hard_unsat_ = false;
  bool timed_out_ = false;
  MaxSatStats stats_;
  ProofLog* log_ = nullptr;
  CertTrail cert_trail_;
};

}  // namespace cpr

#endif  // CPR_SRC_SMT_MAXSAT_H_
