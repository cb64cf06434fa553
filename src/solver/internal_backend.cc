// MaxSMT backend on the homegrown CDCL/MaxSAT stack.
//
// Boolean expressions are Tseitin-encoded: every composite node gets a
// definition literal equivalent to the node, hard constraints are asserted
// through Tseitin::AssertHard (a disjunction root is one clause, a
// conjunction root asserts its conjuncts, any other root its literal), and
// each soft constraint's root literal becomes a weighted unit soft clause.
// The soft weights are LineTieBreakWeights: among repairs of equal construct
// cost the engine returns one with the fewest configuration lines. The
// reported cost stays in plain weights; the certificate claims the optimum
// under the weights actually solved.
// Integer atoms (PC4 cost constraints) are not expressible here; such
// systems are reported kUnsupported and the repair engine routes them to Z3.
//
// SolveCertified runs the same pipeline with a ProofLog attached and packs
// the evidence — proof events, soft inventory, Fu-Malik relaxation trail,
// witness model, and (for UNSAT) the assumption-core sub-proof — into a
// Certificate the independent checker (src/certify/) validates.

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netbase/deadline.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "smt/certificate.h"
#include "smt/maxsat.h"
#include "solver/backend.h"
#include "solver/tseitin.h"

namespace cpr {

namespace {

// Assumption-based unsat core for an UNSAT system: re-encode the hard
// constraints into a fresh SAT solver, assume every hard root literal, and
// map the failed-assumption subset back to hard-constraint indices. The
// shared Tseitin cache can hand two hard constraints the same root literal;
// the core then lists both (a correct, if less minimal, core).
//
// With `cert` non-null the fresh solver logs its proof and the certificate
// gains a self-contained core sub-proof: the log, the assumption order, the
// lit->hard-indices map, and the failed subset — enough for a checker to
// validate the core without this solver.
void ExtractInternalCore(const ConstraintSystem& system, double timeout_seconds,
                         MaxSmtResult* result, Certificate* cert) {
  SatSolver sat;
  ProofLog core_log;
  if (cert != nullptr) {
    sat.SetProofLog(&core_log);
  }
  sat.SetDeadline(Deadline::After(timeout_seconds));
  SatSink sink{&sat};
  Tseitin<SatSink> tseitin(&sink, system);
  std::vector<Lit> assumptions;
  std::vector<std::vector<int64_t>> hards_by_assumption;
  std::unordered_map<int64_t, size_t> assumption_of;  // Lit key -> index.
  const std::vector<ExprId>& hards = system.hard();
  for (size_t i = 0; i < hards.size(); ++i) {
    std::optional<Lit> lit = tseitin.Encode(hards[i]);
    if (!lit.has_value()) {
      return;  // Not boolean-expressible; the solve path reported that.
    }
    int64_t key = static_cast<int64_t>(lit->var()) * 2 + (lit->negated() ? 1 : 0);
    auto [it, inserted] = assumption_of.try_emplace(key, assumptions.size());
    if (inserted) {
      assumptions.push_back(*lit);
      hards_by_assumption.emplace_back();
    }
    hards_by_assumption[it->second].push_back(static_cast<int64_t>(i));
  }
  if (sat.Solve(assumptions) != SatResult::kUnsat) {
    return;  // Timed out (or the Tseitin roots alone are level-0 unsat).
  }
  for (Lit failed : sat.UnsatCore()) {
    int64_t key = static_cast<int64_t>(failed.var()) * 2 + (failed.negated() ? 1 : 0);
    auto it = assumption_of.find(key);
    if (it != assumption_of.end()) {
      for (int64_t hard : hards_by_assumption[it->second]) {
        result->unsat_core.push_back(static_cast<int>(hard));
      }
    }
  }
  std::sort(result->unsat_core.begin(), result->unsat_core.end());
  if (cert != nullptr) {
    cert->core_events = core_log.TakeStream();  // The log dies with this call.
    cert->core_assumptions = assumptions;
    cert->core_hards = std::move(hards_by_assumption);
    cert->core_lits = sat.UnsatCore();
    // An assumption-core conclusion is the last event AnalyzeFinal logged; a
    // core-free UNSAT (root conflict) ends in an empty lemma instead and the
    // checker validates the whole sub-proof.
    cert->core_event =
        cert->core_lits.empty() ? -1
                                : static_cast<int64_t>(cert->core_events.size()) - 1;
    cert->reported_core.assign(result->unsat_core.begin(), result->unsat_core.end());
  }
}

// Copies the CDCL/MaxSAT engine's per-solve statistics onto the result (for
// per-problem reports) and accumulates them into the global registry (for
// run-wide totals). The solver keeps plain local counters on its hot path;
// this once-per-solve flush is the only registry traffic.
void FlushSolverCounters(const SatStats& sat, const MaxSatStats& wpm,
                         MaxSmtResult* result) {
  result->solver_counters = {
      {"cdcl.decisions", static_cast<double>(sat.decisions)},
      {"cdcl.propagations", static_cast<double>(sat.propagations)},
      {"cdcl.conflicts", static_cast<double>(sat.conflicts)},
      {"cdcl.restarts", static_cast<double>(sat.restarts)},
      {"cdcl.learnt_deleted", static_cast<double>(sat.learnt_deleted)},
      {"cdcl.learnt_literals", static_cast<double>(sat.learnt_literals)},
      {"cdcl.activity_rescales", static_cast<double>(sat.activity_rescales)},
      {"cdcl.heap_picks", static_cast<double>(sat.heap_picks)},
      {"cdcl.fallback_picks", static_cast<double>(sat.fallback_picks)},
      {"maxsat.cores", static_cast<double>(wpm.cores)},
      {"maxsat.sat_calls", static_cast<double>(wpm.sat_calls)},
      {"cdcl.index_picks", static_cast<double>(sat.index_picks)},
      {"maxsat.strata_skipped", static_cast<double>(wpm.strata_skipped)},
  };
  obs::Registry& registry = obs::CurrentRegistry();
  for (const auto& [name, value] : result->solver_counters) {
    registry.counter(name).Add(static_cast<int64_t>(value));
  }
  registry.counter("solver.internal_solves").Increment();
}

// Fills the clausal part of a certificate from the engine state after a
// solve: the proof events, the MaxSAT layer's entry watermarks + soft
// inventory, and the Fu-Malik iteration trail. The log dies with the solve
// call, so the certificate steals it.
void FillClausalCertificate(Certificate* cert, const std::string& backend,
                            Certificate::Claim claim, const MaxSatSolver& maxsat,
                            ProofLog* log) {
  cert->kind = Certificate::Kind::kClausal;
  cert->claim = claim;
  cert->backend = backend;
  cert->events = log->TakeStream();
  const MaxSatSolver::CertTrail& trail = maxsat.cert_trail();
  cert->baseline_vars = trail.baseline_vars;
  cert->baseline_events = trail.baseline_events;
  cert->softs = trail.softs;
  cert->iterations = trail.iterations;
}

class InternalBackend final : public MaxSmtBackend {
 public:
  MaxSmtResult Solve(const ConstraintSystem& system, double timeout_seconds) override {
    return DoSolve(system, timeout_seconds, /*certify=*/false);
  }

  MaxSmtResult SolveCertified(const ConstraintSystem& system,
                              double timeout_seconds) override {
    return DoSolve(system, timeout_seconds, /*certify=*/true);
  }

  std::string name() const override { return "internal-maxsat"; }

 private:
  MaxSmtResult DoSolve(const ConstraintSystem& system, double timeout_seconds,
                       bool certify) {
    MaxSmtResult result;
    result.backend = name();
    obs::StageSpan span("solver.internal");
    if (system.HasIntegers()) {
      result.status = MaxSmtResult::Status::kUnsupported;
      result.message = "integer constraints require the Z3 backend";
      return result;
    }
    MaxSatSolver maxsat;
    ProofLog log;
    std::shared_ptr<Certificate> cert;
    if (certify) {
      cert = std::make_shared<Certificate>();
      // Attach before the Tseitin constructor: the encoding itself must be
      // part of the logged input inventory.
      maxsat.SetProofLog(&log);
    }
    maxsat.SetDeadline(Deadline::After(timeout_seconds));
    Tseitin<MaxSatSolver> tseitin(&maxsat, system);
    for (ExprId hard : system.hard()) {
      if (!tseitin.AssertHard(hard)) {
        result.status = MaxSmtResult::Status::kUnsupported;
        result.message = "expression not expressible in the boolean fragment";
        return result;
      }
    }
    const std::vector<SoftConstraint>& softs = system.soft();
    const TieBreakWeights tie_break = LineTieBreakWeights(system);
    for (size_t i = 0; i < softs.size(); ++i) {
      std::optional<Lit> lit = tseitin.Encode(softs[i].expr);
      if (!lit.has_value()) {
        result.status = MaxSmtResult::Status::kUnsupported;
        result.message = "expression not expressible in the boolean fragment";
        return result;
      }
      maxsat.AddSoft({*lit}, tie_break.weights[i]);
    }

    std::optional<MaxSatSolver::Solution> solution = maxsat.Solve();
    FlushSolverCounters(maxsat.sat_stats(), maxsat.stats(), &result);
    if (!solution.has_value()) {
      if (maxsat.TimedOut()) {
        result.status = MaxSmtResult::Status::kTimeout;
        result.message = "CDCL search abandoned at the time limit";
      } else {
        result.status = MaxSmtResult::Status::kUnsat;
        if (certify) {
          FillClausalCertificate(cert.get(), name(), Certificate::Claim::kUnsat,
                                 maxsat, &log);
        }
        ExtractInternalCore(system, timeout_seconds, &result, cert.get());
        result.certificate = cert;
      }
      return result;
    }
    result.status = MaxSmtResult::Status::kOptimal;
    result.cost = solution->cost / tie_break.scale;
    result.bool_values.resize(static_cast<size_t>(system.BoolCount()));
    for (BVarId v = 0; v < system.BoolCount(); ++v) {
      result.bool_values[static_cast<size_t>(v)] = solution->model[static_cast<size_t>(v)];
    }
    // Provenance: which softs the optimum sacrificed.
    for (size_t i = 0; i < softs.size(); ++i) {
      if (!system.EvalOnModel(softs[i].expr, result.bool_values, result.int_values)) {
        result.violated_soft.push_back(static_cast<int>(i));
      }
    }
    if (certify) {
      FillClausalCertificate(cert.get(), name(), Certificate::Claim::kOptimal,
                             maxsat, &log);
      cert->cost = solution->cost;
      cert->model = solution->model;
      result.certificate = cert;
    }
    return result;
  }
};

}  // namespace

std::unique_ptr<MaxSmtBackend> MakeInternalBackend() {
  return std::make_unique<InternalBackend>();
}

}  // namespace cpr
