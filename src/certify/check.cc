// Certificate validation: RUP replay, Fu-Malik transformation replay,
// encoding cross-checks, and the certifying backend decorator.

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "certify/certify.h"
#include "certify/rup.h"
#include "obs/metrics.h"
#include "smt/cardinality.h"
#include "smt/maxsat.h"
#include "smt/sat_solver.h"
#include "solver/tseitin.h"

namespace cpr::certify {

bool ParseCertifyMode(std::string_view text, CertifyMode* out) {
  if (text == "off") {
    *out = CertifyMode::kOff;
  } else if (text == "log") {
    *out = CertifyMode::kLog;
  } else if (text == "auto") {
    *out = CertifyMode::kAuto;
  } else if (text == "on") {
    *out = CertifyMode::kOn;
  } else {
    return false;
  }
  return true;
}

const char* CertifyModeName(CertifyMode mode) {
  switch (mode) {
    case CertifyMode::kOff:
      return "off";
    case CertifyMode::kLog:
      return "log";
    case CertifyMode::kAuto:
      return "auto";
    case CertifyMode::kOn:
      return "on";
  }
  return "?";
}

namespace {

CheckResult Fail(std::string message) {
  CheckResult res;
  res.ok = false;
  res.message = std::move(message);
  return res;
}

Clause Canonical(std::span<const Lit> clause) {
  Clause out(clause.begin(), clause.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool SameCanonical(std::span<const Lit> a, std::span<const Lit> b) {
  return Canonical(a) == Canonical(b);
}

bool SameLits(std::span<const Lit> a, std::span<const Lit> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// True when the model satisfies the clause; a literal over a variable the
// model does not cover counts as unsatisfied (the witness must be total).
bool ModelSatisfies(const std::vector<bool>& model, std::span<const Lit> clause) {
  for (Lit lit : clause) {
    size_t var = static_cast<size_t>(lit.var());
    if (var < model.size() && model[var] != lit.negated()) {
      return true;
    }
  }
  return false;
}

bool ReplayAll(const ProofStream& events, RupChecker* checker,
               CheckResult* res, const char* what) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (!checker->Apply(events.kind(i), events.lits(i))) {
      *res = Fail(std::string(what) + ": " + checker->error());
      res->lemmas = checker->lemmas_checked();
      return false;
    }
  }
  return true;
}

// Validates the assumption-core sub-proof: the core solver's events check
// under RUP, the conclusion lemma is exactly the negated failed-assumption
// set, every failed assumption was actually assumed, and the hard-index
// core reported to the caller re-derives from the lit -> hards map.
CheckResult CheckCoreSubProof(const Certificate& cert) {
  CheckResult res;
  RupChecker checker;
  if (!ReplayAll(cert.core_events, &checker, &res, "core proof")) {
    return res;
  }
  res.lemmas = checker.lemmas_checked();
  if (cert.core_lits.empty()) {
    // No failed-assumption subset: the sub-proof must refute the hard
    // encoding outright.
    if (!checker.proven_unsat()) {
      return Fail("core sub-proof does not derive UNSAT");
    }
    return res;
  }
  if (cert.core_event < 0 ||
      cert.core_event != static_cast<int64_t>(cert.core_events.size()) - 1) {
    return Fail("core conclusion is not the final proof event");
  }
  const size_t conclusion = static_cast<size_t>(cert.core_event);
  if (cert.core_events.kind(conclusion) != ProofEventKind::kLemma) {
    return Fail("core conclusion is not a lemma");
  }
  Clause expected;
  expected.reserve(cert.core_lits.size());
  for (Lit lit : cert.core_lits) {
    expected.push_back(~lit);
  }
  if (!SameCanonical(cert.core_events.lits(conclusion), expected)) {
    return Fail("core conclusion does not match the failed assumptions");
  }
  // Re-derive the reported hard-index core from the proof-level core.
  std::vector<int64_t> recomputed;
  for (Lit lit : cert.core_lits) {
    size_t index = cert.core_assumptions.size();
    for (size_t i = 0; i < cert.core_assumptions.size(); ++i) {
      if (cert.core_assumptions[i] == lit) {
        index = i;
        break;
      }
    }
    if (index == cert.core_assumptions.size()) {
      return Fail("core literal was never assumed");
    }
    if (index >= cert.core_hards.size()) {
      return Fail("core assumption has no hard-constraint mapping");
    }
    for (int64_t hard : cert.core_hards[index]) {
      recomputed.push_back(hard);
    }
  }
  std::sort(recomputed.begin(), recomputed.end());
  if (recomputed != cert.reported_core) {
    return Fail("reported unsat core does not match the proof");
  }
  return res;
}

CheckResult CheckClausalUnsat(const Certificate& cert) {
  CheckResult res;
  RupChecker checker;
  if (!ReplayAll(cert.events, &checker, &res, "proof")) {
    return res;
  }
  res.lemmas = checker.lemmas_checked();
  if (!checker.proven_unsat()) {
    return Fail("proof does not derive UNSAT");
  }
  if (!cert.core_events.empty() || !cert.core_lits.empty()) {
    CheckResult core = CheckCoreSubProof(cert);
    core.lemmas += res.lemmas;
    return core;
  }
  return res;
}

// Optimality: (a) every lemma in the log is RUP, (b) the witness model
// satisfies every input clause, (c) the Fu-Malik relaxation replays exactly —
// each iteration's core lemma names its members' selectors and the input
// clauses that follow it are precisely the relaxation a scratch mirror
// generates, (d) no input clause appears after the baseline outside a
// matched relaxation batch (an unmatched input could manufacture cores and
// fake a higher bound), (e) the accumulated lower bound equals the claimed
// cost equals the witness model's cost over the entry soft inventory.
CheckResult CheckClausalOptimal(const Certificate& cert) {
  CheckResult res;
  RupChecker checker;
  if (!ReplayAll(cert.events, &checker, &res, "proof")) {
    return res;
  }
  res.lemmas = checker.lemmas_checked();

  for (size_t i = 0; i < cert.events.size(); ++i) {
    if (cert.events.kind(i) == ProofEventKind::kInput &&
        !ModelSatisfies(cert.model, cert.events.lits(i))) {
      return Fail("witness model falsifies input clause at event " +
                  std::to_string(i));
    }
  }

  if (cert.baseline_events < 0 ||
      cert.baseline_events > static_cast<int64_t>(cert.events.size())) {
    return Fail("baseline event watermark out of range");
  }
  if (cert.baseline_vars < 0) {
    return Fail("baseline var watermark out of range");
  }

  // Scratch mirror of the solver's variable space: relaxation vars and
  // selector vars allocate in lockstep with the production solve, so the
  // generated clauses must match the log literal-for-literal.
  SatSolver scratch;
  ProofLog scratch_log;
  scratch.SetProofLog(&scratch_log);
  for (int32_t i = 0; i < cert.baseline_vars; ++i) {
    scratch.NewVar();
  }

  std::vector<CertSoft> softs = cert.softs;  // Working copy; weights mutate.
  size_t cursor = static_cast<size_t>(cert.baseline_events);
  size_t scratch_cursor = 0;
  int64_t lower_bound = 0;

  for (size_t iter = 0; iter < cert.iterations.size(); ++iter) {
    const CertIteration& iteration = cert.iterations[iter];
    const std::string tag = "iteration " + std::to_string(iter);
    if (iteration.members.empty()) {
      return Fail(tag + ": empty core");
    }
    std::vector<bool> seen(softs.size(), false);
    for (int64_t member : iteration.members) {
      if (member < 0 || member >= static_cast<int64_t>(softs.size())) {
        return Fail(tag + ": core member out of range");
      }
      if (seen[static_cast<size_t>(member)]) {
        return Fail(tag + ": duplicate core member");
      }
      seen[static_cast<size_t>(member)] = true;
    }
    if (iteration.core_event < static_cast<int64_t>(cursor) ||
        iteration.core_event >= static_cast<int64_t>(cert.events.size())) {
      return Fail(tag + ": core lemma index out of order");
    }
    const size_t core_event = static_cast<size_t>(iteration.core_event);
    for (size_t i = cursor; i < core_event; ++i) {
      if (cert.events.kind(i) == ProofEventKind::kInput) {
        return Fail(tag + ": unexpected input clause during search at event " +
                    std::to_string(i));
      }
    }
    if (cert.events.kind(core_event) != ProofEventKind::kLemma) {
      return Fail(tag + ": core event is not a lemma");
    }
    Clause expected;
    int64_t wmin = 0;
    for (int64_t member : iteration.members) {
      const CertSoft& soft = softs[static_cast<size_t>(member)];
      if (soft.weight <= 0) {
        return Fail(tag + ": core member has no remaining weight");
      }
      expected.push_back(~soft.selector);
      wmin = (wmin == 0) ? soft.weight : std::min(wmin, soft.weight);
    }
    if (!SameCanonical(cert.events.lits(core_event), expected)) {
      return Fail(tag + ": core lemma does not match the member selectors");
    }
    lower_bound += wmin;

    // Mirror the relaxation: per member a relax var, a relaxed clone with a
    // fresh selector (the clone always has >= 2 literals, so MakeSelector
    // always guards it), then exactly-one over the relax vars.
    std::vector<Lit> relax_lits;
    relax_lits.reserve(iteration.members.size());
    for (int64_t member : iteration.members) {
      CertSoft& soft = softs[static_cast<size_t>(member)];
      BoolVar relax = scratch.NewVar();
      relax_lits.push_back(Lit(relax, false));
      CertSoft clone;
      clone.clause = soft.clause;
      clone.clause.push_back(Lit(relax, false));
      BoolVar selector = scratch.NewVar();
      Clause guarded = clone.clause;
      guarded.push_back(Lit(selector, true));
      scratch.AddClause(std::move(guarded));
      clone.selector = Lit(selector, false);
      clone.weight = wmin;
      soft.weight -= wmin;
      softs.push_back(std::move(clone));
    }
    AddExactlyOne(&scratch, relax_lits);

    cursor = core_event + 1;
    const ProofStream& generated = scratch_log.stream();
    for (; scratch_cursor < generated.size(); ++scratch_cursor, ++cursor) {
      if (cursor >= cert.events.size()) {
        return Fail(tag + ": proof log ends inside the relaxation batch");
      }
      if (cert.events.kind(cursor) != ProofEventKind::kInput ||
          !SameLits(cert.events.lits(cursor), generated.lits(scratch_cursor))) {
        return Fail(tag + ": relaxation clause mismatch at event " +
                    std::to_string(cursor));
      }
    }
  }

  for (size_t i = cursor; i < cert.events.size(); ++i) {
    if (cert.events.kind(i) == ProofEventKind::kInput) {
      return Fail("unexpected input clause after the final core at event " +
                  std::to_string(i));
    }
  }
  if (lower_bound != cert.cost) {
    return Fail("claimed cost " + std::to_string(cert.cost) +
                " does not equal the proven lower bound " +
                std::to_string(lower_bound));
  }
  int64_t witness_cost = 0;
  for (const CertSoft& soft : cert.softs) {
    if (!ModelSatisfies(cert.model, soft.clause)) {
      witness_cost += soft.weight;
    }
  }
  if (witness_cost != cert.cost) {
    return Fail("witness model cost " + std::to_string(witness_cost) +
                " does not equal the claimed cost " + std::to_string(cert.cost));
  }
  return res;
}

CheckResult CheckModelOnly(const Certificate& cert) {
  if (cert.claim == Certificate::Claim::kOptimal) {
    if (cert.hards_violated != 0) {
      return Fail("model violates " + std::to_string(cert.hards_violated) +
                  " hard constraints");
    }
    if (cert.model_cost != cert.cost) {
      return Fail("model cost " + std::to_string(cert.model_cost) +
                  " does not equal the reported cost " +
                  std::to_string(cert.cost));
    }
    return {};
  }
  if (!cert.core_tracked) {
    return Fail("unsat core references an untracked hard constraint");
  }
  return {};
}

// Re-encodes the problem into a mirror MaxSAT solver and requires the
// generated input stream, variable watermark, and soft inventory to match
// the certificate's baseline exactly — soft weights included, which are the
// engine's line tie-break weights. Only meaningful for cold certificates
// (every engine certificate is; the flag is part of the artifact schema).
CheckResult VerifyEncodingBaseline(const ConstraintSystem& system,
                                   const Certificate& cert) {
  const TieBreakWeights tie_break = LineTieBreakWeights(system);
  MaxSatSolver mirror;
  ProofLog mirror_log;
  mirror.SetProofLog(&mirror_log);
  Tseitin<MaxSatSolver> tseitin(&mirror, system);
  for (ExprId hard : system.hard()) {
    if (!tseitin.AssertHard(hard)) {
      return Fail("hard constraint not boolean-encodable in replay");
    }
  }
  std::vector<Lit> soft_lits;
  soft_lits.reserve(system.soft().size());
  for (size_t i = 0; i < system.soft().size(); ++i) {
    std::optional<Lit> lit = tseitin.Encode(system.soft()[i].expr);
    if (!lit.has_value()) {
      return Fail("soft constraint not boolean-encodable in replay");
    }
    soft_lits.push_back(*lit);
    mirror.AddSoft({*lit}, tie_break.weights[i]);
  }
  if (static_cast<int64_t>(mirror_log.size()) != cert.baseline_events) {
    return Fail("baseline event count does not match the re-encoded problem");
  }
  if (mirror.VarCount() != static_cast<int>(cert.baseline_vars)) {
    return Fail("baseline var count does not match the re-encoded problem");
  }
  const ProofStream& generated = mirror_log.stream();
  for (size_t i = 0; i < generated.size(); ++i) {
    if (cert.events.kind(i) != generated.kind(i) ||
        !SameLits(cert.events.lits(i), generated.lits(i))) {
      return Fail("encoded clause stream diverges at event " +
                  std::to_string(i));
    }
  }
  if (cert.softs.size() != system.soft().size()) {
    return Fail("soft inventory size does not match the problem");
  }
  for (size_t i = 0; i < soft_lits.size(); ++i) {
    const CertSoft& soft = cert.softs[i];
    if (soft.clause != Clause{soft_lits[i]} || soft.selector != soft_lits[i] ||
        soft.weight != tie_break.weights[i]) {
      return Fail("soft inventory entry " + std::to_string(i) +
                  " does not match the problem");
    }
  }
  return {};
}

// Re-derives the unsat-core solver's encoding and assumption map. The core
// solver is always cold (ExtractInternalCore builds a fresh instance), so
// the generated inputs must form a prefix of the sub-proof and no other
// input may appear after it.
CheckResult VerifyCoreEncoding(const ConstraintSystem& system,
                               const Certificate& cert) {
  SatSolver scratch;
  ProofLog scratch_log;
  scratch.SetProofLog(&scratch_log);
  SatSink sink{&scratch};
  Tseitin<SatSink> tseitin(&sink, system);
  std::vector<Lit> assumptions;
  std::vector<std::vector<int64_t>> hards_by_assumption;
  std::unordered_map<int64_t, size_t> assumption_of;
  const std::vector<ExprId>& hards = system.hard();
  for (size_t i = 0; i < hards.size(); ++i) {
    std::optional<Lit> lit = tseitin.Encode(hards[i]);
    if (!lit.has_value()) {
      return Fail("hard constraint not boolean-encodable in core replay");
    }
    int64_t key = static_cast<int64_t>(lit->code());
    auto [it, inserted] = assumption_of.try_emplace(key, assumptions.size());
    if (inserted) {
      assumptions.push_back(*lit);
      hards_by_assumption.emplace_back();
    }
    hards_by_assumption[it->second].push_back(static_cast<int64_t>(i));
  }
  if (assumptions != cert.core_assumptions) {
    return Fail("core assumptions do not match the re-encoded problem");
  }
  if (hards_by_assumption != cert.core_hards) {
    return Fail("core assumption->hard map does not match the problem");
  }
  const ProofStream& generated = scratch_log.stream();
  if (generated.size() > cert.core_events.size()) {
    return Fail("core proof is shorter than its encoding");
  }
  for (size_t i = 0; i < generated.size(); ++i) {
    if (cert.core_events.kind(i) != generated.kind(i) ||
        !SameLits(cert.core_events.lits(i), generated.lits(i))) {
      return Fail("core encoding diverges at event " + std::to_string(i));
    }
  }
  for (size_t i = generated.size(); i < cert.core_events.size(); ++i) {
    if (cert.core_events.kind(i) == ProofEventKind::kInput) {
      return Fail("unexpected input clause in core proof at event " +
                  std::to_string(i));
    }
  }
  return {};
}

}  // namespace

CheckResult CheckCertificate(const Certificate& cert) {
  if (cert.kind == Certificate::Kind::kModelOnly) {
    return CheckModelOnly(cert);
  }
  return cert.claim == Certificate::Claim::kOptimal ? CheckClausalOptimal(cert)
                                                    : CheckClausalUnsat(cert);
}

CheckResult CheckCertified(const ConstraintSystem& system, MaxSmtResult* result) {
  std::shared_ptr<Certificate> cert;
  if (result->certificate == nullptr) {
    cert = std::make_shared<Certificate>();
    cert->kind = Certificate::Kind::kModelOnly;
    cert->claim = result->status == MaxSmtResult::Status::kOptimal
                      ? Certificate::Claim::kOptimal
                      : Certificate::Claim::kUnsat;
    cert->backend = result->backend;
    cert->cost = result->cost;
  } else if (result->certificate.use_count() == 1) {
    // Sole owner: fill the arithmetic in place. Legal despite the const
    // element type — every certificate is created non-const by its backend.
    cert = std::const_pointer_cast<Certificate>(result->certificate);
  } else {
    // Someone else (a caller) still holds the evidence; copy-on-write.
    cert = std::make_shared<Certificate>(*result->certificate);
  }
  result->certificate = cert;

  CheckResult res;
  if (result->status == MaxSmtResult::Status::kOptimal) {
    // Model-side arithmetic against the original system (both kinds): the
    // claimed optimum must satisfy every hard constraint and cost exactly
    // what the backend reported.
    int64_t violated_hards = 0;
    for (ExprId hard : system.hard()) {
      if (!system.EvalOnModel(hard, result->bool_values, result->int_values)) {
        ++violated_hards;
      }
    }
    cert->hards_total = static_cast<int64_t>(system.hard().size());
    cert->hards_violated = violated_hards;
    int64_t model_cost = 0;
    std::vector<int> violated_indices;
    const std::vector<SoftConstraint>& softs = system.soft();
    for (size_t i = 0; i < softs.size(); ++i) {
      if (!system.EvalOnModel(softs[i].expr, result->bool_values,
                              result->int_values)) {
        model_cost += softs[i].weight;
        violated_indices.push_back(static_cast<int>(i));
      }
    }
    cert->model_cost = model_cost;
    if (violated_hards != 0) {
      return Fail("model violates " + std::to_string(violated_hards) +
                  " hard constraints");
    }
    if (model_cost != result->cost) {
      return Fail("model cost " + std::to_string(model_cost) +
                  " does not equal the reported cost " +
                  std::to_string(result->cost));
    }
    if (violated_indices != result->violated_soft) {
      return Fail("reported violated-soft set does not match the model");
    }
    if (cert->kind == Certificate::Kind::kClausal) {
      // The clausal certificate claims the optimum under the weights the
      // engine solved (LineTieBreakWeights), not the plain reported cost.
      const TieBreakWeights tie_break = LineTieBreakWeights(system);
      int64_t engine_cost = 0;
      for (int i : violated_indices) {
        engine_cost += tie_break.weights[static_cast<size_t>(i)];
      }
      if (cert->cost != engine_cost) {
        return Fail("certificate cost " + std::to_string(cert->cost) +
                    " does not equal the model's engine-weighted cost " +
                    std::to_string(engine_cost));
      }
    }
  } else if (result->status == MaxSmtResult::Status::kUnsat) {
    const int64_t hard_count = static_cast<int64_t>(system.hard().size());
    for (int index : result->unsat_core) {
      if (index < 0 || static_cast<int64_t>(index) >= hard_count) {
        cert->core_tracked = false;
      }
    }
    if (!cert->core_tracked) {
      return Fail("unsat core references an out-of-range hard constraint");
    }
    if (cert->kind == Certificate::Kind::kClausal) {
      std::vector<int64_t> reported(result->unsat_core.begin(),
                                    result->unsat_core.end());
      if (reported != cert->reported_core) {
        return Fail("certificate core does not match the reported core");
      }
    }
  } else {
    return Fail("result status is not certifiable");
  }

  if (cert->kind == Certificate::Kind::kClausal) {
    if (cert->claim == Certificate::Claim::kOptimal) {
      // Bridge: the certificate's witness must be the model the caller got.
      const size_t bools = static_cast<size_t>(system.BoolCount());
      if (cert->model.size() < bools || result->bool_values.size() < bools) {
        return Fail("certificate model does not cover the decision variables");
      }
      for (size_t v = 0; v < bools; ++v) {
        if (cert->model[v] != result->bool_values[v]) {
          return Fail("certificate model diverges from the result at var " +
                      std::to_string(v));
        }
      }
    }
    CheckResult cnf = CheckCertificate(*cert);
    res.lemmas += cnf.lemmas;
    if (!cnf.ok) {
      cnf.lemmas = res.lemmas;
      return cnf;
    }
    if (cert->claim == Certificate::Claim::kOptimal && cert->cold) {
      CheckResult enc = VerifyEncodingBaseline(system, *cert);
      if (!enc.ok) {
        enc.lemmas = res.lemmas;
        return enc;
      }
    }
    if (cert->claim == Certificate::Claim::kUnsat &&
        !cert->core_assumptions.empty()) {
      CheckResult enc = VerifyCoreEncoding(system, *cert);
      if (!enc.ok) {
        enc.lemmas = res.lemmas;
        return enc;
      }
    }
  }
  return res;
}

namespace {

class CertifyingBackend final : public MaxSmtBackend {
 public:
  CertifyingBackend(std::unique_ptr<MaxSmtBackend> inner, CertifyMode mode)
      : inner_(std::move(inner)), mode_(mode) {
    assert(mode_ != CertifyMode::kOff);
  }

  MaxSmtResult Solve(const ConstraintSystem& system,
                     double timeout_seconds) override {
    return Run(system, timeout_seconds);
  }

  MaxSmtResult SolveCertified(const ConstraintSystem& system,
                              double timeout_seconds) override {
    return Run(system, timeout_seconds);
  }

  std::string name() const override { return inner_->name(); }

 private:
  MaxSmtResult Run(const ConstraintSystem& system, double timeout_seconds) {
    MaxSmtResult result = inner_->SolveCertified(system, timeout_seconds);
    Finish(system, &result);
    return result;
  }

  void Finish(const ConstraintSystem& system, MaxSmtResult* result) {
    obs::Registry& registry = obs::CurrentRegistry();
    if (mode_ == CertifyMode::kLog) {
      // Evidence attached, checking deferred to the offline auditor.
      registry.counter("certify.logged").Increment();
      return;
    }
    const bool applicable =
        result->status == MaxSmtResult::Status::kOptimal ||
        result->status == MaxSmtResult::Status::kUnsat;
    if (!applicable || (mode_ == CertifyMode::kAuto &&
                        result->status != MaxSmtResult::Status::kUnsat)) {
      registry.counter("certify.skipped").Increment();
      return;
    }
    registry.counter("certify.checked").Increment();
    CheckResult check = CheckCertified(system, result);
    registry.counter("certify.lemmas_checked").Add(check.lemmas);
    if (check.ok) {
      result->certification = MaxSmtResult::Certification::kVerified;
      registry.counter("certify.verified").Increment();
    } else {
      result->certification = MaxSmtResult::Certification::kFailed;
      result->certify_message = check.message;
      registry.counter("certify.failed").Increment();
    }
  }

  std::unique_ptr<MaxSmtBackend> inner_;
  CertifyMode mode_;
};

}  // namespace

std::unique_ptr<MaxSmtBackend> MakeCertifyingBackend(
    std::unique_ptr<MaxSmtBackend> inner, CertifyMode mode) {
  return std::make_unique<CertifyingBackend>(std::move(inner), mode);
}

}  // namespace cpr::certify
