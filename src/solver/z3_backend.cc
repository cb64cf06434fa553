// MaxSMT backend on Z3's Optimize engine (the paper's §7 setup: "We use the
// Z3 theorem prover's API to encode and solve our MaxSMT formulation").
// Soft constraints become assert_soft terms in a single objective group, so
// Z3 minimizes the total violated weight exactly.

#include <algorithm>
#include <string>
#include <vector>

#include <z3++.h>

#include "obs/metrics.h"
#include "obs/span.h"
#include "solver/backend.h"

namespace cpr {

namespace {

class Z3Translator {
 public:
  Z3Translator(z3::context* ctx, const ConstraintSystem& system)
      : ctx_(ctx), system_(system) {
    bool_consts_.reserve(static_cast<size_t>(system.BoolCount()));
    for (BVarId v = 0; v < system.BoolCount(); ++v) {
      bool_consts_.push_back(ctx_->bool_const(system.BoolName(v).c_str()));
    }
    int_consts_.reserve(static_cast<size_t>(system.IntCount()));
    for (IVarId v = 0; v < system.IntCount(); ++v) {
      int_consts_.push_back(ctx_->int_const(system.IntVar(v).name.c_str()));
    }
  }

  z3::expr Translate(ExprId id) {
    const ExprNode& n = system_.node(id);
    switch (n.kind) {
      case ExprKind::kTrue:
        return ctx_->bool_val(true);
      case ExprKind::kFalse:
        return ctx_->bool_val(false);
      case ExprKind::kBoolVar:
        return bool_consts_[static_cast<size_t>(n.bool_var)];
      case ExprKind::kNot:
        return !Translate(system_.children(id)[0]);
      case ExprKind::kAnd: {
        z3::expr_vector parts(*ctx_);
        for (ExprId c : system_.children(id)) {
          parts.push_back(Translate(c));
        }
        return z3::mk_and(parts);
      }
      case ExprKind::kOr: {
        z3::expr_vector parts(*ctx_);
        for (ExprId c : system_.children(id)) {
          parts.push_back(Translate(c));
        }
        return z3::mk_or(parts);
      }
      case ExprKind::kLinearLe:
        return LinearSum(id) <= 0;
      case ExprKind::kLinearEq:
        return LinearSum(id) == 0;
    }
    return ctx_->bool_val(true);
  }

  const std::vector<z3::expr>& int_consts() const { return int_consts_; }
  const std::vector<z3::expr>& bool_consts() const { return bool_consts_; }

 private:
  z3::expr LinearSum(ExprId id) {
    z3::expr sum = ctx_->int_val(static_cast<int64_t>(system_.node(id).constant));
    for (const LinearTerm& t : system_.terms(id)) {
      z3::expr term = int_consts_[static_cast<size_t>(t.var)];
      if (t.coefficient != 1) {
        term = ctx_->int_val(t.coefficient) * term;
      }
      sum = sum + term;
    }
    return sum;
  }

  z3::context* ctx_;
  const ConstraintSystem& system_;
  std::vector<z3::expr> bool_consts_;
  std::vector<z3::expr> int_consts_;
};

// Best-effort unsat core for an UNSAT system: re-check with a plain
// z3::solver asserting each hard constraint under a tracking boolean
// ("hc<i>"), ask Z3 to minimize the core, and map the surviving tracking
// booleans back to hard-constraint indices. Failures (old Z3 without
// core.minimize, a timeout during the re-check) leave the core empty —
// provenance never turns an UNSAT answer into an error.
void ExtractUnsatCore(z3::context* ctx, Z3Translator* translator,
                      const ConstraintSystem& system, double timeout_seconds,
                      MaxSmtResult* result) {
  try {
    z3::solver solver(*ctx);
    z3::params params(*ctx);
    params.set("unsat_core", true);
    if (timeout_seconds > 0) {
      params.set("timeout", TimeoutMillis(timeout_seconds));
    }
    solver.set(params);
    try {
      z3::params minimize(*ctx);
      minimize.set("core.minimize", true);
      solver.set(minimize);
    } catch (const z3::exception&) {
      // Minimization is an optimization of the diagnostic, not required.
    }
    const std::vector<ExprId>& hards = system.hard();
    for (size_t i = 0; i < hards.size(); ++i) {
      std::string tag = "hc" + std::to_string(i);
      solver.add(translator->Translate(hards[i]), tag.c_str());
    }
    for (IVarId v = 0; v < system.IntCount(); ++v) {
      const IntVarInfo& info = system.IntVar(v);
      const z3::expr& var = translator->int_consts()[static_cast<size_t>(v)];
      solver.add(var >= ctx->int_val(info.lower));
      solver.add(var <= ctx->int_val(info.upper));
    }
    if (solver.check() != z3::unsat) {
      return;  // The re-check timed out; keep the core empty.
    }
    z3::expr_vector core = solver.unsat_core();
    for (unsigned i = 0; i < core.size(); ++i) {
      std::string tag = core[static_cast<int>(i)].decl().name().str();
      if (tag.rfind("hc", 0) == 0) {
        result->unsat_core.push_back(std::stoi(tag.substr(2)));
      }
    }
    std::sort(result->unsat_core.begin(), result->unsat_core.end());
  } catch (const z3::exception&) {
    result->unsat_core.clear();
  }
}

// Surfaces Z3's Optimize statistics (decisions, conflicts, restarts,
// memory, ...) as "z3.<key>" counters on the result, and mirrors the call
// count into the global registry. Key names vary across Z3 versions; every
// key present is forwarded verbatim.
void ExtractStatistics(const z3::optimize& opt, MaxSmtResult* result) {
  try {
    z3::stats statistics = opt.statistics();
    for (unsigned i = 0; i < statistics.size(); ++i) {
      double value = statistics.is_uint(i)
                         ? static_cast<double>(statistics.uint_value(i))
                         : statistics.double_value(i);
      result->solver_counters.emplace_back("z3." + statistics.key(i), value);
    }
  } catch (const z3::exception&) {
    // Statistics are best-effort diagnostics; never fail a solve for them.
  }
  obs::CurrentRegistry().counter("solver.z3_solves").Increment();
}

class Z3Backend final : public MaxSmtBackend {
 public:
  MaxSmtResult Solve(const ConstraintSystem& system, double timeout_seconds) override {
    MaxSmtResult result;
    result.backend = name();
    obs::StageSpan span("solver.z3");
    try {
      z3::context ctx;
      z3::optimize opt(ctx);
      if (timeout_seconds > 0) {
        z3::params params(ctx);
        // TimeoutMillis clamps to [1, UINT_MAX] ms: a raw unsigned cast
        // wraps for huge budgets and truncates sub-millisecond caps to 0,
        // which Z3 interprets as "no timeout".
        params.set("timeout", TimeoutMillis(timeout_seconds));
        opt.set(params);
      }

      Z3Translator translator(&ctx, system);
      for (ExprId hard : system.hard()) {
        opt.add(translator.Translate(hard));
      }
      for (IVarId v = 0; v < system.IntCount(); ++v) {
        const IntVarInfo& info = system.IntVar(v);
        const z3::expr& var = translator.int_consts()[static_cast<size_t>(v)];
        opt.add(var >= ctx.int_val(info.lower));
        opt.add(var <= ctx.int_val(info.upper));
      }
      std::vector<z3::expr> soft_exprs;
      for (const SoftConstraint& soft : system.soft()) {
        z3::expr e = translator.Translate(soft.expr);
        soft_exprs.push_back(e);
        opt.add_soft(e, static_cast<unsigned>(soft.weight));
      }

      z3::check_result check = opt.check();
      ExtractStatistics(opt, &result);
      if (check == z3::unsat) {
        result.status = MaxSmtResult::Status::kUnsat;
        ExtractUnsatCore(&ctx, &translator, system, timeout_seconds, &result);
        return result;
      }
      if (check == z3::unknown) {
        result.status = MaxSmtResult::Status::kTimeout;
        result.message = "z3 returned unknown (time limit)";
        return result;
      }

      z3::model model = opt.get_model();
      result.status = MaxSmtResult::Status::kOptimal;
      result.bool_values.resize(static_cast<size_t>(system.BoolCount()));
      for (BVarId v = 0; v < system.BoolCount(); ++v) {
        z3::expr value =
            model.eval(translator.bool_consts()[static_cast<size_t>(v)], true);
        result.bool_values[static_cast<size_t>(v)] = value.is_true();
      }
      result.int_values.resize(static_cast<size_t>(system.IntCount()));
      for (IVarId v = 0; v < system.IntCount(); ++v) {
        z3::expr value = model.eval(translator.int_consts()[static_cast<size_t>(v)], true);
        result.int_values[static_cast<size_t>(v)] = value.get_numeral_int64();
      }
      // Cost = total weight of soft constraints the model violates; the
      // violated indices double as the edit-provenance record.
      for (size_t i = 0; i < soft_exprs.size(); ++i) {
        if (model.eval(soft_exprs[i], true).is_false()) {
          result.cost += system.soft()[i].weight;
          result.violated_soft.push_back(static_cast<int>(i));
        }
      }
      return result;
    } catch (const z3::exception& e) {
      // Never let a solver exception escape into a worker thread; the repair
      // engine records the error per-problem and keeps going.
      result.status = MaxSmtResult::Status::kError;
      result.message = std::string("z3 exception: ") + e.msg();
      return result;
    }
  }

  std::string name() const override { return "z3-optimize"; }
};

}  // namespace

std::unique_ptr<MaxSmtBackend> MakeZ3Backend() { return std::make_unique<Z3Backend>(); }

}  // namespace cpr
