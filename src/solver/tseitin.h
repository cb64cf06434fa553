// Tseitin encoder: ConstraintSystem boolean expressions -> CNF.
//
// Templated over the clause sink so the same encoder serves the MaxSatSolver
// solve path, the plain-SatSolver unsat-core path, and the certify checker's
// encoding replay (src/certify/check.cc regenerates a solve's input clause
// stream and compares it against the proof log, which is what lets a
// certificate's baseline be *checked* rather than trusted for cold solves).
// `Solver` needs NewVar() -> BoolVar and AddHard(Clause).
//
// Determinism contract: for a fixed ConstraintSystem and a fixed sequence of
// Encode() calls, the encoder allocates the same variables and emits the
// same clauses in the same order. The replay comparison depends on this, so
// keep Encode's traversal order stable.

#ifndef CPR_SRC_SOLVER_TSEITIN_H_
#define CPR_SRC_SOLVER_TSEITIN_H_

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smt/sat_solver.h"
#include "solver/constraint_system.h"

namespace cpr {

template <typename Solver>
class Tseitin {
 public:
  Tseitin(Solver* solver, const ConstraintSystem& system)
      : solver_(solver), system_(system) {
    // Decision variables occupy the first BoolCount() solver variables so
    // the model maps back by identity.
    for (BVarId v = 0; v < system.BoolCount(); ++v) {
      solver_->NewVar();
    }
    true_lit_ = Lit(solver_->NewVar(), false);
    solver_->AddHard({true_lit_});
  }

  // Definition literal for an expression: the literal is true in a model iff
  // the expression is.
  std::optional<Lit> Encode(ExprId id) {
    if (auto it = cache_.find(id); it != cache_.end()) {
      return it->second;
    }
    const ExprNode& n = system_.node(id);
    std::optional<Lit> lit;
    switch (n.kind) {
      case ExprKind::kTrue:
        lit = true_lit_;
        break;
      case ExprKind::kFalse:
        lit = ~true_lit_;
        break;
      case ExprKind::kBoolVar:
        lit = Lit(static_cast<BoolVar>(n.bool_var), false);
        break;
      case ExprKind::kNot: {
        std::optional<Lit> child = Encode(n.children[0]);
        if (child.has_value()) {
          lit = ~*child;
        }
        break;
      }
      case ExprKind::kAnd:
      case ExprKind::kOr: {
        std::vector<Lit> children;
        for (ExprId c : n.children) {
          std::optional<Lit> child = Encode(c);
          if (!child.has_value()) {
            return std::nullopt;
          }
          children.push_back(*child);
        }
        Lit def = Lit(solver_->NewVar(), false);
        if (n.kind == ExprKind::kAnd) {
          // def <-> AND(children)
          Clause back{def};
          for (Lit c : children) {
            solver_->AddHard({~def, c});
            back.push_back(~c);
          }
          solver_->AddHard(std::move(back));
        } else {
          // def <-> OR(children)
          Clause fwd{~def};
          for (Lit c : children) {
            solver_->AddHard({~c, def});
            fwd.push_back(c);
          }
          solver_->AddHard(std::move(fwd));
        }
        lit = def;
        break;
      }
      case ExprKind::kLinearLe:
      case ExprKind::kLinearEq:
        return std::nullopt;  // Integers are Z3-only.
    }
    if (lit.has_value()) {
      cache_.emplace(id, *lit);
    }
    return lit;
  }

 private:
  Solver* solver_;
  const ConstraintSystem& system_;
  Lit true_lit_ = kUndefLit;
  std::unordered_map<ExprId, Lit> cache_;
};

// Adapts SatSolver to the Tseitin clause-sink interface.
struct SatSink {
  SatSolver* sat;
  BoolVar NewVar() { return sat->NewVar(); }
  void AddHard(Clause clause) { sat->AddClause(std::move(clause)); }
};

}  // namespace cpr

#endif  // CPR_SRC_SOLVER_TSEITIN_H_
