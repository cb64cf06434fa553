// Tseitin encoder: ConstraintSystem boolean expressions -> CNF.
//
// Templated over the clause sink so the same encoder serves the MaxSatSolver
// solve path, the plain-SatSolver unsat-core path, and the certify checker's
// encoding replay (src/certify/check.cc regenerates a solve's input clause
// stream and compares it against the proof log, which is what lets a
// certificate's baseline be *checked* rather than trusted for cold solves).
// `Solver` needs NewVar() -> BoolVar and AddHard(std::span<const Lit>).
//
// Encode(id) gives an expression's definition literal. AssertHard(id)
// asserts a hard constraint with as few clauses as its root allows: a
// disjunction becomes one clause over its disjuncts, a conjunction asserts
// each conjunct, and only other roots cost a definition. The solver and the
// replay both assert hard constraints through AssertHard.
//
// Determinism contract: for a fixed ConstraintSystem and a fixed sequence of
// Encode()/AssertHard() calls, the encoder allocates the same variables and
// emits the same clauses in the same order. The replay comparison depends on
// this, so keep the traversal order stable.

#ifndef CPR_SRC_SOLVER_TSEITIN_H_
#define CPR_SRC_SOLVER_TSEITIN_H_

#include <initializer_list>
#include <optional>
#include <span>
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
  // the expression is. nullopt for integer atoms (and anything above one).
  std::optional<Lit> Encode(ExprId id) {
    if (static_cast<size_t>(id) >= cache_.size()) {
      cache_.resize(static_cast<size_t>(system_.NodeCount()), kUndefLit);
    }
    if (cache_[static_cast<size_t>(id)] != kUndefLit) {
      return cache_[static_cast<size_t>(id)];
    }
    std::optional<Lit> lit;
    switch (system_.node(id).kind) {
      case ExprKind::kTrue:
        lit = true_lit_;
        break;
      case ExprKind::kFalse:
        lit = ~true_lit_;
        break;
      case ExprKind::kBoolVar:
        lit = Lit(static_cast<BoolVar>(system_.node(id).bool_var), false);
        break;
      case ExprKind::kNot: {
        std::optional<Lit> child = Encode(system_.children(id)[0]);
        if (child.has_value()) {
          lit = ~*child;
        }
        break;
      }
      case ExprKind::kAnd:
      case ExprKind::kOr:
        lit = Define(id);
        break;
      case ExprKind::kLinearLe:
      case ExprKind::kLinearEq:
        return std::nullopt;  // Integers are Z3-only.
    }
    if (lit.has_value()) {
      cache_[static_cast<size_t>(id)] = *lit;
    }
    return lit;
  }

  // Asserts hard constraint `id`: a disjunction root (nested disjunctions
  // flattened) becomes one clause over its disjuncts' literals, a
  // conjunction root asserts each conjunct, and any other root asserts its
  // definition literal. False when the constraint is not boolean.
  bool AssertHard(ExprId id) {
    switch (system_.node(id).kind) {
      case ExprKind::kAnd:
        for (ExprId conjunct : system_.children(id)) {
          if (!AssertHard(conjunct)) {
            return false;
          }
        }
        return true;
      case ExprKind::kOr: {
        const size_t base = buffer_.size();
        bool boolean = PushDisjuncts(id);
        if (boolean) {
          solver_->AddHard(std::span<const Lit>(buffer_).subspan(base));
        }
        buffer_.resize(base);
        return boolean;
      }
      default: {
        std::optional<Lit> lit = Encode(id);
        if (lit.has_value()) {
          solver_->AddHard({*lit});
        }
        return lit.has_value();
      }
    }
  }

 private:
  // Gives an And/Or node a fresh definition literal and its clauses. The
  // children's literals and the long clause are built on buffer_, used as a
  // stack: the recursive Encode calls push above this call's base and pop
  // back to it.
  std::optional<Lit> Define(ExprId id) {
    const bool is_and = system_.node(id).kind == ExprKind::kAnd;
    const size_t base = buffer_.size();
    for (ExprId c : system_.children(id)) {
      std::optional<Lit> child = Encode(c);
      if (!child.has_value()) {
        buffer_.resize(base);
        return std::nullopt;
      }
      buffer_.push_back(*child);
    }
    const size_t end = buffer_.size();
    Lit def = Lit(solver_->NewVar(), false);
    // And: def <-> AND(children) is {~def, c} per child plus
    // {def, ~c...}. Or: def <-> OR(children) is {~c, def} per child plus
    // {~def, c...}.
    buffer_.push_back(is_and ? def : ~def);
    for (size_t i = base; i < end; ++i) {
      Lit c = buffer_[i];
      if (is_and) {
        solver_->AddHard({~def, c});
      } else {
        solver_->AddHard({~c, def});
      }
      buffer_.push_back(is_and ? ~c : c);
    }
    solver_->AddHard(std::span<const Lit>(buffer_).subspan(end));
    buffer_.resize(base);
    return def;
  }

  // Pushes the literals of an Or node's disjuncts onto buffer_, descending
  // into nested disjunctions. False when a disjunct is not boolean.
  bool PushDisjuncts(ExprId id) {
    for (ExprId c : system_.children(id)) {
      if (system_.node(c).kind == ExprKind::kOr) {
        if (!PushDisjuncts(c)) {
          return false;
        }
        continue;
      }
      std::optional<Lit> lit = Encode(c);
      if (!lit.has_value()) {
        return false;
      }
      buffer_.push_back(*lit);
    }
    return true;
  }

  Solver* solver_;
  const ConstraintSystem& system_;
  Lit true_lit_ = kUndefLit;
  std::vector<Lit> cache_;   // Definition literal by ExprId; kUndefLit if none yet.
  std::vector<Lit> buffer_;  // Clause scratch, used as a stack.
};

// Adapts SatSolver to the Tseitin clause-sink interface.
struct SatSink {
  SatSolver* sat;
  BoolVar NewVar() { return sat->NewVar(); }
  void AddHard(std::span<const Lit> clause) { sat->AddClause(clause); }
  void AddHard(std::initializer_list<Lit> clause) { sat->AddClause(clause); }
};

}  // namespace cpr

#endif  // CPR_SRC_SOLVER_TSEITIN_H_
