#include "solver/constraint_system.h"

#include <cassert>
#include <utility>

namespace cpr {

ConstraintSystem::ConstraintSystem() {
  ExprNode true_node;
  true_node.kind = ExprKind::kTrue;
  true_ = AddNode(std::move(true_node));
  ExprNode false_node;
  false_node.kind = ExprKind::kFalse;
  false_ = AddNode(std::move(false_node));
}

ExprId ConstraintSystem::AddNode(ExprNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<ExprId>(nodes_.size() - 1);
}

BVarId ConstraintSystem::NewBool(std::string name) {
  bool_names_.push_back(std::move(name));
  var_exprs_.push_back(-1);
  return static_cast<BVarId>(bool_names_.size() - 1);
}

IVarId ConstraintSystem::NewInt(std::string name, int64_t lower, int64_t upper) {
  assert(lower <= upper);
  int_vars_.push_back(IntVarInfo{std::move(name), lower, upper});
  return static_cast<IVarId>(int_vars_.size() - 1);
}

ExprId ConstraintSystem::Var(BVarId var) {
  ExprId& memo = var_exprs_[static_cast<size_t>(var)];
  if (memo < 0) {
    ExprNode node;
    node.kind = ExprKind::kBoolVar;
    node.bool_var = var;
    memo = AddNode(std::move(node));
  }
  return memo;
}

ExprId ConstraintSystem::Not(ExprId e) {
  const ExprNode& child = node(e);
  if (child.kind == ExprKind::kTrue) {
    return false_;
  }
  if (child.kind == ExprKind::kFalse) {
    return true_;
  }
  if (child.kind == ExprKind::kNot) {
    return child.children[0];  // Double negation.
  }
  ExprNode n;
  n.kind = ExprKind::kNot;
  n.children = {e};
  return AddNode(std::move(n));
}

ExprId ConstraintSystem::And(std::vector<ExprId> children) {
  std::vector<ExprId> flat;
  for (ExprId c : children) {
    if (c == false_) {
      return false_;
    }
    if (c != true_) {
      flat.push_back(c);
    }
  }
  if (flat.empty()) {
    return true_;
  }
  if (flat.size() == 1) {
    return flat[0];
  }
  ExprNode n;
  n.kind = ExprKind::kAnd;
  n.children = std::move(flat);
  return AddNode(std::move(n));
}

ExprId ConstraintSystem::Or(std::vector<ExprId> children) {
  std::vector<ExprId> flat;
  for (ExprId c : children) {
    if (c == true_) {
      return true_;
    }
    if (c != false_) {
      flat.push_back(c);
    }
  }
  if (flat.empty()) {
    return false_;
  }
  if (flat.size() == 1) {
    return flat[0];
  }
  ExprNode n;
  n.kind = ExprKind::kOr;
  n.children = std::move(flat);
  return AddNode(std::move(n));
}

ExprId ConstraintSystem::Iff(ExprId a, ExprId b) {
  return And({Or({Not(a), b}), Or({Not(b), a})});
}

ExprId ConstraintSystem::LinearLe(std::vector<LinearTerm> terms, int64_t constant) {
  ExprNode n;
  n.kind = ExprKind::kLinearLe;
  n.terms = std::move(terms);
  n.constant = constant;
  return AddNode(std::move(n));
}

ExprId ConstraintSystem::LinearEq(std::vector<LinearTerm> terms, int64_t constant) {
  ExprNode n;
  n.kind = ExprKind::kLinearEq;
  n.terms = std::move(terms);
  n.constant = constant;
  return AddNode(std::move(n));
}

bool ConstraintSystem::EvalOnModel(ExprId e, const std::vector<bool>& bool_values,
                                   const std::vector<int64_t>& int_values) const {
  const ExprNode& n = node(e);
  switch (n.kind) {
    case ExprKind::kTrue:
      return true;
    case ExprKind::kFalse:
      return false;
    case ExprKind::kBoolVar: {
      size_t v = static_cast<size_t>(n.bool_var);
      return v < bool_values.size() && bool_values[v];
    }
    case ExprKind::kNot:
      return !EvalOnModel(n.children[0], bool_values, int_values);
    case ExprKind::kAnd:
      for (ExprId c : n.children) {
        if (!EvalOnModel(c, bool_values, int_values)) {
          return false;
        }
      }
      return true;
    case ExprKind::kOr:
      for (ExprId c : n.children) {
        if (EvalOnModel(c, bool_values, int_values)) {
          return true;
        }
      }
      return false;
    case ExprKind::kLinearLe:
    case ExprKind::kLinearEq: {
      int64_t sum = n.constant;
      for (const LinearTerm& term : n.terms) {
        size_t v = static_cast<size_t>(term.var);
        int64_t value = v < int_values.size() ? int_values[v] : 0;
        sum += term.coefficient * value;
      }
      return n.kind == ExprKind::kLinearLe ? sum <= 0 : sum == 0;
    }
  }
  return false;
}

int64_t ConstraintSystem::TotalSoftWeight() const {
  int64_t total = 0;
  for (const SoftConstraint& s : soft_) {
    total += s.weight;
  }
  return total;
}

}  // namespace cpr
