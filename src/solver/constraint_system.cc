#include "solver/constraint_system.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace cpr {

namespace {

// Appends `src` to `pool`, where `src` may be a slice of `pool` itself.
// Capacity is secured (geometrically, so appends stay amortized O(1))
// before `src` is read, and an aliased `src` is re-pointed at the possibly
// moved storage; the appends then cannot invalidate it.
template <typename T>
std::span<const T> SecureAppend(std::vector<T>* pool, std::span<const T> src) {
  const T* data = pool->data();
  const bool aliased = std::greater_equal<const T*>()(src.data(), data) &&
                       std::less<const T*>()(src.data(), data + pool->size());
  const size_t offset = aliased ? static_cast<size_t>(src.data() - data) : 0;
  const size_t needed = pool->size() + src.size();
  if (needed > pool->capacity()) {
    pool->reserve(std::max(needed, 2 * pool->capacity()));
  }
  return aliased ? std::span<const T>(pool->data() + offset, src.size()) : src;
}

}  // namespace

ConstraintSystem::ConstraintSystem() {
  true_ = AddNode(ExprNode{ExprKind::kTrue});
  false_ = AddNode(ExprNode{ExprKind::kFalse});
  labels_.emplace_back();
  label_ids_.emplace(std::string(), 0);
}

ExprId ConstraintSystem::AddNode(const ExprNode& node) {
  nodes_.push_back(node);
  not_exprs_.push_back(-1);
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

uint32_t ConstraintSystem::InternLabel(const std::string& label) {
  auto [it, inserted] = label_ids_.try_emplace(label, static_cast<uint32_t>(labels_.size()));
  if (inserted) {
    labels_.push_back(label);
  }
  return it->second;
}

ExprId ConstraintSystem::Var(BVarId var) {
  ExprId& memo = var_exprs_[static_cast<size_t>(var)];
  if (memo < 0) {
    ExprNode node;
    node.kind = ExprKind::kBoolVar;
    node.bool_var = var;
    memo = AddNode(node);
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
    return children(e)[0];  // Double negation.
  }
  if (not_exprs_[static_cast<size_t>(e)] >= 0) {
    return not_exprs_[static_cast<size_t>(e)];
  }
  ExprNode n;
  n.kind = ExprKind::kNot;
  n.begin = static_cast<uint32_t>(children_.size());
  n.size = 1;
  children_.push_back(e);
  ExprId id = AddNode(n);
  not_exprs_[static_cast<size_t>(e)] = id;
  return id;
}

// And/Or with constant folding: the absorbing constant decides the node,
// identities drop out, and one survivor stands for itself. Survivors are
// folded straight into the children pool; a node is made only for two or
// more.
ExprId ConstraintSystem::Junction(ExprKind kind, std::span<const ExprId> operands) {
  const ExprId absorbing = kind == ExprKind::kAnd ? false_ : true_;
  const ExprId identity = kind == ExprKind::kAnd ? true_ : false_;
  const size_t begin = children_.size();
  for (ExprId c : SecureAppend(&children_, operands)) {
    if (c == absorbing) {
      children_.resize(begin);
      return absorbing;
    }
    if (c != identity) {
      children_.push_back(c);
    }
  }
  const size_t size = children_.size() - begin;
  if (size <= 1) {
    ExprId only = size == 0 ? identity : children_[begin];
    children_.resize(begin);
    return only;
  }
  ExprNode n;
  n.kind = kind;
  n.begin = static_cast<uint32_t>(begin);
  n.size = static_cast<uint32_t>(size);
  return AddNode(n);
}

ExprId ConstraintSystem::Iff(ExprId a, ExprId b) {
  return And({Or({Not(a), b}), Or({Not(b), a})});
}

ExprId ConstraintSystem::LinearAtom(ExprKind kind, std::span<const LinearTerm> terms,
                                    int64_t constant) {
  ExprNode n;
  n.kind = kind;
  n.begin = static_cast<uint32_t>(terms_.size());
  n.size = static_cast<uint32_t>(terms.size());
  n.constant = constant;
  std::span<const LinearTerm> src = SecureAppend(&terms_, terms);
  terms_.insert(terms_.end(), src.begin(), src.end());
  return AddNode(n);
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
      return !EvalOnModel(children(e)[0], bool_values, int_values);
    case ExprKind::kAnd:
      for (ExprId c : children(e)) {
        if (!EvalOnModel(c, bool_values, int_values)) {
          return false;
        }
      }
      return true;
    case ExprKind::kOr:
      for (ExprId c : children(e)) {
        if (EvalOnModel(c, bool_values, int_values)) {
          return true;
        }
      }
      return false;
    case ExprKind::kLinearLe:
    case ExprKind::kLinearEq: {
      int64_t sum = n.constant;
      for (const LinearTerm& term : terms(e)) {
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

TieBreakWeights LineTieBreakWeights(const ConstraintSystem& system) {
  const std::vector<SoftConstraint>& softs = system.soft();
  TieBreakWeights out;
  for (const SoftConstraint& soft : softs) {
    assert(soft.lines >= 0);
    out.scale += soft.lines;
  }
  out.weights.reserve(softs.size());
  for (const SoftConstraint& soft : softs) {
    out.weights.push_back(soft.weight * out.scale + soft.lines);
  }
  return out;
}

}  // namespace cpr
