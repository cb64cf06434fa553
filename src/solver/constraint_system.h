// Backend-neutral MaxSMT constraint intermediate representation.
//
// The repair encoder (src/repair) emits its Figure-5 formulation into this
// IR; a backend then solves it. The IR covers exactly what CPR needs:
//
//  * boolean structure (vars, not/and/or/implies/iff) over
//  * optional integer linear atoms (sum of coef*int_var + const {<=,==} 0),
//    used only by the PC4 edge-cost constraints, and
//  * weighted soft constraints (arbitrary boolean expressions).
//
// Expressions are nodes in an arena indexed by ExprId; sharing subtrees is
// free, and backends translate by a single postorder walk.

#ifndef CPR_SRC_SOLVER_CONSTRAINT_SYSTEM_H_
#define CPR_SRC_SOLVER_CONSTRAINT_SYSTEM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cpr {

using BVarId = int32_t;
using IVarId = int32_t;
using ExprId = int32_t;

enum class ExprKind : uint8_t {
  kTrue,
  kFalse,
  kBoolVar,
  kNot,
  kAnd,
  kOr,
  kLinearLe,  // sum(terms) + constant <= 0
  kLinearEq,  // sum(terms) + constant == 0
};

struct LinearTerm {
  IVarId var = -1;
  int64_t coefficient = 1;
};

struct ExprNode {
  ExprKind kind = ExprKind::kTrue;
  BVarId bool_var = -1;             // kBoolVar
  std::vector<ExprId> children;     // kNot (1), kAnd, kOr
  std::vector<LinearTerm> terms;    // linear atoms
  int64_t constant = 0;             // linear atoms
};

struct IntVarInfo {
  std::string name;
  int64_t lower = 0;
  int64_t upper = 0;
};

struct SoftConstraint {
  ExprId expr = -1;
  int64_t weight = 1;
  // Provenance label: which repair construct this soft constraint keeps
  // (e.g. "adj:l3:p1-2"). Empty when the producer did not attach one.
  std::string label;
};

class ConstraintSystem {
 public:
  ConstraintSystem();

  BVarId NewBool(std::string name);
  IVarId NewInt(std::string name, int64_t lower, int64_t upper);

  ExprId True() const { return true_; }
  ExprId False() const { return false_; }
  ExprId Var(BVarId var);
  ExprId Not(ExprId e);
  ExprId And(std::vector<ExprId> children);
  ExprId Or(std::vector<ExprId> children);
  ExprId Implies(ExprId a, ExprId b) { return Or({Not(a), b}); }
  ExprId Iff(ExprId a, ExprId b);
  // The boolean constant `value` as an expression of `var`.
  ExprId VarEquals(BVarId var, bool value) { return value ? Var(var) : Not(Var(var)); }

  // sum(terms) + constant <= 0 / == 0.
  ExprId LinearLe(std::vector<LinearTerm> terms, int64_t constant);
  ExprId LinearEq(std::vector<LinearTerm> terms, int64_t constant);

  // `label` tags the constraint for provenance: policy id for hard
  // constraints, construct key for softs. Hard labels live in a parallel
  // vector so `hard()` stays a plain ExprId list for backends.
  void AddHard(ExprId e, std::string label = {}) {
    hard_.push_back(e);
    hard_labels_.push_back(label.empty() ? hard_context_ : std::move(label));
  }
  // Default label for AddHard calls that pass none — producers set it around
  // a group of constraints (e.g. one policy's encoding) instead of threading
  // a label through every call site.
  void SetHardLabelContext(std::string label) { hard_context_ = std::move(label); }
  void AddSoft(ExprId e, int64_t weight, std::string label = {}) {
    soft_.push_back(SoftConstraint{e, weight, std::move(label)});
  }

  // --- Introspection for backends and stats ---
  int BoolCount() const { return static_cast<int>(bool_names_.size()); }
  int IntCount() const { return static_cast<int>(int_vars_.size()); }
  const std::string& BoolName(BVarId v) const { return bool_names_[static_cast<size_t>(v)]; }
  const IntVarInfo& IntVar(IVarId v) const { return int_vars_[static_cast<size_t>(v)]; }
  const ExprNode& node(ExprId e) const { return nodes_[static_cast<size_t>(e)]; }
  const std::vector<ExprId>& hard() const { return hard_; }
  const std::string& HardLabel(size_t i) const { return hard_labels_[i]; }
  const std::vector<SoftConstraint>& soft() const { return soft_; }
  bool HasIntegers() const { return !int_vars_.empty(); }
  int64_t TotalSoftWeight() const;

  // Evaluates an expression against a candidate model (bool_values indexed
  // by BVarId, int_values by IVarId). Missing assignments read as
  // false / 0. Shared by backends (to report which softs a model violates)
  // and by the repair decoder.
  bool EvalOnModel(ExprId e, const std::vector<bool>& bool_values,
                   const std::vector<int64_t>& int_values) const;

 private:
  ExprId AddNode(ExprNode node);

  std::vector<ExprNode> nodes_;
  std::vector<std::string> bool_names_;
  std::vector<IntVarInfo> int_vars_;
  std::vector<ExprId> hard_;
  std::vector<std::string> hard_labels_;  // Parallel to hard_.
  std::string hard_context_;
  std::vector<SoftConstraint> soft_;
  ExprId true_ = -1;
  ExprId false_ = -1;
  // Var(v) is memoized so the arena does not fill with duplicate leaves.
  std::vector<ExprId> var_exprs_;
};

}  // namespace cpr

#endif  // CPR_SRC_SOLVER_CONSTRAINT_SYSTEM_H_
