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
// Expressions are fixed-size nodes indexed by ExprId; sharing subtrees is
// free, and backends translate by a single postorder walk. A node owns no
// heap block: the children of every not/and/or node live in one pool and
// the terms of every linear atom in another, and a node names its slice of
// a pool by (begin, size). Readers get the slices as spans through
// children() and terms(). Var() and Not() are memoized per operand, and
// hard-constraint labels are interned.

#ifndef CPR_SRC_SOLVER_CONSTRAINT_SYSTEM_H_
#define CPR_SRC_SOLVER_CONSTRAINT_SYSTEM_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <unordered_map>
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
  BVarId bool_var = -1;  // kBoolVar
  // The node's slice of the children pool (kNot: 1, kAnd, kOr) or of the
  // terms pool (linear atoms).
  uint32_t begin = 0;
  uint32_t size = 0;
  int64_t constant = 0;  // linear atoms
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
  // Configuration lines that violating this soft (changing its construct)
  // adds to the input configurations, as the translator writes them. Only
  // the internal engine reads it, to break ties in `weight`
  // (LineTieBreakWeights); 0 when the producer attached no count.
  int64_t lines = 0;
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
  // `operands` may alias the children pool (another node's children()).
  ExprId And(std::span<const ExprId> operands) { return Junction(ExprKind::kAnd, operands); }
  ExprId And(std::initializer_list<ExprId> operands) {
    return Junction(ExprKind::kAnd, {operands.begin(), operands.size()});
  }
  ExprId Or(std::span<const ExprId> operands) { return Junction(ExprKind::kOr, operands); }
  ExprId Or(std::initializer_list<ExprId> operands) {
    return Junction(ExprKind::kOr, {operands.begin(), operands.size()});
  }
  ExprId Implies(ExprId a, ExprId b) { return Or({Not(a), b}); }
  ExprId Iff(ExprId a, ExprId b);
  // The boolean constant `value` as an expression of `var`.
  ExprId VarEquals(BVarId var, bool value) { return value ? Var(var) : Not(Var(var)); }

  // sum(terms) + constant <= 0 / == 0.
  ExprId LinearLe(std::span<const LinearTerm> terms, int64_t constant) {
    return LinearAtom(ExprKind::kLinearLe, terms, constant);
  }
  ExprId LinearLe(std::initializer_list<LinearTerm> terms, int64_t constant) {
    return LinearAtom(ExprKind::kLinearLe, {terms.begin(), terms.size()}, constant);
  }
  ExprId LinearEq(std::span<const LinearTerm> terms, int64_t constant) {
    return LinearAtom(ExprKind::kLinearEq, terms, constant);
  }
  ExprId LinearEq(std::initializer_list<LinearTerm> terms, int64_t constant) {
    return LinearAtom(ExprKind::kLinearEq, {terms.begin(), terms.size()}, constant);
  }

  // `label` tags the constraint for provenance: policy id for hard
  // constraints, construct key for softs. Hard labels are interned: each
  // hard constraint stores a label id in a vector parallel to hard_, so
  // `hard()` stays a plain ExprId list for backends.
  void AddHard(ExprId e, const std::string& label = {}) {
    hard_.push_back(e);
    hard_label_ids_.push_back(label.empty() ? hard_context_ : InternLabel(label));
  }
  // Default label for AddHard calls that pass none — producers set it around
  // a group of constraints (e.g. one policy's encoding) instead of threading
  // a label through every call site.
  void SetHardLabelContext(const std::string& label) { hard_context_ = InternLabel(label); }
  void AddSoft(ExprId e, int64_t weight, std::string label = {}, int64_t lines = 0) {
    soft_.push_back(SoftConstraint{e, weight, std::move(label), lines});
  }

  // --- Introspection for backends and stats ---
  int BoolCount() const { return static_cast<int>(bool_names_.size()); }
  int IntCount() const { return static_cast<int>(int_vars_.size()); }
  int NodeCount() const { return static_cast<int>(nodes_.size()); }
  const std::string& BoolName(BVarId v) const { return bool_names_[static_cast<size_t>(v)]; }
  const IntVarInfo& IntVar(IVarId v) const { return int_vars_[static_cast<size_t>(v)]; }
  const ExprNode& node(ExprId e) const { return nodes_[static_cast<size_t>(e)]; }
  // A node's operands. The spans point into pools that later node
  // construction may reallocate: read them before building more nodes.
  std::span<const ExprId> children(ExprId e) const {
    const ExprNode& n = node(e);
    return {children_.data() + n.begin, n.size};
  }
  std::span<const LinearTerm> terms(ExprId e) const {
    const ExprNode& n = node(e);
    return {terms_.data() + n.begin, n.size};
  }
  const std::vector<ExprId>& hard() const { return hard_; }
  const std::string& HardLabel(size_t i) const { return labels_[hard_label_ids_[i]]; }
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
  ExprId AddNode(const ExprNode& node);
  ExprId Junction(ExprKind kind, std::span<const ExprId> operands);
  ExprId LinearAtom(ExprKind kind, std::span<const LinearTerm> terms, int64_t constant);
  uint32_t InternLabel(const std::string& label);

  std::vector<ExprNode> nodes_;
  std::vector<ExprId> children_;  // Children pool.
  std::vector<LinearTerm> terms_;  // Linear-term pool.
  std::vector<std::string> bool_names_;
  std::vector<IntVarInfo> int_vars_;
  std::vector<ExprId> hard_;
  std::vector<uint32_t> hard_label_ids_;  // Parallel to hard_; index into labels_.
  std::vector<std::string> labels_;      // Interned hard labels; labels_[0] is "".
  std::unordered_map<std::string, uint32_t> label_ids_;
  uint32_t hard_context_ = 0;
  std::vector<SoftConstraint> soft_;
  ExprId true_ = -1;
  ExprId false_ = -1;
  // Var(v) and Not(e) are memoized so the node list does not fill with
  // duplicates: var_exprs_ by BVarId, not_exprs_ by operand ExprId (-1 when
  // not built yet).
  std::vector<ExprId> var_exprs_;
  std::vector<ExprId> not_exprs_;
};

// The soft weights the internal engine solves: soft i weighs
// `weight_i * scale + lines_i`, with scale = 1 + (sum of all lines). The
// lines of any soft set sum below `scale`, so an optimum under these weights
// is lexicographic: fewest construct changes by `weight` first (the paper's
// objective), then fewest configuration lines among equally cheap repairs.
// An optimum `w` costs `w / scale` in plain weights. Without line counts
// scale is 1 and the weights are the plain ones. The internal backend and
// the certificate checker both derive the weights here.
struct TieBreakWeights {
  int64_t scale = 1;
  std::vector<int64_t> weights;  // Parallel to ConstraintSystem::soft().
};
TieBreakWeights LineTieBreakWeights(const ConstraintSystem& system);

}  // namespace cpr

#endif  // CPR_SRC_SOLVER_CONSTRAINT_SYSTEM_H_
