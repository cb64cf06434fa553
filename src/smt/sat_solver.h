// CDCL SAT solver (the substrate under the internal MaxSAT backend).
//
// A conventional conflict-driven clause-learning solver in the MiniSat
// lineage: two-watched-literal propagation, first-UIP conflict analysis
// with clause minimization, VSIDS-style activity-ordered decisions with
// phase saving, Luby restarts, activity-based learnt clause reduction, and
// solving under assumptions with extraction of a failed-assumption core —
// the primitive the core-guided MaxSAT engine (smt/maxsat.h) is built on.
//
// Decisions take the unassigned variable of highest activity, ties to the
// lower index. Only variables a conflict has bumped sit in the activity
// heap; the others all have activity 0 and are taken in index order from a
// bitset (see the private section), so a solve without conflicts costs no
// heap operation.
//
// Clauses live in one flat arena (a word buffer; see the private section),
// so neither adding nor learning a clause allocates a heap block of its
// own.
//
// The paper solves its repair formulation with Z3; this solver exists so
// the repository also ships a fully self-contained backend (see
// solver/internal_backend.h) and an ablation comparing the two.

#ifndef CPR_SRC_SMT_SAT_SOLVER_H_
#define CPR_SRC_SMT_SAT_SOLVER_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "netbase/deadline.h"
#include "smt/literal.h"
#include "smt/proof_log.h"

namespace cpr {

// kUnknown: the search was abandoned because the deadline expired; the
// instance may be either satisfiable or unsatisfiable.
enum class SatResult { kSat, kUnsat, kUnknown };

struct SatStats {
  int64_t conflicts = 0;
  int64_t decisions = 0;
  int64_t propagations = 0;
  int64_t restarts = 0;
  int64_t learnt_deleted = 0;
  int64_t learnt_reductions = 0; // ReduceLearnts calls.
  int64_t learnt_literals = 0;   // Total literals across learnt clauses.
  int64_t activity_rescales = 0; // VSIDS activity rescale events.
  int64_t heap_picks = 0;        // Decisions served by the decision order
                                 // (either tier).
  int64_t fallback_picks = 0;    // Decisions that fell back to a linear
                                 // scan — nonzero indicates a stale order.
  int64_t index_picks = 0;       // The index tier's share of heap_picks.
};

class SatSolver {
 public:
  SatSolver();

  BoolVar NewVar();
  int VarCount() const { return static_cast<int>(assigns_.size()); }

  // Adds a clause. Empty clauses and clauses falsified at level 0 make the
  // instance trivially unsat. Returns false if the solver is already known
  // unsat.
  bool AddClause(std::span<const Lit> clause);
  bool AddClause(std::initializer_list<Lit> clause) {
    return AddClause(std::span<const Lit>(clause.begin(), clause.size()));
  }
  bool AddUnit(Lit lit) { return AddClause({lit}); }
  bool AddBinary(Lit a, Lit b) { return AddClause({a, b}); }

  // Solves under the given assumptions. After kUnsat with assumptions,
  // UnsatCore() is the subset of assumptions proved contradictory; after
  // kSat, ModelValue() reads the model.
  SatResult Solve(const std::vector<Lit>& assumptions = {});

  // Cooperative cancellation: once the deadline expires, Solve returns
  // kUnknown (checked periodically in the CDCL loop). The solver stays
  // usable — learnt clauses are kept and a later Solve may continue.
  void SetDeadline(Deadline deadline) { deadline_ = deadline; }

  bool ModelValue(Lit lit) const;
  bool ModelValue(BoolVar var) const { return ModelValue(Lit(var, false)); }
  const std::vector<Lit>& UnsatCore() const { return core_; }

  const SatStats& stats() const { return stats_; }

  // Live learnt clauses (deleted ones excluded), carried across Solve
  // calls. ReduceLearnts keeps it at or under the reduction cap: the cap
  // starts at max(kMinLearntCap, problem clauses / 2) and grows by a tenth
  // after every reduction.
  size_t LearntCount() const { return learnts_.size(); }
  static constexpr int64_t kMinLearntCap = 4000;

  // Test hook: seeds the VSIDS bump increment so an activity rescale can be
  // forced after a handful of conflicts instead of ~4500 (the natural decay
  // rate). Used by the order-heap rescale regression test.
  void SetVarActivityIncrementForTest(double increment) { var_inc_ = increment; }

  // Test hook: called with every decision the order serves, before it is
  // assigned, and the activities and assignment it was chosen from.
  using DecisionObserver = std::function<void(
      BoolVar decision, std::span<const double> activity, std::span<const LBool> assigns)>;
  void SetDecisionObserverForTest(DecisionObserver observer) {
    decision_observer_ = std::move(observer);
  }

  // Attaches a proof log (smt/proof_log.h). While set, every AddClause input,
  // learnt clause, assumption-core clause, learnt deletion, and root-UNSAT
  // conclusion is appended, making the solver's kUnsat answers checkable by
  // reverse unit propagation without trusting the search. The log must
  // outlive the solver or be detached with SetProofLog(nullptr). Attach it
  // before the first AddClause: the checker needs the complete input
  // inventory.
  void SetProofLog(ProofLog* log) { log_ = log; }

 private:
  // Clause arena. A clause is a header word followed by its literal codes
  // (Lit::code(), at least two; units are assignments, not clauses); a
  // learnt clause carries its activity, a double, in two more words after
  // the literals. The header packs the size above the learnt and deleted
  // flag bits. A ClauseRef is the header's offset in arena_. Deleted
  // clauses stay in place, skipped and unhooked lazily, until their words
  // pass a fifth of the arena; CompactArena then moves the live clauses
  // down and rewrites watches, reasons and learnts_.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kNoReason = ~ClauseRef{0};
  static constexpr uint32_t kLearntBit = 1;
  static constexpr uint32_t kDeletedBit = 2;
  static constexpr int kSizeShift = 2;
  static constexpr uint32_t kActivityWords = 2;

  uint32_t ClauseSize(ClauseRef ref) const { return arena_[ref] >> kSizeShift; }
  bool IsLearnt(ClauseRef ref) const { return (arena_[ref] & kLearntBit) != 0; }
  bool IsDeleted(ClauseRef ref) const { return (arena_[ref] & kDeletedBit) != 0; }
  Lit ClauseLit(ClauseRef ref, uint32_t i) const {
    return Lit::FromCode(static_cast<int32_t>(arena_[ref + 1 + i]));
  }
  double Activity(ClauseRef ref) const;
  void SetActivity(ClauseRef ref, double activity);
  // Appends a clause of two or more literals and watches its first two.
  ClauseRef AllocClause(std::span<const Lit> lits, bool learnt);
  // Copies a clause's literals into clause_buffer_ (for the proof log).
  std::span<const Lit> ClauseLits(ClauseRef ref);

  LBool Value(Lit lit) const {
    LBool v = assigns_[static_cast<size_t>(lit.var())];
    return lit.negated() ? Negate(v) : v;
  }

  void Enqueue(Lit lit, ClauseRef reason);
  ClauseRef Propagate();
  // Derives the first-UIP clause into learnt_.
  void Analyze(ClauseRef conflict, int* backtrack_level);
  void AnalyzeFinal(Lit failed, const std::vector<Lit>& assumptions);
  void Backtrack(int level);
  Lit PickBranchLit();
  void BumpVar(BoolVar var);
  // The lowest-index unassigned never-bumped variable, or -1.
  BoolVar NextIndexVar();
  void SetIndexBit(BoolVar var);
  void ClearIndexBit(BoolVar var);
  void BumpClause(ClauseRef ref);
  void DecayActivities();
  void ReduceLearnts();
  void CompactArena();
  bool HeapBefore(BoolVar a, BoolVar b) const;
  void HeapInsert(BoolVar var);
  void HeapSiftUp(size_t pos);
  void HeapSiftDown(size_t pos);
  BoolVar HeapPop();
  int DecisionLevel() const { return static_cast<int>(trail_limits_.size()); }

  // Clause storage and watches.
  std::vector<uint32_t> arena_;
  std::vector<ClauseRef> learnts_;  // Live learnt clauses.
  size_t garbage_words_ = 0;        // Words of deleted clauses in arena_.
  int64_t problem_clauses_ = 0;     // Non-learnt clauses ever stored.
  int64_t max_learnts_ = 0;         // Reduction cap; see LearntCount().
  std::vector<std::vector<ClauseRef>> watches_;  // Indexed by literal code.

  // Assignment state.
  std::vector<LBool> assigns_;
  std::vector<LBool> model_;  // Snapshot of assigns_ at the last kSat.
  std::vector<bool> saved_phase_;
  std::vector<ClauseRef> reason_;
  std::vector<int> level_;
  std::vector<Lit> trail_;
  std::vector<int> trail_limits_;
  size_t propagate_head_ = 0;

  // Decision heuristics, in two tiers that together hold every unassigned
  // variable.
  // - Heap tier: the variables some conflict has bumped, in an indexed
  //   binary max-heap (MiniSat's): heap_index_[v] is v's position in heap_,
  //   -1 when v is absent, or kNeverBumped while v is in the index tier, so
  //   each variable appears at most once and a bump sifts it up in place.
  //   PickBranchLit pops it, Backtrack re-inserts it, an assigned one is
  //   dropped when it reaches the top.
  // - Index tier: the never-bumped variables, whose activity is 0. Bit v of
  //   index_free_ is set for every unassigned one (NewVar and Backtrack set
  //   it; an assigned one is cleared lazily when a scan reaches it), and no
  //   set bit lies in a word below index_cursor_, so a scan starts where the
  //   last one stopped unless a backtrack freed a lower variable.
  // PickBranchLit takes whichever tier's first variable comes first under
  // the order: a bumped variable's activity can underflow to 0 after a
  // rescale, and then the lower index wins.
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<BoolVar> heap_;
  std::vector<int> heap_index_;
  static constexpr int kNeverBumped = -2;
  std::vector<uint64_t> index_free_;
  size_t index_cursor_ = 0;
  DecisionObserver decision_observer_;

  // Scratch buffers, reused across calls: AddClause's simplified copy,
  // Analyze's learnt clause and the literals whose seen_ flags it must
  // clear, and clause copies for the proof log.
  std::vector<uint8_t> seen_;
  std::vector<Lit> add_buffer_;
  std::vector<Lit> learnt_;
  std::vector<Lit> to_clear_;
  std::vector<Lit> clause_buffer_;

  bool unsat_ = false;
  ProofLog* log_ = nullptr;
  std::vector<Lit> core_;
  SatStats stats_;
  Deadline deadline_;
  int64_t deadline_check_counter_ = 0;
};

}  // namespace cpr

#endif  // CPR_SRC_SMT_SAT_SOLVER_H_
