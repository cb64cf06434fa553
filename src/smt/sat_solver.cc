#include "smt/sat_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cpr {

namespace {

constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleThreshold = 1e100;
constexpr int kRestartBase = 100;

// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
int64_t Luby(int64_t i) {
  int64_t k = 1;
  while ((int64_t{1} << k) - 1 < i + 1) {
    ++k;
  }
  while ((int64_t{1} << (k - 1)) - 1 != i) {
    i -= (int64_t{1} << (k - 1)) - 1;
    k = 1;
    while ((int64_t{1} << k) - 1 < i + 1) {
      ++k;
    }
  }
  return int64_t{1} << (k - 1);
}

}  // namespace

SatSolver::SatSolver() = default;

BoolVar SatSolver::NewVar() {
  BoolVar var = static_cast<BoolVar>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  saved_phase_.push_back(false);
  reason_.push_back(kNoReason);
  level_.push_back(0);
  activity_.push_back(0.0);
  seen_.push_back(0);
  model_.push_back(LBool::kUndef);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_index_.push_back(-1);
  HeapInsert(var);
  return var;
}

bool SatSolver::AddClause(Clause clause) {
  assert(DecisionLevel() == 0);
  // Log the clause exactly as the caller stated it, before simplification:
  // the proof's input inventory must be what was asserted, not what survived
  // root-level rewriting. Logged even when already unsat so a replayed
  // encoding produces an identical input stream.
  if (log_ != nullptr) {
    log_->Input(clause);
  }
  if (unsat_) {
    return false;
  }
  // Level-0 simplification: drop false/duplicate literals, detect satisfied
  // clauses and tautologies.
  std::sort(clause.begin(), clause.end());
  Clause simplified;
  Lit prev = kUndefLit;
  for (Lit lit : clause) {
    if (Value(lit) == LBool::kTrue || lit == ~prev) {
      return true;  // Satisfied or tautological.
    }
    if (Value(lit) == LBool::kFalse || lit == prev) {
      continue;
    }
    simplified.push_back(lit);
    prev = lit;
  }
  if (simplified.empty()) {
    unsat_ = true;
    if (log_ != nullptr) {
      log_->EmptyLemma();
    }
    return false;
  }
  if (simplified.size() == 1) {
    Enqueue(simplified[0], kNoReason);
    if (Propagate() != kNoReason) {
      unsat_ = true;
      if (log_ != nullptr) {
        log_->EmptyLemma();
      }
      return false;
    }
    return true;
  }
  ClauseRef ref = static_cast<ClauseRef>(clauses_.size());
  clauses_.push_back(ClauseData{std::move(simplified), false, 0.0, false});
  AttachClause(ref);
  return true;
}

void SatSolver::AttachClause(ClauseRef ref) {
  const ClauseData& data = clauses_[static_cast<size_t>(ref)];
  watches_[static_cast<size_t>(data.lits[0].code())].push_back(ref);
  watches_[static_cast<size_t>(data.lits[1].code())].push_back(ref);
}

void SatSolver::Enqueue(Lit lit, ClauseRef reason) {
  assert(Value(lit) == LBool::kUndef);
  size_t v = static_cast<size_t>(lit.var());
  assigns_[v] = lit.negated() ? LBool::kFalse : LBool::kTrue;
  saved_phase_[v] = !lit.negated();
  reason_[v] = reason;
  level_[v] = DecisionLevel();
  trail_.push_back(lit);
}

SatSolver::ClauseRef SatSolver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    // Clauses watching ~p may have become unit or false.
    std::vector<ClauseRef>& watch_list = watches_[static_cast<size_t>((~p).code())];
    size_t keep = 0;
    for (size_t i = 0; i < watch_list.size(); ++i) {
      ClauseRef ref = watch_list[i];
      ClauseData& data = clauses_[static_cast<size_t>(ref)];
      if (data.deleted) {
        continue;  // Dropped by ReduceLearnts; unhook lazily.
      }
      Clause& lits = data.lits;
      // Normalize: the falsified watch sits at lits[1].
      if (lits[0] == ~p) {
        std::swap(lits[0], lits[1]);
      }
      if (Value(lits[0]) == LBool::kTrue) {
        watch_list[keep++] = ref;
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (size_t j = 2; j < lits.size(); ++j) {
        if (Value(lits[j]) != LBool::kFalse) {
          std::swap(lits[1], lits[j]);
          watches_[static_cast<size_t>(lits[1].code())].push_back(ref);
          moved = true;
          break;
        }
      }
      if (moved) {
        continue;
      }
      watch_list[keep++] = ref;
      if (Value(lits[0]) == LBool::kFalse) {
        // Conflict: restore remaining watches and report.
        for (size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return ref;
      }
      Enqueue(lits[0], ref);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void SatSolver::BumpVar(BoolVar var) {
  size_t v = static_cast<size_t>(var);
  activity_[v] += var_inc_;
  if (activity_[v] > kRescaleThreshold) {
    for (double& a : activity_) {
      a *= 1.0 / kRescaleThreshold;
    }
    var_inc_ *= 1.0 / kRescaleThreshold;
    // Underflow can turn distinct activities into ties, which the index
    // tie-break orders differently, so rebuild rather than trust the old
    // order (O(n); rescales are rare).
    for (size_t i = heap_.size() / 2; i-- > 0;) {
      HeapSiftDown(i);
    }
    ++stats_.activity_rescales;
  } else if (heap_index_[v] >= 0) {
    HeapSiftUp(static_cast<size_t>(heap_index_[v]));
  }
}

// Heap order: higher activity first, ties to the lower variable index, so
// decisions depend only on the instance.
bool SatSolver::HeapBefore(BoolVar a, BoolVar b) const {
  double activity_a = activity_[static_cast<size_t>(a)];
  double activity_b = activity_[static_cast<size_t>(b)];
  return activity_a > activity_b || (activity_a == activity_b && a < b);
}

void SatSolver::HeapInsert(BoolVar var) {
  size_t v = static_cast<size_t>(var);
  if (heap_index_[v] >= 0) {
    return;
  }
  heap_index_[v] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  HeapSiftUp(heap_.size() - 1);
}

void SatSolver::HeapSiftUp(size_t pos) {
  BoolVar var = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!HeapBefore(var, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    heap_index_[static_cast<size_t>(heap_[pos])] = static_cast<int>(pos);
    pos = parent;
  }
  heap_[pos] = var;
  heap_index_[static_cast<size_t>(var)] = static_cast<int>(pos);
}

void SatSolver::HeapSiftDown(size_t pos) {
  BoolVar var = heap_[pos];
  while (2 * pos + 1 < heap_.size()) {
    size_t child = 2 * pos + 1;
    if (child + 1 < heap_.size() && HeapBefore(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!HeapBefore(heap_[child], var)) {
      break;
    }
    heap_[pos] = heap_[child];
    heap_index_[static_cast<size_t>(heap_[pos])] = static_cast<int>(pos);
    pos = child;
  }
  heap_[pos] = var;
  heap_index_[static_cast<size_t>(var)] = static_cast<int>(pos);
}

BoolVar SatSolver::HeapPop() {
  BoolVar top = heap_.front();
  heap_index_[static_cast<size_t>(top)] = -1;
  BoolVar last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    HeapSiftDown(0);
  }
  return top;
}

void SatSolver::BumpClause(ClauseRef ref) {
  ClauseData& data = clauses_[static_cast<size_t>(ref)];
  if (!data.learnt) {
    return;
  }
  data.activity += clause_inc_;
  if (data.activity > kRescaleThreshold) {
    for (ClauseData& c : clauses_) {
      if (c.learnt) {
        c.activity *= 1.0 / kRescaleThreshold;
      }
    }
    clause_inc_ *= 1.0 / kRescaleThreshold;
  }
}

void SatSolver::DecayActivities() {
  var_inc_ /= kVarDecay;
  clause_inc_ /= kClauseDecay;
}

void SatSolver::Analyze(ClauseRef conflict, Clause* learnt, int* backtrack_level) {
  learnt->clear();
  learnt->push_back(kUndefLit);  // Placeholder for the asserting literal.
  int counter = 0;
  Lit p = kUndefLit;
  size_t index = trail_.size();

  ClauseRef reason = conflict;
  do {
    BumpClause(reason);
    const Clause& lits = clauses_[static_cast<size_t>(reason)].lits;
    for (size_t j = (p == kUndefLit ? 0 : 1); j < lits.size(); ++j) {
      Lit q = lits[j];
      size_t v = static_cast<size_t>(q.var());
      if (seen_[v] == 0 && level_[v] > 0) {
        seen_[v] = 1;
        BumpVar(q.var());
        if (level_[v] >= DecisionLevel()) {
          ++counter;
        } else {
          learnt->push_back(q);
        }
      }
    }
    // Select the next implied literal to resolve on.
    while (seen_[static_cast<size_t>(trail_[index - 1].var())] == 0) {
      --index;
    }
    --index;
    p = trail_[index];
    seen_[static_cast<size_t>(p.var())] = 0;
    reason = reason_[static_cast<size_t>(p.var())];
    --counter;
  } while (counter > 0);
  (*learnt)[0] = ~p;

  // Cheap self-subsumption minimization: drop a literal whose entire reason
  // clause is already in the learnt clause.
  Clause to_clear = *learnt;  // seen_ flags must be reset for dropped lits too.
  size_t keep = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    Lit lit = (*learnt)[i];
    ClauseRef r = reason_[static_cast<size_t>(lit.var())];
    bool redundant = false;
    if (r != kNoReason) {
      redundant = true;
      const Clause& lits = clauses_[static_cast<size_t>(r)].lits;
      for (size_t j = 1; j < lits.size(); ++j) {
        size_t v = static_cast<size_t>(lits[j].var());
        if (seen_[v] == 0 && level_[v] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) {
      (*learnt)[keep++] = lit;
    }
  }
  learnt->resize(keep);

  // Compute the backtrack level and move its literal to position 1.
  *backtrack_level = 0;
  if (learnt->size() > 1) {
    size_t max_index = 1;
    for (size_t i = 2; i < learnt->size(); ++i) {
      if (level_[static_cast<size_t>((*learnt)[i].var())] >
          level_[static_cast<size_t>((*learnt)[max_index].var())]) {
        max_index = i;
      }
    }
    std::swap((*learnt)[1], (*learnt)[max_index]);
    *backtrack_level = level_[static_cast<size_t>((*learnt)[1].var())];
  }

  for (Lit lit : to_clear) {
    if (lit != kUndefLit) {
      seen_[static_cast<size_t>(lit.var())] = 0;
    }
  }
}

void SatSolver::AnalyzeFinal(Lit failed, const std::vector<Lit>& assumptions) {
  core_.clear();
  core_.push_back(failed);
  if (DecisionLevel() > 0) {
    std::vector<uint8_t>& seen = seen_;
    seen[static_cast<size_t>(failed.var())] = 1;
    for (size_t i = trail_.size(); i-- > static_cast<size_t>(trail_limits_[0]);) {
      size_t v = static_cast<size_t>(trail_[i].var());
      if (seen[v] == 0) {
        continue;
      }
      if (reason_[v] == kNoReason) {
        // A decision inside the assumption prefix is an assumption.
        Lit decision = trail_[i];
        if (std::find(assumptions.begin(), assumptions.end(), decision) !=
            assumptions.end()) {
          core_.push_back(decision);
        }
      } else {
        const Clause& lits = clauses_[static_cast<size_t>(reason_[v])].lits;
        for (size_t j = 1; j < lits.size(); ++j) {
          if (level_[static_cast<size_t>(lits[j].var())] > 0) {
            seen[static_cast<size_t>(lits[j].var())] = 1;
          }
        }
      }
      seen[v] = 0;
    }
    seen[static_cast<size_t>(failed.var())] = 0;
  }
  // The core clause (~a for each core assumption a) is implied by the
  // database: the reason chains walked above are exactly the unit
  // propagations that make it RUP-checkable, so log it as a lemma.
  if (log_ != nullptr) {
    Clause core_clause;
    core_clause.reserve(core_.size());
    for (Lit lit : core_) {
      core_clause.push_back(~lit);
    }
    log_->Lemma(core_clause);
  }
}

void SatSolver::Backtrack(int target_level) {
  if (DecisionLevel() <= target_level) {
    return;
  }
  size_t new_size = static_cast<size_t>(trail_limits_[static_cast<size_t>(target_level)]);
  for (size_t i = trail_.size(); i-- > new_size;) {
    size_t v = static_cast<size_t>(trail_[i].var());
    assigns_[v] = LBool::kUndef;
    reason_[v] = kNoReason;
    HeapInsert(trail_[i].var());
  }
  trail_.resize(new_size);
  trail_limits_.resize(static_cast<size_t>(target_level));
  propagate_head_ = trail_.size();
}

Lit SatSolver::PickBranchLit() {
  while (!heap_.empty()) {
    BoolVar var = HeapPop();
    size_t v = static_cast<size_t>(var);
    if (assigns_[v] != LBool::kUndef) {
      continue;  // Assigned; Backtrack re-inserts it on unassignment.
    }
    ++stats_.heap_picks;
    return Lit(var, !saved_phase_[v]);
  }
  // Every unassigned variable is in the heap (NewVar inserts it, Backtrack
  // restores it), so this scan only runs when the instance is fully
  // assigned — or if that invariant is ever broken, which fallback_picks
  // makes visible.
  for (BoolVar var = 0; var < VarCount(); ++var) {
    if (assigns_[static_cast<size_t>(var)] == LBool::kUndef) {
      ++stats_.fallback_picks;
      return Lit(var, !saved_phase_[static_cast<size_t>(var)]);
    }
  }
  return kUndefLit;
}

void SatSolver::ReduceLearnts() {
  std::vector<ClauseRef> learnts;
  for (ClauseRef ref = 0; ref < static_cast<ClauseRef>(clauses_.size()); ++ref) {
    const ClauseData& data = clauses_[static_cast<size_t>(ref)];
    if (data.learnt && !data.deleted && data.lits.size() > 2) {
      learnts.push_back(ref);
    }
  }
  std::sort(learnts.begin(), learnts.end(), [this](ClauseRef a, ClauseRef b) {
    return clauses_[static_cast<size_t>(a)].activity <
           clauses_[static_cast<size_t>(b)].activity;
  });
  size_t to_delete = learnts.size() / 2;
  for (size_t i = 0; i < to_delete; ++i) {
    ClauseData& data = clauses_[static_cast<size_t>(learnts[i])];
    // Never delete a clause that is currently a reason (locked).
    Lit first = data.lits[0];
    if (Value(first) == LBool::kTrue &&
        reason_[static_cast<size_t>(first.var())] == learnts[i]) {
      continue;
    }
    // Log with the literals as they are NOW (watch normalization reorders
    // them); the checker matches deletions by sorted content.
    if (log_ != nullptr) {
      log_->Delete(data.lits);
    }
    data.deleted = true;
    data.lits.clear();
    data.lits.shrink_to_fit();
    ++stats_.learnt_deleted;
  }
}

SatResult SatSolver::Solve(const std::vector<Lit>& assumptions) {
  core_.clear();
  if (unsat_) {
    return SatResult::kUnsat;
  }
  Backtrack(0);
  if (Propagate() != kNoReason) {
    unsat_ = true;
    if (log_ != nullptr) {
      log_->EmptyLemma();
    }
    return SatResult::kUnsat;
  }

  int64_t conflicts_until_restart = kRestartBase * Luby(stats_.restarts);
  int64_t conflicts_this_restart = 0;
  int64_t max_learnts = std::max<int64_t>(4000, static_cast<int64_t>(clauses_.size()) / 2);
  int64_t live_learnts = 0;

  while (true) {
    // Cooperative deadline check. Every outer iteration is one
    // propagate-plus-decision (or conflict) step, so checking the clock a
    // few times per hundred iterations bounds overrun to milliseconds
    // without measurable overhead on the hot path.
    if (!deadline_.unbounded() && (++deadline_check_counter_ & 127) == 0 &&
        deadline_.Expired()) {
      Backtrack(0);
      return SatResult::kUnknown;
    }
    ClauseRef conflict = Propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (DecisionLevel() == 0) {
        unsat_ = true;
        if (log_ != nullptr) {
          log_->EmptyLemma();
        }
        return SatResult::kUnsat;
      }
      // A conflict whose analysis would land inside the assumption prefix:
      // handled naturally because the learnt clause's asserting literal is
      // re-propagated after backtracking; if it contradicts an assumption,
      // the assumption re-push below detects it.
      Clause learnt;
      int backtrack_level = 0;
      Analyze(conflict, &learnt, &backtrack_level);
      // First-UIP learnt clauses (including after the self-subsumption
      // minimization, which is itself a chain of trivial resolutions) are
      // RUP against the live database.
      if (log_ != nullptr) {
        log_->Lemma(learnt);
      }
      stats_.learnt_literals += static_cast<int64_t>(learnt.size());
      Backtrack(backtrack_level);
      if (learnt.size() == 1) {
        if (Value(learnt[0]) == LBool::kFalse) {
          unsat_ = true;
          if (log_ != nullptr) {
            log_->EmptyLemma();
          }
          return SatResult::kUnsat;
        }
        if (Value(learnt[0]) == LBool::kUndef) {
          Enqueue(learnt[0], kNoReason);
        }
      } else {
        ClauseRef ref = static_cast<ClauseRef>(clauses_.size());
        clauses_.push_back(ClauseData{std::move(learnt), true, clause_inc_, false});
        AttachClause(ref);
        ++live_learnts;
        Enqueue(clauses_.back().lits[0], ref);
      }
      DecayActivities();
      continue;
    }

    if (conflicts_this_restart >= conflicts_until_restart) {
      ++stats_.restarts;
      conflicts_this_restart = 0;
      conflicts_until_restart = kRestartBase * Luby(stats_.restarts);
      Backtrack(0);
      continue;
    }
    if (live_learnts - stats_.learnt_deleted > max_learnts) {
      ReduceLearnts();
      max_learnts += max_learnts / 10;
    }

    // Extend the trail: assumptions first, then heuristic decisions.
    Lit next = kUndefLit;
    while (DecisionLevel() < static_cast<int>(assumptions.size())) {
      Lit a = assumptions[static_cast<size_t>(DecisionLevel())];
      if (Value(a) == LBool::kTrue) {
        trail_limits_.push_back(static_cast<int>(trail_.size()));  // Dummy level.
      } else if (Value(a) == LBool::kFalse) {
        AnalyzeFinal(a, assumptions);
        Backtrack(0);
        return SatResult::kUnsat;
      } else {
        next = a;
        break;
      }
    }
    if (next == kUndefLit) {
      next = PickBranchLit();
      if (next == kUndefLit) {
        // Full model found.
        model_ = assigns_;
        Backtrack(0);
        return SatResult::kSat;
      }
      ++stats_.decisions;
    }
    trail_limits_.push_back(static_cast<int>(trail_.size()));
    Enqueue(next, kNoReason);
  }
}

bool SatSolver::ModelValue(Lit lit) const {
  LBool v = model_[static_cast<size_t>(lit.var())];
  if (lit.negated()) {
    v = Negate(v);
  }
  return v == LBool::kTrue;
}

}  // namespace cpr
