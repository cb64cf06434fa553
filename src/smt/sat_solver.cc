#include "smt/sat_solver.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

namespace cpr {

namespace {

constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleThreshold = 1e100;
constexpr int kRestartBase = 100;
// The arena is compacted once deleted clauses hold this share of its words.
constexpr double kGarbageShare = 0.2;
constexpr size_t kWordBits = 64;

Lit WordLit(uint32_t word) { return Lit::FromCode(static_cast<int32_t>(word)); }
uint32_t LitWord(Lit lit) { return static_cast<uint32_t>(lit.code()); }

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
  heap_index_.push_back(kNeverBumped);
  if (index_free_.size() * kWordBits < assigns_.size()) {
    index_free_.push_back(0);
  }
  SetIndexBit(var);
  return var;
}

bool SatSolver::AddClause(std::span<const Lit> clause) {
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
  std::vector<Lit>& simplified = add_buffer_;
  simplified.assign(clause.begin(), clause.end());
  std::sort(simplified.begin(), simplified.end());
  size_t keep = 0;
  Lit prev = kUndefLit;
  for (size_t i = 0; i < simplified.size(); ++i) {
    Lit lit = simplified[i];
    if (Value(lit) == LBool::kTrue || lit == ~prev) {
      return true;  // Satisfied or tautological.
    }
    if (Value(lit) == LBool::kFalse || lit == prev) {
      continue;
    }
    simplified[keep++] = lit;
    prev = lit;
  }
  simplified.resize(keep);
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
  AllocClause(simplified, /*learnt=*/false);
  return true;
}

SatSolver::ClauseRef SatSolver::AllocClause(std::span<const Lit> lits, bool learnt) {
  assert(lits.size() >= 2);
  ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  arena_.push_back(static_cast<uint32_t>(lits.size()) << kSizeShift |
                   (learnt ? kLearntBit : 0));
  for (Lit lit : lits) {
    arena_.push_back(LitWord(lit));
  }
  if (learnt) {
    arena_.resize(arena_.size() + kActivityWords);
    SetActivity(ref, clause_inc_);
    learnts_.push_back(ref);
  } else {
    ++problem_clauses_;
  }
  assert(arena_.size() < kNoReason);
  watches_[LitWord(lits[0])].push_back(ref);
  watches_[LitWord(lits[1])].push_back(ref);
  return ref;
}

static_assert(sizeof(double) == 2 * sizeof(uint32_t));

double SatSolver::Activity(ClauseRef ref) const {
  double activity = 0.0;
  std::memcpy(&activity, &arena_[ref + 1 + ClauseSize(ref)], sizeof activity);
  return activity;
}

void SatSolver::SetActivity(ClauseRef ref, double activity) {
  std::memcpy(&arena_[ref + 1 + ClauseSize(ref)], &activity, sizeof activity);
}

std::span<const Lit> SatSolver::ClauseLits(ClauseRef ref) {
  clause_buffer_.clear();
  for (uint32_t i = 0; i < ClauseSize(ref); ++i) {
    clause_buffer_.push_back(ClauseLit(ref, i));
  }
  return clause_buffer_;
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
    const uint32_t false_word = LitWord(~p);
    std::vector<ClauseRef>& watch_list = watches_[false_word];
    size_t keep = 0;
    for (size_t i = 0; i < watch_list.size(); ++i) {
      ClauseRef ref = watch_list[i];
      const uint32_t header = arena_[ref];
      if ((header & kDeletedBit) != 0) {
        continue;  // Dropped by ReduceLearnts; unhook lazily.
      }
      uint32_t* lits = arena_.data() + ref + 1;
      const uint32_t size = header >> kSizeShift;
      // Normalize: the falsified watch sits at lits[1].
      if (lits[0] == false_word) {
        std::swap(lits[0], lits[1]);
      }
      const Lit first = WordLit(lits[0]);
      if (Value(first) == LBool::kTrue) {
        watch_list[keep++] = ref;
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (uint32_t j = 2; j < size; ++j) {
        if (Value(WordLit(lits[j])) != LBool::kFalse) {
          std::swap(lits[1], lits[j]);
          watches_[lits[1]].push_back(ref);
          moved = true;
          break;
        }
      }
      if (moved) {
        continue;
      }
      watch_list[keep++] = ref;
      if (Value(first) == LBool::kFalse) {
        // Conflict: restore remaining watches and report.
        for (size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return ref;
      }
      Enqueue(first, ref);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void SatSolver::BumpVar(BoolVar var) {
  size_t v = static_cast<size_t>(var);
  if (heap_index_[v] == kNeverBumped) {
    // The variable moves from the index tier to the heap. Analyze bumps only
    // assigned variables, so Backtrack inserts it once it is unassigned.
    assert(assigns_[v] != LBool::kUndef);
    heap_index_[v] = -1;
    ClearIndexBit(var);
  }
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

void SatSolver::SetIndexBit(BoolVar var) {
  const size_t word = static_cast<size_t>(var) / kWordBits;
  index_free_[word] |= uint64_t{1} << (static_cast<size_t>(var) % kWordBits);
  index_cursor_ = std::min(index_cursor_, word);
}

void SatSolver::ClearIndexBit(BoolVar var) {
  index_free_[static_cast<size_t>(var) / kWordBits] &=
      ~(uint64_t{1} << (static_cast<size_t>(var) % kWordBits));
}

BoolVar SatSolver::NextIndexVar() {
  for (; index_cursor_ < index_free_.size(); ++index_cursor_) {
    uint64_t& word = index_free_[index_cursor_];
    while (word != 0) {
      const BoolVar var =
          static_cast<BoolVar>(index_cursor_ * kWordBits + std::countr_zero(word));
      if (assigns_[static_cast<size_t>(var)] == LBool::kUndef) {
        return var;
      }
      word &= word - 1;  // Assigned: Backtrack sets the bit again.
    }
  }
  return -1;
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
  if (!IsLearnt(ref)) {
    return;
  }
  double activity = Activity(ref) + clause_inc_;
  SetActivity(ref, activity);
  if (activity > kRescaleThreshold) {
    for (ClauseRef learnt : learnts_) {
      SetActivity(learnt, Activity(learnt) * (1.0 / kRescaleThreshold));
    }
    clause_inc_ *= 1.0 / kRescaleThreshold;
  }
}

void SatSolver::DecayActivities() {
  var_inc_ /= kVarDecay;
  clause_inc_ /= kClauseDecay;
}

void SatSolver::Analyze(ClauseRef conflict, int* backtrack_level) {
  learnt_.clear();
  learnt_.push_back(kUndefLit);  // Placeholder for the asserting literal.
  int counter = 0;
  Lit p = kUndefLit;
  size_t index = trail_.size();

  ClauseRef reason = conflict;
  do {
    BumpClause(reason);
    const uint32_t size = ClauseSize(reason);
    for (uint32_t j = (p == kUndefLit ? 0 : 1); j < size; ++j) {
      Lit q = ClauseLit(reason, j);
      size_t v = static_cast<size_t>(q.var());
      if (seen_[v] == 0 && level_[v] > 0) {
        seen_[v] = 1;
        BumpVar(q.var());
        if (level_[v] >= DecisionLevel()) {
          ++counter;
        } else {
          learnt_.push_back(q);
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
  learnt_[0] = ~p;

  // Cheap self-subsumption minimization: drop a literal whose entire reason
  // clause is already in the learnt clause. The seen_ flags of dropped
  // literals must be reset too, so remember every literal first.
  to_clear_.assign(learnt_.begin(), learnt_.end());
  size_t keep = 1;
  for (size_t i = 1; i < learnt_.size(); ++i) {
    Lit lit = learnt_[i];
    ClauseRef r = reason_[static_cast<size_t>(lit.var())];
    bool redundant = false;
    if (r != kNoReason) {
      redundant = true;
      const uint32_t size = ClauseSize(r);
      for (uint32_t j = 1; j < size; ++j) {
        size_t v = static_cast<size_t>(ClauseLit(r, j).var());
        if (seen_[v] == 0 && level_[v] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) {
      learnt_[keep++] = lit;
    }
  }
  learnt_.resize(keep);

  // Compute the backtrack level and move its literal to position 1.
  *backtrack_level = 0;
  if (learnt_.size() > 1) {
    size_t max_index = 1;
    for (size_t i = 2; i < learnt_.size(); ++i) {
      if (level_[static_cast<size_t>(learnt_[i].var())] >
          level_[static_cast<size_t>(learnt_[max_index].var())]) {
        max_index = i;
      }
    }
    std::swap(learnt_[1], learnt_[max_index]);
    *backtrack_level = level_[static_cast<size_t>(learnt_[1].var())];
  }

  for (Lit lit : to_clear_) {
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
        const ClauseRef reason = reason_[v];
        const uint32_t size = ClauseSize(reason);
        for (uint32_t j = 1; j < size; ++j) {
          BoolVar var = ClauseLit(reason, j).var();
          if (level_[static_cast<size_t>(var)] > 0) {
            seen[static_cast<size_t>(var)] = 1;
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
    clause_buffer_.clear();
    for (Lit lit : core_) {
      clause_buffer_.push_back(~lit);
    }
    log_->Lemma(clause_buffer_);
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
    if (heap_index_[v] == kNeverBumped) {
      SetIndexBit(trail_[i].var());
    } else {
      HeapInsert(trail_[i].var());
    }
  }
  trail_.resize(new_size);
  trail_limits_.resize(static_cast<size_t>(target_level));
  propagate_head_ = trail_.size();
}

Lit SatSolver::PickBranchLit() {
  while (!heap_.empty() && assigns_[static_cast<size_t>(heap_.front())] != LBool::kUndef) {
    HeapPop();  // Assigned; Backtrack re-inserts it on unassignment.
  }
  // Every never-bumped variable has activity 0, so the index tier can come
  // first only when the heap top's activity is 0 too; the lower index then
  // decides.
  BoolVar var = -1;
  if (!heap_.empty() && activity_[static_cast<size_t>(heap_.front())] > 0.0) {
    var = HeapPop();
  } else {
    const BoolVar index_var = NextIndexVar();
    if (!heap_.empty() && (index_var < 0 || heap_.front() < index_var)) {
      var = HeapPop();
    } else if (index_var >= 0) {
      var = index_var;
      ClearIndexBit(var);
      ++stats_.index_picks;
    }
  }
  if (var >= 0) {
    ++stats_.heap_picks;
    return Lit(var, !saved_phase_[static_cast<size_t>(var)]);
  }
  // Every unassigned variable is in one of the tiers (NewVar and Backtrack
  // put it there), so this scan only runs when the instance is fully
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
  ++stats_.learnt_reductions;
  // Binary learnts are never deleted. Rank the others least active first,
  // ties to the older clause so the order depends only on the search, and
  // delete the first half of them.
  auto binary = std::partition(learnts_.begin(), learnts_.end(),
                               [this](ClauseRef ref) { return ClauseSize(ref) > 2; });
  std::sort(learnts_.begin(), binary, [this](ClauseRef a, ClauseRef b) {
    double activity_a = Activity(a);
    double activity_b = Activity(b);
    return activity_a < activity_b || (activity_a == activity_b && a < b);
  });
  const size_t to_delete = static_cast<size_t>(binary - learnts_.begin()) / 2;
  size_t keep = 0;
  for (size_t i = 0; i < learnts_.size(); ++i) {
    ClauseRef ref = learnts_[i];
    // Never delete a clause that is currently a reason (locked).
    Lit first = ClauseLit(ref, 0);
    bool locked = Value(first) == LBool::kTrue &&
                  reason_[static_cast<size_t>(first.var())] == ref;
    if (i >= to_delete || locked) {
      learnts_[keep++] = ref;
      continue;
    }
    // Log with the literals as they are NOW (watch normalization reorders
    // them); the checker matches deletions by sorted content.
    if (log_ != nullptr) {
      log_->Delete(ClauseLits(ref));
    }
    arena_[ref] |= kDeletedBit;
    garbage_words_ += 1 + ClauseSize(ref) + kActivityWords;
    ++stats_.learnt_deleted;
  }
  learnts_.resize(keep);
  if (static_cast<double>(garbage_words_) >
      kGarbageShare * static_cast<double>(arena_.size())) {
    CompactArena();
  }
}

void SatSolver::CompactArena() {
  std::vector<uint32_t> compacted;
  compacted.reserve(arena_.size() - garbage_words_);
  // Copy the live clauses down in arena order (so refs keep their relative
  // order) and leave each one's new ref in its old first-literal word.
  for (size_t ref = 0; ref < arena_.size();) {
    const uint32_t header = arena_[ref];
    const size_t words =
        1 + (header >> kSizeShift) + ((header & kLearntBit) != 0 ? kActivityWords : 0);
    if ((header & kDeletedBit) == 0) {
      const uint32_t moved_to = static_cast<uint32_t>(compacted.size());
      compacted.insert(compacted.end(), arena_.begin() + static_cast<ptrdiff_t>(ref),
                       arena_.begin() + static_cast<ptrdiff_t>(ref + words));
      arena_[ref + 1] = moved_to;
    }
    ref += words;
  }
  auto forward = [this](ClauseRef ref) { return arena_[ref + 1]; };
  for (std::vector<ClauseRef>& watch_list : watches_) {
    size_t keep = 0;
    for (ClauseRef ref : watch_list) {
      if (!IsDeleted(ref)) {
        watch_list[keep++] = forward(ref);
      }
    }
    watch_list.resize(keep);
  }
  // Reasons are locked, so none of them was deleted.
  for (ClauseRef& reason : reason_) {
    if (reason != kNoReason) {
      reason = forward(reason);
    }
  }
  for (ClauseRef& learnt : learnts_) {
    learnt = forward(learnt);
  }
  arena_ = std::move(compacted);
  garbage_words_ = 0;
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
  max_learnts_ = std::max({max_learnts_, kMinLearntCap, problem_clauses_ / 2});

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
      int backtrack_level = 0;
      Analyze(conflict, &backtrack_level);
      const std::vector<Lit>& learnt = learnt_;
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
        ClauseRef ref = AllocClause(learnt, /*learnt=*/true);
        Enqueue(learnt[0], ref);
        // The live count carries over from earlier Solve calls, so the cap
        // bounds the whole database, not this call's share of it.
        if (static_cast<int64_t>(learnts_.size()) > max_learnts_) {
          ReduceLearnts();
          max_learnts_ += max_learnts_ / 10;
        }
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
      if (decision_observer_) {
        decision_observer_(next.var(), activity_, assigns_);
      }
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
