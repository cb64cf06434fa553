// Tests for the homegrown CDCL SAT solver and core-guided MaxSAT engine,
// including exhaustive cross-checks against brute force on random instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "certify/rup.h"
#include "smt/cardinality.h"
#include "smt/maxsat.h"
#include "smt/proof_log.h"
#include "smt/sat_solver.h"

namespace cpr {
namespace {

// Evaluates a CNF under an assignment given as a bitmask over variables.
bool EvalCnf(const std::vector<Clause>& cnf, uint32_t assignment) {
  for (const Clause& clause : cnf) {
    bool satisfied = false;
    for (Lit lit : clause) {
      bool value = ((assignment >> lit.var()) & 1) != 0;
      if (value != lit.negated()) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      return false;
    }
  }
  return true;
}

bool BruteForceSat(const std::vector<Clause>& cnf, int vars) {
  for (uint32_t a = 0; a < (1u << vars); ++a) {
    if (EvalCnf(cnf, a)) {
      return true;
    }
  }
  return false;
}

TEST(SatSolverTest, TrivialSat) {
  SatSolver solver;
  BoolVar x = solver.NewVar();
  BoolVar y = solver.NewVar();
  solver.AddClause({Lit(x, false), Lit(y, false)});
  solver.AddUnit(Lit(x, true));
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_FALSE(solver.ModelValue(x));
  EXPECT_TRUE(solver.ModelValue(y));
}

TEST(SatSolverTest, TrivialUnsat) {
  SatSolver solver;
  BoolVar x = solver.NewVar();
  solver.AddUnit(Lit(x, false));
  EXPECT_FALSE(solver.AddUnit(Lit(x, true)));
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, TautologyAndDuplicatesIgnored) {
  SatSolver solver;
  BoolVar x = solver.NewVar();
  BoolVar y = solver.NewVar();
  solver.AddClause({Lit(x, false), Lit(x, true)});             // Tautology.
  solver.AddClause({Lit(y, false), Lit(y, false), Lit(x, false)});
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
}

// Pigeonhole principle PHP(n+1, n): unsatisfiable, requires real conflict
// analysis to solve in reasonable time.
std::vector<Clause> Pigeonhole(SatSolver* solver, int holes) {
  int pigeons = holes + 1;
  std::vector<std::vector<BoolVar>> in(static_cast<size_t>(pigeons),
                                       std::vector<BoolVar>(static_cast<size_t>(holes)));
  for (auto& row : in) {
    for (BoolVar& v : row) {
      v = solver->NewVar();
    }
  }
  std::vector<Clause> cnf;
  for (int p = 0; p < pigeons; ++p) {
    Clause some_hole;
    for (int h = 0; h < holes; ++h) {
      some_hole.push_back(Lit(in[static_cast<size_t>(p)][static_cast<size_t>(h)], false));
    }
    cnf.push_back(some_hole);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.push_back({Lit(in[static_cast<size_t>(p1)][static_cast<size_t>(h)], true),
                       Lit(in[static_cast<size_t>(p2)][static_cast<size_t>(h)], true)});
      }
    }
  }
  return cnf;
}

TEST(SatSolverTest, PigeonholeUnsat) {
  for (int holes : {2, 3, 4, 5}) {
    SatSolver solver;
    for (const Clause& clause : Pigeonhole(&solver, holes)) {
      solver.AddClause(clause);
    }
    EXPECT_EQ(solver.Solve(), SatResult::kUnsat) << "holes=" << holes;
  }
}

TEST(SatSolverTest, AssumptionsSatAndUnsat) {
  SatSolver solver;
  BoolVar x = solver.NewVar();
  BoolVar y = solver.NewVar();
  solver.AddClause({Lit(x, true), Lit(y, false)});  // x -> y
  EXPECT_EQ(solver.Solve({Lit(x, false)}), SatResult::kSat);
  EXPECT_TRUE(solver.ModelValue(y));
  EXPECT_EQ(solver.Solve({Lit(x, false), Lit(y, true)}), SatResult::kUnsat);
  // The core mentions only the contradictory assumptions.
  const std::vector<Lit>& core = solver.UnsatCore();
  EXPECT_GE(core.size(), 1u);
  EXPECT_LE(core.size(), 2u);
  for (Lit lit : core) {
    EXPECT_TRUE(lit == Lit(x, false) || lit == Lit(y, true));
  }
  // Solving again without assumptions still succeeds (state restored).
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
}

TEST(SatSolverTest, CoreExcludesIrrelevantAssumptions) {
  SatSolver solver;
  BoolVar a = solver.NewVar();
  BoolVar b = solver.NewVar();
  BoolVar c = solver.NewVar();
  solver.AddClause({Lit(a, true), Lit(b, true)});  // ~a | ~b
  EXPECT_EQ(solver.Solve({Lit(c, false), Lit(a, false), Lit(b, false)}),
            SatResult::kUnsat);
  for (Lit lit : solver.UnsatCore()) {
    EXPECT_NE(lit.var(), c) << "independent assumption leaked into the core";
  }
}

// Property test: agreement with brute force on random 3-SAT near the phase
// transition.
TEST(SatSolverTest, RandomInstancesMatchBruteForce) {
  std::mt19937 rng(12345);
  const int vars = 10;
  for (int round = 0; round < 300; ++round) {
    int clauses = 20 + static_cast<int>(rng() % 40);  // ratio 2.0 - 6.0
    std::vector<Clause> cnf;
    SatSolver solver;
    for (int v = 0; v < vars; ++v) {
      solver.NewVar();
    }
    for (int c = 0; c < clauses; ++c) {
      Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(
            Lit(static_cast<BoolVar>(rng() % vars), (rng() & 1) != 0));
      }
      cnf.push_back(clause);
      solver.AddClause(clause);
    }
    bool expected = BruteForceSat(cnf, vars);
    SatResult got = solver.Solve();
    ASSERT_EQ(got == SatResult::kSat, expected) << "round " << round;
    if (got == SatResult::kSat) {
      // The reported model must actually satisfy the CNF.
      uint32_t assignment = 0;
      for (int v = 0; v < vars; ++v) {
        if (solver.ModelValue(static_cast<BoolVar>(v))) {
          assignment |= 1u << v;
        }
      }
      EXPECT_TRUE(EvalCnf(cnf, assignment)) << "round " << round;
    }
  }
}

// The premise of MaxSAT's stratum skip: after kSat, a Solve under
// assumptions the model already satisfies returns that model with no new
// conflict and no proof event, because the saved phases equal the model and
// every propagation under them agrees with it. Random 3-SAT near the phase
// transition, so most instances have learnt clauses by then.
TEST(SatSolverTest, AssumptionsTheModelSatisfiesReturnThatModel) {
  std::mt19937 rng(4242);
  const int vars = 40;
  int checked = 0;
  int with_learnts = 0;
  for (int round = 0; round < 200; ++round) {
    SatSolver solver;
    ProofLog log;
    solver.SetProofLog(&log);
    for (int v = 0; v < vars; ++v) {
      solver.NewVar();
    }
    const int clauses = 150 + static_cast<int>(rng() % 30);  // ratio 3.75 - 4.5
    for (int c = 0; c < clauses; ++c) {
      Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(Lit(static_cast<BoolVar>(rng() % vars), (rng() & 1) != 0));
      }
      solver.AddClause(clause);
    }
    if (solver.Solve() != SatResult::kSat) {
      continue;
    }
    ++checked;
    with_learnts += solver.stats().conflicts > 0 ? 1 : 0;
    std::vector<bool> model;
    std::vector<Lit> assumptions;  // A random subset of the model, shuffled.
    for (BoolVar v = 0; v < vars; ++v) {
      model.push_back(solver.ModelValue(v));
      if ((rng() & 1) != 0) {
        assumptions.push_back(Lit(v, !model.back()));
      }
    }
    std::shuffle(assumptions.begin(), assumptions.end(), rng);
    const int64_t conflicts = solver.stats().conflicts;
    const size_t events = log.size();
    ASSERT_EQ(solver.Solve(assumptions), SatResult::kSat) << "round " << round;
    EXPECT_EQ(solver.stats().conflicts, conflicts) << "round " << round;
    EXPECT_EQ(log.size(), events) << "round " << round;
    for (BoolVar v = 0; v < vars; ++v) {
      EXPECT_EQ(solver.ModelValue(v), model[static_cast<size_t>(v)])
          << "round " << round << " var " << v;
    }
  }
  EXPECT_GT(checked, 50);
  EXPECT_GT(with_learnts, 25);
}

TEST(CardinalityTest, AtMostOneEnumeration) {
  for (int n : {2, 3, 5, 8}) {
    SatSolver solver;
    std::vector<Lit> lits;
    for (int i = 0; i < n; ++i) {
      lits.push_back(Lit(solver.NewVar(), false));
    }
    AddAtMostOne(&solver, lits);
    // All-zero and each single-one assignment are allowed.
    EXPECT_EQ(solver.Solve(), SatResult::kSat);
    for (int i = 0; i < n; ++i) {
      std::vector<Lit> assume = {lits[static_cast<size_t>(i)]};
      EXPECT_EQ(solver.Solve(assume), SatResult::kSat) << "n=" << n << " i=" << i;
      for (int j = 0; j < n; ++j) {
        if (j != i) {
          EXPECT_FALSE(solver.ModelValue(lits[static_cast<size_t>(j)]))
              << "n=" << n << " i=" << i << " j=" << j;
        }
      }
    }
    // Any two true is forbidden.
    EXPECT_EQ(solver.Solve({lits[0], lits[static_cast<size_t>(n - 1)]}),
              SatResult::kUnsat);
  }
}

TEST(CardinalityTest, ExactlyOneForcesOne) {
  SatSolver solver;
  std::vector<Lit> lits;
  for (int i = 0; i < 4; ++i) {
    lits.push_back(Lit(solver.NewVar(), false));
  }
  AddExactlyOne(&solver, lits);
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  int true_count = 0;
  for (Lit lit : lits) {
    true_count += solver.ModelValue(lit) ? 1 : 0;
  }
  EXPECT_EQ(true_count, 1);
}

// --- MaxSAT -----------------------------------------------------------------

TEST(MaxSatTest, AllSoftSatisfiable) {
  MaxSatSolver solver;
  BoolVar x = solver.NewVar();
  BoolVar y = solver.NewVar();
  solver.AddHard({Lit(x, false), Lit(y, false)});
  solver.AddSoft({Lit(x, false)}, 1);
  solver.AddSoft({Lit(y, false)}, 1);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->cost, 0);
  EXPECT_TRUE(solution->model[static_cast<size_t>(x)]);
  EXPECT_TRUE(solution->model[static_cast<size_t>(y)]);
}

TEST(MaxSatTest, MustViolateCheapest) {
  MaxSatSolver solver;
  BoolVar x = solver.NewVar();
  // Hard: exactly one polarity; softs pull both ways with different weights.
  solver.AddSoft({Lit(x, false)}, 5);
  solver.AddSoft({Lit(x, true)}, 2);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->cost, 2);
  EXPECT_TRUE(solution->model[static_cast<size_t>(x)]);
}

TEST(MaxSatTest, HardUnsatReported) {
  MaxSatSolver solver;
  BoolVar x = solver.NewVar();
  solver.AddHard({Lit(x, false)});
  solver.AddHard({Lit(x, true)});
  solver.AddSoft({Lit(x, false)}, 1);
  EXPECT_FALSE(solver.Solve().has_value());
}

TEST(MaxSatTest, ChainOfImplicationsCost) {
  // Hard: a -> b -> c. Softs: a (w 10), !c (w 1). Optimal violates !c.
  MaxSatSolver solver;
  BoolVar a = solver.NewVar();
  BoolVar b = solver.NewVar();
  BoolVar c = solver.NewVar();
  solver.AddHard({Lit(a, true), Lit(b, false)});
  solver.AddHard({Lit(b, true), Lit(c, false)});
  solver.AddSoft({Lit(a, false)}, 10);
  solver.AddSoft({Lit(c, true)}, 1);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->cost, 1);
  EXPECT_TRUE(solution->model[static_cast<size_t>(a)]);
  EXPECT_TRUE(solution->model[static_cast<size_t>(c)]);
}

// Brute-force optimum of a weighted MaxSAT instance.
int64_t BruteForceMaxSatCost(const std::vector<Clause>& hard,
                             const std::vector<std::pair<Clause, int64_t>>& soft, int vars) {
  int64_t best = -1;
  for (uint32_t a = 0; a < (1u << vars); ++a) {
    if (!EvalCnf(hard, a)) {
      continue;
    }
    int64_t cost = 0;
    for (const auto& [clause, weight] : soft) {
      if (!EvalCnf({clause}, a)) {
        cost += weight;
      }
    }
    if (best < 0 || cost < best) {
      best = cost;
    }
  }
  return best;
}

// Solves `solver` (holding exactly `hard` and `soft` over `vars`
// variables) and checks the answer against brute force: the optimum, and a
// model that satisfies every hard clause and incurs exactly that cost.
void ExpectBruteForceOptimum(MaxSatSolver* solver, const std::vector<Clause>& hard,
                             const std::vector<std::pair<Clause, int64_t>>& soft,
                             int vars) {
  int64_t expected = BruteForceMaxSatCost(hard, soft, vars);
  auto solution = solver->Solve();
  if (expected < 0) {
    EXPECT_FALSE(solution.has_value());
    return;
  }
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->cost, expected);
  uint32_t assignment = 0;
  for (int v = 0; v < vars; ++v) {
    if (solution->model[static_cast<size_t>(v)]) {
      assignment |= 1u << v;
    }
  }
  EXPECT_TRUE(EvalCnf(hard, assignment));
  int64_t model_cost = 0;
  for (const auto& [clause, weight] : soft) {
    if (!EvalCnf({clause}, assignment)) {
      model_cost += weight;
    }
  }
  EXPECT_EQ(model_cost, solution->cost);
}

TEST(MaxSatTest, RandomInstancesMatchBruteForce) {
  std::mt19937 rng(777);
  const int vars = 8;
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<Clause> hard;
    std::vector<std::pair<Clause, int64_t>> soft;
    MaxSatSolver solver;
    for (int v = 0; v < vars; ++v) {
      solver.NewVar();
    }
    int hard_count = 5 + static_cast<int>(rng() % 10);
    int soft_count = 3 + static_cast<int>(rng() % 8);
    for (int c = 0; c < hard_count; ++c) {
      Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(Lit(static_cast<BoolVar>(rng() % vars), (rng() & 1) != 0));
      }
      hard.push_back(clause);
      solver.AddHard(clause);
    }
    for (int c = 0; c < soft_count; ++c) {
      Clause clause;
      int len = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < len; ++k) {
        clause.push_back(Lit(static_cast<BoolVar>(rng() % vars), (rng() & 1) != 0));
      }
      int64_t weight = 1 + static_cast<int64_t>(rng() % 4);
      soft.emplace_back(clause, weight);
      solver.AddSoft(clause, weight);
    }
    ExpectBruteForceOptimum(&solver, hard, soft, vars);
  }
}

// Stratum skipping on a hand-built instance. Hard x -> y; softs x (weight
// 3), !z (2) and !y (1). Without conflicts, decisions take the index order
// and the saved phase (false at first), so the hard check's model is all
// false. Stratum 3 assumes x and gets x, y true and z false. That model
// already sets !z, so stratum 2 is skipped. Stratum 1 adds !y: the core
// {x, !y} costs 1, and the relaxed stratum is satisfiable.
TEST(MaxSatTest, SkipsStrataTheLastModelSatisfies) {
  MaxSatSolver solver;
  BoolVar x = solver.NewVar();
  BoolVar y = solver.NewVar();
  BoolVar z = solver.NewVar();
  solver.AddHard({Lit(x, true), Lit(y, false)});
  solver.AddSoft({Lit(x, false)}, 3);
  solver.AddSoft({Lit(z, true)}, 2);
  solver.AddSoft({Lit(y, true)}, 1);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->cost, 1);
  EXPECT_TRUE(solution->model[static_cast<size_t>(x)]);
  EXPECT_FALSE(solution->model[static_cast<size_t>(z)]);
  EXPECT_EQ(solver.stats().strata_skipped, 1);
  EXPECT_EQ(solver.stats().cores, 1);
  // The hard check, stratum 3, and stratum 1 before and after its core.
  EXPECT_EQ(solver.stats().sat_calls, 4);

  // The same strata with every soft on the side of the all-false model: the
  // hard check's model satisfies all three, and no stratum is solved.
  MaxSatSolver agreeing;
  BoolVar a = agreeing.NewVar();
  BoolVar b = agreeing.NewVar();
  BoolVar c = agreeing.NewVar();
  agreeing.AddHard({Lit(a, true), Lit(b, false)});
  agreeing.AddSoft({Lit(a, true)}, 3);
  agreeing.AddSoft({Lit(c, true)}, 2);
  agreeing.AddSoft({Lit(b, true)}, 1);
  solution = agreeing.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->cost, 0);
  EXPECT_EQ(agreeing.stats().strata_skipped, 3);
  EXPECT_EQ(agreeing.stats().sat_calls, 1);
}

// Random weighted instances over many strata: with skipping, the optimum
// still equals brute force and the model still costs exactly the optimum.
TEST(MaxSatTest, StratumSkipKeepsRandomOptimaExact) {
  std::mt19937 rng(2023);
  const int vars = 10;
  const int64_t weights[] = {1, 2, 3, 5, 8, 13, 21};
  int skipped = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<Clause> hard;
    std::vector<std::pair<Clause, int64_t>> soft;
    MaxSatSolver solver;
    for (int v = 0; v < vars; ++v) {
      solver.NewVar();
    }
    const int hard_count = 3 + static_cast<int>(rng() % 6);
    const int soft_count = 4 + static_cast<int>(rng() % 9);
    for (int c = 0; c < hard_count; ++c) {
      Clause clause;
      const int len = 2 + static_cast<int>(rng() % 2);
      for (int k = 0; k < len; ++k) {
        clause.push_back(Lit(static_cast<BoolVar>(rng() % vars), (rng() & 1) != 0));
      }
      hard.push_back(clause);
      solver.AddHard(clause);
    }
    for (int c = 0; c < soft_count; ++c) {
      Clause clause;
      const int len = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < len; ++k) {
        clause.push_back(Lit(static_cast<BoolVar>(rng() % vars), (rng() & 1) != 0));
      }
      const int64_t weight = weights[rng() % std::size(weights)];
      soft.emplace_back(clause, weight);
      solver.AddSoft(clause, weight);
    }
    ExpectBruteForceOptimum(&solver, hard, soft, vars);
    skipped += solver.stats().strata_skipped;
  }
  EXPECT_GT(skipped, 100);
}

// Pigeonhole principle PHP(holes+1, holes): unsatisfiable, and forces the
// solver through many conflicts (hence many VSIDS bumps).
std::vector<Clause> PigeonholeCnf(SatSolver* solver, int holes) {
  int pigeons = holes + 1;
  std::vector<std::vector<BoolVar>> in(static_cast<size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<size_t>(p)].push_back(solver->NewVar());
    }
  }
  std::vector<Clause> cnf;
  for (int p = 0; p < pigeons; ++p) {
    Clause some_hole;
    for (int h = 0; h < holes; ++h) {
      some_hole.push_back(Lit(in[static_cast<size_t>(p)][static_cast<size_t>(h)], false));
    }
    cnf.push_back(some_hole);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        cnf.push_back({Lit(in[static_cast<size_t>(p)][static_cast<size_t>(h)], true),
                       Lit(in[static_cast<size_t>(q)][static_cast<size_t>(h)], true)});
      }
    }
  }
  return cnf;
}

// Checks every decision against the order: the unassigned variable of
// highest activity, ties to the lower index. Also remembers which variables
// were ever seen with a positive activity, so a test can tell a bumped
// variable whose activity underflowed to 0 from a never-bumped one.
struct DecisionOrderCheck {
  int decisions = 0;
  int out_of_order = 0;
  int underflowed_picks = 0;  // Decisions of a once-positive, now-0 variable.
  std::vector<uint8_t> was_positive;

  void Observe(BoolVar decision, std::span<const double> activity,
               std::span<const LBool> assigns) {
    ++decisions;
    was_positive.resize(activity.size(), 0);
    const size_t d = static_cast<size_t>(decision);
    if (activity[d] == 0.0 && was_positive[d] != 0) {
      ++underflowed_picks;
    }
    for (size_t v = 0; v < activity.size(); ++v) {
      if (activity[v] > 0.0) {
        was_positive[v] = 1;
      }
      if (v == d || assigns[v] != LBool::kUndef) {
        continue;
      }
      if (activity[v] > activity[d] || (activity[v] == activity[d] && v < d)) {
        ++out_of_order;
      }
    }
  }
};

// Adds `cnf` guarded by `selector` (selector -> clause).
void AddGuarded(SatSolver* solver, BoolVar selector, const std::vector<Clause>& cnf) {
  for (Clause clause : cnf) {
    clause.push_back(Lit(selector, true));
    ASSERT_TRUE(solver->AddClause(clause));
  }
}

// Regression for VSIDS activity rescales, and the decision order across both
// tiers: bumped variables in the heap, never-bumped ones in index order. A
// rescale changes every activity_[v] at once (and underflow can turn
// distinct activities into ties, or a bumped variable's activity into 0), so
// the indexed order heap is rebuilt; every decision must still follow the
// order, and none may fall back to the O(V) linear scan.
TEST(SatSolverTest, OrderHeapSurvivesActivityRescale) {
  DecisionOrderCheck check;  // Outlives the solver, whose observer refers to it.
  SatSolver solver;
  solver.SetDecisionObserverForTest(
      [&check](BoolVar decision, std::span<const double> activity,
               std::span<const LBool> assigns) {
        check.Observe(decision, activity, assigns);
      });
  // Free variables in no clause, never bumped, interleaved with the rest.
  const auto add_free = [&solver] {
    for (int i = 0; i < 5; ++i) {
      solver.NewVar();
    }
  };
  add_free();
  BoolVar small = solver.NewVar();
  AddGuarded(&solver, small, PigeonholeCnf(&solver, 5));
  add_free();
  BoolVar large = solver.NewVar();
  AddGuarded(&solver, large, PigeonholeCnf(&solver, 7));
  add_free();

  // A tiny increment keeps the bumps of PHP(6,5) far below 1e-224, so the
  // rescale below underflows their activities to 0.
  solver.SetVarActivityIncrementForTest(1e-300);
  EXPECT_EQ(solver.Solve({Lit(small, false)}), SatResult::kUnsat);
  // A near-threshold increment forces a rescale within a few conflicts
  // (kRescaleThreshold is 1e100).
  solver.SetVarActivityIncrementForTest(1e99);
  EXPECT_EQ(solver.Solve({Lit(large, false)}), SatResult::kUnsat);
  ASSERT_GE(solver.stats().activity_rescales, 1) << "test did not exercise a rescale";
  // Without assumptions the instance is satisfiable; the search now decides
  // bumped, underflowed and never-bumped variables side by side.
  EXPECT_EQ(solver.Solve(), SatResult::kSat);

  const SatStats& stats = solver.stats();
  EXPECT_GT(stats.decisions, 0);
  EXPECT_EQ(check.decisions, stats.decisions);
  EXPECT_EQ(check.out_of_order, 0);
  EXPECT_GT(check.underflowed_picks, 0) << "no bumped variable underflowed to 0";
  EXPECT_GT(stats.heap_picks, 0);
  EXPECT_GT(stats.index_picks, 0);
  EXPECT_GT(stats.heap_picks, stats.index_picks);
  // Both tiers together hold every unassigned variable, so the linear-scan
  // fallback never fires.
  EXPECT_EQ(stats.fallback_picks, 0);
  EXPECT_EQ(stats.heap_picks, stats.decisions);
}

// Same instance without the forced increment, as a control: heap behaviour
// is identical whether or not a rescale happened.
TEST(SatSolverTest, OrderHeapServesAllDecisionsWithoutRescale) {
  SatSolver solver;
  for (const Clause& clause : PigeonholeCnf(&solver, 6)) {
    ASSERT_TRUE(solver.AddClause(clause));
  }
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
  const SatStats& stats = solver.stats();
  EXPECT_EQ(stats.activity_rescales, 0);
  EXPECT_GT(stats.heap_picks, 0);
  EXPECT_EQ(stats.fallback_picks, 0);
}

// Pigeonhole 8-into-7 runs past the 4000-learnt cap, so ReduceLearnts drops
// clauses and logs their deletions. The whole log — inputs, learnt lemmas,
// deletions and the final empty clause — must replay through the
// independent RUP checker to a proof of UNSAT.
TEST(SatSolverTest, ReducedLearntsProofReplaysThroughRupChecker) {
  SatSolver solver;
  ProofLog log;
  solver.SetProofLog(&log);
  for (const Clause& clause : PigeonholeCnf(&solver, 7)) {
    ASSERT_TRUE(solver.AddClause(clause));
  }
  ASSERT_EQ(solver.Solve(), SatResult::kUnsat);
  EXPECT_GT(solver.stats().learnt_deleted, 0);

  const ProofStream& events = log.stream();
  size_t deletions = 0;
  certify::RupChecker checker;
  for (size_t i = 0; i < events.size(); ++i) {
    deletions += events.kind(i) == ProofEventKind::kDelete ? 1 : 0;
    ASSERT_TRUE(checker.Apply(events.kind(i), events.lits(i)))
        << "event " << i << ": " << checker.error();
  }
  EXPECT_EQ(static_cast<int64_t>(deletions), solver.stats().learnt_deleted);
  EXPECT_TRUE(checker.proven_unsat());
}

// The learnt database carries over between Solve calls (MaxSAT makes
// hundreds on one solver), and the reduction cap bounds all of it. Each call
// here refutes a fresh pigeonhole instance behind its own selector, with
// far fewer conflicts than the cap, so only the carried-over learnts can
// push the live count past it. A reduction fires exactly when the live
// count passes the cap, which starts at kMinLearntCap and grows by a tenth
// per reduction.
TEST(SatSolverTest, LearntCapCountsLearntsCarriedAcrossSolveCalls) {
  const auto cap_after = [](int64_t reductions) {
    int64_t cap = SatSolver::kMinLearntCap;
    for (int64_t r = 0; r < reductions; ++r) {
      cap += cap / 10;
    }
    return cap;
  };
  SatSolver solver;
  for (int call = 0; call < 12; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    BoolVar selector = solver.NewVar();
    for (Clause clause : PigeonholeCnf(&solver, 6)) {
      clause.push_back(Lit(selector, true));  // selector -> clause
      ASSERT_TRUE(solver.AddClause(clause));
    }
    const SatStats before = solver.stats();
    const int64_t live_before = static_cast<int64_t>(solver.LearntCount());
    ASSERT_EQ(solver.Solve({Lit(selector, false)}), SatResult::kUnsat);
    const SatStats& after = solver.stats();
    const int64_t conflicts = after.conflicts - before.conflicts;
    ASSERT_LT(conflicts, SatSolver::kMinLearntCap / 4);
    if (after.learnt_reductions > before.learnt_reductions) {
      EXPECT_GT(live_before + conflicts, cap_after(before.learnt_reductions));
      EXPECT_GT(after.learnt_deleted, before.learnt_deleted);
    }
    EXPECT_LE(static_cast<int64_t>(solver.LearntCount()),
              cap_after(after.learnt_reductions));
  }
  EXPECT_GE(solver.stats().learnt_reductions, 2);
}

// Learnt-literal accounting: any conflicting run must record at least one
// literal per learnt clause.
TEST(SatSolverTest, LearntLiteralsTracked) {
  SatSolver solver;
  for (const Clause& clause : PigeonholeCnf(&solver, 5)) {
    ASSERT_TRUE(solver.AddClause(clause));
  }
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
  const SatStats& stats = solver.stats();
  EXPECT_GT(stats.conflicts, 0);
  EXPECT_GT(stats.learnt_literals, 0);
}

}  // namespace
}  // namespace cpr
