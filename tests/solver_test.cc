// Tests for the solver abstraction: the pooled constraint IR (constant
// folding, memoized leaves and negations, operand slices, interned hard
// labels), Tseitin's direct hard clauses, and the equivalence of the Z3 and
// internal backends on boolean MaxSMT problems.

#include <gtest/gtest.h>

#include <initializer_list>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "smt/literal.h"
#include "solver/backend.h"
#include "solver/constraint_system.h"
#include "solver/tseitin.h"

namespace cpr {
namespace {

TEST(ConstraintSystemTest, ConstantFolding) {
  ConstraintSystem cs;
  EXPECT_EQ(cs.Not(cs.True()), cs.False());
  EXPECT_EQ(cs.Not(cs.False()), cs.True());
  EXPECT_EQ(cs.And({cs.True(), cs.True()}), cs.True());
  EXPECT_EQ(cs.And({cs.True(), cs.False()}), cs.False());
  EXPECT_EQ(cs.Or({cs.False(), cs.False()}), cs.False());
  EXPECT_EQ(cs.Or({cs.False(), cs.True()}), cs.True());

  BVarId x = cs.NewBool("x");
  EXPECT_EQ(cs.And({cs.Var(x), cs.True()}), cs.Var(x));
  EXPECT_EQ(cs.Or({cs.Var(x), cs.False()}), cs.Var(x));
  EXPECT_EQ(cs.Not(cs.Not(cs.Var(x))), cs.Var(x));
  EXPECT_EQ(cs.Implies(cs.False(), cs.Var(x)), cs.True());
  EXPECT_EQ(cs.Iff(cs.Var(x), cs.True()), cs.Var(x));
}

TEST(ConstraintSystemTest, VarLeafMemoization) {
  ConstraintSystem cs;
  BVarId x = cs.NewBool("x");
  EXPECT_EQ(cs.Var(x), cs.Var(x));
}

TEST(ConstraintSystemTest, NotIsMemoizedPerOperand) {
  ConstraintSystem cs;
  ExprId x = cs.Var(cs.NewBool("x"));
  ExprId y = cs.Var(cs.NewBool("y"));
  ExprId either = cs.Or({x, y});
  const ExprId not_x = cs.Not(x);
  const int nodes = cs.NodeCount();
  EXPECT_EQ(cs.Not(x), not_x);
  EXPECT_EQ(cs.Not(either), cs.Not(either));
  EXPECT_NE(cs.Not(y), not_x);
  EXPECT_EQ(cs.NodeCount(), nodes + 2);  // Not(either) and Not(y), once each.
}

TEST(ConstraintSystemTest, DoubleNegationThroughThePool) {
  ConstraintSystem cs;
  ExprId x = cs.Var(cs.NewBool("x"));
  ExprId y = cs.Var(cs.NewBool("y"));
  ExprId both = cs.And({x, y});
  EXPECT_EQ(cs.Not(cs.Not(x)), x);
  EXPECT_EQ(cs.Not(cs.Not(both)), both);
  ASSERT_EQ(cs.children(cs.Not(both)).size(), 1u);
  EXPECT_EQ(cs.children(cs.Not(both))[0], both);
}

// Children and terms live in pools that grow as nodes are added; an early
// node's slice must read the same after the pools have reallocated many
// times over.
TEST(ConstraintSystemTest, EarlyNodeOperandsSurvivePoolGrowth) {
  ConstraintSystem cs;
  std::vector<ExprId> vars;
  for (int i = 0; i < 16; ++i) {
    vars.push_back(cs.Var(cs.NewBool("v" + std::to_string(i))));
  }
  IVarId a = cs.NewInt("a", 0, 10);
  IVarId b = cs.NewInt("b", 0, 10);
  const ExprId early = cs.Or({vars[3], cs.Not(vars[5]), vars[7]});
  const std::vector<ExprId> early_children(cs.children(early).begin(),
                                           cs.children(early).end());
  const ExprId atom = cs.LinearLe({{a, 2}, {b, -3}}, 4);
  for (int i = 0; i < 100000; ++i) {
    size_t k = static_cast<size_t>(i) % vars.size();
    if (i % 2 == 0) {
      cs.And({vars[k], vars[(k + 1) % vars.size()], vars[(k + 2) % vars.size()]});
    } else {
      cs.LinearEq({{a, i}, {b, 1}}, -i);
    }
  }
  EXPECT_GT(cs.NodeCount(), 100000);
  EXPECT_EQ(cs.node(early).kind, ExprKind::kOr);
  EXPECT_EQ(std::vector<ExprId>(cs.children(early).begin(), cs.children(early).end()),
            early_children);
  ASSERT_EQ(cs.terms(atom).size(), 2u);
  EXPECT_EQ(cs.terms(atom)[0].var, a);
  EXPECT_EQ(cs.terms(atom)[0].coefficient, 2);
  EXPECT_EQ(cs.terms(atom)[1].var, b);
  EXPECT_EQ(cs.terms(atom)[1].coefficient, -3);
  EXPECT_EQ(cs.node(atom).constant, 4);
}

// And/Or over another node's children() read a span into the very pool
// they append to; rebuilding many times makes some of those appends
// reallocate the pool mid-call.
TEST(ConstraintSystemTest, JunctionOverAliasedChildrenSpan) {
  ConstraintSystem cs;
  ExprId x = cs.Var(cs.NewBool("x"));
  ExprId y = cs.Var(cs.NewBool("y"));
  ExprId z = cs.Var(cs.NewBool("z"));
  const ExprId source = cs.And({x, cs.Not(y), z});
  const std::vector<ExprId> expected(cs.children(source).begin(),
                                     cs.children(source).end());
  for (int i = 0; i < 2000; ++i) {
    ExprId rebuilt = i % 2 == 0 ? cs.Or(cs.children(source)) : cs.And(cs.children(source));
    ASSERT_EQ(cs.node(rebuilt).kind, i % 2 == 0 ? ExprKind::kOr : ExprKind::kAnd);
    ASSERT_EQ(std::vector<ExprId>(cs.children(rebuilt).begin(), cs.children(rebuilt).end()),
              expected)
        << "iteration " << i;
  }
  // A one-operand slice folds to the operand itself.
  EXPECT_EQ(cs.And(cs.children(cs.Not(x))), x);
}

TEST(ConstraintSystemTest, HardLabelsAreInterned) {
  ConstraintSystem cs;
  ExprId x = cs.Var(cs.NewBool("x"));
  cs.SetHardLabelContext("pc3:1->2");
  cs.AddHard(x);
  cs.AddHard(cs.Not(x));
  cs.AddHard(x, "devchg:4");
  cs.SetHardLabelContext("pc3:1->3");
  cs.AddHard(x);
  cs.SetHardLabelContext("pc3:1->2");
  cs.AddHard(x);
  cs.SetHardLabelContext({});
  cs.AddHard(x);
  const std::vector<std::string> expected = {"pc3:1->2", "pc3:1->2", "devchg:4",
                                             "pc3:1->3", "pc3:1->2", ""};
  ASSERT_EQ(cs.hard().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(cs.HardLabel(i), expected[i]) << "hard " << i;
  }
  // One label, one stored string.
  EXPECT_EQ(&cs.HardLabel(0), &cs.HardLabel(1));
  EXPECT_EQ(&cs.HardLabel(0), &cs.HardLabel(4));
  EXPECT_NE(&cs.HardLabel(0), &cs.HardLabel(3));
}

// ---------------------------------------------------------------------------
// Tseitin::AssertHard on a sink that records what it is given.

struct RecordingSink {
  int vars = 0;
  std::vector<Clause> clauses;
  BoolVar NewVar() { return vars++; }
  void AddHard(std::span<const Lit> clause) { clauses.emplace_back(clause.begin(), clause.end()); }
  void AddHard(std::initializer_list<Lit> clause) { clauses.emplace_back(clause); }
};

Lit PosLit(BVarId v) { return Lit(static_cast<BoolVar>(v), false); }
Lit NegLit(BVarId v) { return Lit(static_cast<BoolVar>(v), true); }

class TseitinTest : public ::testing::Test {
 protected:
  // Encoder over `cs`, with the constructor's true-literal unit dropped from
  // the record so each test sees only what AssertHard emits.
  Tseitin<RecordingSink> MakeEncoder() {
    Tseitin<RecordingSink> tseitin(&sink_, cs_);
    EXPECT_EQ(sink_.clauses.size(), 1u);
    sink_.clauses.clear();
    return tseitin;
  }

  ConstraintSystem cs_;
  RecordingSink sink_;
};

TEST_F(TseitinTest, NestedDisjunctionIsOneClause) {
  BVarId x = cs_.NewBool("x"), y = cs_.NewBool("y"), z = cs_.NewBool("z"),
         w = cs_.NewBool("w");
  ExprId root = cs_.Or({cs_.Var(x), cs_.Not(cs_.Var(y)), cs_.Or({cs_.Var(z), cs_.Var(w)})});
  Tseitin<RecordingSink> tseitin = MakeEncoder();
  ASSERT_TRUE(tseitin.AssertHard(root));
  ASSERT_EQ(sink_.clauses.size(), 1u);
  EXPECT_EQ(sink_.clauses[0], (Clause{PosLit(x), NegLit(y), PosLit(z), PosLit(w)}));
  // No definition variable: the decision variables plus the true literal.
  EXPECT_EQ(sink_.vars, cs_.BoolCount() + 1);
}

TEST_F(TseitinTest, ConjunctionAssertsEachConjunct) {
  BVarId a = cs_.NewBool("a"), b = cs_.NewBool("b"), c = cs_.NewBool("c");
  ExprId root = cs_.And({cs_.Or({cs_.Var(a), cs_.Var(b)}), cs_.Var(c)});
  Tseitin<RecordingSink> tseitin = MakeEncoder();
  ASSERT_TRUE(tseitin.AssertHard(root));
  ASSERT_EQ(sink_.clauses.size(), 2u);
  EXPECT_EQ(sink_.clauses[0], (Clause{PosLit(a), PosLit(b)}));
  EXPECT_EQ(sink_.clauses[1], (Clause{PosLit(c)}));
  EXPECT_EQ(sink_.vars, cs_.BoolCount() + 1);
}

TEST_F(TseitinTest, NegatedDisjunctionAssertsItsDefinition) {
  BVarId a = cs_.NewBool("a"), b = cs_.NewBool("b");
  ExprId root = cs_.Not(cs_.Or({cs_.Var(a), cs_.Var(b)}));
  Tseitin<RecordingSink> tseitin = MakeEncoder();
  ASSERT_TRUE(tseitin.AssertHard(root));
  const Lit def = Lit(cs_.BoolCount() + 1, false);
  EXPECT_EQ(sink_.vars, cs_.BoolCount() + 2);
  ASSERT_EQ(sink_.clauses.size(), 4u);  // def <-> a | b, then the root unit.
  EXPECT_EQ(sink_.clauses[0], (Clause{NegLit(a), def}));
  EXPECT_EQ(sink_.clauses[1], (Clause{NegLit(b), def}));
  EXPECT_EQ(sink_.clauses[2], (Clause{~def, PosLit(a), PosLit(b)}));
  EXPECT_EQ(sink_.clauses[3], (Clause{~def}));
}

TEST_F(TseitinTest, ConjunctionInsideDisjunctionIsOneDefinitionLiteral) {
  BVarId x = cs_.NewBool("x"), y = cs_.NewBool("y"), z = cs_.NewBool("z");
  ExprId root = cs_.Or({cs_.Var(x), cs_.And({cs_.Var(y), cs_.Var(z)})});
  Tseitin<RecordingSink> tseitin = MakeEncoder();
  ASSERT_TRUE(tseitin.AssertHard(root));
  const Lit def = Lit(cs_.BoolCount() + 1, false);
  EXPECT_EQ(sink_.vars, cs_.BoolCount() + 2);
  ASSERT_EQ(sink_.clauses.size(), 4u);  // def <-> y & z, then the root clause.
  EXPECT_EQ(sink_.clauses[0], (Clause{~def, PosLit(y)}));
  EXPECT_EQ(sink_.clauses[1], (Clause{~def, PosLit(z)}));
  EXPECT_EQ(sink_.clauses[2], (Clause{def, NegLit(y), NegLit(z)}));
  EXPECT_EQ(sink_.clauses[3], (Clause{PosLit(x), def}));
}

TEST_F(TseitinTest, IntegerAtomIsNotAsserted) {
  BVarId x = cs_.NewBool("x");
  IVarId n = cs_.NewInt("n", 0, 3);
  ExprId atom = cs_.LinearLe({{n, 1}}, -1);
  ExprId guarded = cs_.Or({cs_.Var(x), atom});
  Tseitin<RecordingSink> tseitin = MakeEncoder();
  EXPECT_FALSE(tseitin.AssertHard(atom));
  EXPECT_FALSE(tseitin.AssertHard(guarded));
  EXPECT_TRUE(sink_.clauses.empty());
}

class BackendTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<MaxSmtBackend> MakeBackend() {
    return GetParam() ? MakeZ3Backend() : MakeInternalBackend();
  }
};

TEST_P(BackendTest, SolvesSimpleOptimization) {
  ConstraintSystem cs;
  BVarId x = cs.NewBool("x");
  BVarId y = cs.NewBool("y");
  cs.AddHard(cs.Or({cs.Var(x), cs.Var(y)}));
  cs.AddSoft(cs.Not(cs.Var(x)), 3);
  cs.AddSoft(cs.Not(cs.Var(y)), 1);
  MaxSmtResult result = MakeBackend()->Solve(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  EXPECT_EQ(result.cost, 1);  // Violate the cheap soft: set y.
  EXPECT_FALSE(result.bool_values[static_cast<size_t>(x)]);
  EXPECT_TRUE(result.bool_values[static_cast<size_t>(y)]);
}

TEST_P(BackendTest, ReportsHardUnsat) {
  ConstraintSystem cs;
  BVarId x = cs.NewBool("x");
  cs.AddHard(cs.Var(x));
  cs.AddHard(cs.Not(cs.Var(x)));
  EXPECT_EQ(MakeBackend()->Solve(cs, 10).status, MaxSmtResult::Status::kUnsat);
}

TEST_P(BackendTest, HandlesNestedStructure) {
  ConstraintSystem cs;
  BVarId a = cs.NewBool("a");
  BVarId b = cs.NewBool("b");
  BVarId c = cs.NewBool("c");
  // (a <-> b) and (b -> c) and soft(!c w5), soft(a w2)
  cs.AddHard(cs.Iff(cs.Var(a), cs.Var(b)));
  cs.AddHard(cs.Implies(cs.Var(b), cs.Var(c)));
  cs.AddSoft(cs.Not(cs.Var(c)), 5);
  cs.AddSoft(cs.Var(a), 2);
  MaxSmtResult result = MakeBackend()->Solve(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  // Options: a=b=0, c=0 -> cost 2 (violate soft a). a=b=1 -> c=1 -> cost 5.
  EXPECT_EQ(result.cost, 2);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Z3" : "Internal";
                         });

TEST(BackendEquivalenceTest, RandomBooleanProblemsAgreeOnCost) {
  std::mt19937 rng(321);
  auto z3 = MakeZ3Backend();
  auto internal = MakeInternalBackend();
  for (int round = 0; round < 60; ++round) {
    ConstraintSystem cs;
    const int vars = 6;
    std::vector<ExprId> leaves;
    for (int i = 0; i < vars; ++i) {
      leaves.push_back(cs.Var(cs.NewBool("v" + std::to_string(i))));
    }
    auto random_literal = [&]() {
      ExprId leaf = leaves[rng() % leaves.size()];
      return (rng() & 1) != 0 ? cs.Not(leaf) : leaf;
    };
    int hards = 2 + static_cast<int>(rng() % 5);
    for (int h = 0; h < hards; ++h) {
      cs.AddHard(cs.Or({random_literal(), random_literal(), random_literal()}));
    }
    int softs = 2 + static_cast<int>(rng() % 5);
    for (int s = 0; s < softs; ++s) {
      ExprId body = (rng() & 1) != 0
                        ? cs.And({random_literal(), random_literal()})
                        : cs.Iff(random_literal(), random_literal());
      cs.AddSoft(body, 1 + static_cast<int64_t>(rng() % 3));
    }
    MaxSmtResult a = z3->Solve(cs, 10);
    MaxSmtResult b = internal->Solve(cs, 10);
    ASSERT_EQ(a.status, b.status) << "round " << round;
    if (a.status == MaxSmtResult::Status::kOptimal) {
      EXPECT_EQ(a.cost, b.cost) << "round " << round;
    }
  }
}

TEST(Z3BackendTest, SolvesIntegerConstraints) {
  ConstraintSystem cs;
  IVarId x = cs.NewInt("x", 1, 10);
  IVarId y = cs.NewInt("y", 1, 10);
  BVarId flag = cs.NewBool("flag");
  // x + y == 7; flag required; flag -> x >= y + 3; soft(x == 1, w5) must be
  // violated (x >= 5 given the bounds), soft(x == 5, w1) is achievable.
  cs.AddHard(cs.LinearEq({{x, 1}, {y, 1}}, -7));
  cs.AddHard(cs.Var(flag));
  cs.AddHard(cs.Implies(cs.Var(flag), cs.LinearLe({{y, 1}, {x, -1}}, 3)));
  cs.AddSoft(cs.LinearEq({{x, 1}}, -1), 5);
  cs.AddSoft(cs.LinearEq({{x, 1}}, -5), 1);
  MaxSmtResult result = MakeZ3Backend()->Solve(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  // Optimal: x=5, y=2 -> only the w5 soft violated.
  EXPECT_EQ(result.cost, 5);
  EXPECT_EQ(result.int_values[static_cast<size_t>(x)], 5);
  EXPECT_EQ(result.int_values[static_cast<size_t>(y)], 2);
  EXPECT_TRUE(result.bool_values[static_cast<size_t>(flag)]);
}

TEST(InternalBackendTest, RejectsIntegerProblems) {
  ConstraintSystem cs;
  IVarId x = cs.NewInt("x", 0, 5);
  cs.AddHard(cs.LinearEq({{x, 1}}, -3));
  EXPECT_EQ(MakeInternalBackend()->Solve(cs, 10).status,
            MaxSmtResult::Status::kUnsupported);
}

// Regression for the Z3 timeout conversion: `timeout_seconds * 1000` used to
// be cast straight to unsigned, so sub-millisecond budgets truncated to 0
// (which Z3 reads as "no timeout") and large budgets wrapped around to an
// arbitrary small value. TimeoutMillis must clamp to [1 ms, UINT_MAX ms].
TEST(TimeoutMillisTest, SubMillisecondBudgetsClampUpToOneMs) {
  EXPECT_EQ(TimeoutMillis(0.0005), 1u);   // Would truncate to 0.
  EXPECT_EQ(TimeoutMillis(0.0), 1u);
  EXPECT_EQ(TimeoutMillis(1e-12), 1u);
  EXPECT_EQ(TimeoutMillis(-1.0), 1u);     // Nonsensical, but never 0.
}

TEST(TimeoutMillisTest, NormalBudgetsConvertExactly) {
  EXPECT_EQ(TimeoutMillis(0.25), 250u);
  EXPECT_EQ(TimeoutMillis(1.0), 1000u);
  EXPECT_EQ(TimeoutMillis(3600.0), 3600u * 1000u);
}

TEST(TimeoutMillisTest, HugeBudgetsSaturateInsteadOfWrapping) {
  constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
  // 8 hours (the paper's limit) stays in range...
  EXPECT_EQ(TimeoutMillis(8 * 3600.0), 8u * 3600u * 1000u);
  // ...but anything past UINT_MAX ms (~49.7 days) must saturate, not wrap.
  EXPECT_EQ(TimeoutMillis(5e6), kMax);     // ~57.9 days.
  EXPECT_EQ(TimeoutMillis(1e12), kMax);
  EXPECT_EQ(TimeoutMillis(std::numeric_limits<double>::infinity()), kMax);
  EXPECT_EQ(TimeoutMillis(std::numeric_limits<double>::quiet_NaN()), kMax);
}

// The backend result carries the solver-internal counters (z3.* for the Z3
// backend, cdcl.*/maxsat.* for the internal one).
TEST(BackendCountersTest, InternalBackendReportsCdclCounters) {
  ConstraintSystem cs;
  BVarId a = cs.NewBool("a");
  BVarId b = cs.NewBool("b");
  cs.AddHard(cs.Or({cs.Var(a), cs.Var(b)}));
  cs.AddSoft(cs.Not(cs.Var(a)), 1);
  cs.AddSoft(cs.Not(cs.Var(b)), 1);
  MaxSmtResult result = MakeInternalBackend()->Solve(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  bool saw_decisions = false;
  bool saw_fallback = false;
  for (const auto& [name, value] : result.solver_counters) {
    if (name == "cdcl.decisions") {
      saw_decisions = true;
    }
    if (name == "cdcl.fallback_picks") {
      saw_fallback = true;
      EXPECT_EQ(value, 0);
    }
  }
  EXPECT_TRUE(saw_decisions);
  EXPECT_TRUE(saw_fallback);
}

TEST(BackendCountersTest, Z3BackendReportsSolverStatistics) {
  ConstraintSystem cs;
  IVarId x = cs.NewInt("x", 1, 10);
  cs.AddHard(cs.LinearEq({{x, 1}}, -3));
  MaxSmtResult result = MakeZ3Backend()->Solve(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  // Z3 always reports at least some statistics (e.g. memory/rlimit), each
  // forwarded under the "z3." prefix.
  EXPECT_FALSE(result.solver_counters.empty());
  for (const auto& [name, value] : result.solver_counters) {
    EXPECT_EQ(name.rfind("z3.", 0), 0u) << name;
  }
}

}  // namespace
}  // namespace cpr
