// Degraded-path coverage for the fault-isolated repair pipeline: backend
// failover, timeout retry, exception isolation, partial repair, deadline
// budgeting, and cooperative cancellation in the internal CDCL solver. Most
// tests drive real repairs through FaultInjectingBackend so every degraded
// outcome is produced deterministically rather than by solver hardness.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/cpr.h"
#include "netbase/deadline.h"
#include "repair/repair.h"
#include "smt/sat_solver.h"
#include "solver/failover.h"
#include "solver/fault_injection.h"
#include "tests/example_network.h"
#include "tests/patched_harc.h"
#include "verify/checker.h"

namespace cpr {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(FaultInjectionSpecTest, ParsesKindAndOptions) {
  Result<FaultInjectionSpec> spec = FaultInjectionSpec::Parse("timeout:p=0.5:seed=7:max=2");
  ASSERT_TRUE(spec.ok()) << spec.error().message();
  EXPECT_EQ(spec->kind, FaultInjectionSpec::Kind::kTimeout);
  EXPECT_DOUBLE_EQ(spec->probability, 0.5);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->max_injections, 2);

  EXPECT_TRUE(FaultInjectionSpec::Parse("unsat").ok());
  EXPECT_TRUE(FaultInjectionSpec::Parse("slow:slow=0.01").ok());
  EXPECT_TRUE(FaultInjectionSpec::Parse("throw").ok());
  EXPECT_FALSE(FaultInjectionSpec::Parse("").ok());
  EXPECT_FALSE(FaultInjectionSpec::Parse("explode").ok());
  EXPECT_FALSE(FaultInjectionSpec::Parse("timeout:p=2").ok());
  EXPECT_FALSE(FaultInjectionSpec::Parse("timeout:bogus=1").ok());
  EXPECT_FALSE(FaultInjectionSpec::Parse("timeout:p=abc").ok());
  EXPECT_FALSE(FaultInjectionSpec::Parse("timeout:max=2x").ok());
  EXPECT_FALSE(FaultInjectionSpec::Parse("slow:slow=").ok());
}

// ---------------------------------------------------------------------------
// FailoverBackend unit tests against a scripted backend.

struct ScriptedBackend : MaxSmtBackend {
  // Statuses returned by successive Solve calls (the last repeats).
  std::vector<MaxSmtResult::Status> script;
  std::vector<double> seen_timeouts;
  int calls = 0;
  bool throws = false;

  MaxSmtResult Solve(const ConstraintSystem&, double timeout_seconds) override {
    seen_timeouts.push_back(timeout_seconds);
    if (throws) {
      throw std::runtime_error("scripted explosion");
    }
    MaxSmtResult result;
    result.backend = name();
    size_t index = std::min(static_cast<size_t>(calls), script.size() - 1);
    ++calls;
    result.status = script[index];
    return result;
  }
  std::string name() const override { return "scripted"; }
};

TEST(FailoverBackendTest, RetriesTimeoutWithEscalatedBudget) {
  auto primary = std::make_unique<ScriptedBackend>();
  ScriptedBackend* raw = primary.get();
  raw->script = {MaxSmtResult::Status::kTimeout, MaxSmtResult::Status::kTimeout,
                 MaxSmtResult::Status::kOptimal};
  FailoverPolicy policy;
  policy.max_retries = 2;
  policy.backoff = 2.0;
  policy.max_timeout_seconds = 3.0;

  ConstraintSystem cs;
  std::unique_ptr<MaxSmtBackend> backend =
      MakeFailoverBackend(std::move(primary), nullptr, policy);
  MaxSmtResult result = backend->Solve(cs, 1.0);
  EXPECT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  EXPECT_EQ(result.attempts, 3);
  // 1s, then 2x escalation, then capped at 3s.
  ASSERT_EQ(raw->seen_timeouts.size(), 3u);
  EXPECT_DOUBLE_EQ(raw->seen_timeouts[0], 1.0);
  EXPECT_DOUBLE_EQ(raw->seen_timeouts[1], 2.0);
  EXPECT_DOUBLE_EQ(raw->seen_timeouts[2], 3.0);
}

TEST(FailoverBackendTest, TimeoutExhaustsRetries) {
  auto primary = std::make_unique<ScriptedBackend>();
  primary->script = {MaxSmtResult::Status::kTimeout};
  FailoverPolicy policy;
  policy.max_retries = 1;
  ConstraintSystem cs;
  MaxSmtResult result =
      MakeFailoverBackend(std::move(primary), nullptr, policy)->Solve(cs, 0.5);
  EXPECT_EQ(result.status, MaxSmtResult::Status::kTimeout);
  EXPECT_EQ(result.attempts, 2);
}

TEST(FailoverBackendTest, UnsupportedFailsOverToSecondary) {
  auto primary = std::make_unique<ScriptedBackend>();
  primary->script = {MaxSmtResult::Status::kUnsupported};
  auto secondary = std::make_unique<ScriptedBackend>();
  secondary->script = {MaxSmtResult::Status::kOptimal};
  ConstraintSystem cs;
  MaxSmtResult result =
      MakeFailoverBackend(std::move(primary), std::move(secondary), {})->Solve(cs, 0);
  EXPECT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  EXPECT_EQ(result.attempts, 2);
}

TEST(FailoverBackendTest, ExceptionBecomesErrorResult) {
  auto primary = std::make_unique<ScriptedBackend>();
  primary->throws = true;
  ConstraintSystem cs;
  MaxSmtResult result = MakeFailoverBackend(std::move(primary), nullptr, {})->Solve(cs, 0);
  EXPECT_EQ(result.status, MaxSmtResult::Status::kError);
  EXPECT_EQ(result.message, "scripted explosion");
}

// ---------------------------------------------------------------------------
// Cooperative cancellation in the internal solver stack.

// Pigeonhole principle instance: n+1 pigeons into n holes. Exponentially
// hard for resolution-based CDCL, so it reliably outlives a tiny deadline.
void EncodePigeonhole(SatSolver* solver, int holes) {
  int pigeons = holes + 1;
  std::vector<std::vector<BoolVar>> var(static_cast<size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      var[static_cast<size_t>(p)].push_back(solver->NewVar());
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    Clause some_hole;
    for (int h = 0; h < holes; ++h) {
      some_hole.push_back(Lit(var[static_cast<size_t>(p)][static_cast<size_t>(h)], false));
    }
    solver->AddClause(std::move(some_hole));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver->AddBinary(Lit(var[static_cast<size_t>(p1)][static_cast<size_t>(h)], true),
                          Lit(var[static_cast<size_t>(p2)][static_cast<size_t>(h)], true));
      }
    }
  }
}

TEST(SatSolverDeadlineTest, HardInstanceReturnsUnknownPromptly) {
  SatSolver solver;
  EncodePigeonhole(&solver, 10);
  solver.SetDeadline(Deadline::After(0.05));
  Clock::time_point start = Clock::now();
  SatResult result = solver.Solve();
  double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  EXPECT_EQ(result, SatResult::kUnknown);
  EXPECT_LT(elapsed, 2.0) << "deadline massively overrun";
}

TEST(SatSolverDeadlineTest, UnboundedDeadlineStillSolves) {
  SatSolver solver;
  BoolVar x = solver.NewVar();
  BoolVar y = solver.NewVar();
  solver.AddBinary(Lit(x, false), Lit(y, false));
  solver.SetDeadline(Deadline::Never());
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
}

TEST(InternalBackendDeadlineTest, HardMaxSatProblemTimesOut) {
  // The same pigeonhole structure expressed in the constraint IR, so the
  // whole internal stack (Tseitin -> MaxSAT -> CDCL) honors the timeout.
  ConstraintSystem cs;
  const int holes = 10;
  const int pigeons = holes + 1;
  std::vector<std::vector<ExprId>> var(static_cast<size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      var[static_cast<size_t>(p)].push_back(
          cs.Var(cs.NewBool("p" + std::to_string(p) + "h" + std::to_string(h))));
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    cs.AddHard(cs.Or(var[static_cast<size_t>(p)]));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cs.AddHard(cs.Or({cs.Not(var[static_cast<size_t>(p1)][static_cast<size_t>(h)]),
                          cs.Not(var[static_cast<size_t>(p2)][static_cast<size_t>(h)])}));
      }
    }
  }
  Clock::time_point start = Clock::now();
  MaxSmtResult result = MakeInternalBackend()->Solve(cs, 0.05);
  double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  EXPECT_EQ(result.status, MaxSmtResult::Status::kTimeout);
  EXPECT_LT(elapsed, 2.0);
}

// ---------------------------------------------------------------------------
// Repair-level degraded paths on the paper's running example.

class RobustRepairTest : public ::testing::Test {
 protected:
  RobustRepairTest() : network_(BuildExampleNetwork()), harc_(Harc::Build(network_)) {
    s_ = *network_.FindSubnet(ExampleSubnetS());
    t_ = *network_.FindSubnet(ExampleSubnetT());
    u_ = *network_.FindSubnet(ExampleSubnetU());
  }

  // Two independently violated destinations -> two per-dst problems:
  //   dst t: EP3 (2 link-disjoint S->T paths) is violated;
  //   dst u: "S reaches U" is violated (the BLOCK-U ACL drops it).
  std::vector<Policy> TwoProblemPolicies() {
    return {Policy::Reachability(s_, t_, 2), Policy::Reachability(s_, u_, 1)};
  }

  RepairOptions BaseOptions() {
    RepairOptions options;
    options.granularity = Granularity::kPerDst;
    options.backend = BackendChoice::kInternal;
    options.num_threads = 1;  // Deterministic problem->solver-call order.
    options.timeout_seconds = 30;
    return options;
  }

  Network network_;
  Harc harc_;
  SubnetId s_, t_, u_;
};

TEST_F(RobustRepairTest, InjectedTimeoutRetriesThenSucceeds) {
  RepairOptions options = BaseOptions();
  options.max_retries = 1;
  // Only the first solver call times out; the retry succeeds.
  options.fault_injection = *FaultInjectionSpec::Parse("timeout:max=1");
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  EXPECT_EQ(outcome->status, RepairStatus::kSuccess);
  ASSERT_EQ(outcome->stats.problem_reports.size(), 2u);
  EXPECT_EQ(outcome->stats.problems_failed, 0);
  // One of the problems needed the retry.
  int total_attempts = 0;
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    EXPECT_TRUE(report.solved());
    total_attempts += report.attempts;
  }
  EXPECT_EQ(total_attempts, 3);
}

TEST_F(RobustRepairTest, InjectedTimeoutWithoutRetryYieldsPartial) {
  RepairOptions options = BaseOptions();
  options.max_retries = 0;
  options.fault_injection = *FaultInjectionSpec::Parse("timeout:max=1");
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  ASSERT_EQ(outcome->status, RepairStatus::kPartial);
  ASSERT_EQ(outcome->stats.problem_reports.size(), 2u);
  EXPECT_EQ(outcome->stats.problems_solved, 1);
  EXPECT_EQ(outcome->stats.problems_failed, 1);

  const ProblemReport& failed = outcome->stats.problem_reports[0].solved()
                                    ? outcome->stats.problem_reports[1]
                                    : outcome->stats.problem_reports[0];
  const ProblemReport& solved = outcome->stats.problem_reports[0].solved()
                                    ? outcome->stats.problem_reports[0]
                                    : outcome->stats.problem_reports[1];
  EXPECT_EQ(failed.status, MaxSmtResult::Status::kTimeout);
  EXPECT_EQ(failed.message, "injected timeout");

  // The failed problem contributes no edits, so its dETG and tcETGs in the
  // patched network match the input's edge for edge (Etg::operator== also
  // compares universe pointers, which differ between the two HARCs)...
  PatchedHarc patched = BuildPatchedHarc(network_, outcome->edits);
  ASSERT_EQ(patched.harc.universe().EdgeCount(), harc_.universe().EdgeCount());
  auto same_edges = [&](const Etg& a, const Etg& b) {
    for (CandidateEdgeId e = 0; e < harc_.universe().EdgeCount(); ++e) {
      if (a.IsPresent(e) != b.IsPresent(e)) {
        return false;
      }
    }
    return true;
  };
  for (SubnetId dst : failed.dsts) {
    EXPECT_TRUE(same_edges(patched.harc.detg(dst), harc_.detg(dst)));
    EXPECT_TRUE(same_edges(patched.harc.tcetg(s_, dst), harc_.tcetg(s_, dst)));
  }
  // ...while the solved problem's policy now holds there.
  ASSERT_EQ(solved.dsts.size(), 1u);
  if (solved.dsts[0] == t_) {
    EXPECT_GE(LinkDisjointPathCount(patched.harc, s_, t_), 2);
  } else {
    EXPECT_GE(LinkDisjointPathCount(patched.harc, s_, u_), 1);
  }
  EXPECT_GT(outcome->predicted_cost, 0);
}

// Runs every submitted task on a thread of its own, joined on destruction.
class ThreadPerTaskRunner : public SolveTaskRunner {
 public:
  ThreadPerTaskRunner() = default;
  ThreadPerTaskRunner(const ThreadPerTaskRunner&) = delete;
  ThreadPerTaskRunner& operator=(const ThreadPerTaskRunner&) = delete;
  ~ThreadPerTaskRunner() override {
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }
  void Submit(std::function<void()> task) override { threads_.emplace_back(std::move(task)); }

 private:
  std::vector<std::thread> threads_;
};

// Each drain task owns one solver stack, and with it one fault-injection
// sequence: with one drain task, "timeout:max=1" times out exactly one
// problem, on a local thread and through a shared executor alike.
TEST_F(RobustRepairTest, OneDrainTaskSpendsTheFaultBudgetOnce) {
  for (const bool executor : {false, true}) {
    SCOPED_TRACE(executor ? "executor" : "local");
    RepairOptions options = BaseOptions();
    options.fault_injection = *FaultInjectionSpec::Parse("timeout:max=1");
    ThreadPerTaskRunner runner;
    if (executor) {
      options.solve_runner = &runner;
    }
    Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message();
    EXPECT_EQ(outcome->status, RepairStatus::kPartial);
    EXPECT_EQ(outcome->stats.problems_solved, 1);
    EXPECT_EQ(outcome->stats.problems_failed, 1);
    int timeouts = 0;
    for (const ProblemReport& report : outcome->stats.problem_reports) {
      timeouts += report.status == MaxSmtResult::Status::kTimeout ? 1 : 0;
    }
    EXPECT_EQ(timeouts, 1);
  }
}

TEST_F(RobustRepairTest, AllOrNothingModeRestoresOldBehavior) {
  RepairOptions options = BaseOptions();
  options.max_retries = 0;
  options.allow_partial = false;
  options.fault_injection = *FaultInjectionSpec::Parse("timeout:max=1");
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kTimeout);
  EXPECT_EQ(outcome->predicted_cost, 0);
}

TEST_F(RobustRepairTest, InjectedExceptionBecomesErrorNotCrash) {
  RepairOptions options = BaseOptions();
  options.fault_injection = *FaultInjectionSpec::Parse("throw");
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kError);
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    EXPECT_EQ(report.status, MaxSmtResult::Status::kError);
    EXPECT_EQ(report.message, "injected backend exception");
  }
}

TEST_F(RobustRepairTest, ParallelWorkersSurviveInjectedExceptions) {
  RepairOptions options = BaseOptions();
  options.num_threads = 4;
  options.fault_injection = *FaultInjectionSpec::Parse("throw");
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kError);
}

TEST_F(RobustRepairTest, SlowInjectionStillSucceeds) {
  RepairOptions options = BaseOptions();
  options.fault_injection = *FaultInjectionSpec::Parse("slow:slow=0.01");
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kSuccess);
}

TEST_F(RobustRepairTest, UnsupportedProblemFailsOverToZ3) {
  // PC4 on the internal backend is kUnsupported; with failover (default)
  // the problem re-solves on Z3 and the run succeeds end to end.
  SubnetId r = *network_.FindSubnet(ExampleSubnetR());
  std::vector<DeviceId> abc = {*network_.FindDevice("A"), *network_.FindDevice("B"),
                               *network_.FindDevice("C")};
  std::vector<Policy> policies = {
      Policy::AlwaysBlocked(s_, u_),
      Policy::AlwaysWaypoint(s_, t_),
      Policy::Reachability(s_, t_, 2),
      Policy::PrimaryPath(r, t_, abc),
  };
  RepairOptions options = BaseOptions();
  options.granularity = Granularity::kAllTcs;
  Result<RepairOutcome> outcome = ComputeRepair(harc_, policies, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  ASSERT_EQ(outcome->status, RepairStatus::kSuccess);
  ASSERT_EQ(outcome->stats.problem_reports.size(), 1u);
  EXPECT_EQ(outcome->stats.problem_reports[0].backend, "z3-optimize");
  EXPECT_GE(outcome->stats.problem_reports[0].attempts, 2);
  PatchedHarc patched = BuildPatchedHarc(network_, outcome->edits);
  EXPECT_TRUE(CheckPrimaryPath(patched.harc, r, t_, abc));
}

TEST_F(RobustRepairTest, ExhaustedDeadlineRejectsWithoutSolving) {
  RepairOptions options = BaseOptions();
  options.deadline = Deadline::Exhausted();  // e.g. --deadline 0
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok());
  // The budget was gone before any work started: the engine must reject with
  // a clean, empty report rather than formulate problems and time them out.
  EXPECT_EQ(outcome->status, RepairStatus::kDeadlineExceeded);
  EXPECT_TRUE(outcome->stats.problem_reports.empty());
  EXPECT_EQ(outcome->stats.problems_formulated, 0);
}

TEST_F(RobustRepairTest, TinyDeadlineSecondsAlsoRejectsCleanly) {
  RepairOptions options = BaseOptions();
  options.deadline_seconds = 1e-9;  // Expired before the first solver call.
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok());
  // A nonzero-but-vanishing budget expires somewhere between entry and the
  // first solver call; either the entry check catches it (clean reject) or
  // every problem is skipped as timed out. Both leave the HARC untouched.
  if (outcome->status == RepairStatus::kDeadlineExceeded) {
    EXPECT_TRUE(outcome->stats.problem_reports.empty());
  } else {
    EXPECT_EQ(outcome->status, RepairStatus::kTimeout);
    for (const ProblemReport& report : outcome->stats.problem_reports) {
      EXPECT_EQ(report.status, MaxSmtResult::Status::kTimeout);
    }
  }
}

TEST_F(RobustRepairTest, AbsoluteDeadlineTakesPrecedenceOverBudgetSeconds) {
  RepairOptions options = BaseOptions();
  options.deadline_seconds = 300;  // Would be generous...
  options.deadline = Deadline::Exhausted();  // ...but the absolute wins.
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kDeadlineExceeded);
}

TEST(DeadlineBudgetTest, FromBudgetMapsSignOntoBoundedness) {
  EXPECT_FALSE(Deadline::FromBudget(10.0).Expired());
  EXPECT_FALSE(Deadline::FromBudget(10.0).unbounded());
  EXPECT_TRUE(Deadline::FromBudget(0).Expired());
  EXPECT_TRUE(Deadline::FromBudget(-3).Expired());
  EXPECT_TRUE(Deadline::Exhausted().Expired());
  EXPECT_EQ(Deadline::Exhausted().RemainingSeconds(), 0.0);
}

TEST_F(RobustRepairTest, GenerousDeadlineLeavesRepairUnaffected) {
  RepairOptions options = BaseOptions();
  options.deadline_seconds = 300;
  Result<RepairOutcome> outcome = ComputeRepair(harc_, TwoProblemPolicies(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kSuccess);
}

// ---------------------------------------------------------------------------
// Full pipeline: partial repair flows through translation, re-verification,
// and Sound().

TEST(RobustPipelineTest, PartialRepairReportsResidualViolations) {
  std::vector<std::string> texts = {kExampleConfigA, kExampleConfigB, kExampleConfigC};
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"B", "C"});
  Result<Cpr> pipeline = Cpr::FromConfigTexts(texts, annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();

  SubnetId s = *pipeline->network().FindSubnet(ExampleSubnetS());
  SubnetId t = *pipeline->network().FindSubnet(ExampleSubnetT());
  SubnetId u = *pipeline->network().FindSubnet(ExampleSubnetU());
  std::vector<Policy> policies = {Policy::Reachability(s, t, 2),
                                  Policy::Reachability(s, u, 1)};

  CprOptions options;
  options.repair.granularity = Granularity::kPerDst;
  options.repair.backend = BackendChoice::kInternal;
  options.repair.num_threads = 1;
  options.repair.timeout_seconds = 30;
  options.repair.fault_injection = *FaultInjectionSpec::Parse("timeout:max=1");

  Result<CprReport> report = pipeline->Repair(policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  ASSERT_EQ(report->status, RepairStatus::kPartial);
  EXPECT_EQ(report->stats.problems_solved, 1);
  EXPECT_EQ(report->stats.problems_failed, 1);

  // The solved problem produced a real patch...
  EXPECT_GT(report->lines_changed, 0);
  // ...but the failed problem's policy is still violated, so the repair is
  // not sound and exactly one residual graph violation remains.
  EXPECT_FALSE(report->Sound());
  EXPECT_EQ(report->residual_graph_violations.size(), 1u);
}

TEST(RobustPipelineTest, InjectionDisabledMatchesDefaultPath) {
  std::vector<std::string> texts = {kExampleConfigA, kExampleConfigB, kExampleConfigC};
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"B", "C"});
  Result<Cpr> pipeline = Cpr::FromConfigTexts(texts, annotations);
  ASSERT_TRUE(pipeline.ok());

  SubnetId s = *pipeline->network().FindSubnet(ExampleSubnetS());
  SubnetId t = *pipeline->network().FindSubnet(ExampleSubnetT());
  std::vector<Policy> policies = {Policy::Reachability(s, t, 2)};

  CprOptions options;
  options.repair.granularity = Granularity::kPerDst;
  options.repair.backend = BackendChoice::kInternal;
  Result<CprReport> report = pipeline->Repair(policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  EXPECT_EQ(report->status, RepairStatus::kSuccess);
  EXPECT_TRUE(report->Sound());
  ASSERT_EQ(report->stats.problem_reports.size(), 1u);
  EXPECT_EQ(report->stats.problem_reports[0].attempts, 1);
}

}  // namespace
}  // namespace cpr
