// End-to-end tests of the MaxSMT repair engine on the paper's running
// example (§2.2): CPR must fix the violated policy without breaking the
// satisfied ones — the cross-policy and cross-traffic-class challenges.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "config/parser.h"
#include "obs/span.h"
#include "repair/encoder.h"
#include "repair/repair.h"
#include "solver/backend.h"
#include "tests/example_network.h"
#include "translate/translator.h"
#include "tests/patched_harc.h"
#include "verify/checker.h"
#include "verify/inference.h"
#include "workload/fattree.h"

namespace cpr {
namespace {

class RepairExampleTest : public ::testing::TestWithParam<std::tuple<Granularity, BackendChoice>> {
 protected:
  RepairExampleTest() : network_(BuildExampleNetwork()), harc_(Harc::Build(network_)) {
    r_ = *network_.FindSubnet(ExampleSubnetR());
    s_ = *network_.FindSubnet(ExampleSubnetS());
    t_ = *network_.FindSubnet(ExampleSubnetT());
    u_ = *network_.FindSubnet(ExampleSubnetU());
  }

  // EP1-EP4 from §2.2 (EP4 only when PC4 is in play).
  std::vector<Policy> ExamplePolicies(bool with_pc4) {
    std::vector<Policy> policies = {
        Policy::AlwaysBlocked(s_, u_),     // EP1
        Policy::AlwaysWaypoint(s_, t_),    // EP2
        Policy::Reachability(s_, t_, 2),   // EP3 (violated)
    };
    if (with_pc4) {
      std::vector<DeviceId> abc = {*network_.FindDevice("A"), *network_.FindDevice("B"),
                                   *network_.FindDevice("C")};
      policies.push_back(Policy::PrimaryPath(r_, t_, abc));  // EP4
    }
    return policies;
  }

  RepairOptions MakeOptions() {
    RepairOptions options;
    options.granularity = std::get<0>(GetParam());
    options.backend = std::get<1>(GetParam());
    return options;
  }

  Network network_;
  Harc harc_;
  SubnetId r_, s_, t_, u_;
};

TEST_P(RepairExampleTest, RepairsEp3WithoutBreakingOthers) {
  std::vector<Policy> policies = ExamplePolicies(/*with_pc4=*/false);
  Result<RepairOutcome> outcome = ComputeRepair(harc_, policies, MakeOptions());
  ASSERT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().message());
  ASSERT_EQ(outcome->status, RepairStatus::kSuccess);

  // Every policy must hold on the HARC rebuilt from the patched
  // configurations; PC2 may rely on waypoints the repair placed.
  PatchedHarc patched = BuildPatchedHarc(network_, outcome->edits);
  const Harc& repaired = patched.harc;
  EXPECT_TRUE(CheckAlwaysBlocked(repaired, s_, u_)) << "EP1 broke";
  EXPECT_TRUE(CheckAlwaysWaypoint(repaired, s_, t_)) << "EP2 broke";
  EXPECT_GE(LinkDisjointPathCount(repaired, s_, t_), 2) << "EP3 not repaired";

  // Repaired HARC stays well-formed.
  Status hierarchy = repaired.CheckHierarchy();
  EXPECT_TRUE(hierarchy.ok()) << (hierarchy.ok() ? "" : hierarchy.error().message());

  // The repair must be small: the paper's minimal repair for this example
  // adds a static route (one dETG-level deviation), possibly a waypoint, and
  // nothing else. Cost is the predicted number of configuration changes.
  EXPECT_GT(outcome->predicted_cost, 0);
  EXPECT_LE(outcome->predicted_cost, 4);
}

TEST_P(RepairExampleTest, NoViolationsMeansNoChanges) {
  std::vector<Policy> satisfied = {
      Policy::AlwaysBlocked(s_, u_),
      Policy::AlwaysWaypoint(s_, t_),
      Policy::Reachability(s_, t_, 1),
  };
  Result<RepairOutcome> outcome = ComputeRepair(harc_, satisfied, MakeOptions());
  ASSERT_TRUE(outcome.ok());
  if (std::get<0>(GetParam()) == Granularity::kPerDst) {
    // Per-dst skips clean destinations entirely.
    EXPECT_EQ(outcome->status, RepairStatus::kNoViolations);
  }
  EXPECT_EQ(outcome->predicted_cost, 0);
  // No configuration construct changes.
  EXPECT_TRUE(outcome->edits.empty());
}

TEST_P(RepairExampleTest, UnsatisfiablePoliciesReported) {
  // Blocked and reachable simultaneously: impossible.
  std::vector<Policy> impossible = {
      Policy::AlwaysBlocked(s_, t_),
      Policy::Reachability(s_, t_, 1),
  };
  Result<RepairOutcome> outcome = ComputeRepair(harc_, impossible, MakeOptions());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kUnsat);
}

INSTANTIATE_TEST_SUITE_P(
    GranularityAndBackend, RepairExampleTest,
    ::testing::Values(
        std::make_tuple(Granularity::kAllTcs, BackendChoice::kZ3),
        std::make_tuple(Granularity::kPerDst, BackendChoice::kZ3),
        std::make_tuple(Granularity::kAllTcs, BackendChoice::kInternal),
        std::make_tuple(Granularity::kPerDst, BackendChoice::kInternal)),
    [](const ::testing::TestParamInfo<RepairExampleTest::ParamType>& info) {
      std::string name = std::get<0>(info.param) == Granularity::kAllTcs ? "AllTcs" : "PerDst";
      name += std::get<1>(info.param) == BackendChoice::kZ3 ? "Z3" : "Internal";
      return name;
    });

// PC4 (Z3 only): repairing EP3 while EP4 pins R->T to A->B->C.
TEST(RepairPc4Test, RepairWithPrimaryPathPolicy) {
  Network network = BuildExampleNetwork();
  Harc harc = Harc::Build(network);
  SubnetId r = *network.FindSubnet(ExampleSubnetR());
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  SubnetId u = *network.FindSubnet(ExampleSubnetU());
  std::vector<DeviceId> abc = {*network.FindDevice("A"), *network.FindDevice("B"),
                               *network.FindDevice("C")};
  std::vector<Policy> policies = {
      Policy::AlwaysBlocked(s, u),
      Policy::AlwaysWaypoint(s, t),
      Policy::Reachability(s, t, 2),
      Policy::PrimaryPath(r, t, abc),
  };
  RepairOptions options;
  options.granularity = Granularity::kAllTcs;
  options.backend = BackendChoice::kZ3;
  Result<RepairOutcome> outcome = ComputeRepair(harc, policies, options);
  ASSERT_TRUE(outcome.ok()) << (outcome.ok() ? "" : outcome.error().message());
  ASSERT_EQ(outcome->status, RepairStatus::kSuccess);

  PatchedHarc patched = BuildPatchedHarc(network, outcome->edits);
  const Harc& repaired = patched.harc;
  EXPECT_TRUE(CheckAlwaysBlocked(repaired, s, u));
  EXPECT_TRUE(CheckAlwaysWaypoint(repaired, s, t));
  EXPECT_GE(LinkDisjointPathCount(repaired, s, t), 2);
  EXPECT_TRUE(CheckPrimaryPath(repaired, r, t, abc));
}

// With failover disabled, the internal backend must cleanly refuse
// integer-bearing problems; with failover on (the default), the same
// problem re-solves on Z3 (covered in tests/robustness_test.cc).
TEST(RepairPc4Test, InternalBackendRejectsPc4WithoutFailover) {
  Network network = BuildExampleNetwork();
  Harc harc = Harc::Build(network);
  SubnetId r = *network.FindSubnet(ExampleSubnetR());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  std::vector<DeviceId> ac = {*network.FindDevice("A"), *network.FindDevice("C")};
  std::vector<Policy> policies = {Policy::PrimaryPath(r, t, ac)};
  RepairOptions options;
  options.granularity = Granularity::kAllTcs;
  options.backend = BackendChoice::kInternal;
  options.enable_failover = false;
  Result<RepairOutcome> outcome = ComputeRepair(harc, policies, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kUnsupported);
  ASSERT_EQ(outcome->stats.problem_reports.size(), 1u);
  EXPECT_EQ(outcome->stats.problem_reports[0].status, MaxSmtResult::Status::kUnsupported);
}

// The broken snapshot of a fat-tree scenario, parsed and built.
Result<Network> BrokenNetwork(const FatTreeScenario& scenario) {
  std::vector<Config> configs;
  for (const std::string& text : scenario.broken_configs) {
    Result<Config> config = ParseConfig(text);
    if (!config.ok()) {
      return config.error();
    }
    configs.push_back(*std::move(config));
  }
  return Network::Build(std::move(configs), scenario.annotations);
}

// Runs each submitted task to completion before Submit returns: a shared
// executor with one slot.
class OneSlotRunner : public SolveTaskRunner {
 public:
  void Submit(std::function<void()> task) override { task(); }
};

// The drain tasks take the per-destination problems largest first, ties in
// problem order. Every PC3 policy adds one traffic class's hard constraints
// to its destination's problem, so the problems must be solved in order of
// non-increasing policy count: by one local drain task, and through a
// one-slot executor, whose first drain task empties the queue before the
// next one starts.
TEST(RepairScheduleTest, SolvesLargestProblemsFirst) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kReachability, 12, 7);
  Result<Network> network = BrokenNetwork(scenario);
  ASSERT_TRUE(network.ok()) << network.error().message();
  Harc harc = Harc::Build(*network);

  for (const bool executor : {false, true}) {
    SCOPED_TRACE(executor ? "one-slot executor" : "local drain task");
    RepairOptions options;
    options.granularity = Granularity::kPerDst;
    options.backend = BackendChoice::kInternal;
    options.num_threads = executor ? 4 : 1;
    OneSlotRunner runner;
    if (executor) {
      options.solve_runner = &runner;
    }
    obs::Trace trace;
    trace.Enable();
    Result<RepairOutcome> outcome = [&] {
      obs::TraceScope scope(&trace);
      return ComputeRepair(harc, scenario.policies, options);
    }();
    ASSERT_TRUE(outcome.ok()) << outcome.error().message();
    EXPECT_EQ(outcome->status, RepairStatus::kSuccess);

    const std::vector<ProblemReport>& reports = outcome->stats.problem_reports;
    std::vector<int> policy_count(reports.size(), 0);
    for (size_t i = 0; i < reports.size(); ++i) {
      for (const Policy& policy : scenario.policies) {
        policy_count[i] += static_cast<int>(
            std::count(reports[i].dsts.begin(), reports[i].dsts.end(), policy.dst));
      }
    }
    std::vector<size_t> expected(reports.size());
    std::iota(expected.begin(), expected.end(), size_t{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [&](size_t a, size_t b) { return policy_count[a] > policy_count[b]; });
    // The scenario's largest problem is not its first one.
    ASSERT_FALSE(std::is_sorted(expected.begin(), expected.end()));

    std::vector<size_t> solved;
    for (const obs::SpanRecord& span : trace.Records()) {
      if (span.name != "repair.problem") {
        continue;
      }
      for (const auto& [key, value] : span.args) {
        if (key == "problem") {
          solved.push_back(std::stoul(value));
        }
      }
    }
    EXPECT_EQ(solved, expected);
  }
}

// Runs every submitted task on a thread of its own, joined on destruction:
// the shared-executor path, with no problem on the submitting thread.
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

// Worker spans nest under the stage that spawned them: every repair.problem
// span's parent is the repair.solve span, whether the problems run on the
// calling thread, on the request's worker threads or on a shared executor.
TEST(RepairSpanTest, ProblemSpansNestUnderSolve) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kReachability, 12, 7);
  Result<Network> network = BrokenNetwork(scenario);
  ASSERT_TRUE(network.ok()) << network.error().message();
  Harc harc = Harc::Build(*network);

  struct Mode {
    const char* name;
    int threads;
    bool executor;
  };
  for (const Mode& mode : {Mode{"one worker", 1, false}, Mode{"four workers", 4, false},
                           Mode{"executor", 4, true}}) {
    SCOPED_TRACE(mode.name);
    RepairOptions options;
    options.granularity = Granularity::kPerDst;
    options.backend = BackendChoice::kInternal;
    options.num_threads = mode.threads;
    obs::Trace trace;  // Outlives the runner's threads, which join first.
    ThreadPerTaskRunner runner;
    if (mode.executor) {
      options.solve_runner = &runner;
    }
    trace.Enable();
    Result<RepairOutcome> outcome = [&] {
      obs::TraceScope scope(&trace);
      return ComputeRepair(harc, scenario.policies, options);
    }();
    ASSERT_TRUE(outcome.ok()) << outcome.error().message();
    ASSERT_EQ(outcome->status, RepairStatus::kSuccess);

    const std::vector<obs::SpanRecord> spans = trace.Records();
    std::vector<int32_t> solves;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "repair.solve") {
        solves.push_back(static_cast<int32_t>(i));
      }
    }
    ASSERT_EQ(solves.size(), 1u);
    const obs::SpanRecord& solve = spans[static_cast<size_t>(solves[0])];
    size_t problems = 0;
    for (const obs::SpanRecord& span : spans) {
      if (span.name != "repair.problem") {
        continue;
      }
      ++problems;
      EXPECT_EQ(span.parent, solves[0]);
      // With more than one worker no problem runs on the calling thread, so
      // the parent crosses threads.
      if (options.num_threads > 1) {
        EXPECT_NE(span.thread, solve.thread);
      }
    }
    EXPECT_EQ(problems, outcome->stats.problem_reports.size());
    EXPECT_GT(problems, 1u);
  }
}

// The internal engine reaches Z3's optimum on the benchmark's fat-tree
// shapes, far beyond the dozen-variable instances the brute-force
// cross-checks cover, and its search is deterministic: a second solve of the
// same system returns the same model after the same search. Among the
// repairs of that cost it picks one with the fewest lines, so its model's
// lines never exceed those of Z3's (which keeps the paper's objective alone).
struct EngineCase {
  const char* name;
  int ports;
  PolicyClass pc;
  int policies;
};

void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

class FatTreeBackendAgreementTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(FatTreeBackendAgreementTest, InternalReachesZ3OptimumDeterministically) {
  const EngineCase& c = GetParam();
  FatTreeScenario scenario = MakeFatTreeScenario(c.ports, c.pc, c.policies, 7);
  Result<Network> network = BrokenNetwork(scenario);
  ASSERT_TRUE(network.ok()) << network.error().message();
  Harc harc = Harc::Build(*network);
  RepairOptions options;
  options.granularity = Granularity::kPerDst;
  const std::vector<RepairProblem> problems =
      PartitionProblems(harc, scenario.policies, options);
  ASSERT_FALSE(problems.empty()) << "no policy is violated";

  for (size_t i = 0; i < problems.size(); ++i) {
    SCOPED_TRACE("problem " + std::to_string(i));
    RepairEncoder encoder(harc, problems[i], options);
    Status encoded = encoder.Encode();
    ASSERT_TRUE(encoded.ok()) << encoded.error().message();
    const MaxSmtResult internal =
        MakeInternalBackend()->Solve(encoder.system(), /*timeout_seconds=*/0);
    const MaxSmtResult z3 = MakeZ3Backend()->Solve(encoder.system(), /*timeout_seconds=*/0);
    ASSERT_TRUE(internal.ok()) << MaxSmtStatusName(internal.status) << ": " << internal.message;
    ASSERT_TRUE(z3.ok()) << MaxSmtStatusName(z3.status) << ": " << z3.message;
    EXPECT_EQ(internal.cost, z3.cost);
    const auto model_lines = [&](const MaxSmtResult& result) {
      int64_t lines = 0;
      for (int i : result.violated_soft) {
        lines += encoder.system().soft()[static_cast<size_t>(i)].lines;
      }
      return lines;
    };
    EXPECT_LE(model_lines(internal), model_lines(z3));
    // The order heap serves every decision: no variable goes missing from it.
    const auto counter = [&](std::string_view name) {
      for (const auto& [key, value] : internal.solver_counters) {
        if (key == name) {
          return value;
        }
      }
      return -1.0;
    };
    EXPECT_GT(counter("cdcl.decisions"), 0);
    EXPECT_EQ(counter("cdcl.heap_picks"), counter("cdcl.decisions"));
    EXPECT_EQ(counter("cdcl.fallback_picks"), 0);

    const MaxSmtResult again =
        MakeInternalBackend()->Solve(encoder.system(), /*timeout_seconds=*/0);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.bool_values, internal.bool_values);
    EXPECT_EQ(again.solver_counters, internal.solver_counters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FatTrees, FatTreeBackendAgreementTest,
    ::testing::Values(EngineCase{"Pc1Ports4", 4, PolicyClass::kAlwaysBlocked, 40},
                      EngineCase{"Pc2Ports4", 4, PolicyClass::kAlwaysWaypoint, 40},
                      EngineCase{"Pc3Ports4", 4, PolicyClass::kReachability, 12},
                      EngineCase{"Pc3Ports6", 6, PolicyClass::kReachability, 32},
                      EngineCase{"Pc1Ports8", 8, PolicyClass::kAlwaysBlocked, 16}),
    [](const ::testing::TestParamInfo<EngineCase>& info) { return info.param.name; });

// Each construct soft's `lines` is what the translator writes for that
// construct changed alone on the input configurations: flip the soft's
// variable in the model that keeps every construct as configured, decode,
// translate, and count the changed lines. A waypoint placement adds no line
// and is charged a fixed 4. Adds the construct kinds covered (the label
// prefix, e.g. "flt") to `kinds`.
void ExpectSoftLinesMatchTranslation(const Network& network, const std::vector<Policy>& policies,
                                     Granularity granularity, std::set<std::string>* kinds) {
  Harc harc = Harc::Build(network);
  RepairOptions options;
  options.granularity = granularity;
  for (const RepairProblem& problem : PartitionProblems(harc, policies, options)) {
    RepairEncoder encoder(harc, problem, options);
    Status encoded = encoder.Encode();
    EXPECT_TRUE(encoded.ok()) << encoded.error().message();
    const ConstraintSystem& system = encoder.system();
    MaxSmtResult keep;
    keep.status = MaxSmtResult::Status::kOptimal;
    keep.bool_values.assign(static_cast<size_t>(system.BoolCount()), false);
    std::vector<BVarId> soft_vars;
    for (const SoftConstraint& soft : system.soft()) {
      // Every construct soft is a literal of its construct's variable.
      const ExprNode& root = system.node(soft.expr);
      const bool keeps_true = root.kind == ExprKind::kBoolVar;
      const ExprNode& var = keeps_true ? root : system.node(system.children(soft.expr)[0]);
      EXPECT_EQ(var.kind, ExprKind::kBoolVar) << soft.label;
      soft_vars.push_back(var.bool_var);
      keep.bool_values[static_cast<size_t>(var.bool_var)] = keeps_true;
    }
    RepairEdits none;
    encoder.CollectEdits(keep, &none);
    EXPECT_TRUE(none.empty());
    for (size_t i = 0; i < system.soft().size(); ++i) {
      const SoftConstraint& soft = system.soft()[i];
      SCOPED_TRACE(soft.label);
      const std::string kind = soft.label.substr(0, soft.label.find(':'));
      kinds->insert(kind);
      if (kind == "wp") {
        EXPECT_EQ(soft.lines, 4);
        continue;
      }
      MaxSmtResult flipped = keep;
      const size_t var = static_cast<size_t>(soft_vars[i]);
      flipped.bool_values[var] = !flipped.bool_values[var];
      RepairEdits edits;
      encoder.CollectEdits(flipped, &edits);
      EXPECT_EQ(edits.TotalChanges(), 1);
      Result<TranslationResult> translated = TranslateEdits(network, edits);
      ASSERT_TRUE(translated.ok()) << translated.error().message();
      EXPECT_EQ(translated->LinesChanged(), soft.lines);
    }
  }
}

struct LineCase {
  const char* name;
  PolicyClass pc;
  int policies;
};

void PrintTo(const LineCase& c, std::ostream* os) { *os << c.name; }

class SoftLinesTest : public ::testing::TestWithParam<LineCase> {};

TEST_P(SoftLinesTest, FatTreeSoftLinesAreTranslatedLines) {
  const LineCase& c = GetParam();
  FatTreeScenario scenario = MakeFatTreeScenario(4, c.pc, c.policies, 7);
  Result<Network> network = BrokenNetwork(scenario);
  ASSERT_TRUE(network.ok()) << network.error().message();
  std::set<std::string> kinds;
  ExpectSoftLinesMatchTranslation(*network, scenario.policies, Granularity::kPerDst, &kinds);
  EXPECT_FALSE(kinds.empty());
}

INSTANTIATE_TEST_SUITE_P(
    FatTrees, SoftLinesTest,
    ::testing::Values(LineCase{"Pc1Ports4", PolicyClass::kAlwaysBlocked, 40},
                      LineCase{"Pc2Ports4", PolicyClass::kAlwaysWaypoint, 40},
                      LineCase{"Pc3Ports4", PolicyClass::kReachability, 12}),
    [](const ::testing::TestParamInfo<LineCase>& info) { return info.param.name; });

// The paper example per destination, and under kAllTcs, where the aETG's
// adjacencies and redistributions become constructs too. B and C also peer
// over BGP in the kAllTcs run, so each has two processes to redistribute
// between and the B-C session is a BGP adjacency.
TEST(SoftLinesExampleTest, ExampleSoftLinesAreTranslatedLines) {
  auto example = [](bool with_bgp) {
    std::vector<Config> configs;
    for (std::string text : {kExampleConfigA, kExampleConfigB, kExampleConfigC}) {
      if (with_bgp && text.rfind("hostname B", 0) == 0) {
        text += "router bgp 65002\n neighbor 10.0.3.3 remote-as 65003\n";
      } else if (with_bgp && text.rfind("hostname C", 0) == 0) {
        text += "router bgp 65003\n neighbor 10.0.3.2 remote-as 65002\n";
      }
      configs.push_back(*ParseConfig(text));
    }
    NetworkAnnotations annotations;
    annotations.waypoint_links.insert({"B", "C"});
    return *Network::Build(std::move(configs), std::move(annotations));
  };
  std::set<std::string> kinds;
  for (bool all_tcs : {false, true}) {
    SCOPED_TRACE(all_tcs ? "alltcs" : "perdst");
    Network network = example(/*with_bgp=*/all_tcs);
    const SubnetId s = *network.FindSubnet(ExampleSubnetS());
    const SubnetId t = *network.FindSubnet(ExampleSubnetT());
    const SubnetId u = *network.FindSubnet(ExampleSubnetU());
    ExpectSoftLinesMatchTranslation(
        network,
        {Policy::AlwaysBlocked(s, u), Policy::AlwaysWaypoint(s, t), Policy::Reachability(s, t, 2)},
        all_tcs ? Granularity::kAllTcs : Granularity::kPerDst, &kinds);
  }
  EXPECT_EQ(kinds.count("adj"), 1u);
  EXPECT_EQ(kinds.count("redist"), 1u);
}

}  // namespace
}  // namespace cpr
