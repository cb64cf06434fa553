// Schema tests for --stats-json: a real repair on the paper's running
// example must serialize to valid JSON that carries the run metadata, the
// stage-span trace, registry instruments, and per-problem solver counters.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "certify/certify.h"
#include "config/printer.h"
#include "core/cpr.h"
#include "core/stats_report.h"
#include "incremental/session.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tests/example_network.h"
#include "tests/rebreak.h"
#include "verify/checker.h"
#include "workload/fattree.h"

namespace cpr {
namespace {

// One repair run on the paper example (boolean-only policies through the
// internal backend so cdcl.* counters are exercised) with the trace and
// registry active, exactly as `cpr repair --stats-json` sets them up.
class StatsJsonTest : public ::testing::Test {
 protected:
  StatsJsonTest() {
    obs::Registry::Global().Reset();
    obs::Trace::Global().Enable();

    NetworkAnnotations annotations;
    annotations.waypoint_links.insert({"B", "C"});
    Result<Cpr> built =
        Cpr::FromConfigTexts({kExampleConfigA, kExampleConfigB, kExampleConfigC},
                             std::move(annotations));
    if (!built.ok()) {
      throw std::runtime_error(built.error().message());
    }
    cpr_ = std::make_unique<Cpr>(std::move(built).value());
    SubnetId s = *cpr_->network().FindSubnet(ExampleSubnetS());
    SubnetId t = *cpr_->network().FindSubnet(ExampleSubnetT());
    SubnetId u = *cpr_->network().FindSubnet(ExampleSubnetU());
    policies_ = {
        Policy::AlwaysBlocked(s, u),
        Policy::AlwaysWaypoint(s, t),
        Policy::Reachability(s, t, 2),
    };
  }

  ~StatsJsonTest() override { obs::Trace::Global().Disable(); }

  std::string RepairAndBuildJson() {
    CprOptions options;
    options.repair.backend = BackendChoice::kInternal;
    options.validate_with_simulator = false;
    Result<CprReport> report = cpr_->Repair(policies_, options);
    EXPECT_TRUE(report.ok());
    report_ = *report;

    StatsRunInfo run;
    run.command = "repair";
    run.config_dir = "tests/example";
    run.policy_file = "tests/example.policies";
    run.backend = "internal";
    run.granularity = "perdst";
    run.threads = 1;
    run.status = RepairStatusName(report_.status);
    run.wall_seconds = report_.stats.wall_seconds;
    return BuildStatsJson(run, &report_);
  }

  std::unique_ptr<Cpr> cpr_;
  std::vector<Policy> policies_;
  CprReport report_;
};

TEST_F(StatsJsonTest, DocumentIsValidJsonWithRequiredKeys) {
  std::string json = RepairAndBuildJson();
  std::string error;
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error << "\n" << json;

  for (const char* key : {
           "\"schema_version\":1", "\"run\":", "\"stages\":", "\"counters\":",
           "\"gauges\":", "\"histograms\":", "\"repair\":", "\"problems\":",
           "\"solver_counter_totals\":", "\"solve_seconds_sum\":",
           "\"solve_wall_seconds\":", "\"command\":\"repair\"",
           "\"backend\":\"internal\"", "\"status\":\"success\"",
       }) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << "\n" << json;
  }
}

TEST_F(StatsJsonTest, CarriesStageSpansForThePipeline) {
  std::string json = RepairAndBuildJson();
  for (const char* stage : {
           "pipeline.parse_configs", "pipeline.build_network", "harc.build",
           "pipeline.repair", "repair.partition", "repair.encode", "repair.solve",
           "repair.problem", "repair.merge", "solver.internal", "pipeline.translate",
           "pipeline.rebuild", "pipeline.reverify", "verify.find_violations",
       }) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + stage + "\""), std::string::npos)
        << "missing stage " << stage;
  }
}

TEST_F(StatsJsonTest, CarriesNonzeroCdclCounters) {
  std::string json = RepairAndBuildJson();
  ASSERT_EQ(report_.status, RepairStatus::kSuccess);
  ASSERT_FALSE(report_.stats.problem_reports.empty());

  // Per-problem counters made it onto the report...
  double decisions = 0, heap_picks = 0, fallback_picks = 0;
  for (const auto& [name, value] : report_.stats.solver_counter_totals) {
    if (name == "cdcl.decisions") decisions = value;
    if (name == "cdcl.heap_picks") heap_picks = value;
    if (name == "cdcl.fallback_picks") fallback_picks = value;
  }
  EXPECT_GT(decisions, 0);
  EXPECT_GT(heap_picks, 0);
  EXPECT_EQ(fallback_picks, 0);  // The heap serves every decision.

  // ...and into both the registry section and the repair section of the
  // document.
  EXPECT_NE(json.find("\"cdcl.decisions\""), std::string::npos);
  EXPECT_NE(json.find("\"cdcl.conflicts\""), std::string::npos);
  EXPECT_NE(json.find("\"cdcl.heap_picks\""), std::string::npos);
  EXPECT_GT(obs::Registry::Global().counter("cdcl.decisions").value(), 0);
  EXPECT_GT(obs::Registry::Global().counter("solver.internal_solves").value(), 0);
}

TEST_F(StatsJsonTest, SolveWallAtMostSumForSingleThread) {
  RepairAndBuildJson();
  const RepairStats& stats = report_.stats;
  EXPECT_GT(stats.solve_seconds, 0);
  EXPECT_GT(stats.solve_wall_seconds, 0);
  // One worker: the solve wall time covers the per-problem sum (plus loop
  // overhead), and both fit inside the end-to-end wall time.
  EXPECT_GE(stats.solve_wall_seconds, stats.solve_seconds * 0.5);
  EXPECT_LE(stats.solve_seconds, stats.wall_seconds + 1e-9);
}

TEST_F(StatsJsonTest, CertifySectionIsSchemaOneAndValidates) {
  // A certified repair must surface the checker's verdicts in a versioned
  // "certify" section that the strict validator (the same engine behind
  // tools/cpr_json_validate) accepts — this is the schema lint/explain
  // already get, extended to certification.
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.repair.certify = certify::CertifyMode::kOn;
  options.validate_with_simulator = false;
  Result<CprReport> report = cpr_->Repair(policies_, options);
  ASSERT_TRUE(report.ok());
  report_ = *report;
  ASSERT_EQ(report_.status, RepairStatus::kSuccess);
  ASSERT_GT(report_.stats.certify_checked, 0);
  EXPECT_EQ(report_.stats.certify_verified, report_.stats.certify_checked);
  EXPECT_EQ(report_.stats.certify_failed, 0);

  StatsRunInfo run;
  run.command = "repair";
  run.backend = "internal";
  run.status = RepairStatusName(report_.status);
  std::string json = BuildStatsJson(run, &report_);
  std::string error;
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error << "\n" << json;
  for (const char* key : {
           "\"certify\":", "\"mode\":\"on\"", "\"checked\":", "\"verified\":",
           "\"failed\":0", "\"artifacts\":", "\"artifact_dir\":",
       }) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << "\n" << json;
  }
  // The section carries its own schema version, nested under "certify".
  const size_t section = json.find("\"certify\":");
  ASSERT_NE(section, std::string::npos);
  EXPECT_EQ(json.find("\"schema_version\":1", section), section + 11);
}

// Runs `repair` under a fresh trace and checks the span skeleton every repair
// path shares: one root pipeline.repair enclosing the whole producer chain
// (the span of the `step` that produced the repair, lift and translate
// included), the close-the-loop stages as roots, and wall_seconds covering
// every stage of the chain.
void ExpectRepairSkeleton(const std::function<Result<CprReport>()>& repair,
                          const std::string& step) {
  obs::Trace::Global().Enable();
  Result<CprReport> report = repair();
  const std::vector<obs::SpanRecord> spans = obs::Trace::Global().Records();
  obs::Trace::Global().Disable();
  ASSERT_TRUE(report.ok()) << report.error().message();

  int32_t root = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "pipeline.repair") {
      ASSERT_EQ(root, -1) << "more than one pipeline.repair span";
      root = static_cast<int32_t>(i);
    }
  }
  ASSERT_GE(root, 0) << "no pipeline.repair span";
  EXPECT_EQ(spans[static_cast<size_t>(root)].parent, -1);
  const auto under_root = [&](const obs::SpanRecord& span) {
    for (int32_t p = span.parent; p >= 0; p = spans[static_cast<size_t>(p)].parent) {
      if (p == root) {
        return true;
      }
    }
    return false;
  };
  const std::set<std::string> nested = {"pipeline.incremental", "pipeline.compress",
                                        "pipeline.lift", "pipeline.translate"};
  const std::set<std::string> roots = {"pipeline.reverify", "pipeline.simulate",
                                       "pipeline.lint_audit"};
  std::set<std::string> seen;
  for (const obs::SpanRecord& span : spans) {
    seen.insert(span.name);
    if (nested.count(span.name) > 0) {
      EXPECT_TRUE(under_root(span)) << span.name << " outside pipeline.repair";
      EXPECT_GE(report->stats.wall_seconds, span.duration_seconds) << span.name;
    }
    if (roots.count(span.name) > 0) {
      EXPECT_EQ(span.parent, -1) << span.name;
    }
  }
  EXPECT_GE(report->stats.wall_seconds, spans[static_cast<size_t>(root)].duration_seconds);
  for (const std::string& stage : {step, std::string("pipeline.translate"),
                                   std::string("pipeline.reverify"),
                                   std::string("pipeline.simulate"),
                                   std::string("pipeline.lint_audit")}) {
    EXPECT_EQ(seen.count(stage), 1u) << "missing " << stage;
  }
}

TEST(RepairSpanTreeTest, PlainCompressedAndIncrementalShareOneSkeleton) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.repair.num_threads = 2;

  {
    SCOPED_TRACE("plain");
    ExpectRepairSkeleton([&] { return broken->Repair(scenario.policies, options); },
                         "repair.solve");
  }
  {
    SCOPED_TRACE("compressed");
    CprOptions compressed = options;
    compressed.repair.compress.mode = CompressMode::kOn;
    compressed.repair.compress.min_routers = 0;
    ExpectRepairSkeleton([&] { return broken->Repair(scenario.policies, compressed); },
                         "pipeline.compress");
  }
  {
    SCOPED_TRACE("incremental");
    // Re-break one traffic class of the repaired snapshot: a one-router edit
    // the incremental engine re-solves against the repaired baseline.
    Result<CprReport> repaired = broken->Repair(scenario.policies, options);
    ASSERT_TRUE(repaired.ok() && repaired->Sound());
    std::vector<std::string> texts;
    for (const Config& config : repaired->patched_configs) {
      texts.push_back(PrintConfig(config));
    }
    ASSERT_TRUE(RemoveOneRepairDeny(&texts)) << "no repaired router carries a repair deny";
    Result<std::shared_ptr<incremental::RepairSession>> session =
        incremental::BuildSession(repaired->patched_configs, repaired->patched_annotations,
                                  scenario.policies, options.repair);
    ASSERT_TRUE(session.ok()) << session.error().message();
    Result<Cpr> pipeline = Cpr::FromBaseline(*session, texts, repaired->patched_annotations);
    ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
    ExpectRepairSkeleton(
        [&] {
          Result<CprReport> report = pipeline->Repair(scenario.policies, options);
          EXPECT_TRUE(report.ok() && report->incremental.applied);
          return report;
        },
        "pipeline.incremental");
  }
}

// `status` is the solver outcome and `sound` the verdict. CPR's
// uncompressed repair of a 6-port PC3 fat-tree solves every problem, yet
// the simulator still finds all 32 policies violated: the document must
// say success and unsound at once.
TEST(StatsJsonSoundTest, SolvedRepairWithSimulatedResidualsIsNotSound) {
  FatTreeScenario scenario = MakeFatTreeScenario(6, PolicyClass::kReachability, 32, 7);
  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.repair.compress.mode = CompressMode::kOff;
  Result<CprReport> report = broken->Repair(scenario.policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  EXPECT_EQ(report->status, RepairStatus::kSuccess);
  EXPECT_EQ(report->residual_simulation_violations.size(), 32u);

  StatsRunInfo run;
  run.command = "repair";
  run.backend = "internal";
  run.status = RepairStatusName(report->status);
  const std::string json = BuildStatsJson(run, &*report);
  std::string error;
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"status\":\"success\""), std::string::npos);
  EXPECT_NE(json.find("\"residual_simulation_violations\":32"), std::string::npos);
  EXPECT_NE(json.find("\"sound\":false"), std::string::npos);
  EXPECT_NE(json.find("\"simulated\":true"), std::string::npos);
}

// Without the simulator the verdict is the graph check alone, and the
// document says so: a client can tell it from a simulated one.
TEST(StatsJsonSoundTest, UnsimulatedVerdictSaysSo) {
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"B", "C"});
  Result<Cpr> pipeline = Cpr::FromConfigTexts(
      {kExampleConfigA, kExampleConfigB, kExampleConfigC}, std::move(annotations));
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
  const Network& network = pipeline->network();
  const SubnetId s = *network.FindSubnet(ExampleSubnetS());
  const SubnetId t = *network.FindSubnet(ExampleSubnetT());
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.validate_with_simulator = false;
  Result<CprReport> report = pipeline->Repair({Policy::Reachability(s, t, 2)}, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  EXPECT_FALSE(report->simulated);

  StatsRunInfo run;
  run.command = "repair";
  const std::string json = BuildStatsJson(run, &*report);
  EXPECT_NE(json.find("\"sound\":true"), std::string::npos);
  EXPECT_NE(json.find("\"simulated\":false"), std::string::npos);
}

TEST(StatsJsonStandaloneTest, BuildsWithoutRepairReport) {
  obs::Registry::Global().Reset();
  obs::Trace::Global().Enable();
  {
    obs::StageSpan span("standalone.stage");
    obs::Registry::Global().counter("standalone.counter").Increment();
  }
  obs::Trace::Global().Disable();

  StatsRunInfo run;
  run.command = "verify";
  run.status = "ok";
  std::string json = BuildStatsJson(run, nullptr);
  std::string error;
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error;
  EXPECT_EQ(json.find("\"repair\":"), std::string::npos);
  EXPECT_NE(json.find("standalone.stage"), std::string::npos);
  EXPECT_NE(json.find("\"standalone.counter\":1"), std::string::npos);
}

}  // namespace
}  // namespace cpr
