// Tests of the benchmark's own pieces: strict argument parsing, seeded input
// generation, the tail-percentile rule and the independent check.

#include <gtest/gtest.h>

#include "core/policy_spec.h"
#include "perfbench/args.h"
#include "perfbench/check.h"
#include "perfbench/inputs.h"
#include "perfbench/replay.h"
#include "perfbench/report.h"
#include "workload/fattree.h"

namespace cpr::perfbench {
namespace {

std::vector<std::string> Args(const std::string& workload, const std::string& seed,
                              const std::string& seconds, const std::string& trace) {
  return {"--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace};
}

TEST(ArgsTest, AcceptsWellFormedArguments) {
  Result<BenchArgs> args = ParseArgs(Args("fattree-sym", "4294967295", "20", "1"));
  ASSERT_TRUE(args.ok()) << args.error().message();
  EXPECT_EQ(args->workload, "fattree-sym");
  EXPECT_EQ(args->seed, 4294967295u);
  EXPECT_EQ(args->seconds, 20);
  EXPECT_TRUE(args->trace);
  // Flags may come in any order.
  args = ParseArgs({"--trace", "0", "--seconds", "1", "--seed", "0", "--workload",
                    "cprd-lineage"});
  ASSERT_TRUE(args.ok()) << args.error().message();
  EXPECT_EQ(args->seed, 0u);
  EXPECT_FALSE(args->trace);
}

TEST(ArgsTest, RejectsGarbageNumbers) {
  for (const char* bad : {"12abc", "", "-3", "+3", " 3", "3 ", "0x10", "1e3", "3.5",
                          "4294967296", "99999999999999999999999"}) {
    EXPECT_FALSE(ParseArgs(Args("fattree-sym", bad, "10", "0")).ok()) << "seed '" << bad << "'";
    EXPECT_FALSE(ParseArgs(Args("fattree-sym", "1", bad, "0")).ok()) << "seconds '" << bad << "'";
  }
  EXPECT_FALSE(ParseArgs(Args("fattree-sym", "1", "0", "0")).ok());
  EXPECT_FALSE(ParseArgs(Args("fattree-sym", "1", "3601", "0")).ok());
}

TEST(ArgsTest, RejectsMalformedCommandLines) {
  EXPECT_FALSE(ParseArgs(Args("fattree_sym", "1", "10", "0")).ok());
  EXPECT_FALSE(ParseArgs(Args("dc-fleet", "1", "10", "0")).ok());
  EXPECT_FALSE(ParseArgs(Args("", "1", "10", "0")).ok());
  EXPECT_FALSE(ParseArgs(Args("cprd-lineage", "1", "10", "2")).ok());
  EXPECT_FALSE(ParseArgs(Args("cprd-lineage", "1", "10", "")).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "cprd-lineage", "--seed", "1", "--seconds", "10"}).ok());
  EXPECT_FALSE(ParseArgs({"--workload", "cprd-lineage", "--seed", "1", "--seconds", "10",
                          "--trace"})
                   .ok());
  std::vector<std::string> twice = Args("cprd-lineage", "1", "10", "0");
  twice.insert(twice.end(), {"--seed", "2"});
  EXPECT_FALSE(ParseArgs(twice).ok());
  std::vector<std::string> unknown = Args("cprd-lineage", "1", "10", "0");
  unknown.insert(unknown.end(), {"--threads", "4"});
  EXPECT_FALSE(ParseArgs(unknown).ok());
}

bool SameTexts(const std::vector<RepairInput>& a, const std::vector<RepairInput>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].config_texts != b[i].config_texts ||
        a[i].policy_text != b[i].policy_text) {
      return false;
    }
  }
  return true;
}

TEST(InputsTest, FatTreeSymIsAFunctionOfTheSeed) {
  const FatTreeSymSize small{4, 6, 1, 4, 6, 1};
  Result<std::vector<RepairInput>> first = MakeFatTreeSym(3, small);
  Result<std::vector<RepairInput>> again = MakeFatTreeSym(3, small);
  Result<std::vector<RepairInput>> other = MakeFatTreeSym(4, small);
  ASSERT_TRUE(first.ok() && again.ok() && other.ok());
  EXPECT_TRUE(SameTexts(*first, *again));
  EXPECT_FALSE(SameTexts(*first, *other));
  // PC1, PC2, then the compression pair: one scenario, two options.
  ASSERT_EQ(first->size(), 4u);
  EXPECT_EQ((*first)[2].config_texts, (*first)[3].config_texts);
  EXPECT_EQ((*first)[2].options.repair.compress.mode, CompressMode::kOff);
  EXPECT_EQ((*first)[3].options.repair.compress.mode, CompressMode::kAuto);
}

TEST(InputsTest, LineagesAreAFunctionOfTheSeed) {
  const LineageSize small{2, 4, 4, 2};
  Result<std::vector<LineageInput>> first = MakeLineages(5, small);
  Result<std::vector<LineageInput>> again = MakeLineages(5, small);
  Result<std::vector<LineageInput>> other = MakeLineages(6, small);
  ASSERT_TRUE(first.ok() && again.ok() && other.ok()) << (first.ok() ? "" : first.error().message());
  ASSERT_EQ(first->size(), 2u);
  bool any_difference = false;
  for (size_t l = 0; l < first->size(); ++l) {
    const LineageInput& a = (*first)[l];
    const LineageInput& b = (*again)[l];
    EXPECT_EQ(a.broken_texts, b.broken_texts);
    EXPECT_EQ(a.baseline_texts, b.baseline_texts);
    EXPECT_EQ(a.edits, b.edits);
    EXPECT_EQ(a.policy_text, b.policy_text);
    ASSERT_EQ(a.edits.size(), 2u);
    // Each edit touches exactly one router of the baseline.
    for (const std::vector<std::string>& edit : a.edits) {
      int changed = 0;
      for (size_t i = 0; i < edit.size(); ++i) {
        changed += edit[i] != a.baseline_texts[i] ? 1 : 0;
      }
      EXPECT_EQ(changed, 1);
    }
    any_difference |= a.broken_texts != (*other)[l].broken_texts ||
                      a.policy_text != (*other)[l].policy_text;
  }
  EXPECT_TRUE(any_difference);
}

// The program receives policies only as text: the text must resolve to
// exactly the generator's policies.
TEST(InputsTest, PolicyTextCarriesTheGeneratedPolicies) {
  const FatTreeSymSize small{4, 6, 1, 4, 6, 1};
  Result<std::vector<RepairInput>> requests = MakeFatTreeSym(3, small);
  ASSERT_TRUE(requests.ok());
  const RepairInput& pc2 = (*requests)[1];
  const FatTreeScenario scenario =
      MakeFatTreeScenario(4, PolicyClass::kAlwaysWaypoint, 6, 0);  // Shape only.
  Result<NetworkAnnotations> annotations = ParseSpecAnnotations(pc2.policy_text);
  ASSERT_TRUE(annotations.ok());
  EXPECT_EQ(annotations->waypoint_links.size(), scenario.annotations.waypoint_links.size());
  Result<Cpr> cpr = Cpr::FromConfigTexts(pc2.config_texts, *annotations);
  ASSERT_TRUE(cpr.ok());
  Result<std::vector<Policy>> policies = ParseSpecPolicies(pc2.policy_text, cpr->network());
  ASSERT_TRUE(policies.ok());
  EXPECT_EQ(policies->size(), 6u);
}

TEST(ReportTest, TailIsTheHighestPercentileWithTenSamplesAbove) {
  std::vector<double> samples;
  for (int i = 1; i <= 40; ++i) {
    samples.push_back(i);
  }
  LatencySummary summary = Summarize(samples);
  EXPECT_EQ(summary.samples, 40u);
  EXPECT_DOUBLE_EQ(summary.p50, 20.5);
  EXPECT_DOUBLE_EQ(summary.tail, 30);  // 31..40 lie above it.
  EXPECT_DOUBLE_EQ(summary.tail_percentile, 75);
  summary = Summarize({3, 1, 2});
  EXPECT_DOUBLE_EQ(summary.p50, 2);
  EXPECT_DOUBLE_EQ(summary.tail, 3);  // Too few samples: the maximum.
}

TEST(CheckTest, FindsAnUnsoundClaim) {
  const FatTreeSymSize small{4, 6, 1, 4, 6, 1};
  Result<std::vector<RepairInput>> requests = MakeFatTreeSym(3, small);
  ASSERT_TRUE(requests.ok());
  const RepairInput& pc1 = (*requests)[0];
  Result<CprReport> report = RunRequest(pc1);
  ASSERT_TRUE(report.ok());
  RepairOutput output = OutputOf(*report);
  CheckVerdict verdict = CheckOutput(pc1.config_texts, pc1.policy_text, output, true, 2);
  EXPECT_EQ(Disagreement(output, verdict, true), "");
  EXPECT_TRUE(verdict.sound);
  EXPECT_GT(verdict.lines_changed, 0);

  // Claim success for the unrepaired snapshot: the check must disagree.
  RepairOutput forged;
  forged.status = RepairStatus::kSuccess;
  forged.patched_texts = pc1.config_texts;
  verdict = CheckOutput(pc1.config_texts, pc1.policy_text, forged, true, 2);
  EXPECT_FALSE(verdict.sound);
  EXPECT_NE(Disagreement(forged, verdict, true), "");
}

TEST(ReplayTest, LayerByLayerReplayMatchesTheLibrary) {
  const FatTreeSymSize small{4, 6, 1, 4, 6, 1};
  Result<std::vector<RepairInput>> requests = MakeFatTreeSym(3, small);
  ASSERT_TRUE(requests.ok());
  for (const RepairInput& request : *requests) {
    Result<CprReport> report = RunRequest(request);
    ASSERT_TRUE(report.ok()) << request.name;
    Tracer tracer;
    Counters counters;
    Result<ReplayResult> replay = ReplayRequest(request, &tracer, &counters);
    ASSERT_TRUE(replay.ok()) << request.name;
    EXPECT_TRUE(SameOutput(OutputOf(*report), replay->output)) << request.name;
    EXPECT_GT(tracer.TotalSeconds("config.parse"), 0) << request.name;
    EXPECT_EQ(counters["config.parse_calls"], request.config_texts.size());
  }
}

}  // namespace
}  // namespace cpr::perfbench
