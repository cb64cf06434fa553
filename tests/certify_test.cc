// Tests for the certification subsystem (src/certify, DESIGN.md §13).
//
// The contract under test: every certificate the solver stack emits must
// pass the independent checker (RUP replay for clausal proofs, model
// arithmetic for model-only ones), artifacts must round-trip through JSON
// without weakening the check, and every seeded corruption mode must be
// CAUGHT — a result whose certificate fails is rerouted to the failover
// engine or demoted to an error, never shipped as a success.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "certify/artifact.h"
#include "certify/certify.h"
#include "certify/rup.h"
#include "config/parser.h"
#include "core/cpr.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "repair/repair.h"
#include "smt/certificate.h"
#include "solver/backend.h"
#include "solver/constraint_system.h"
#include "solver/fault_injection.h"
#include "tests/example_network.h"
#include "topo/network.h"
#include "verify/checker.h"
#include "workload/datacenter.h"
#include "workload/fattree.h"

namespace cpr {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// RUP checker unit tests.

Lit Pos(int var) { return Lit(var, false); }
Lit Neg(int var) { return Lit(var, true); }

TEST(RupCheckerTest, UnitPropagationDerivesRootUnsat) {
  // a, (!a | b), !b: inputs alone are contradictory at root level.
  certify::RupChecker checker;
  EXPECT_TRUE(checker.AddInput({Pos(0)}));
  EXPECT_TRUE(checker.AddInput({Neg(0), Pos(1)}));
  EXPECT_FALSE(checker.proven_unsat());
  EXPECT_TRUE(checker.AddInput({Neg(1)}));
  EXPECT_TRUE(checker.proven_unsat());
}

TEST(RupCheckerTest, AcceptsResolventLemma) {
  // (a | b) and (!a | b) entail b, and the entailment is RUP: assert !b,
  // propagate, conflict.
  certify::RupChecker checker;
  EXPECT_TRUE(checker.AddInput({Pos(0), Pos(1)}));
  EXPECT_TRUE(checker.AddInput({Neg(0), Pos(1)}));
  EXPECT_TRUE(checker.AddLemma({Pos(1)}));
  EXPECT_EQ(checker.lemmas_checked(), 1);
  // With b forced, the empty clause is NOT derivable...
  EXPECT_FALSE(checker.proven_unsat());
  // ...until its negation arrives.
  EXPECT_TRUE(checker.AddInput({Neg(1)}));
  EXPECT_TRUE(checker.proven_unsat());
}

TEST(RupCheckerTest, RejectsNonRupLemma) {
  // (a | b) does not entail a by unit propagation: asserting !a leaves b
  // free with no conflict.
  certify::RupChecker checker;
  EXPECT_TRUE(checker.AddInput({Pos(0), Pos(1)}));
  EXPECT_FALSE(checker.AddLemma({Pos(0)}));
  EXPECT_FALSE(checker.error().empty());
  // The checker is poisoned after a failure.
  EXPECT_FALSE(checker.AddInput({Pos(2)}));
}

TEST(RupCheckerTest, RejectsEmptyLemmaWithoutConflict) {
  certify::RupChecker checker;
  EXPECT_TRUE(checker.AddInput({Pos(0), Pos(1)}));
  EXPECT_FALSE(checker.AddLemma({}));
}

TEST(RupCheckerTest, DeleteRequiresMatchingClause) {
  certify::RupChecker checker;
  EXPECT_TRUE(checker.AddInput({Pos(0), Pos(1)}));
  // Content-matched regardless of literal order.
  EXPECT_TRUE(checker.Delete({Pos(1), Pos(0)}));
  EXPECT_FALSE(checker.Delete({Pos(0), Pos(1)}));  // Already retired.
}

TEST(RupCheckerTest, DeletedLemmaNoLongerPropagates) {
  certify::RupChecker checker;
  EXPECT_TRUE(checker.AddInput({Pos(0), Pos(1)}));
  EXPECT_TRUE(checker.AddInput({Neg(0), Pos(1)}));
  EXPECT_TRUE(checker.AddLemma({Pos(1)}));
  EXPECT_TRUE(checker.Delete({Pos(1)}));
  // Without the deleted unit, !b no longer conflicts at root: the empty
  // lemma must be rejected (b is still entailed, but the checker only
  // propagates active clauses — exactly DRAT semantics).
  EXPECT_TRUE(checker.AddInput({Neg(1)}));
  EXPECT_TRUE(checker.proven_unsat());  // Inputs still derive it.
}

// ---------------------------------------------------------------------------
// Backend-level certification: the wrapper checks what the solver claims.

ConstraintSystem SimpleOptimization() {
  ConstraintSystem cs;
  BVarId x = cs.NewBool("x");
  BVarId y = cs.NewBool("y");
  cs.AddHard(cs.Or({cs.Var(x), cs.Var(y)}));
  cs.AddSoft(cs.Not(cs.Var(x)), 3);
  cs.AddSoft(cs.Not(cs.Var(y)), 1);
  return cs;
}

ConstraintSystem Contradiction() {
  ConstraintSystem cs;
  BVarId x = cs.NewBool("x");
  cs.AddHard(cs.Var(x), "h.pos");
  cs.AddHard(cs.Not(cs.Var(x)), "h.neg");
  return cs;
}

// The internal engine solves under the line tie-break weights: the claimed
// optimum is in those units and must check against the re-encoded problem.
TEST(CertifyBackendTest, InternalOptimalProducesValidatingCertificate) {
  std::unique_ptr<MaxSmtBackend> backend =
      certify::MakeCertifyingBackend(MakeInternalBackend(), certify::CertifyMode::kOn);
  // Either soft may go at construct cost 1; dropping !y changes fewer lines.
  ConstraintSystem cs;
  BVarId x = cs.NewBool("x");
  BVarId y = cs.NewBool("y");
  cs.AddHard(cs.Or({cs.Var(x), cs.Var(y)}));
  cs.AddSoft(cs.Not(cs.Var(x)), 1, "x", /*lines=*/4);
  cs.AddSoft(cs.Not(cs.Var(y)), 1, "y", /*lines=*/1);
  MaxSmtResult result = backend->SolveCertified(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  EXPECT_EQ(result.cost, 1);
  EXPECT_EQ(result.violated_soft, std::vector<int>{1});
  EXPECT_EQ(result.certification, MaxSmtResult::Certification::kVerified)
      << result.certify_message;
  ASSERT_NE(result.certificate, nullptr);
  EXPECT_EQ(result.certificate->kind, Certificate::Kind::kClausal);
  EXPECT_EQ(result.certificate->claim, Certificate::Claim::kOptimal);
  // Weights 1*6+4 and 1*6+1 (scale 1 + 4 + 1): the optimum is 7.
  EXPECT_EQ(result.certificate->cost, 7);
  // The certificate also validates standalone, without the system.
  certify::CheckResult check = certify::CheckCertificate(*result.certificate);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(CertifyBackendTest, InternalUnsatProducesValidatingCertificate) {
  std::unique_ptr<MaxSmtBackend> backend =
      certify::MakeCertifyingBackend(MakeInternalBackend(), certify::CertifyMode::kOn);
  ConstraintSystem cs = Contradiction();
  MaxSmtResult result = backend->SolveCertified(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kUnsat);
  EXPECT_EQ(result.certification, MaxSmtResult::Certification::kVerified);
  ASSERT_NE(result.certificate, nullptr);
  EXPECT_EQ(result.certificate->claim, Certificate::Claim::kUnsat);
}

TEST(CertifyBackendTest, Z3GetsModelSideCertification) {
  std::unique_ptr<MaxSmtBackend> backend =
      certify::MakeCertifyingBackend(MakeZ3Backend(), certify::CertifyMode::kOn);
  ConstraintSystem cs = SimpleOptimization();
  MaxSmtResult result = backend->SolveCertified(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  EXPECT_EQ(result.certification, MaxSmtResult::Certification::kVerified);
  ASSERT_NE(result.certificate, nullptr);
  EXPECT_EQ(result.certificate->kind, Certificate::Kind::kModelOnly);
}

TEST(CertifyBackendTest, AutoModeChecksUnsatOnly) {
  std::unique_ptr<MaxSmtBackend> optimal_backend =
      certify::MakeCertifyingBackend(MakeInternalBackend(), certify::CertifyMode::kAuto);
  ConstraintSystem opt = SimpleOptimization();
  MaxSmtResult optimal = optimal_backend->SolveCertified(opt, 10);
  ASSERT_EQ(optimal.status, MaxSmtResult::Status::kOptimal);
  EXPECT_EQ(optimal.certification, MaxSmtResult::Certification::kNone);

  std::unique_ptr<MaxSmtBackend> unsat_backend =
      certify::MakeCertifyingBackend(MakeInternalBackend(), certify::CertifyMode::kAuto);
  ConstraintSystem bad = Contradiction();
  MaxSmtResult unsat = unsat_backend->SolveCertified(bad, 10);
  ASSERT_EQ(unsat.status, MaxSmtResult::Status::kUnsat);
  EXPECT_EQ(unsat.certification, MaxSmtResult::Certification::kVerified);
}

TEST(CertifyBackendTest, TamperedCostIsRejected) {
  std::unique_ptr<MaxSmtBackend> inner = MakeInternalBackend();
  ConstraintSystem cs = SimpleOptimization();
  MaxSmtResult result = inner->SolveCertified(cs, 10);
  ASSERT_EQ(result.status, MaxSmtResult::Status::kOptimal);
  ASSERT_NE(result.certificate, nullptr);
  // An attacker (or a buggy solver) claiming a cheaper optimum must be
  // caught by the in-process check.
  result.cost = 0;
  certify::CheckResult check = certify::CheckCertified(cs, &result);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.message.empty());
}

// ---------------------------------------------------------------------------
// Artifact serialization.

TEST(CertifyArtifactTest, RoundTripPreservesTheCheck) {
  std::unique_ptr<MaxSmtBackend> inner = MakeInternalBackend();
  ConstraintSystem cs = SimpleOptimization();
  MaxSmtResult result = inner->SolveCertified(cs, 10);
  ASSERT_NE(result.certificate, nullptr);

  std::string json = certify::SerializeCertificate(*result.certificate);
  Certificate parsed;
  std::string error;
  ASSERT_TRUE(certify::ParseCertificate(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.kind, result.certificate->kind);
  EXPECT_EQ(parsed.claim, result.certificate->claim);
  EXPECT_EQ(parsed.cost, result.certificate->cost);
  EXPECT_EQ(parsed.events.size(), result.certificate->events.size());
  EXPECT_EQ(parsed.model, result.certificate->model);

  certify::CheckResult check = certify::CheckCertificate(parsed);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(CertifyArtifactTest, SerializedCertificateIsSchemaOneJson) {
  std::unique_ptr<MaxSmtBackend> inner = MakeInternalBackend();
  ConstraintSystem cs = Contradiction();
  MaxSmtResult result = inner->SolveCertified(cs, 10);
  ASSERT_NE(result.certificate, nullptr);
  std::string json = certify::SerializeCertificate(*result.certificate);
  std::string error;
  // The strict RFC-8259 validator behind tools/cpr_json_validate must accept
  // every artifact we emit; check.sh runs the tool over the artifact dir.
  ASSERT_TRUE(obs::ValidateJson(json, &error)) << error;
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(json, &doc, &error)) << error;
  const obs::JsonValue* version = doc.Find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->AsInt(), 1);
  const obs::JsonValue* claim = doc.Find("claim");
  ASSERT_NE(claim, nullptr);
  EXPECT_EQ(claim->string, "unsat");
}

TEST(CertifyArtifactTest, CheckArtifactDirFlagsTampering) {
  fs::path dir = fs::temp_directory_path() / "cpr_certify_artifact_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::unique_ptr<MaxSmtBackend> inner = MakeInternalBackend();
  ConstraintSystem cs = SimpleOptimization();
  MaxSmtResult result = inner->SolveCertified(cs, 10);
  ASSERT_NE(result.certificate, nullptr);
  ASSERT_TRUE(certify::WriteCertificateFile((dir / "p0-optimal.cert.json").string(),
                                            *result.certificate)
                  .ok());

  // A tampered copy: claim a cheaper optimum than the proof establishes.
  Certificate tampered = *result.certificate;
  tampered.cost -= 1;
  ASSERT_TRUE(certify::WriteCertificateFile((dir / "p1-tampered.cert.json").string(),
                                            tampered)
                  .ok());

  Result<std::vector<certify::ArtifactCheck>> checks =
      certify::CheckArtifactDir(dir.string());
  ASSERT_TRUE(checks.ok()) << checks.error().message();
  ASSERT_EQ(checks->size(), 2u);
  EXPECT_TRUE((*checks)[0].ok) << (*checks)[0].message;
  EXPECT_GT((*checks)[0].lemmas, 0);
  EXPECT_FALSE((*checks)[1].ok);
  fs::remove_all(dir);
}

TEST(CertifyArtifactTest, MissingDirectoryIsAnError) {
  Result<std::vector<certify::ArtifactCheck>> checks =
      certify::CheckArtifactDir("/nonexistent/cpr-certify-test-dir");
  EXPECT_FALSE(checks.ok());
}

TEST(CertifyModeTest, ParseAndName) {
  certify::CertifyMode mode = certify::CertifyMode::kOff;
  EXPECT_TRUE(certify::ParseCertifyMode("on", &mode));
  EXPECT_EQ(mode, certify::CertifyMode::kOn);
  EXPECT_TRUE(certify::ParseCertifyMode("auto", &mode));
  EXPECT_EQ(mode, certify::CertifyMode::kAuto);
  EXPECT_TRUE(certify::ParseCertifyMode("off", &mode));
  EXPECT_EQ(mode, certify::CertifyMode::kOff);
  EXPECT_TRUE(certify::ParseCertifyMode("log", &mode));
  EXPECT_EQ(mode, certify::CertifyMode::kLog);
  EXPECT_FALSE(certify::ParseCertifyMode("bogus", &mode));
  EXPECT_STREQ(certify::CertifyModeName(certify::CertifyMode::kAuto), "auto");
  EXPECT_STREQ(certify::CertifyModeName(certify::CertifyMode::kLog), "log");
}

// ---------------------------------------------------------------------------
// Repair-engine integration on the paper example.

class CertifyRepairTest : public ::testing::Test {
 protected:
  CertifyRepairTest() : network_(BuildExampleNetwork()), harc_(Harc::Build(network_)) {
    s_ = *network_.FindSubnet(ExampleSubnetS());
    t_ = *network_.FindSubnet(ExampleSubnetT());
  }

  RepairOptions CertifiedOptions() {
    RepairOptions options;
    options.backend = BackendChoice::kInternal;
    options.certify = certify::CertifyMode::kOn;
    return options;
  }

  std::vector<Policy> Repairable() {
    return {Policy::AlwaysWaypoint(s_, t_), Policy::Reachability(s_, t_, 2)};
  }
  std::vector<Policy> Impossible() {
    return {Policy::AlwaysBlocked(s_, t_), Policy::Reachability(s_, t_, 1)};
  }

  Network network_;
  Harc harc_;
  SubnetId s_, t_;
};

TEST_F(CertifyRepairTest, SuccessfulRepairIsVerified) {
  Result<RepairOutcome> outcome = ComputeRepair(harc_, Repairable(), CertifiedOptions());
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->status, RepairStatus::kSuccess);
  EXPECT_GT(outcome->stats.certify_checked, 0);
  EXPECT_EQ(outcome->stats.certify_failed, 0);
  EXPECT_EQ(outcome->stats.certify_checked, outcome->stats.certify_verified);
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    EXPECT_EQ(report.certification, MaxSmtResult::Certification::kVerified)
        << report.certify_message;
    EXPECT_NE(report.certificate, nullptr);
  }
}

TEST_F(CertifyRepairTest, UnsatCoreIsCheckable) {
  Result<RepairOutcome> outcome = ComputeRepair(harc_, Impossible(), CertifiedOptions());
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->status, RepairStatus::kUnsat);
  bool saw_unsat = false;
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    if (report.status != MaxSmtResult::Status::kUnsat) {
      continue;
    }
    saw_unsat = true;
    EXPECT_EQ(report.certification, MaxSmtResult::Certification::kVerified)
        << report.certify_message;
    EXPECT_FALSE(report.unsat_core_labels.empty());
    ASSERT_NE(report.certificate, nullptr);
    certify::CheckResult check = certify::CheckCertificate(*report.certificate);
    EXPECT_TRUE(check.ok) << check.message;
  }
  EXPECT_TRUE(saw_unsat);
}

TEST_F(CertifyRepairTest, ArtifactsAreEmittedAndRecheckable) {
  fs::path dir = fs::temp_directory_path() / "cpr_certify_repair_artifacts";
  fs::remove_all(dir);
  RepairOptions options = CertifiedOptions();
  options.certify_artifact_dir = dir.string();
  Result<RepairOutcome> outcome = ComputeRepair(harc_, Repairable(), options);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->status, RepairStatus::kSuccess);
  EXPECT_GT(outcome->stats.certify_artifacts, 0);
  Result<std::vector<certify::ArtifactCheck>> checks =
      certify::CheckArtifactDir(dir.string());
  ASSERT_TRUE(checks.ok()) << checks.error().message();
  EXPECT_EQ(static_cast<int>(checks->size()), outcome->stats.certify_artifacts);
  for (const certify::ArtifactCheck& check : *checks) {
    EXPECT_TRUE(check.ok) << check.file << ": " << check.message;
  }
  fs::remove_all(dir);
}

// Each seeded corruption mode must be caught: without failover the run
// demotes to kError; with failover the result is re-solved on Z3 and ships
// verified from there.
class CertifyFaultTest : public CertifyRepairTest,
                         public ::testing::WithParamInterface<const char*> {};

TEST_P(CertifyFaultTest, CorruptionIsCaughtAndDemoted) {
  RepairOptions options = CertifiedOptions();
  options.enable_failover = false;
  Result<FaultInjectionSpec> fault = FaultInjectionSpec::Parse(GetParam());
  ASSERT_TRUE(fault.ok()) << fault.error().message();
  options.fault_injection = *fault;
  // drop-core needs an UNSAT run to have a core conclusion to truncate; the
  // other modes corrupt the optimal-claim evidence.
  const bool unsat_mode = std::string(GetParam()).rfind("drop-core", 0) == 0;
  std::vector<Policy> policies = unsat_mode ? Impossible() : Repairable();
  Result<RepairOutcome> outcome = ComputeRepair(harc_, policies, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status, RepairStatus::kError);
  EXPECT_GT(outcome->stats.certify_failed, 0);
  bool saw_failed = false;
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    if (report.certification == MaxSmtResult::Certification::kFailed) {
      saw_failed = true;
      EXPECT_EQ(report.status, MaxSmtResult::Status::kError);
      EXPECT_NE(report.message.find("certificate check failed"), std::string::npos)
          << report.message;
    }
  }
  EXPECT_TRUE(saw_failed);
}

TEST_P(CertifyFaultTest, CorruptionReroutesToFailover) {
  RepairOptions options = CertifiedOptions();
  options.enable_failover = true;
  Result<FaultInjectionSpec> fault = FaultInjectionSpec::Parse(GetParam());
  ASSERT_TRUE(fault.ok()) << fault.error().message();
  options.fault_injection = *fault;
  const bool unsat_mode = std::string(GetParam()).rfind("drop-core", 0) == 0;
  std::vector<Policy> policies = unsat_mode ? Impossible() : Repairable();
  Result<RepairOutcome> outcome = ComputeRepair(harc_, policies, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status,
            unsat_mode ? RepairStatus::kUnsat : RepairStatus::kSuccess);
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    // Whatever shipped was re-solved and re-verified on the secondary.
    EXPECT_EQ(report.certification, MaxSmtResult::Certification::kVerified)
        << report.certify_message;
    EXPECT_NE(report.backend.find("z3"), std::string::npos) << report.backend;
    EXPECT_GE(report.attempts, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCorruptionModes, CertifyFaultTest,
                         ::testing::Values("corrupt-proof:max=1", "flip-model:max=1",
                                           "drop-core:max=1"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == ':' || c == '=') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Parameterized both-backend coverage on the fig07 (datacenter) workload —
// every solve and every reported UNSAT core must certify.

Network MustBuildNetwork(const std::vector<std::string>& texts,
                         NetworkAnnotations annotations) {
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> config = ParseConfig(text);
    EXPECT_TRUE(config.ok()) << config.error().message();
    configs.push_back(*std::move(config));
  }
  Result<Network> network = Network::Build(std::move(configs), std::move(annotations));
  EXPECT_TRUE(network.ok()) << network.error().message();
  return *std::move(network);
}

class CertifyWorkloadTest : public ::testing::TestWithParam<BackendChoice> {
 protected:
  // Every problem must be solved and certified on the engine under test
  // itself: a failed internal certificate would otherwise fail over to Z3
  // and still ship verified. Counters come from the test's own registry.
  void ExpectSolvedOnEngine(const RepairStats& stats) {
    const std::string engine =
        GetParam() == BackendChoice::kInternal ? "internal-maxsat" : "z3-optimize";
    for (const ProblemReport& report : stats.problem_reports) {
      EXPECT_EQ(report.backend, engine);
    }
    EXPECT_EQ(registry_.counter("certify.failover").value(), 0);
  }

  obs::Registry registry_;
  obs::RegistryScope scope_{&registry_};
};

TEST_P(CertifyWorkloadTest, DatacenterSolvesAllCertify) {
  for (int index : {0, 3}) {
    DatacenterNetwork dataset = GenerateDatacenterNetwork(index, 2017, 0.2);
    Network network = MustBuildNetwork(dataset.broken_configs, dataset.annotations);
    Harc harc = Harc::Build(network);
    RepairOptions options;
    options.backend = GetParam();
    options.certify = certify::CertifyMode::kOn;
    options.num_threads = 2;
    Result<RepairOutcome> outcome = ComputeRepair(harc, dataset.policies, options);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message();
    EXPECT_EQ(outcome->stats.certify_failed, 0);
    for (const ProblemReport& report : outcome->stats.problem_reports) {
      EXPECT_EQ(report.certification, MaxSmtResult::Certification::kVerified)
          << "network " << index << ": " << report.certify_message;
    }
    ExpectSolvedOnEngine(outcome->stats);
  }
}

TEST_P(CertifyWorkloadTest, DatacenterUnsatCoresCertifyCold) {
  DatacenterNetwork dataset = GenerateDatacenterNetwork(1, 2017, 0.2);
  Network network = MustBuildNetwork(dataset.broken_configs, dataset.annotations);
  Harc harc = Harc::Build(network);
  // Force UNSAT problems: demand a traffic class be simultaneously blocked
  // and reachable (one such pair per policied destination we touch).
  std::vector<Policy> policies = dataset.policies;
  int planted = 0;
  for (const Policy& policy : dataset.policies) {
    if (policy.pc == PolicyClass::kReachability && planted < 2) {
      policies.push_back(Policy::AlwaysBlocked(policy.src, policy.dst));
      ++planted;
    }
  }
  ASSERT_GT(planted, 0);

  RepairOptions options;
  options.backend = GetParam();
  options.certify = certify::CertifyMode::kOn;
  Result<RepairOutcome> outcome = ComputeRepair(harc, policies, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  EXPECT_EQ(outcome->stats.certify_failed, 0);
  bool saw_unsat = false;
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    EXPECT_EQ(report.certification, MaxSmtResult::Certification::kVerified)
        << report.certify_message;
    if (report.status == MaxSmtResult::Status::kUnsat) {
      saw_unsat = true;
      EXPECT_FALSE(report.unsat_core_labels.empty());
    }
  }
  EXPECT_TRUE(saw_unsat);
  ExpectSolvedOnEngine(outcome->stats);
}

// PC3's disjoint-path encoding is nearly all hard disjunctions, which the
// internal engine asserts as direct clauses; the inline check replays that
// encoding event for event against each certificate's baseline.
TEST_P(CertifyWorkloadTest, FatTreePc3SolvesAllCertify) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kReachability, 12, 7);
  Network network = MustBuildNetwork(scenario.broken_configs, scenario.annotations);
  Harc harc = Harc::Build(network);
  RepairOptions options;
  options.backend = GetParam();
  options.certify = certify::CertifyMode::kOn;
  options.num_threads = 2;
  Result<RepairOutcome> outcome = ComputeRepair(harc, scenario.policies, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  EXPECT_EQ(outcome->status, RepairStatus::kSuccess);
  EXPECT_GT(outcome->stats.certify_checked, 0);
  EXPECT_EQ(outcome->stats.certify_failed, 0);
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    EXPECT_EQ(report.certification, MaxSmtResult::Certification::kVerified)
        << report.certify_message;
  }
  ExpectSolvedOnEngine(outcome->stats);
}

TEST_P(CertifyWorkloadTest, CompressedRepairStaysCertified) {
  // The compression pre-pass solves on the quotient network and lifts the
  // patch; the quotient solves are certified exactly like concrete ones.
  DatacenterNetwork dataset = GenerateDatacenterNetwork(2, 2017, 0.2);
  Result<Cpr> pipeline =
      Cpr::FromConfigTexts(dataset.broken_configs, dataset.annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
  CprOptions options;
  options.repair.backend = GetParam();
  options.repair.certify = certify::CertifyMode::kOn;
  options.repair.compress.mode = CompressMode::kOn;
  options.repair.compress.min_routers = 0;
  options.validate_with_simulator = false;
  Result<CprReport> report = pipeline->Repair(dataset.policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  EXPECT_GT(report->stats.certify_checked, 0);
  EXPECT_EQ(report->stats.certify_failed, 0);
  for (const ProblemReport& problem : report->stats.problem_reports) {
    EXPECT_EQ(problem.certification, MaxSmtResult::Certification::kVerified)
        << problem.certify_message;
  }
  ExpectSolvedOnEngine(report->stats);
}

// The MaxSAT engine skips a stratum whose selectors the last model already
// sets; those solves log no proof event for it. Their certificates must
// still validate. A 4-port PC1 fat-tree's problems skip strata.
TEST(CertifySkippedStrataTest, CertificatesStillValidate) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 40, 7);
  Network network = MustBuildNetwork(scenario.broken_configs, scenario.annotations);
  Harc harc = Harc::Build(network);
  RepairOptions options;
  options.backend = BackendChoice::kInternal;
  options.certify = certify::CertifyMode::kOn;
  options.num_threads = 2;
  Result<RepairOutcome> outcome = ComputeRepair(harc, scenario.policies, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  EXPECT_EQ(outcome->status, RepairStatus::kSuccess);
  EXPECT_GT(outcome->stats.certify_checked, 0);
  EXPECT_EQ(outcome->stats.certify_failed, 0);
  int64_t skipped = 0;
  for (const ProblemReport& report : outcome->stats.problem_reports) {
    EXPECT_EQ(report.backend, "internal-maxsat");
    EXPECT_EQ(report.certification, MaxSmtResult::Certification::kVerified)
        << report.certify_message;
    for (const auto& [name, value] : report.solver_counters) {
      skipped += name == "maxsat.strata_skipped" ? static_cast<int64_t>(value) : 0;
    }
  }
  EXPECT_GT(skipped, 0) << "no problem skipped a stratum";
}

INSTANTIATE_TEST_SUITE_P(BothBackends, CertifyWorkloadTest,
                         ::testing::Values(BackendChoice::kInternal,
                                           BackendChoice::kZ3),
                         [](const ::testing::TestParamInfo<BackendChoice>& info) {
                           return info.param == BackendChoice::kZ3 ? "Z3" : "Internal";
                         });

}  // namespace
}  // namespace cpr
