// cprd daemon robustness: admission control, deadline budgets, crash
// isolation with retry, snapshot caching, and exactly-once drain/restart.
//
// Every test drives a real in-process Daemon over the paper's running
// example (tests/example_network.h) on the default internal backend, so the
// full parse -> HARC -> verify -> MaxSAT -> translate pipeline runs under
// the daemon exactly as it does under `cprd serve`.

#include "serve/daemon.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/printer.h"
#include "core/cpr.h"
#include "core/policy_spec.h"
#include "incremental/session.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/request.h"
#include "serve/snapshot_cache.h"
#include "serve/wire.h"
#include "tests/example_network.h"
#include "tests/rebreak.h"
#include "workload/fattree.h"

namespace cpr::serve {
namespace {

namespace fs = std::filesystem;

// The boolean-only policy subset keeps every problem in the propositional
// fragment, so the internal backend solves it without Z3.
constexpr const char* kPolicyText =
    "waypoint-link B C\n"
    "reachable 10.2.0.0/16 -> 10.20.0.0/16 k 2\n";

// A disposable on-disk snapshot (config dir + policy file + daemon dirs).
class ServeFixture {
 public:
  explicit ServeFixture(const std::string& name) {
    root_ = fs::temp_directory_path() /
            ("cpr_serve_test_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "configs");
    fs::create_directories(root_ / "ckpt");
    WriteConfig("A.cfg", kExampleConfigA);
    WriteConfig("B.cfg", kExampleConfigB);
    WriteConfig("C.cfg", kExampleConfigC);
    policy_file_ = (root_ / "example.policies").string();
    std::ofstream(policy_file_) << kPolicyText;
  }

  ~ServeFixture() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void WriteConfig(const std::string& name, const std::string& text) {
    std::ofstream((root_ / "configs" / name)) << text;
  }
  // Replaces the whole snapshot, keeping `texts` in order (the daemon loads
  // the files sorted by name).
  void ReplaceConfigs(const std::vector<std::string>& texts) {
    fs::remove_all(root_ / "configs");
    fs::create_directories(root_ / "configs");
    for (size_t i = 0; i < texts.size(); ++i) {
      WriteConfig((i < 10 ? "r0" : "r") + std::to_string(i) + ".cfg", texts[i]);
    }
  }

  // Writes another policy file next to the default one; returns its path.
  std::string WritePolicy(const std::string& name, const std::string& text) const {
    const std::string path = (root_ / name).string();
    std::ofstream(path) << text;
    return path;
  }

  std::string config_dir() const { return (root_ / "configs").string(); }
  std::string policy_file() const { return policy_file_; }
  std::string checkpoint_dir() const { return (root_ / "ckpt").string(); }

  RequestSpec Spec(const std::string& tag = "t") const {
    RequestSpec spec;
    spec.tag = tag;
    spec.config_dir = config_dir();
    spec.policy_file = policy_file();
    spec.timeout_seconds = 10;
    return spec;
  }

  DaemonOptions Options() const {
    DaemonOptions options;
    options.checkpoint_dir = checkpoint_dir();
    options.workers = 2;
    options.solve_threads = 2;
    options.retry_backoff_seconds = 0.01;  // Tests should not sleep much.
    options.retry_max_backoff_seconds = 0.05;
    return options;
  }

 private:
  fs::path root_;
  std::string policy_file_;
};

int64_t CounterIn(const obs::Snapshot& snapshot, const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) {
      return value;
    }
  }
  return 0;
}

int64_t GlobalCounter(const std::string& name) {
  return CounterIn(obs::Registry::Global().TakeSnapshot(), name);
}

// ---- wire + spec serialization --------------------------------------------

TEST(WireTest, EscapingRoundTripsHostileValues) {
  WireFields fields{{"op", "submit"},
                    {"tag", "spaces and = and % and\nnewline\r"},
                    {"empty", ""}};
  std::string line = EncodeWireLine(fields);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  Result<WireFields> decoded = DecodeWireLine(line);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(*decoded, fields);
}

TEST(WireTest, SpecFieldsRoundTripIncludingNonDefaults) {
  RequestSpec spec;
  spec.tag = "soak run #4";
  spec.config_dir = "/tmp/x y";
  spec.policy_file = "/tmp/p";
  spec.deadline_seconds = 12.5;
  spec.timeout_seconds = 3;
  spec.backend = "z3";
  spec.granularity = "alltcs";
  spec.max_retries = 2;
  spec.simulate = true;
  spec.lint = "off";
  spec.incremental = "off";
  spec.inject_fault = "throw:p=0.5:seed=7";
  spec.trace_id = "00c0ffee00c0ffee";

  Result<RequestSpec> round = SpecFromFields(FieldsFromSpec(spec));
  ASSERT_TRUE(round.ok()) << round.error().message();
  EXPECT_EQ(round->tag, spec.tag);
  EXPECT_EQ(round->config_dir, spec.config_dir);
  EXPECT_EQ(round->policy_file, spec.policy_file);
  EXPECT_DOUBLE_EQ(round->deadline_seconds, spec.deadline_seconds);
  EXPECT_DOUBLE_EQ(round->timeout_seconds, spec.timeout_seconds);
  EXPECT_EQ(round->backend, spec.backend);
  EXPECT_EQ(round->granularity, spec.granularity);
  EXPECT_EQ(round->max_retries, spec.max_retries);
  EXPECT_EQ(round->simulate, spec.simulate);
  EXPECT_EQ(round->lint, spec.lint);
  EXPECT_EQ(round->incremental, spec.incremental);
  EXPECT_EQ(round->inject_fault, spec.inject_fault);
  EXPECT_EQ(round->trace_id, spec.trace_id);
}

TEST(WireTest, MalformedNumbersAreRejected) {
  // A lenient parse would read "true" as 0 (simulation silently off), "abc"
  // as 0 (the daemon's default budget) and "2x" as 2.
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"simulate", "true"}, {"deadline", "abc"}, {"max_retries", "2x"}}) {
    Result<RequestSpec> spec =
        SpecFromFields({{"config_dir", "/tmp/x"}, {"policy_file", "/tmp/p"}, {key, value}});
    ASSERT_FALSE(spec.ok()) << key << "=" << value;
    EXPECT_NE(spec.error().message().find(key), std::string::npos)
        << spec.error().message();
  }
  // Checkpoint records share the format: a malformed one fails to load.
  EXPECT_FALSE(CheckpointStore::DecodeRecord("id=9 budget=abc").ok());
  EXPECT_FALSE(CheckpointStore::DecodeRecord("id=9 simulate=true").ok());
}

// ---- checkpoint store -----------------------------------------------------

TEST(CheckpointTest, MarkAndSweepRecoversOnlyUncompletedRequests) {
  ServeFixture fx("ckpt");
  Result<CheckpointStore> store = CheckpointStore::Open(fx.checkpoint_dir());
  ASSERT_TRUE(store.ok()) << store.error().message();

  for (uint64_t id : {1, 2, 3}) {
    CheckpointRecord record;
    record.id = id;
    // Request 1 has under 0.5 us left, which must not read back as 0
    // (unbounded); request 3 expired while queued.
    record.budget = id == 1 ? 4e-7 : id == 3 ? -1 : 0;
    record.spec = fx.Spec("r" + std::to_string(id));
    ASSERT_TRUE(store->Persist(record).ok());
  }
  ASSERT_TRUE(store->MarkCompleted(2).ok());

  // A new store on the same dir models the restarted daemon.
  Result<CheckpointStore> reopened = CheckpointStore::Open(fx.checkpoint_dir());
  ASSERT_TRUE(reopened.ok());
  Result<std::vector<CheckpointRecord>> pending = reopened->LoadAndSweep();
  ASSERT_TRUE(pending.ok()) << pending.error().message();
  ASSERT_EQ(pending->size(), 2u);
  EXPECT_EQ((*pending)[0].id, 1u);
  EXPECT_EQ((*pending)[0].budget, 4e-7);
  EXPECT_EQ((*pending)[1].id, 3u);
  EXPECT_LT((*pending)[1].budget, 0);  // Expiry survives the restart.
  EXPECT_EQ(reopened->max_seen_id(), 3u);
  EXPECT_EQ((*pending)[0].spec.tag, "r1");
}

// ---- snapshot cache -------------------------------------------------------

TEST(SnapshotCacheTest, HitsOnIdenticalSnapshotInvalidatesOnChange) {
  ServeFixture fx("cache");
  obs::Registry registry;
  SnapshotCache cache(4, &registry);

  Result<RequestInputs> inputs = LoadRequestInputs(fx.Spec());
  ASSERT_TRUE(inputs.ok()) << inputs.error().message();

  Result<std::shared_ptr<const Cpr>> first =
      cache.GetOrBuild(fx.config_dir(), inputs->config_texts, inputs->policy_text);
  ASSERT_TRUE(first.ok()) << first.error().message();
  Result<std::shared_ptr<const Cpr>> second =
      cache.GetOrBuild(fx.config_dir(), inputs->config_texts, inputs->policy_text);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get()) << "same snapshot must share a pipeline";

  // Change one router: same source, new content hash -> differ-driven
  // invalidation of the superseded entry, not just an LRU insert.
  std::vector<std::string> changed = inputs->config_texts;
  changed[0] += "! drift\n";
  Result<std::shared_ptr<const Cpr>> third =
      cache.GetOrBuild(fx.config_dir(), changed, inputs->policy_text);
  ASSERT_TRUE(third.ok()) << third.error().message();
  EXPECT_NE(first->get(), third->get());

  obs::Snapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(CounterIn(snapshot, "serve.cache.hits"), 1);
  EXPECT_EQ(CounterIn(snapshot, "serve.cache.misses"), 2);
  EXPECT_EQ(CounterIn(snapshot, "serve.cache.invalidations"), 1);
  EXPECT_EQ(cache.size(), 1u) << "superseded snapshot must not linger";
}

// ---- daemon: happy path ---------------------------------------------------

TEST(DaemonTest, RunsRequestThroughFullPipeline) {
  ServeFixture fx("happy");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();

  AdmissionDecision decision = (*daemon)->Submit(fx.Spec("happy"));
  ASSERT_TRUE(decision.admitted) << decision.error;
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));

  std::optional<RequestStatus> status = (*daemon)->GetStatus(decision.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, RequestState::kDone);
  EXPECT_EQ(status->status, "success");
  EXPECT_EQ(status->attempts, 1);
  EXPECT_TRUE(status->error.empty()) << status->error;
  // The per-request stats document is the one-shot --stats-json equivalent.
  EXPECT_NE(status->stats_json.find("\"serve\""), std::string::npos);
  EXPECT_NE(status->stats_json.find("\"success\""), std::string::npos);

  // The request ran with a daemon-minted trace ID threaded into the stats
  // document (the join key to the event log and flight recorder).
  size_t trace_key = status->stats_json.find("\"trace_id\":\"");
  ASSERT_NE(trace_key, std::string::npos) << status->stats_json;
  EXPECT_NE(status->stats_json[trace_key + 12], '"')
      << "minted trace id must be non-empty: " << status->stats_json;

  // Pipeline instruments land in the per-request registry DURING execution
  // (so concurrent requests never interleave counts in each other's stats
  // JSON) and are merged into the global registry at completion, which is
  // what lets a scrape cover repair.*/cdcl.* cumulatively.
  bool merged_pipeline_counter = false;
  for (const auto& [name, value] : obs::Registry::Global().TakeSnapshot().counters) {
    if (name.rfind("repair.", 0) == 0 && value > 0) {
      merged_pipeline_counter = true;
    }
  }
  EXPECT_TRUE(merged_pipeline_counter)
      << "finished request's registry was not merged into the global one";
}

// cprd's default engine is the internal one. A PC4 policy's integer edge
// costs are beyond it, so its problem reaches Z3 through the failover the
// daemon always keeps on.
TEST(DaemonTest, DefaultSpecSolvesOnInternalEngineAndFailsOverPc4ToZ3) {
  ServeFixture fx("default_engine");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();

  RequestSpec spec;
  spec.config_dir = fx.config_dir();
  spec.policy_file = fx.policy_file();
  AdmissionDecision boolean = (*daemon)->Submit(spec);
  spec.policy_file = fx.WritePolicy(
      "pc4.policies", std::string(kPolicyText) +
                          "primary-path 10.1.0.0/16 -> 10.20.0.0/16 via A B C\n");
  AdmissionDecision pc4 = (*daemon)->Submit(spec);
  ASSERT_TRUE(boolean.admitted && pc4.admitted) << boolean.error << pc4.error;
  ASSERT_TRUE((*daemon)->WaitFor(boolean.id, 30));
  ASSERT_TRUE((*daemon)->WaitFor(pc4.id, 30));

  std::optional<RequestStatus> status = (*daemon)->GetStatus(boolean.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->status, "success") << status->error;
  EXPECT_NE(status->stats_json.find("\"backend\":\"internal-maxsat\""), std::string::npos)
      << status->stats_json;
  EXPECT_EQ(status->stats_json.find("z3-optimize"), std::string::npos);

  status = (*daemon)->GetStatus(pc4.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->status, "success") << status->error;
  EXPECT_NE(status->stats_json.find("\"backend\":\"z3-optimize\""), std::string::npos)
      << status->stats_json;
  EXPECT_NE(status->stats_json.find("\"solver.failovers\":1"), std::string::npos)
      << status->stats_json;
}

// ---- daemon: deadlines ----------------------------------------------------

TEST(DaemonTest, ExpiredDeadlineReportsCleanlyWithoutSolving) {
  ServeFixture fx("deadline");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok());

  RequestSpec spec = fx.Spec("expired");
  spec.deadline_seconds = -1;  // Arrived dead.
  AdmissionDecision decision = (*daemon)->Submit(spec);
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 10));

  std::optional<RequestStatus> status = (*daemon)->GetStatus(decision.id);
  ASSERT_TRUE(status.has_value());
  // A dead budget is a DONE request with a clean deadline report — the
  // daemon did exactly what the budget allowed — not a failure.
  EXPECT_EQ(status->state, RequestState::kDone);
  EXPECT_EQ(status->status, "deadline-exceeded");
  EXPECT_EQ(status->attempts, 1);
  EXPECT_NE(status->stats_json.find("deadline-exceeded"), std::string::npos);
}

// Only the newest Daemon::kRetainedStatsDocuments finished requests keep
// their stats document in memory. An older request keeps its status, says
// its document expired, and still has its file in results_dir.
TEST(DaemonTest, OldStatsDocumentsExpireButStatusesAndFilesStay) {
  ServeFixture fx("statsexpiry");
  DaemonOptions options = fx.Options();
  options.results_dir = (fs::path(fx.checkpoint_dir()).parent_path() / "results").string();
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  // Arrived-dead requests finish at once, each with a stats document.
  RequestSpec spec = fx.Spec("expiring");
  spec.deadline_seconds = -1;
  const size_t total = Daemon::kRetainedStatsDocuments + 2;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < total; ++i) {
    AdmissionDecision decision = (*daemon)->Submit(spec);
    ASSERT_TRUE(decision.admitted) << decision.error;
    ASSERT_TRUE((*daemon)->WaitFor(decision.id, 10));
    ids.push_back(decision.id);
  }

  for (size_t i = 0; i < total; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    std::optional<RequestStatus> status = (*daemon)->GetStatus(ids[i]);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, RequestState::kDone);
    EXPECT_EQ(status->status, "deadline-exceeded");
    const bool expired = i < total - Daemon::kRetainedStatsDocuments;
    EXPECT_EQ(status->stats_expired, expired);
    EXPECT_EQ(status->stats_json.empty(), expired);
    EXPECT_TRUE(fs::exists(fs::path(options.results_dir) /
                           ("result-" + std::to_string(ids[i]) + ".json")));
  }
}

TEST(DaemonTest, BudgetSpentInQueueExpiresTheRequest) {
  ServeFixture fx("queuewait");
  DaemonOptions options = fx.Options();
  options.workers = 1;  // One worker, so the victim waits behind the blocker.
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  RequestSpec blocker = fx.Spec("blocker");
  blocker.inject_fault = "slow:p=1:slow=0.4:seed=1";
  ASSERT_TRUE((*daemon)->Submit(blocker).admitted);

  RequestSpec victim = fx.Spec("victim");
  victim.deadline_seconds = 0.05;  // Will die in the queue behind the blocker.
  AdmissionDecision decision = (*daemon)->Submit(victim);
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));

  std::optional<RequestStatus> status = (*daemon)->GetStatus(decision.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->status, "deadline-exceeded")
      << "the budget starts at admission; queue wait must spend it";
  EXPECT_EQ(status->state, RequestState::kDone);
}

// ---- daemon: admission control --------------------------------------------

TEST(DaemonTest, SaturatedQueueRejectsWithRetryAfterHint) {
  ServeFixture fx("saturate");
  DaemonOptions options = fx.Options();
  options.workers = 1;
  options.queue_capacity = 1;
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  RequestSpec slow = fx.Spec("slow");
  slow.inject_fault = "slow:p=1:slow=0.5:seed=1";
  // Fill the worker and the queue; with a 0.5s solve, one of these must hit
  // a full queue long before the worker drains it.
  AdmissionDecision rejected;
  int admitted = 0;
  for (int i = 0; i < 6 && !rejected.error.size(); ++i) {
    AdmissionDecision decision = (*daemon)->Submit(slow);
    if (decision.admitted) {
      ++admitted;
    } else {
      rejected = decision;
    }
  }
  ASSERT_FALSE(rejected.admitted);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);
  EXPECT_GT(rejected.retry_after_seconds, 0) << "a reject must carry a hint";

  // A rejected request was never accepted: it owes no status entry, and the
  // admitted ones still finish.
  (*daemon)->WaitIdle();
  EXPECT_EQ(static_cast<int>((*daemon)->Statuses().size()), admitted);
}

// Regression: deadline-expired requests complete in ~0ms and used to fold
// into exec_seconds_ema_, collapsing the retry-after hint exactly when the
// daemon was overloaded. Only genuinely-solved executions may feed the EMA.
TEST(DaemonTest, ExpiredBudgetBurstDoesNotPoisonRetryAfterHint) {
  ServeFixture fx("emapoison");
  DaemonOptions options = fx.Options();
  options.workers = 1;
  options.queue_capacity = 1;
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  // One genuinely slow solve seeds the EMA.
  RequestSpec slow = fx.Spec("seed-ema");
  slow.inject_fault = "slow:p=1:slow=0.3:seed=1";
  AdmissionDecision seeded = (*daemon)->Submit(slow);
  ASSERT_TRUE(seeded.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(seeded.id, 30));
  ASSERT_EQ((*daemon)->GetStatus(seeded.id)->status, "success");
  const double solved_exec = (*daemon)->GetStatus(seeded.id)->exec_seconds;
  ASSERT_GE(solved_exec, 0.3);

  // A burst of arrived-dead budgets, each finishing in ~0ms.
  for (int i = 0; i < 16; ++i) {
    RequestSpec dead = fx.Spec("dead" + std::to_string(i));
    dead.deadline_seconds = -1;
    AdmissionDecision decision = (*daemon)->Submit(dead);
    ASSERT_TRUE(decision.admitted) << decision.error;
    ASSERT_TRUE((*daemon)->WaitFor(decision.id, 10));
    EXPECT_EQ((*daemon)->GetStatus(decision.id)->status, "deadline-exceeded");
  }

  // Saturate the queue and read the hint off the reject. With a poisoned EMA
  // (0.8^16 decay toward the 0.05s floor) the hint would be ~0.1s; a healthy
  // one scales with the real solve time times the queue ahead of the caller.
  AdmissionDecision rejected;
  for (int i = 0; i < 8 && rejected.error.empty(); ++i) {
    AdmissionDecision decision = (*daemon)->Submit(slow);
    if (!decision.admitted) {
      rejected = decision;
    }
  }
  ASSERT_FALSE(rejected.admitted);
  ASSERT_FALSE(rejected.error.empty());
  EXPECT_GE(rejected.retry_after_seconds, solved_exec)
      << "the hint must reflect real solve time, not the ~0ms expired burst";
  (*daemon)->WaitIdle();
}

TEST(DaemonTest, DrainingDaemonStopsAdmitting) {
  ServeFixture fx("drainrej");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok());
  (*daemon)->Drain();
  AdmissionDecision decision = (*daemon)->Submit(fx.Spec());
  EXPECT_FALSE(decision.admitted);
  EXPECT_NE(decision.error.find("draining"), std::string::npos);
}

// ---- daemon: crash isolation + retry --------------------------------------

TEST(DaemonTest, TransientFaultsRetryThenFailStructurally) {
  ServeFixture fx("throw");
  DaemonOptions options = fx.Options();
  options.max_request_attempts = 2;
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  RequestSpec faulty = fx.Spec("faulty");
  faulty.inject_fault = "throw:p=1:seed=7";  // Every solver call explodes.
  AdmissionDecision decision = (*daemon)->Submit(faulty);
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));

  std::optional<RequestStatus> status = (*daemon)->GetStatus(decision.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, RequestState::kFailed);
  EXPECT_EQ(status->attempts, 2) << "transient failures must be retried";
  EXPECT_NE(status->error.find("transient failure persisted"), std::string::npos)
      << status->error;

  // The blast radius is one request: the daemon keeps serving.
  AdmissionDecision healthy = (*daemon)->Submit(fx.Spec("healthy"));
  ASSERT_TRUE(healthy.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(healthy.id, 30));
  EXPECT_EQ((*daemon)->GetStatus(healthy.id)->status, "success");
}

TEST(DaemonTest, InvalidInputFailsFastWithoutRetries) {
  ServeFixture fx("invalid");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok());

  RequestSpec bad = fx.Spec("bad");
  bad.config_dir = fx.config_dir() + "-does-not-exist";
  AdmissionDecision decision = (*daemon)->Submit(bad);
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 10));

  std::optional<RequestStatus> status = (*daemon)->GetStatus(decision.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, RequestState::kFailed);
  EXPECT_EQ(status->status, "invalid-request");
  EXPECT_EQ(status->attempts, 1) << "malformed input never becomes valid by retrying";
}

TEST(DaemonTest, FaultInjectionSoakLeavesEveryRequestTerminalExactlyOnce) {
  ServeFixture fx("soak");
  DaemonOptions options = fx.Options();
  options.max_request_attempts = 3;
  options.queue_capacity = 64;
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok());

  constexpr int kRequests = 10;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    RequestSpec spec = fx.Spec("soak" + std::to_string(i));
    // Half-probability explosions, seeded per request: some requests succeed
    // first try, some after retries, some exhaust all attempts.
    spec.inject_fault = "throw:p=0.5:seed=" + std::to_string(100 + i);
    AdmissionDecision decision = (*daemon)->Submit(spec);
    ASSERT_TRUE(decision.admitted) << decision.error;
    ids.push_back(decision.id);
  }

  for (uint64_t id : ids) {
    ASSERT_TRUE((*daemon)->WaitFor(id, 60)) << "request " << id << " never finished";
  }
  int done = 0, failed = 0;
  for (uint64_t id : ids) {
    std::optional<RequestStatus> status = (*daemon)->GetStatus(id);
    ASSERT_TRUE(status.has_value());
    ASSERT_GE(status->attempts, 1);
    ASSERT_LE(status->attempts, 3);
    if (status->state == RequestState::kDone) {
      ++done;
      EXPECT_EQ(status->status, "success");
    } else {
      ++failed;
      EXPECT_EQ(status->state, RequestState::kFailed);
    }
  }
  EXPECT_EQ(done + failed, kRequests);
  // The daemon outlives the soak: a clean request still succeeds.
  AdmissionDecision after = (*daemon)->Submit(fx.Spec("after-soak"));
  ASSERT_TRUE(after.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(after.id, 30));
  EXPECT_EQ((*daemon)->GetStatus(after.id)->status, "success");
}

// ---- daemon: graceful drain + restart -------------------------------------

TEST(DaemonTest, DrainCheckpointsQueueAndRestartRecoversExactlyOnce) {
  ServeFixture fx("drain");
  DaemonOptions options = fx.Options();
  options.workers = 1;  // Serialize, so most requests are still queued at drain.
  options.queue_capacity = 16;

  std::set<uint64_t> all_ids;
  std::set<uint64_t> finished_before_restart;
  {
    Result<std::unique_ptr<Daemon>> first = Daemon::Start(options);
    ASSERT_TRUE(first.ok()) << first.error().message();
    for (int i = 0; i < 4; ++i) {
      RequestSpec spec = fx.Spec("gen1-" + std::to_string(i));
      spec.inject_fault = "slow:p=1:slow=0.3:seed=1";
      AdmissionDecision decision = (*first)->Submit(spec);
      ASSERT_TRUE(decision.admitted) << decision.error;
      all_ids.insert(decision.id);
    }

    // SIGTERM equivalent: stop admitting, finish in-flight, checkpoint the
    // rest with their remaining budgets.
    DrainReport report = (*first)->Drain();
    EXPECT_FALSE(report.deadline_hit);
    for (const RequestStatus& status : (*first)->Statuses()) {
      if (status.state == RequestState::kDone || status.state == RequestState::kFailed) {
        finished_before_restart.insert(status.id);
      }
    }
    EXPECT_EQ(report.checkpointed,
              static_cast<int>(all_ids.size() - finished_before_restart.size()));
    EXPECT_GE(report.checkpointed, 1)
        << "a 1-worker daemon with 0.3s solves cannot have drained 4 requests";
  }

  // The restarted daemon mark-and-sweeps the checkpoint dir: finished
  // requests never re-run, unfinished ones run exactly once.
  Result<std::unique_ptr<Daemon>> second = Daemon::Start(options);
  ASSERT_TRUE(second.ok()) << second.error().message();
  EXPECT_EQ((*second)->recovered_count(),
            static_cast<int>(all_ids.size() - finished_before_restart.size()));

  std::set<uint64_t> recovered_ids;
  for (const RequestStatus& status : (*second)->Statuses()) {
    EXPECT_TRUE(status.recovered);
    EXPECT_TRUE(all_ids.count(status.id)) << "unknown id recovered: " << status.id;
    EXPECT_FALSE(finished_before_restart.count(status.id))
        << "request " << status.id << " finished before the restart and ran again";
    recovered_ids.insert(status.id);
  }
  EXPECT_EQ(recovered_ids.size() + finished_before_restart.size(), all_ids.size())
      << "every admitted request is either finished or recovered — none lost";

  for (uint64_t id : recovered_ids) {
    ASSERT_TRUE((*second)->WaitFor(id, 60));
    EXPECT_EQ((*second)->GetStatus(id)->status, "success");
  }

  // New ids never collide with the previous daemon's.
  AdmissionDecision fresh = (*second)->Submit(fx.Spec("gen2"));
  ASSERT_TRUE(fresh.admitted);
  EXPECT_FALSE(all_ids.count(fresh.id));
  ASSERT_TRUE((*second)->WaitFor(fresh.id, 30));

  // A third daemon finds a clean slate: nothing re-runs after completion.
  (*second)->Drain();
  second->reset();
  Result<std::unique_ptr<Daemon>> third = Daemon::Start(options);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ((*third)->recovered_count(), 0)
      << "completed requests must never be recovered again";
}

TEST(DaemonTest, RecoveredExpiredBudgetStaysExpired) {
  ServeFixture fx("recexp");
  DaemonOptions options = fx.Options();
  options.workers = 1;

  {
    Result<std::unique_ptr<Daemon>> first = Daemon::Start(options);
    ASSERT_TRUE(first.ok());
    RequestSpec blocker = fx.Spec("blocker");
    blocker.inject_fault = "slow:p=1:slow=0.4:seed=1";
    ASSERT_TRUE((*first)->Submit(blocker).admitted);
    RequestSpec doomed = fx.Spec("doomed");
    doomed.deadline_seconds = 0.01;  // Expires while queued behind the blocker.
    AdmissionDecision decision = (*first)->Submit(doomed);
    ASSERT_TRUE(decision.admitted);
    (*first)->Drain();
  }

  Result<std::unique_ptr<Daemon>> second = Daemon::Start(options);
  ASSERT_TRUE(second.ok());
  (*second)->WaitIdle();
  bool saw_doomed = false;
  for (const RequestStatus& status : (*second)->Statuses()) {
    if (status.tag != "doomed") {
      continue;
    }
    saw_doomed = true;
    EXPECT_EQ(status.status, "deadline-exceeded")
        << "an expired budget must not rejuvenate across a restart";
  }
  EXPECT_TRUE(saw_doomed) << "the doomed request was lost in the restart";
}

// ---- daemon: incremental session retention --------------------------------

// A sound result retains a RepairSession for its source; a re-submission of
// the same config_dir is automatically built with Cpr::FromBaseline and runs
// the incremental path — no client-side opt-in beyond the "auto" default.
TEST(DaemonTest, SameLineageResubmissionReusesRetainedSession) {
  ServeFixture fx("sessions");
  // A policy the example network already satisfies (EP1): the identical
  // re-submission diffs clean, so the incremental path must fully engage
  // (HARC cloned, every group verdict reused) rather than merely attempt.
  std::ofstream(fx.policy_file()) << "always-blocked 10.2.0.0/16 -> 10.30.0.0/16\n";
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();

  AdmissionDecision first = (*daemon)->Submit(fx.Spec("gen0"));
  ASSERT_TRUE(first.admitted) << first.error;
  ASSERT_TRUE((*daemon)->WaitFor(first.id, 30));
  ASSERT_EQ((*daemon)->GetStatus(first.id)->status, "no-violations");
  EXPECT_EQ((*daemon)->session_count(), 1u)
      << "a sound result must retain a session for its source";

  int64_t reused_before = GlobalCounter("serve.sessions.reused");
  AdmissionDecision second = (*daemon)->Submit(fx.Spec("gen1"));
  ASSERT_TRUE(second.admitted) << second.error;
  ASSERT_TRUE((*daemon)->WaitFor(second.id, 30));
  std::optional<RequestStatus> status = (*daemon)->GetStatus(second.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->status, "no-violations");
  EXPECT_EQ(GlobalCounter("serve.sessions.reused"), reused_before + 1);
  // The incremental stats section proves the cheap path ran: the baseline
  // HARC was cloned and the verdicts were reused, not re-derived.
  EXPECT_NE(status->stats_json.find("\"harc_cloned\":true"), std::string::npos)
      << status->stats_json;
  EXPECT_NE(status->stats_json.find("\"fell_back\":false"), std::string::npos);
  EXPECT_EQ((*daemon)->session_count(), 1u) << "one session per source, replaced in place";
}

TEST(DaemonTest, IncrementalOffNeverRetainsASession) {
  ServeFixture fx("sessoff");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();

  RequestSpec spec = fx.Spec("nosession");
  spec.incremental = "off";
  AdmissionDecision decision = (*daemon)->Submit(spec);
  ASSERT_TRUE(decision.admitted) << decision.error;
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));
  EXPECT_EQ((*daemon)->GetStatus(decision.id)->status, "success");
  EXPECT_EQ((*daemon)->session_count(), 0u)
      << "incremental=off must neither use nor retain sessions";
}

// The daemon's own pipeline for `spec`, run in process on the fixture's
// current snapshot: the same inputs, options and engine, on `baseline` when
// one is given.
Result<CprReport> RepairLikeTheDaemon(
    const RequestSpec& spec, std::vector<Policy>* policies,
    std::shared_ptr<const incremental::RepairSession> baseline = nullptr) {
  Result<CprOptions> options = ToCprOptions(spec);
  Result<RequestInputs> inputs = LoadRequestInputs(spec);
  if (!options.ok() || !inputs.ok()) {
    return Error("bad spec or inputs");
  }
  Result<NetworkAnnotations> annotations = ParseSpecAnnotations(inputs->policy_text);
  if (!annotations.ok()) {
    return annotations.error();
  }
  Result<Cpr> pipeline =
      baseline == nullptr
          ? Cpr::FromConfigTexts(inputs->config_texts, *annotations)
          : Cpr::FromBaseline(std::move(baseline), inputs->config_texts, *annotations);
  if (!pipeline.ok()) {
    return pipeline.error();
  }
  Result<std::vector<Policy>> parsed = ParseSpecPolicies(inputs->policy_text, pipeline->network());
  if (!parsed.ok()) {
    return parsed.error();
  }
  *policies = *parsed;
  return pipeline->Repair(*policies, *options);
}

// A sound result's session is the snapshot the repair itself rebuilt and
// verified, not a second build of the patched configurations: one
// harc.build span covers the patched snapshot. The next edit is then served
// exactly as a session built from scratch (incremental::BuildSession)
// serves it.
TEST(DaemonTest, SoundResultRetainsItsVerifiedRebuildAsTheSession) {
  ServeFixture fx("handover");
  // A PC1 fat-tree: its repair adds denies, so removing one of them is a
  // one-router edit the incremental engine re-solves.
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  fx.ReplaceConfigs(scenario.broken_configs);
  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  std::ofstream(fx.policy_file()) << FormatPolicySpec(scenario.policies, broken->network());
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();

  AdmissionDecision first = (*daemon)->Submit(fx.Spec("gen0"));
  ASSERT_TRUE(first.admitted) << first.error;
  ASSERT_TRUE((*daemon)->WaitFor(first.id, 30));
  std::optional<RequestStatus> status = (*daemon)->GetStatus(first.id);
  ASSERT_TRUE(status.has_value());
  ASSERT_EQ(status->status, "success");
  EXPECT_EQ((*daemon)->session_count(), 1u);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(status->stats_json, &doc, &error)) << error;
  const obs::JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  double repair_start = -1;
  for (const obs::JsonValue& stage : stages->items) {
    if (stage.Find("name")->string == "pipeline.repair") {
      repair_start = stage.Find("start_seconds")->AsDouble();
    }
  }
  ASSERT_GE(repair_start, 0) << "no pipeline.repair span";
  int patched_builds = 0;
  for (const obs::JsonValue& stage : stages->items) {
    patched_builds += stage.Find("name")->string == "harc.build" &&
                      stage.Find("start_seconds")->AsDouble() >= repair_start;
  }
  EXPECT_EQ(patched_builds, 1) << status->stats_json;

  // The client applies the patch (the same repair, in process) and removes
  // one repair deny.
  std::vector<Policy> policies;
  Result<CprReport> repaired = RepairLikeTheDaemon(fx.Spec(), &policies);
  ASSERT_TRUE(repaired.ok() && repaired->Sound());
  EXPECT_EQ(repaired->lines_changed, doc.Find("repair")->Find("lines_changed")->AsInt());
  std::vector<std::string> texts;
  for (const Config& config : repaired->patched_configs) {
    texts.push_back(PrintConfig(config));
  }
  ASSERT_TRUE(RemoveOneRepairDeny(&texts)) << "no repaired router carries a repair deny";
  fx.ReplaceConfigs(texts);

  const int64_t reused_before = GlobalCounter("serve.sessions.reused");
  AdmissionDecision second = (*daemon)->Submit(fx.Spec("gen1"));
  ASSERT_TRUE(second.admitted) << second.error;
  ASSERT_TRUE((*daemon)->WaitFor(second.id, 30));
  status = (*daemon)->GetStatus(second.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(GlobalCounter("serve.sessions.reused"), reused_before + 1);
  ASSERT_TRUE(obs::ParseJson(status->stats_json, &doc, &error)) << error;

  Result<std::shared_ptr<incremental::RepairSession>> session = incremental::BuildSession(
      repaired->patched_configs, repaired->patched_annotations, policies,
      ToCprOptions(fx.Spec())->repair);
  ASSERT_TRUE(session.ok()) << session.error().message();
  Result<CprReport> expected = RepairLikeTheDaemon(fx.Spec(), &policies, *session);
  ASSERT_TRUE(expected.ok()) << expected.error().message();
  ASSERT_TRUE(expected->incremental.applied);
  EXPECT_EQ(status->status, RepairStatusName(expected->status));
  const obs::JsonValue& repair = *doc.Find("repair");
  EXPECT_EQ(repair.Find("lines_changed")->AsInt(), expected->lines_changed);
  EXPECT_EQ(repair.Find("predicted_cost")->AsInt(), expected->predicted_cost);
  const obs::JsonValue& incremental = *doc.Find("incremental");
  EXPECT_TRUE(incremental.Find("applied")->bool_value);
  EXPECT_EQ(incremental.Find("groups_total")->AsInt(), expected->incremental.groups_total);
  EXPECT_EQ(incremental.Find("groups_reused")->AsInt(), expected->incremental.groups_reused);
  EXPECT_EQ(incremental.Find("groups_resolved")->AsInt(),
            expected->incremental.groups_resolved);
}

// ---- daemon: telemetry (DESIGN.md §14) ------------------------------------

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Concurrent scrapes during a burst must always be well-formed, and the
// post-burst scrape must cover both daemon-level serve.* signals and the
// pipeline instruments merged in at request completion.
TEST(DaemonTest, ScrapeMidBurstIsAlwaysWellFormed) {
  ServeFixture fx("scrape");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      std::string text = (*daemon)->ScrapeMetrics();
      // Every line is a comment or a `name{labels} value` sample.
      std::istringstream lines(text);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#') continue;
        ASSERT_NE(line.find("{subsystem=\""), std::string::npos) << line;
        ASSERT_NE(line.find("} "), std::string::npos) << line;
      }
    }
  });

  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    RequestSpec spec = fx.Spec("burst" + std::to_string(i));
    spec.inject_fault = "slow:p=1:slow=0.05:seed=1";
    AdmissionDecision decision = (*daemon)->Submit(spec);
    ASSERT_TRUE(decision.admitted) << decision.error;
    ids.push_back(decision.id);
  }
  for (uint64_t id : ids) {
    ASSERT_TRUE((*daemon)->WaitFor(id, 30));
  }
  stop.store(true);
  scraper.join();

  std::string text = (*daemon)->ScrapeMetrics();
  EXPECT_NE(text.find("cpr_serve_admitted_total{subsystem=\"serve\"} "),
            std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE cpr_serve_admitted_total counter"), std::string::npos);
  EXPECT_NE(text.find("cpr_repair_problems_solved_total{subsystem=\"repair\"} "),
            std::string::npos)
      << "finished requests' pipeline counters must be scrapeable";
}

// The event log captures the full lifecycle of a request, joined end to end
// by the trace ID minted at admission.
TEST(DaemonTest, EventLogRecordsTracedLifecycle) {
  ServeFixture fx("evlog");
  DaemonOptions options = fx.Options();
  options.event_log_path = fx.checkpoint_dir() + "/events.jsonl";
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();

  AdmissionDecision decision = (*daemon)->Submit(fx.Spec("traced"));
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));

  std::istringstream lines(ReadFileText(options.event_log_path));
  std::string line;
  std::set<std::string> types;
  std::set<std::string> traces;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    obs::JsonValue event;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(line, &event, &error)) << error << "\n" << line;
    const obs::JsonValue* req = event.Find("req");
    if (req != nullptr && req->AsInt() == static_cast<int64_t>(decision.id)) {
      types.insert(event.Find("type")->string);
      ASSERT_NE(event.Find("trace"), nullptr) << line;
      traces.insert(event.Find("trace")->string);
    }
  }
  for (const char* expected : {"admit", "dequeue", "attempt.start", "solve",
                               "request.done"}) {
    EXPECT_TRUE(types.count(expected)) << "missing event type " << expected;
  }
  EXPECT_EQ(traces.size(), 1u) << "one request, one trace id";
  EXPECT_EQ(traces.begin()->size(), 16u);
}

// A crash-isolation trip (an injected crash that persists across every
// attempt) dumps the flight recorder durably, and the dump contains the
// dying request's full traced lifecycle through its terminal event.
TEST(DaemonTest, CrashIsolationDumpsDyingRequestLifecycle) {
  ServeFixture fx("crashdump");
  DaemonOptions options = fx.Options();
  options.max_request_attempts = 2;
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();

  RequestSpec doomed = fx.Spec("doomed");
  doomed.inject_fault = "throw:p=1:seed=7";
  AdmissionDecision decision = (*daemon)->Submit(doomed);
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));
  ASSERT_EQ((*daemon)->GetStatus(decision.id)->state, RequestState::kFailed);

  // flight_dump_path defaults to <checkpoint_dir>/flightrec.json.
  std::string text = ReadFileText(fx.checkpoint_dir() + "/flightrec.json");
  ASSERT_FALSE(text.empty()) << "crash isolation must write a flight dump";
  obs::JsonValue dump;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(text, &dump, &error)) << error;
  EXPECT_EQ(dump.Find("reason")->string, "request_failed");

  bool found = false;
  for (const obs::JsonValue& lifecycle : dump.Find("requests")->items) {
    if (lifecycle.Find("id")->AsInt() != static_cast<int64_t>(decision.id)) continue;
    found = true;
    EXPECT_FALSE(lifecycle.Find("trace_id")->string.empty());
    EXPECT_TRUE(lifecycle.Find("terminal")->bool_value);
    std::set<std::string> types;
    for (const obs::JsonValue& event : lifecycle.Find("events")->items) {
      types.insert(event.Find("type")->string);
    }
    for (const char* expected : {"admit", "dequeue", "attempt.start", "retry",
                                 "request.failed"}) {
      EXPECT_TRUE(types.count(expected))
          << "dying request's lifecycle missing " << expected;
    }
  }
  EXPECT_TRUE(found) << "dump does not contain the dying request";
}

// SIGTERM drain (Daemon::Drain) leaves a durable flight dump behind.
TEST(DaemonTest, DrainDumpsFlightRecorder) {
  ServeFixture fx("draindump");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();
  AdmissionDecision decision = (*daemon)->Submit(fx.Spec("before-drain"));
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));
  (*daemon)->Drain();

  std::string text = ReadFileText(fx.checkpoint_dir() + "/flightrec.json");
  ASSERT_FALSE(text.empty());
  obs::JsonValue dump;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(text, &dump, &error)) << error;
  EXPECT_EQ(dump.Find("reason")->string, "drain");
  bool terminal_lifecycle = false;
  for (const obs::JsonValue& lifecycle : dump.Find("requests")->items) {
    if (lifecycle.Find("id")->AsInt() == static_cast<int64_t>(decision.id) &&
        lifecycle.Find("terminal")->bool_value) {
      terminal_lifecycle = true;
    }
  }
  EXPECT_TRUE(terminal_lifecycle);
}

// Telemetry off (the bench A/B control): no events, no dumps, no merge.
TEST(DaemonTest, TelemetryOffWritesNothing) {
  ServeFixture fx("teloff");
  DaemonOptions options = fx.Options();
  options.telemetry = false;
  options.event_log_path = fx.checkpoint_dir() + "/events.jsonl";
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.error().message();
  AdmissionDecision decision = (*daemon)->Submit(fx.Spec("silent"));
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));
  (*daemon)->Drain();
  EXPECT_FALSE(fs::exists(options.event_log_path));
  EXPECT_FALSE(fs::exists(fx.checkpoint_dir() + "/flightrec.json"));
}

// Daemon-level serve.* signals stay in the global registry (that is where
// `cprd stats` reads them), even while pipeline counters are per-request.
TEST(DaemonTest, ServeCountersLandInGlobalRegistry) {
  int64_t admitted_before = GlobalCounter("serve.admitted");
  ServeFixture fx("metrics");
  Result<std::unique_ptr<Daemon>> daemon = Daemon::Start(fx.Options());
  ASSERT_TRUE(daemon.ok());
  AdmissionDecision decision = (*daemon)->Submit(fx.Spec());
  ASSERT_TRUE(decision.admitted);
  ASSERT_TRUE((*daemon)->WaitFor(decision.id, 30));
  EXPECT_EQ(GlobalCounter("serve.admitted"), admitted_before + 1);
}

}  // namespace
}  // namespace cpr::serve
