#include "repair/repair.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "certify/artifact.h"
#include "certify/certify.h"
#include "netbase/deadline.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "solver/failover.h"
#include "solver/fault_injection.h"
#include "verify/checker.h"

namespace cpr {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Collects the tcs/policies of the given destination set into a problem.
// Isolation policies span two destinations; the partitioner guarantees both
// land in the same set.
RepairProblem MakeProblem(const std::vector<Policy>& policies,
                          const std::set<SubnetId>& dsts) {
  RepairProblem problem;
  problem.dsts.assign(dsts.begin(), dsts.end());
  std::set<std::pair<SubnetId, SubnetId>> tcs;
  for (const Policy& policy : policies) {
    if (policy.pc == PolicyClass::kIsolation) {
      if (dsts.count(policy.dst) > 0 && dsts.count(policy.dst2) > 0) {
        problem.policies.push_back(policy);
        tcs.insert({policy.src, policy.dst});
        tcs.insert({policy.src2, policy.dst2});
      }
      continue;
    }
    if (dsts.count(policy.dst) > 0) {
      problem.policies.push_back(policy);
      tcs.insert({policy.src, policy.dst});
    }
  }
  problem.tcs.assign(tcs.begin(), tcs.end());
  return problem;
}

// Minimal union-find over subnet ids, used to group destinations that must
// be repaired together (shared PC4 costs, isolation pairs).
class DstGroups {
 public:
  explicit DstGroups(int n) : parent_(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      parent_[static_cast<size_t>(i)] = i;
    }
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      x = parent_[static_cast<size_t>(x)] = parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
    }
    return x;
  }
  void Union(int a, int b) { parent_[static_cast<size_t>(Find(a))] = Find(b); }

 private:
  std::vector<int> parent_;
};

// The must-solve-together destination groups of a policy set: PC4 policies
// share global edge costs so all their destinations form one group, and an
// isolation policy's two destinations constrain each other. Returned in
// deterministic (smallest-member) order — the incremental engine relies on
// the group list being stable across runs with an unchanged policy set.
std::map<int, std::set<SubnetId>> GroupPoliciedDsts(const Harc& harc,
                                                    const std::vector<Policy>& policies) {
  DstGroups groups(harc.SubnetCount());
  std::optional<SubnetId> pc4_anchor;
  for (const Policy& policy : policies) {
    if (policy.pc == PolicyClass::kPrimaryPath) {
      if (pc4_anchor.has_value()) {
        groups.Union(policy.dst, *pc4_anchor);
      } else {
        pc4_anchor = policy.dst;
      }
    }
    if (policy.pc == PolicyClass::kIsolation) {
      groups.Union(policy.dst, policy.dst2);
    }
  }
  std::map<int, std::set<SubnetId>> members;
  for (const Policy& policy : policies) {
    members[groups.Find(policy.dst)].insert(policy.dst);
    if (policy.pc == PolicyClass::kIsolation) {
      members[groups.Find(policy.dst2)].insert(policy.dst2);
    }
  }
  return members;
}

}  // namespace

std::vector<RepairProblem> PartitionAllGroups(const Harc& harc,
                                              const std::vector<Policy>& policies,
                                              const RepairOptions& options) {
  std::vector<RepairProblem> problems;
  if (policies.empty()) {
    return problems;
  }
  if (options.granularity == Granularity::kAllTcs) {
    std::set<SubnetId> dsts;
    for (const Policy& policy : policies) {
      dsts.insert(policy.dst);
    }
    problems.push_back(MakeProblem(policies, dsts));
    return problems;
  }
  std::map<int, std::set<SubnetId>> members = GroupPoliciedDsts(harc, policies);
  for (const auto& [root, dsts] : members) {
    problems.push_back(MakeProblem(policies, dsts));
  }
  return problems;
}

std::vector<RepairProblem> PartitionProblems(const Harc& harc,
                                             const std::vector<Policy>& policies,
                                             const RepairOptions& options) {
  std::vector<RepairProblem> problems = PartitionAllGroups(harc, policies, options);
  if (options.granularity == Granularity::kAllTcs) {
    return problems;
  }
  // kPerDst: only destinations with a violated policy need repair. A group
  // (shared PC4 costs, isolation pairs) is repaired whole when any member
  // destination has a violation.
  std::set<SubnetId> violated_dsts;
  for (const Policy& policy : FindViolations(harc, policies)) {
    violated_dsts.insert(policy.dst);
    if (policy.pc == PolicyClass::kIsolation) {
      violated_dsts.insert(policy.dst2);
    }
  }
  std::erase_if(problems, [&](const RepairProblem& problem) {
    return std::none_of(problem.dsts.begin(), problem.dsts.end(),
                        [&](SubnetId d) { return violated_dsts.count(d) > 0; });
  });
  return problems;
}

namespace {

// Stable per-problem identity: the destination group. Names the problem's
// certificate artifact.
std::string ProblemKey(const RepairProblem& problem) {
  std::string key = "d";
  for (SubnetId d : problem.dsts) {
    key += ':';
    key += std::to_string(d);
  }
  return key;
}

// Builds one drain task's solver stack: the chosen engine, optionally
// wrapped in deterministic fault injection, always wrapped in the
// failover/retry/exception-isolation decorator. Each task owns its own stack
// (Z3 contexts are created per call, so tasks never share Z3 state).
std::unique_ptr<MaxSmtBackend> MakeWorkerBackend(const RepairOptions& options,
                                                 const Deadline& deadline) {
  std::unique_ptr<MaxSmtBackend> primary = options.backend == BackendChoice::kZ3
                                               ? MakeZ3Backend()
                                               : MakeInternalBackend();
  if (options.fault_injection.enabled()) {
    primary = MakeFaultInjectingBackend(std::move(primary), options.fault_injection);
  }
  // The certifying wrapper must sit ABOVE fault injection (so seeded
  // certificate corruption is visible to the checker) and BELOW failover (so
  // a failed check on the primary can reroute to the secondary, which gets
  // its own independent checker).
  if (options.certify != certify::CertifyMode::kOff) {
    primary = certify::MakeCertifyingBackend(std::move(primary), options.certify);
  }
  std::unique_ptr<MaxSmtBackend> secondary;
  if (options.enable_failover && options.backend == BackendChoice::kInternal) {
    secondary = MakeZ3Backend();
    if (options.certify != certify::CertifyMode::kOff) {
      secondary = certify::MakeCertifyingBackend(std::move(secondary), options.certify);
    }
  }
  FailoverPolicy policy;
  policy.max_retries = options.max_retries;
  policy.deadline = deadline;
  return MakeFailoverBackend(std::move(primary), std::move(secondary), policy);
}

}  // namespace

Result<RepairOutcome> SolveProblemSet(const std::vector<HarcProblem>& problems,
                                      const RepairOptions& options, const Deadline& deadline) {
  RepairOutcome outcome;
  if (problems.empty()) {
    outcome.status = RepairStatus::kNoViolations;
    return outcome;
  }
  outcome.stats.problems_formulated = static_cast<int>(problems.size());

  // Encode every problem before any solve: the drain tasks order the
  // problems by size.
  Clock::time_point encode_start = Clock::now();
  std::vector<std::unique_ptr<RepairEncoder>> encoders;
  encoders.reserve(problems.size());
  {
    obs::StageSpan encode_span("repair.encode");
    for (const HarcProblem& entry : problems) {
      auto encoder = std::make_unique<RepairEncoder>(*entry.harc, entry.problem, options);
      Status status = encoder->Encode();
      if (!status.ok()) {
        return status.error();
      }
      outcome.stats.bool_vars += encoder->system().BoolCount();
      outcome.stats.hard_constraints += static_cast<int64_t>(encoder->system().hard().size());
      outcome.stats.soft_constraints += static_cast<int64_t>(encoder->system().soft().size());
      encoders.push_back(std::move(encoder));
    }
  }
  outcome.stats.encode_seconds = Seconds(encode_start);
  {
    obs::Registry& registry = obs::CurrentRegistry();
    registry.gauge("repair.problems_formulated").Set(outcome.stats.problems_formulated);
    registry.gauge("repair.bool_vars").Set(outcome.stats.bool_vars);
    registry.gauge("repair.hard_constraints").Set(outcome.stats.hard_constraints);
    registry.gauge("repair.soft_constraints").Set(outcome.stats.soft_constraints);
  }

  // Solve. Every per-problem outcome is recorded individually: a failed
  // problem (timeout/unsat/unsupported/error) never aborts the run, and an
  // exception in a backend is converted to a result instead of terminating
  // the drain task.
  std::vector<MaxSmtResult> models(problems.size());
  std::vector<double> solve_times(problems.size(), 0.0);
  // Drain tasks inherit the submitting thread's registry and trace, so a
  // per-request RegistryScope installed around the repair covers the whole
  // parallel solve — concurrent requests never interleave counts.
  obs::Registry* request_registry = &obs::CurrentRegistry();
  obs::Trace* request_trace = &obs::CurrentTrace();
  auto solve_one = [&](size_t index, MaxSmtBackend* backend) {
    if (deadline.Expired()) {
      models[index].status = MaxSmtResult::Status::kTimeout;
      models[index].backend = backend->name();
      models[index].attempts = 0;
      models[index].message = "wall-clock deadline exhausted before solving";
      obs::CurrentRegistry().counter("repair.deadline_skips").Increment();
      return;
    }
    obs::StageSpan problem_span("repair.problem");
    Clock::time_point start = Clock::now();
    try {
      const double budget = deadline.ClampTimeout(options.timeout_seconds);
      models[index] = options.certify != certify::CertifyMode::kOff
                          ? backend->SolveCertified(encoders[index]->system(), budget)
                          : backend->Solve(encoders[index]->system(), budget);
    } catch (const std::exception& e) {
      // The failover decorator already catches; this is the last line of
      // defense so a drain task can never call std::terminate.
      models[index] = MaxSmtResult{};
      models[index].status = MaxSmtResult::Status::kError;
      models[index].message = e.what();
    } catch (...) {
      models[index] = MaxSmtResult{};
      models[index].status = MaxSmtResult::Status::kError;
      models[index].message = "unknown exception in solver worker";
    }
    solve_times[index] = Seconds(start);
    // Per-problem solver events for trace exports (--trace-out).
    problem_span.Annotate("problem", std::to_string(index));
    problem_span.Annotate("backend", models[index].backend);
    problem_span.Annotate("status", MaxSmtStatusName(models[index].status));
    problem_span.Annotate("cost", std::to_string(models[index].cost));
    obs::CurrentRegistry()
        .histogram("repair.problem_solve_seconds")
        .Observe(solve_times[index]);
  };
  Clock::time_point solve_start = Clock::now();
  {
    obs::StageSpan solve_span("repair.solve");
    // The drain tasks take the problems largest first (most hard
    // constraints, ties in input order): a large problem started last would
    // keep one task busy while the others sit idle. Every solve is
    // independent, so the order changes only when each one runs, never its
    // result.
    std::vector<size_t> order(problems.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return encoders[a]->system().hard().size() > encoders[b]->system().hard().size();
    });
    std::atomic<size_t> next{0};
    auto drain = [&]() {
      obs::RegistryScope registry_scope(request_registry);
      obs::TraceScope trace_scope(request_trace, solve_span.index());
      std::unique_ptr<MaxSmtBackend> backend = MakeWorkerBackend(options, deadline);
      for (size_t slot = next++; slot < order.size(); slot = next++) {
        solve_one(order[slot], backend.get());
      }
    };
    const int tasks =
        std::max(1, std::min<int>(options.num_threads, static_cast<int>(problems.size())));
    if (options.solve_runner != nullptr) {
      // A shared executor (cprd's pool) runs the drain tasks of concurrent
      // requests side by side. The submitter blocks until its own tasks
      // finished; tasks never block on other tasks, so a fixed-size pool
      // cannot deadlock.
      std::mutex done_mu;
      std::condition_variable done_cv;
      int done = 0;
      for (int t = 0; t < tasks; ++t) {
        options.solve_runner->Submit([&]() {
          drain();
          // Notify while still holding the lock: the waiting submitter owns
          // done_mu/done_cv on its stack, and the moment it observes the
          // final count it may return and destroy both. Signalling after
          // unlock would race with that destruction.
          std::lock_guard<std::mutex> lock(done_mu);
          ++done;
          done_cv.notify_one();
        });
      }
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return done == tasks; });
    } else if (tasks == 1) {
      drain();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(tasks));
      for (int t = 0; t < tasks; ++t) {
        threads.emplace_back(drain);
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
    }
  }
  outcome.stats.solve_wall_seconds = Seconds(solve_start);
  for (double t : solve_times) {
    outcome.stats.solve_seconds += t;
  }

  // Everything after the solve is one stage: per-problem reports, certificate
  // artifacts, merging the solved problems' edits, and freeing the encoders'
  // constraint systems (a few pooled vectors each, so the release is cheap).
  obs::StageSpan merge_span("repair.merge");
  // Record per-problem diagnostics and classify the run.
  outcome.stats.problem_reports.reserve(problems.size());
  std::map<std::string, double> counter_totals;
  for (size_t i = 0; i < problems.size(); ++i) {
    ProblemReport report;
    report.dsts = problems[i].problem.dsts;
    report.status = models[i].status;
    report.attempts = models[i].attempts;
    report.backend = models[i].backend;
    report.solve_seconds = solve_times[i];
    report.cost = models[i].cost;
    report.message = models[i].message;
    report.certification = models[i].certification;
    report.certify_message = models[i].certify_message;
    report.certificate = models[i].certificate;
    switch (report.certification) {
      case MaxSmtResult::Certification::kNone:
        break;
      case MaxSmtResult::Certification::kVerified:
        ++outcome.stats.certify_checked;
        ++outcome.stats.certify_verified;
        break;
      case MaxSmtResult::Certification::kFailed:
        ++outcome.stats.certify_checked;
        ++outcome.stats.certify_failed;
        break;
    }
    report.solver_counters = models[i].solver_counters;
    for (const auto& [name, value] : report.solver_counters) {
      counter_totals[name] += value;
    }
    const ConstraintSystem& system = encoders[i]->system();
    for (int soft_index : models[i].violated_soft) {
      const SoftConstraint& soft = system.soft()[static_cast<size_t>(soft_index)];
      report.violated_softs.emplace_back(soft.label, soft.weight);
    }
    for (int hard_index : models[i].unsat_core) {
      const std::string& label = system.HardLabel(static_cast<size_t>(hard_index));
      // Many hard constraints share one policy tag; keep distinct labels.
      if (std::find(report.unsat_core_labels.begin(), report.unsat_core_labels.end(),
                    label) == report.unsat_core_labels.end()) {
        report.unsat_core_labels.push_back(label);
      }
    }
    if (models[i].status == MaxSmtResult::Status::kUnsat) {
      obs::UnsatCoreReport core;
      core.problem = static_cast<int>(i);
      core.backend = report.backend;
      core.labels = report.unsat_core_labels;
      outcome.provenance.unsat_cores.push_back(std::move(core));
    }
    if (report.solved()) {
      ++outcome.stats.problems_solved;
    } else {
      ++outcome.stats.problems_failed;
    }
    outcome.stats.problem_reports.push_back(std::move(report));
  }
  outcome.stats.solver_counter_totals.assign(counter_totals.begin(),
                                             counter_totals.end());
  {
    obs::Registry& registry = obs::CurrentRegistry();
    registry.counter("repair.problems_solved").Add(outcome.stats.problems_solved);
    registry.counter("repair.problems_failed").Add(outcome.stats.problems_failed);
  }
  // Persist certificate artifacts for offline re-checking (`cpr certify`).
  // This runs even when every problem failed — UNSAT certificates are
  // exactly what a post-mortem wants. The sequence counter is process-wide
  // so successive runs into one directory never collide.
  if (options.certify != certify::CertifyMode::kOff &&
      !options.certify_artifact_dir.empty()) {
    obs::StageSpan certify_span("pipeline.certify");
    std::error_code ec;
    std::filesystem::create_directories(options.certify_artifact_dir, ec);
    static std::atomic<uint64_t> artifact_seq{0};
    int written = 0;
    for (size_t i = 0; i < problems.size(); ++i) {
      const ProblemReport& report = outcome.stats.problem_reports[i];
      if (report.certificate == nullptr) {
        continue;
      }
      Certificate cert = *report.certificate;
      cert.problem = ProblemKey(problems[i].problem);
      const uint64_t seq = artifact_seq.fetch_add(1);
      const std::string path = options.certify_artifact_dir + "/p" +
                               std::to_string(seq) + "-" +
                               CertificateClaimName(cert.claim) + ".cert.json";
      if (certify::WriteCertificateFile(path, cert).ok()) {
        ++written;
      } else {
        obs::CurrentRegistry().counter("certify.artifact_errors").Increment();
      }
    }
    outcome.stats.certify_artifacts = written;
    obs::CurrentRegistry().counter("certify.artifacts").Add(written);
    certify_span.Annotate("artifacts", std::to_string(written));
  }
  auto overall_failure = [&]() {
    // The first failed problem (in problem order) names the run's status,
    // matching the pre-partial pipeline's abort-on-first-failure semantics.
    for (const MaxSmtResult& model : models) {
      switch (model.status) {
        case MaxSmtResult::Status::kOptimal:
          break;
        case MaxSmtResult::Status::kUnsat:
          return RepairStatus::kUnsat;
        case MaxSmtResult::Status::kTimeout:
          return RepairStatus::kTimeout;
        case MaxSmtResult::Status::kUnsupported:
          return RepairStatus::kUnsupported;
        case MaxSmtResult::Status::kError:
          return RepairStatus::kError;
      }
    }
    return RepairStatus::kSuccess;
  };
  if (outcome.stats.problems_solved == 0 ||
      (outcome.stats.problems_failed > 0 && !options.allow_partial)) {
    outcome.status = overall_failure();
  } else {
    // Merge the solved problems' edits. A failed problem contributes none,
    // so its destinations keep their configurations and its policies stay
    // violated: a partial repair degrades gracefully.
    for (size_t i = 0; i < problems.size(); ++i) {
      const RepairProblem& problem = problems[i].problem;
      const Network& network = problems[i].harc->network();
      const RepairEncoder& encoder = *encoders[i];
      const MaxSmtResult& model = models[i];
      if (!model.ok()) {
        continue;
      }
      outcome.predicted_cost += model.cost;
      // Collect this problem's edits into their own record first: every
      // entry belongs to problem `i`, which is what lets each edit's
      // provenance chain name its owning problem and the soft constraint it
      // flipped — and what the incremental engine and the compression
      // pre-pass read per problem.
      RepairEdits problem_edits;
      encoder.CollectEdits(model, &problem_edits);
      std::vector<std::string> dst_names;
      for (SubnetId dst : problem.dsts) {
        dst_names.push_back(network.subnets()[static_cast<size_t>(dst)].prefix.ToString());
      }
      std::vector<std::string> policy_names;
      for (const Policy& policy : problem.policies) {
        policy_names.push_back(policy.ToString(network));
      }
      auto attach = [&](const auto& edits_vec) {
        for (const auto& edit : edits_vec) {
          std::string construct = ConstructKey(edit);
          obs::ProvenanceChain chain;
          chain.construct = construct;
          chain.edit = Describe(edit);
          chain.problem = static_cast<int>(i);
          chain.backend = model.backend;
          chain.dsts = dst_names;
          chain.policies = policy_names;
          const auto& softs = encoder.system().soft();
          for (int soft_index : model.violated_soft) {
            const SoftConstraint& soft = softs[static_cast<size_t>(soft_index)];
            if (soft.label == construct) {
              chain.soft_label = soft.label;
              chain.soft_weight = soft.weight;
              break;
            }
          }
          if (chain.soft_label.empty()) {
            // Construct key mismatch between encoder label and decoder edit —
            // surfaced instead of silently dropped (check.sh greps for zero).
            outcome.provenance.orphan_edits.push_back(construct + ": " + chain.edit);
          } else {
            outcome.provenance.chains.push_back(std::move(chain));
          }
        }
      };
      attach(problem_edits.adjacencies);
      attach(problem_edits.redistributions);
      attach(problem_edits.filters);
      attach(problem_edits.static_routes);
      attach(problem_edits.acls);
      attach(problem_edits.costs);
      attach(problem_edits.waypoints);
      AppendEdits(problem_edits, &outcome.edits);
      outcome.stats.problem_reports[i].edits = std::move(problem_edits);
    }
    outcome.status = outcome.stats.problems_failed > 0 ? RepairStatus::kPartial
                                                       : RepairStatus::kSuccess;
  }
  encoders.clear();
  return outcome;
}

Result<RepairOutcome> ComputeRepair(const Harc& original,
                                    const std::vector<Policy>& policies,
                                    const RepairOptions& options) {
  Clock::time_point wall_start = Clock::now();
  // Shared wall-clock budget for the whole run; partitioning and encoding
  // draw it down too. An absolute deadline (per-request budget started at
  // admission) takes precedence over the relative deadline_seconds
  // convenience.
  Deadline deadline = options.deadline.unbounded()
                          ? Deadline::After(options.deadline_seconds)
                          : options.deadline;
  // A budget that is already gone — zero, negative, or consumed by queue
  // wait — fails fast with a clean, empty report: no partitioning, no
  // encoding, no solver calls. (Mid-run exhaustion still reports kTimeout
  // per problem, preserving partial-merge semantics.)
  if (deadline.Expired()) {
    RepairOutcome outcome;
    outcome.status = RepairStatus::kDeadlineExceeded;
    outcome.stats.wall_seconds = Seconds(wall_start);
    obs::CurrentRegistry().counter("repair.deadline_rejects").Increment();
    return outcome;
  }

  std::vector<HarcProblem> problems;
  std::set<SubnetId> covered;
  {
    obs::StageSpan partition_span("repair.partition");
    for (RepairProblem& problem : PartitionProblems(original, policies, options)) {
      covered.insert(problem.dsts.begin(), problem.dsts.end());
      problems.push_back({&original, std::move(problem)});
    }
  }
  std::set<SubnetId> policied_dsts;
  for (const Policy& policy : policies) {
    policied_dsts.insert(policy.dst);
  }
  Result<RepairOutcome> outcome = SolveProblemSet(problems, options, deadline);
  if (outcome.ok()) {
    outcome->stats.destinations_skipped =
        static_cast<int>(policied_dsts.size()) - static_cast<int>(covered.size());
    outcome->stats.wall_seconds = Seconds(wall_start);
  }
  return outcome;
}

}  // namespace cpr
