#include "incremental/session.h"

#include <algorithm>
#include <utility>

#include "verify/checker.h"

namespace cpr::incremental {

Result<std::shared_ptr<RepairSession>> BuildSession(std::vector<Config> configs,
                                                    NetworkAnnotations annotations,
                                                    std::vector<Policy> policies,
                                                    const RepairOptions& options) {
  Result<Network> built = Network::Build(std::move(configs), annotations);
  if (!built.ok()) {
    return Error("incremental baseline: " + built.error().message());
  }
  auto network = std::make_shared<const Network>(std::move(built).value());
  auto harc = std::make_shared<const Harc>(Harc::Build(*network));
  const std::vector<Policy> violations = FindViolations(*harc, policies);
  return SessionFromVerified(std::move(network), std::move(harc), std::move(annotations),
                             std::move(policies), violations, options);
}

std::shared_ptr<RepairSession> SessionFromVerified(std::shared_ptr<const Network> network,
                                                   std::shared_ptr<const Harc> harc,
                                                   NetworkAnnotations annotations,
                                                   std::vector<Policy> policies,
                                                   const std::vector<Policy>& violations,
                                                   const RepairOptions& options) {
  auto session = std::make_shared<RepairSession>();
  session->network = std::move(network);
  session->harc = std::move(harc);
  session->annotations = std::move(annotations);
  session->policies = std::move(policies);

  const auto violated = [&violations](const Policy& policy) {
    return std::find(violations.begin(), violations.end(), policy) != violations.end();
  };
  for (const RepairProblem& problem :
       PartitionAllGroups(*session->harc, session->policies, options)) {
    GroupRecord record;
    record.dsts = problem.dsts;
    record.tcs = problem.tcs;
    record.policies = problem.policies;
    record.satisfied = std::none_of(problem.policies.begin(), problem.policies.end(), violated);
    session->groups.push_back(std::move(record));
  }
  return session;
}

}  // namespace cpr::incremental
