#include "incremental/session.h"

#include <algorithm>
#include <utility>

#include "verify/checker.h"

namespace cpr::incremental {

Result<std::shared_ptr<RepairSession>> BuildSession(std::vector<Config> configs,
                                                    NetworkAnnotations annotations,
                                                    std::vector<Policy> policies,
                                                    const RepairOptions& options) {
  Result<Network> network = Network::Build(std::move(configs), annotations);
  if (!network.ok()) {
    return Error("incremental baseline: " + network.error().message());
  }
  auto session = std::make_shared<RepairSession>();
  session->network = std::make_unique<const Network>(std::move(network).value());
  session->harc = std::make_unique<const Harc>(Harc::Build(*session->network));
  session->annotations = std::move(annotations);
  session->policies = std::move(policies);

  const std::vector<Policy> violations =
      FindViolations(*session->harc, session->policies);
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
