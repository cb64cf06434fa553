#include "core/policy_spec.h"

#include "netbase/string_util.h"

namespace cpr {

namespace {

bool IsCommentOrBlank(std::string_view line) {
  std::string_view trimmed = TrimWhitespace(line);
  return trimmed.empty() || trimmed[0] == '#';
}

Error LineError(int line_number, const std::string& message) {
  return Error("policy spec line " + std::to_string(line_number) + ": " + message);
}

}  // namespace

Result<NetworkAnnotations> ParseSpecAnnotations(std::string_view text) {
  NetworkAnnotations annotations;
  int line_number = 0;
  for (std::string_view line : SplitLines(text)) {
    ++line_number;
    if (IsCommentOrBlank(line)) {
      continue;
    }
    std::vector<std::string_view> tokens = SplitTokens(line);
    if (tokens[0] != "waypoint-link") {
      continue;  // Policies are handled in phase 2.
    }
    if (tokens.size() != 3) {
      return LineError(line_number, "expected: waypoint-link DEVICE DEVICE");
    }
    annotations.waypoint_links.insert({std::string(tokens[1]), std::string(tokens[2])});
  }
  return annotations;
}

Result<std::vector<Policy>> ParseSpecPolicies(std::string_view text,
                                              const Network& network) {
  std::vector<Policy> policies;
  int line_number = 0;
  for (std::string_view line : SplitLines(text)) {
    ++line_number;
    if (IsCommentOrBlank(line)) {
      continue;
    }
    std::vector<std::string_view> tokens = SplitTokens(line);
    if (tokens[0] == "waypoint-link") {
      continue;  // Annotation, consumed in phase 1.
    }
    // All policies start: <kind> SRC -> DST
    if (tokens.size() < 4 || tokens[2] != "->") {
      return LineError(line_number, "expected: <kind> SRC -> DST ...");
    }
    auto resolve_subnet = [&](std::string_view prefix_text) -> Result<SubnetId> {
      Result<Ipv4Prefix> prefix = Ipv4Prefix::Parse(prefix_text);
      if (!prefix.ok()) {
        return prefix.error();
      }
      auto id = network.FindSubnet(*prefix);
      if (!id.has_value()) {
        return Error("no subnet " + prefix->ToString() + " in the network");
      }
      return *id;
    };
    Result<SubnetId> src = resolve_subnet(tokens[1]);
    if (!src.ok()) {
      return LineError(line_number, src.error().message());
    }
    Result<SubnetId> dst = resolve_subnet(tokens[3]);
    if (!dst.ok()) {
      return LineError(line_number, dst.error().message());
    }

    if (tokens[0] == "always-blocked") {
      if (tokens.size() != 4) {
        return LineError(line_number, "trailing tokens after always-blocked policy");
      }
      policies.push_back(Policy::AlwaysBlocked(*src, *dst));
    } else if (tokens[0] == "always-waypoint") {
      if (tokens.size() != 4) {
        return LineError(line_number, "trailing tokens after always-waypoint policy");
      }
      policies.push_back(Policy::AlwaysWaypoint(*src, *dst));
    } else if (tokens[0] == "reachable") {
      int k = 1;
      if (tokens.size() == 6 && tokens[4] == "k") {
        if (!ParseInt(tokens[5], &k) || k < 1) {
          return LineError(line_number, "k must be a positive integer");
        }
      } else if (tokens.size() != 4) {
        return LineError(line_number, "expected: reachable SRC -> DST [k N]");
      }
      policies.push_back(Policy::Reachability(*src, *dst, k));
    } else if (tokens[0] == "isolated") {
      // isolated SRC -> DST with SRC2 -> DST2
      if (tokens.size() != 8 || tokens[4] != "with" || tokens[6] != "->") {
        return LineError(line_number, "expected: isolated SRC -> DST with SRC2 -> DST2");
      }
      Result<SubnetId> src2 = resolve_subnet(tokens[5]);
      if (!src2.ok()) {
        return LineError(line_number, src2.error().message());
      }
      Result<SubnetId> dst2 = resolve_subnet(tokens[7]);
      if (!dst2.ok()) {
        return LineError(line_number, dst2.error().message());
      }
      policies.push_back(Policy::Isolated(*src, *dst, *src2, *dst2));
    } else if (tokens[0] == "primary-path") {
      if (tokens.size() < 6 || tokens[4] != "via") {
        return LineError(line_number, "expected: primary-path SRC -> DST via DEV...");
      }
      std::vector<DeviceId> path;
      for (size_t i = 5; i < tokens.size(); ++i) {
        auto device = network.FindDevice(std::string(tokens[i]));
        if (!device.has_value()) {
          return LineError(line_number, "unknown device " + std::string(tokens[i]));
        }
        path.push_back(*device);
      }
      policies.push_back(Policy::PrimaryPath(*src, *dst, std::move(path)));
    } else {
      return LineError(line_number, "unknown policy kind: " + std::string(tokens[0]));
    }
  }
  return policies;
}

std::string FormatPolicySpec(const std::vector<Policy>& policies, const Network& network) {
  std::string out;
  const auto& subnets = network.subnets();
  for (const Policy& policy : policies) {
    const std::string src = subnets[static_cast<size_t>(policy.src)].prefix.ToString();
    const std::string dst = subnets[static_cast<size_t>(policy.dst)].prefix.ToString();
    switch (policy.pc) {
      case PolicyClass::kAlwaysBlocked:
        out += "always-blocked " + src + " -> " + dst + "\n";
        break;
      case PolicyClass::kAlwaysWaypoint:
        out += "always-waypoint " + src + " -> " + dst + "\n";
        break;
      case PolicyClass::kReachability:
        out += "reachable " + src + " -> " + dst + " k " + std::to_string(policy.k) + "\n";
        break;
      case PolicyClass::kPrimaryPath: {
        out += "primary-path " + src + " -> " + dst + " via";
        for (DeviceId d : policy.primary_path) {
          out += " " + network.devices()[static_cast<size_t>(d)].name;
        }
        out += "\n";
        break;
      }
      case PolicyClass::kIsolation:
        out += "isolated " + src + " -> " + dst + " with " +
               subnets[static_cast<size_t>(policy.src2)].prefix.ToString() + " -> " +
               subnets[static_cast<size_t>(policy.dst2)].prefix.ToString() + "\n";
        break;
    }
  }
  return out;
}

}  // namespace cpr
