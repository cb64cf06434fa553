// Tests for the textual policy specification format.

#include <gtest/gtest.h>

#include "core/policy_spec.h"
#include "tests/example_network.h"

namespace cpr {
namespace {

const char* kSpec = R"(# demo policy file
waypoint-link B C

always-blocked  10.2.0.0/16 -> 10.30.0.0/16
always-waypoint 10.2.0.0/16 -> 10.20.0.0/16
reachable       10.2.0.0/16 -> 10.20.0.0/16 k 2
reachable       10.1.0.0/16 -> 10.20.0.0/16
primary-path    10.1.0.0/16 -> 10.20.0.0/16 via A B C
)";

TEST(PolicySpecTest, ParsesAnnotations) {
  Result<NetworkAnnotations> annotations = ParseSpecAnnotations(kSpec);
  ASSERT_TRUE(annotations.ok());
  EXPECT_EQ(annotations->waypoint_links.size(), 1u);
  EXPECT_EQ(annotations->waypoint_links.count({"B", "C"}), 1u);
}

TEST(PolicySpecTest, ParsesAllPolicyKinds) {
  Network network = BuildExampleNetwork();
  Result<std::vector<Policy>> policies = ParseSpecPolicies(kSpec, network);
  ASSERT_TRUE(policies.ok()) << (policies.ok() ? "" : policies.error().message());
  ASSERT_EQ(policies->size(), 5u);
  EXPECT_EQ((*policies)[0].pc, PolicyClass::kAlwaysBlocked);
  EXPECT_EQ((*policies)[1].pc, PolicyClass::kAlwaysWaypoint);
  EXPECT_EQ((*policies)[2].pc, PolicyClass::kReachability);
  EXPECT_EQ((*policies)[2].k, 2);
  EXPECT_EQ((*policies)[3].k, 1);  // Default k.
  EXPECT_EQ((*policies)[4].pc, PolicyClass::kPrimaryPath);
  EXPECT_EQ((*policies)[4].primary_path.size(), 3u);
}

TEST(PolicySpecTest, RoundTripsThroughFormat) {
  Network network = BuildExampleNetwork();
  Result<std::vector<Policy>> policies = ParseSpecPolicies(kSpec, network);
  ASSERT_TRUE(policies.ok());
  std::string formatted = FormatPolicySpec(*policies, network);
  Result<std::vector<Policy>> reparsed = ParseSpecPolicies(formatted, network);
  ASSERT_TRUE(reparsed.ok()) << (reparsed.ok() ? "" : reparsed.error().message());
  EXPECT_EQ(*reparsed, *policies);
}

TEST(PolicySpecTest, ErrorsCarryLineNumbers) {
  Network network = BuildExampleNetwork();
  // Line 2: unknown subnet.
  Result<std::vector<Policy>> bad =
      ParseSpecPolicies("# ok\nalways-blocked 9.9.9.0/24 -> 10.20.0.0/16\n", network);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message().find("line 2"), std::string::npos);
}

TEST(PolicySpecTest, RejectsMalformedLines) {
  Network network = BuildExampleNetwork();
  for (const char* bad : {
           "always-blocked 10.2.0.0/16 10.30.0.0/16\n",           // missing ->
           "reachable 10.2.0.0/16 -> 10.20.0.0/16 k -3\n",        // bad k
           "reachable 10.2.0.0/16 -> 10.20.0.0/16 k 2x\n",        // trailing garbage
           "reachable 10.2.0.0/16 -> 10.20.0.0/16 k 1.5\n",       // not an integer
           "reachable 10.2.0.0/16 -> 10.20.0.0/16 k 99999999999\n",  // overflows int
           "primary-path 10.1.0.0/16 -> 10.20.0.0/16\n",          // missing via
           "primary-path 10.1.0.0/16 -> 10.20.0.0/16 via A Z\n",  // unknown device
           "forbid 10.2.0.0/16 -> 10.30.0.0/16\n",                // unknown kind
           "waypoint-link B\n",                                   // malformed annotation
       }) {
    if (std::string(bad).rfind("waypoint-link", 0) == 0) {
      EXPECT_FALSE(ParseSpecAnnotations(bad).ok()) << bad;
    } else {
      EXPECT_FALSE(ParseSpecPolicies(bad, network).ok()) << bad;
    }
  }
}

}  // namespace
}  // namespace cpr
