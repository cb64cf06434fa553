// Strict command-line parsing for the benchmark program.
//
//   cpr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every flag is required exactly once. Numbers are whole decimal numbers
// with no sign, whitespace or suffix: "12abc", "", "-3", "+3" and values out
// of range are rejected instead of silently becoming 0.

#ifndef CPR_PERFBENCH_ARGS_H_
#define CPR_PERFBENCH_ARGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/result.h"

namespace cpr::perfbench {

inline constexpr std::string_view kFatTreeSym = "fattree-sym";
inline constexpr std::string_view kCprdLineage = "cprd-lineage";

struct BenchArgs {
  std::string workload;
  uint32_t seed = 0;
  int seconds = 0;  // Measured run length, 1..3600.
  bool trace = false;
};

// Parses the arguments after the program name.
Result<BenchArgs> ParseArgs(const std::vector<std::string>& args);

}  // namespace cpr::perfbench

#endif  // CPR_PERFBENCH_ARGS_H_
