#include "perfbench/args.h"

#include <charconv>
#include <map>

namespace cpr::perfbench {

namespace {

// Parses a whole decimal number in [0, max]. Fails on anything else.
Result<uint64_t> ParseWholeNumber(std::string_view text, uint64_t max) {
  if (text.empty()) {
    return Error("empty number");
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Error("not a whole number: '" + std::string(text) + "'");
    }
  }
  uint64_t value = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value > max) {
    return Error("number out of range [0, " + std::to_string(max) + "]: '" +
                 std::string(text) + "'");
  }
  return value;
}

}  // namespace

Result<BenchArgs> ParseArgs(const std::vector<std::string>& args) {
  std::map<std::string, std::string> flags;
  for (size_t i = 0; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" && flag != "--trace") {
      return Error("unknown argument '" + flag + "'");
    }
    if (i + 1 >= args.size()) {
      return Error(flag + " needs a value");
    }
    if (!flags.emplace(flag, args[i + 1]).second) {
      return Error(flag + " given twice");
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (flags.count(required) == 0) {
      return Error(std::string("missing ") + required);
    }
  }

  BenchArgs parsed;
  parsed.workload = flags["--workload"];
  if (parsed.workload != kFatTreeSym && parsed.workload != kCprdLineage) {
    return Error("unknown workload '" + parsed.workload + "' (expected " +
                 std::string(kFatTreeSym) + " or " + std::string(kCprdLineage) + ")");
  }
  Result<uint64_t> seed = ParseWholeNumber(flags["--seed"], UINT32_MAX);
  if (!seed.ok()) {
    return Error("--seed: " + seed.error().message());
  }
  parsed.seed = static_cast<uint32_t>(*seed);
  Result<uint64_t> seconds = ParseWholeNumber(flags["--seconds"], 3600);
  if (!seconds.ok()) {
    return Error("--seconds: " + seconds.error().message());
  }
  if (*seconds == 0) {
    return Error("--seconds: must be at least 1");
  }
  parsed.seconds = static_cast<int>(*seconds);
  const std::string& trace = flags["--trace"];
  if (trace != "0" && trace != "1") {
    return Error("--trace: expected 0 or 1, got '" + trace + "'");
  }
  parsed.trace = trace == "1";
  return parsed;
}

}  // namespace cpr::perfbench
