#include "serve/request.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "netbase/string_util.h"

namespace cpr::serve {

namespace fs = std::filesystem;

Result<CprOptions> ToCprOptions(const RequestSpec& spec) {
  CprOptions options;
  options.trace_id = spec.trace_id;
  options.repair.timeout_seconds = spec.timeout_seconds;
  options.repair.max_retries = spec.max_retries;
  options.validate_with_simulator = spec.simulate;

  if (spec.backend == "z3") {
    options.repair.backend = BackendChoice::kZ3;
  } else if (spec.backend == "internal") {
    options.repair.backend = BackendChoice::kInternal;
  } else {
    return Error("unknown backend: " + spec.backend);
  }

  if (spec.granularity == "perdst") {
    options.repair.granularity = Granularity::kPerDst;
  } else if (spec.granularity == "alltcs") {
    options.repair.granularity = Granularity::kAllTcs;
  } else {
    return Error("unknown granularity: " + spec.granularity);
  }

  if (spec.lint == "gate") {
    options.lint_mode = LintMode::kGate;
  } else if (spec.lint == "warn") {
    options.lint_mode = LintMode::kWarnOnly;
  } else if (spec.lint == "off") {
    options.lint_mode = LintMode::kOff;
  } else {
    return Error("unknown lint mode: " + spec.lint);
  }

  if (spec.compress == "on") {
    options.repair.compress.mode = CompressMode::kOn;
  } else if (spec.compress == "off") {
    options.repair.compress.mode = CompressMode::kOff;
  } else if (spec.compress == "auto") {
    options.repair.compress.mode = CompressMode::kAuto;
  } else {
    return Error("unknown compress mode: " + spec.compress);
  }

  if (spec.incremental != "auto" && spec.incremental != "off") {
    return Error("unknown incremental mode: " + spec.incremental);
  }

  if (!certify::ParseCertifyMode(spec.certify, &options.repair.certify)) {
    return Error("unknown certify mode: " + spec.certify);
  }

  if (!spec.inject_fault.empty()) {
    Result<FaultInjectionSpec> fault = FaultInjectionSpec::Parse(spec.inject_fault);
    if (!fault.ok()) {
      return fault.error();
    }
    options.repair.fault_injection = std::move(fault).value();
  }
  return options;
}

WireFields FieldsFromSpec(const RequestSpec& spec) {
  WireFields fields;
  RequestSpec defaults;
  auto put = [&fields](std::string key, std::string value) {
    fields.emplace_back(std::move(key), std::move(value));
  };
  if (!spec.tag.empty()) put("tag", spec.tag);
  put("config_dir", spec.config_dir);
  put("policy_file", spec.policy_file);
  if (spec.deadline_seconds != defaults.deadline_seconds) {
    put("deadline", FormatDouble(spec.deadline_seconds));
  }
  if (spec.timeout_seconds != defaults.timeout_seconds) {
    put("timeout", FormatDouble(spec.timeout_seconds));
  }
  if (spec.backend != defaults.backend) put("backend", spec.backend);
  if (spec.granularity != defaults.granularity) put("granularity", spec.granularity);
  if (spec.max_retries != defaults.max_retries) {
    put("max_retries", std::to_string(spec.max_retries));
  }
  if (spec.simulate != defaults.simulate) put("simulate", spec.simulate ? "1" : "0");
  if (spec.lint != defaults.lint) put("lint", spec.lint);
  if (spec.compress != defaults.compress) put("compress", spec.compress);
  if (spec.incremental != defaults.incremental) put("incremental", spec.incremental);
  if (spec.certify != defaults.certify) put("certify", spec.certify);
  if (!spec.inject_fault.empty()) put("inject_fault", spec.inject_fault);
  if (!spec.trace_id.empty()) put("trace_id", spec.trace_id);
  return fields;
}

Result<RequestSpec> SpecFromFields(const WireFields& fields) {
  WireView view(fields);
  RequestSpec spec;
  Result<double> deadline = view.GetDouble("deadline", spec.deadline_seconds);
  if (!deadline.ok()) {
    return deadline.error();
  }
  Result<double> timeout = view.GetDouble("timeout", spec.timeout_seconds);
  if (!timeout.ok()) {
    return timeout.error();
  }
  Result<int> max_retries = view.GetInt("max_retries", spec.max_retries);
  if (!max_retries.ok()) {
    return max_retries.error();
  }
  Result<int> simulate = view.GetInt("simulate", spec.simulate ? 1 : 0);
  if (!simulate.ok()) {
    return simulate.error();
  }
  spec.deadline_seconds = *deadline;
  spec.timeout_seconds = *timeout;
  spec.max_retries = *max_retries;
  spec.simulate = *simulate != 0;
  spec.tag = view.Get("tag");
  spec.config_dir = view.Get("config_dir");
  spec.policy_file = view.Get("policy_file");
  spec.backend = view.Get("backend", spec.backend);
  spec.granularity = view.Get("granularity", spec.granularity);
  spec.lint = view.Get("lint", spec.lint);
  spec.compress = view.Get("compress", spec.compress);
  spec.incremental = view.Get("incremental", spec.incremental);
  spec.certify = view.Get("certify", spec.certify);
  spec.inject_fault = view.Get("inject_fault");
  spec.trace_id = view.Get("trace_id");
  return spec;
}

namespace {

Result<std::string> ReadFileText(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    return Error("cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

Result<RequestInputs> LoadRequestInputs(const RequestSpec& spec) {
  RequestInputs inputs;
  std::vector<fs::path> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(spec.config_dir, ec)) {
    if (entry.is_regular_file()) {
      paths.push_back(entry.path());
    }
  }
  if (ec) {
    return Error("cannot list " + spec.config_dir + ": " + ec.message());
  }
  if (paths.empty()) {
    return Error("no configuration files in " + spec.config_dir);
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    Result<std::string> text = ReadFileText(path);
    if (!text.ok()) {
      return text.error();
    }
    inputs.config_texts.push_back(std::move(text).value());
  }
  Result<std::string> policy = ReadFileText(spec.policy_file);
  if (!policy.ok()) {
    return policy.error();
  }
  inputs.policy_text = std::move(policy).value();
  return inputs;
}

}  // namespace cpr::serve
