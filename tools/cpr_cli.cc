// cpr — command line interface to Control Plane Repair.
//
//   cpr show     <config-dir>                      topology summary
//   cpr lint     <config-dir> [--json]             static analysis findings
//                                                  (exit 1 on errors)
//   cpr infer    <config-dir>                      print satisfied policies
//   cpr verify   <config-dir> <policy-file>        check policies (exit 1 on
//                                                  violations)
//   cpr repair   <config-dir> <policy-file>        compute and print a patch
//       [--granularity perdst|alltcs] [--backend z3|internal]
//       [--threads N] [--timeout SECONDS] [--deadline SECONDS]
//       [--max-retries N] [--no-failover] [--no-partial]
//       [--inject-fault SPEC] [--out DIR] [--no-simulate]
//       [--lint error|warn|off]
//       [--incremental] [--baseline DIR]            re-repair against a prior
//                                                  snapshot: diff, reuse clean
//                                                  group verdicts, re-solve
//                                                  dirty ones
//   cpr explain  <config-dir> <policy-file> [--json]
//                                                  compute a repair and print
//                                                  each edit's provenance
//                                                  chain (policy -> problem ->
//                                                  flipped soft constraint ->
//                                                  construct -> config lines);
//                                                  takes the repair options
//   cpr certify  <artifact-dir>                    re-check persisted repair
//                                                  certificates offline with
//                                                  the bundled proof checker
//                                                  (exit 1 on any failure)
//   cpr gen      <out-dir> --fattree PORTS [--pods P] [--broken]
//       [--pc pc1|pc2|pc3|pc4] [--policies N] [--policy-out PATH]
//       [--dirty N] [--dirty-asym N] [--seed S]
//                                                  write synthetic configs
//                                                  (--pods scales symmetric
//                                                  replicas; --broken writes
//                                                  the violating snapshot;
//                                                  --dirty-asym breaks router
//                                                  symmetry without lint
//                                                  findings)
//
// Every command accepts --stats-json PATH (machine-readable run report) and
// --trace-out PATH (Chrome trace_event JSON of the stage-span tree; load via
// chrome://tracing or https://ui.perfetto.dev).
//
// A config directory holds one file per router (any extension); the policy
// file uses the format documented in core/policy_spec.h.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "certify/artifact.h"
#include "config/parser.h"
#include "config/printer.h"
#include "core/cpr.h"
#include "core/policy_spec.h"
#include "core/schema_versions.h"
#include "incremental/session.h"
#include "core/stats_report.h"
#include "lint/lint.h"
#include "netbase/string_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/span.h"
#include "simulate/simulator.h"
#include "verify/checker.h"
#include "workload/dirty.h"
#include "workload/fattree.h"

namespace {

namespace fs = std::filesystem;

int Usage() {
  std::fprintf(stderr,
               "usage: cpr show|infer <config-dir> [<policy-file>]\n"
               "       cpr lint <config-dir> [--json]\n"
               "       cpr verify|repair <config-dir> <policy-file> [options]\n"
               "       cpr explain <config-dir> <policy-file> [--json] [options]\n"
               "                            compute a repair and print each edit's\n"
               "                            provenance chain (policy -> problem ->\n"
               "                            soft constraint -> construct -> lines)\n"
               "       cpr certify <artifact-dir>\n"
               "                            re-check persisted *.cert.json repair\n"
               "                            certificates with the bundled checker\n"
               "                            (no solver; exit 1 on any failure)\n"
               "       cpr gen <out-dir> --fattree PORTS [--pods P] [--broken]\n"
               "                         [--pc pc1|pc2|pc3|pc4] [--policies N]\n"
               "                         [--policy-out PATH] [--dirty N]\n"
               "                         [--dirty-asym N] [--seed S]\n"
               "options: --granularity perdst|alltcs  --backend z3|internal\n"
               "         --threads N  --timeout SECONDS  --out DIR  --no-simulate\n"
               "         --compress on|off|auto  symmetry-quotient compression\n"
               "                              pre-pass: solve the small quotient\n"
               "                              network and lift the repair (default\n"
               "                              off; auto declines when the network\n"
               "                              is too small or too asymmetric)\n"
               "         --certify on|off|auto|log  independent certificate\n"
               "                              checking of every solver claim\n"
               "                              (auto: UNSAT claims only; log:\n"
               "                              record proofs but defer checking\n"
               "                              to `cpr certify`); failed checks\n"
               "                              reroute to the failover engine or\n"
               "                              demote the result to error\n"
               "         --certify-dir DIR    persist certificates as\n"
               "                              DIR/p<seq>-<claim>.cert.json for\n"
               "                              `cpr certify DIR` (implies\n"
               "                              --certify on when unset)\n"
               "         --stats-json PATH    write a machine-readable run report\n"
               "                              (stage spans, solver counters, per-\n"
               "                              problem results) to PATH\n"
               "         --trace-out PATH     write a Chrome trace_event JSON of\n"
               "                              the stage spans (chrome://tracing)\n"
               "         --lint error|warn|off  pre-repair lint gate: refuse on\n"
               "                              errors (default), report only, or skip\n"
               "         --incremental --baseline DIR  re-repair against the prior\n"
               "                              snapshot in DIR: diff the configs,\n"
               "                              reuse clean groups' verdicts, re-solve\n"
               "                              only dirty ones (the result is always\n"
               "                              re-verified concretely)\n"
               "robustness: --deadline SECONDS   total wall-clock budget (<=0\n"
               "                              rejects immediately with status\n"
               "                              deadline-exceeded; omit = unbounded)\n"
               "            --max-retries N      extra attempts after a timeout\n"
               "            --no-failover        don't re-solve unsupported problems on z3\n"
               "            --no-partial         all-or-nothing (fail the run if any\n"
               "                                 per-destination problem fails)\n"
               "            --inject-fault SPEC  degrade solver calls for testing, e.g.\n"
               "                                 timeout:max=1, throw:p=0.5:seed=7\n");
  return 2;
}

cpr::Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    return cpr::Error("cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct ConfigDir {
  std::vector<fs::path> paths;
  std::vector<std::string> texts;  // Parallel to paths.
};

// Loads every regular file in the directory as a router configuration, in
// lexicographic order (deterministic device ids).
cpr::Result<ConfigDir> LoadConfigDir(const std::string& dir) {
  ConfigDir loaded;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      loaded.paths.push_back(entry.path());
    }
  }
  if (ec) {
    return cpr::Error("cannot list " + dir + ": " + ec.message());
  }
  if (loaded.paths.empty()) {
    return cpr::Error("no configuration files in " + dir);
  }
  std::sort(loaded.paths.begin(), loaded.paths.end());
  for (const fs::path& path : loaded.paths) {
    cpr::Result<std::string> text = ReadFile(path);
    if (!text.ok()) {
      return text.error();
    }
    loaded.texts.push_back(std::move(text).value());
  }
  return loaded;
}

struct CliArgs {
  std::string command;
  std::string config_dir;  // Output directory for `gen`.
  std::string policy_file;
  std::string out_dir;
  std::string stats_json_path;  // Empty: no stats file.
  std::string trace_out_path;   // Empty: no Chrome trace file.
  bool json = false;            // `cpr lint --json` / `cpr explain --json`.
  int fattree_ports = 0;        // `cpr gen --fattree PORTS`.
  int fattree_pods = 0;         // `cpr gen --pods P` (0: == ports).
  bool gen_broken = false;      // `cpr gen --broken`: write the broken snapshot.
  std::string gen_pc = "pc1";   // `cpr gen --pc pc1|pc2|pc3|pc4`.
  int gen_policies = 0;         // `cpr gen --policies N`.
  std::string policy_out;       // `cpr gen --policy-out PATH`.
  int dirty = 0;                // `cpr gen --dirty N` lint defects.
  int dirty_asym = 0;           // `cpr gen --dirty-asym N` symmetry breaks.
  bool incremental = false;     // `cpr repair --incremental`.
  std::string baseline_dir;     // `cpr repair --baseline DIR` prior snapshot.
  uint32_t seed = 1;
  cpr::CprOptions options;
};

cpr::Result<CliArgs> ParseArgs(int argc, char** argv) {
  if (argc < 3) {
    return cpr::Error("missing arguments");
  }
  CliArgs args;
  args.command = argv[1];
  args.config_dir = argv[2];
  args.options.repair.num_threads = 8;
  int next = 3;
  if (next < argc && argv[next][0] != '-') {
    args.policy_file = argv[next++];
  }
  for (; next < argc; ++next) {
    std::string flag = argv[next];
    // `--flag=value` and `--flag value` are both accepted.
    std::optional<std::string> inline_value;
    if (size_t eq = flag.find('='); flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    auto value = [&]() -> cpr::Result<std::string> {
      if (inline_value.has_value()) {
        return *inline_value;
      }
      if (next + 1 >= argc) {
        return cpr::Error(flag + " needs a value");
      }
      return std::string(argv[++next]);
    };
    // Reads the flag's value into *out: strings verbatim, numbers strictly
    // (garbage is an error naming the flag). The status is checked once the
    // flag's branch has run.
    auto read = [&](auto* out) -> cpr::Status {
      cpr::Result<std::string> v = value();
      if (!v.ok()) {
        return v.error();
      }
      using T = std::remove_pointer_t<decltype(out)>;
      if constexpr (std::is_same_v<T, std::string>) {
        *out = *v;
      } else if constexpr (std::is_same_v<T, int>) {
        if (!cpr::ParseInt(*v, out)) {
          return cpr::Error(flag + ": expected an integer, got '" + *v + "'");
        }
      } else if constexpr (std::is_same_v<T, uint32_t>) {
        if (!cpr::ParseUint32(*v, out)) {
          return cpr::Error(flag + ": expected an integer in [0, 4294967295], got '" + *v +
                            "'");
        }
      } else {
        if (!cpr::ParseDouble(*v, out)) {
          return cpr::Error(flag + ": expected a number, got '" + *v + "'");
        }
      }
      return cpr::Status::Ok();
    };
    cpr::Status parsed;
    if (flag == "--granularity") {
      auto v = value();
      if (!v.ok()) {
        return v.error();
      }
      if (*v == "perdst") {
        args.options.repair.granularity = cpr::Granularity::kPerDst;
      } else if (*v == "alltcs") {
        args.options.repair.granularity = cpr::Granularity::kAllTcs;
      } else {
        return cpr::Error("unknown granularity " + *v);
      }
    } else if (flag == "--backend") {
      auto v = value();
      if (!v.ok()) {
        return v.error();
      }
      if (*v == "z3") {
        args.options.repair.backend = cpr::BackendChoice::kZ3;
      } else if (*v == "internal") {
        args.options.repair.backend = cpr::BackendChoice::kInternal;
      } else {
        return cpr::Error("unknown backend " + *v);
      }
    } else if (flag == "--threads") {
      parsed = read(&args.options.repair.num_threads);
    } else if (flag == "--timeout") {
      parsed = read(&args.options.repair.timeout_seconds);
    } else if (flag == "--deadline") {
      parsed = read(&args.options.repair.deadline_seconds);
      // An explicit zero (or negative) budget means "no time at all", not
      // "unbounded": the repair reports kDeadlineExceeded without starting
      // solver work. Only the flag's *absence* means unbounded.
      if (args.options.repair.deadline_seconds <= 0) {
        args.options.repair.deadline = cpr::Deadline::Exhausted();
      }
    } else if (flag == "--max-retries") {
      parsed = read(&args.options.repair.max_retries);
    } else if (flag == "--no-failover") {
      args.options.repair.enable_failover = false;
    } else if (flag == "--no-partial") {
      args.options.repair.allow_partial = false;
    } else if (flag == "--inject-fault") {
      auto v = value();
      if (!v.ok()) {
        return v.error();
      }
      cpr::Result<cpr::FaultInjectionSpec> spec = cpr::FaultInjectionSpec::Parse(*v);
      if (!spec.ok()) {
        return spec.error();
      }
      args.options.repair.fault_injection = *spec;
    } else if (flag == "--out") {
      parsed = read(&args.out_dir);
    } else if (flag == "--stats-json") {
      parsed = read(&args.stats_json_path);
    } else if (flag == "--trace-out") {
      parsed = read(&args.trace_out_path);
    } else if (flag == "--no-simulate") {
      args.options.validate_with_simulator = false;
    } else if (flag == "--lint") {
      auto v = value();
      if (!v.ok()) {
        return v.error();
      }
      if (*v == "error") {
        args.options.lint_mode = cpr::LintMode::kGate;
      } else if (*v == "warn") {
        args.options.lint_mode = cpr::LintMode::kWarnOnly;
      } else if (*v == "off") {
        args.options.lint_mode = cpr::LintMode::kOff;
      } else {
        return cpr::Error("unknown lint mode " + *v + " (error|warn|off)");
      }
    } else if (flag == "--compress") {
      auto v = value();
      if (!v.ok()) {
        return v.error();
      }
      if (*v == "on") {
        args.options.repair.compress.mode = cpr::CompressMode::kOn;
      } else if (*v == "off") {
        args.options.repair.compress.mode = cpr::CompressMode::kOff;
      } else if (*v == "auto") {
        args.options.repair.compress.mode = cpr::CompressMode::kAuto;
      } else {
        return cpr::Error("unknown compress mode " + *v + " (on|off|auto)");
      }
    } else if (flag == "--certify") {
      auto v = value();
      if (!v.ok()) {
        return v.error();
      }
      if (!cpr::certify::ParseCertifyMode(*v, &args.options.repair.certify)) {
        return cpr::Error("unknown certify mode " + *v + " (on|off|auto|log)");
      }
    } else if (flag == "--certify-dir") {
      parsed = read(&args.options.repair.certify_artifact_dir);
      // Asking for artifacts implies asking for checking.
      if (args.options.repair.certify == cpr::certify::CertifyMode::kOff) {
        args.options.repair.certify = cpr::certify::CertifyMode::kOn;
      }
    } else if (flag == "--incremental") {
      args.incremental = true;
    } else if (flag == "--baseline") {
      parsed = read(&args.baseline_dir);
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--fattree") {
      parsed = read(&args.fattree_ports);
    } else if (flag == "--pods") {
      parsed = read(&args.fattree_pods);
    } else if (flag == "--broken") {
      args.gen_broken = true;
    } else if (flag == "--pc") {
      parsed = read(&args.gen_pc);
    } else if (flag == "--policies") {
      parsed = read(&args.gen_policies);
    } else if (flag == "--policy-out") {
      parsed = read(&args.policy_out);
    } else if (flag == "--dirty") {
      parsed = read(&args.dirty);
    } else if (flag == "--dirty-asym") {
      parsed = read(&args.dirty_asym);
    } else if (flag == "--seed") {
      parsed = read(&args.seed);
    } else {
      return cpr::Error("unknown flag " + flag);
    }
    if (!parsed.ok()) {
      return parsed.error();
    }
  }
  return args;
}

int CmdShow(const cpr::Cpr& pipeline) {
  const cpr::Network& network = pipeline.network();
  std::printf("devices (%zu):\n", network.devices().size());
  for (const cpr::Device& device : network.devices()) {
    std::printf("  %-12s %zu routing process(es)\n", device.name.c_str(),
                device.processes.size());
  }
  std::printf("links (%zu):\n", network.links().size());
  for (const cpr::TopoLink& link : network.links()) {
    std::printf("  %s <-> %s  %s%s\n",
                network.devices()[static_cast<size_t>(link.device_a)].name.c_str(),
                network.devices()[static_cast<size_t>(link.device_b)].name.c_str(),
                link.prefix.ToString().c_str(), link.waypoint ? "  [waypoint]" : "");
  }
  std::printf("subnets (%zu):\n", network.subnets().size());
  for (const cpr::Subnet& subnet : network.subnets()) {
    std::printf("  %-20s at %s\n", subnet.prefix.ToString().c_str(),
                network.devices()[static_cast<size_t>(subnet.device)].name.c_str());
  }
  std::printf("traffic classes: %zu\n", network.EnumerateTrafficClasses().size());
  return 0;
}

// ---- cpr lint -------------------------------------------------------------

struct ParseFailure {
  std::string file;
  int line = 0;
  int col = 0;
  std::string message;
};

struct LocatedDiagnostic {
  std::string file;
  int line = 0;  // 0: anchor not found in the file text.
  int col = 0;
  const cpr::lint::Diagnostic* diagnostic;
};

std::string LintJson(size_t files, const std::vector<ParseFailure>& parse_failures,
                     const cpr::lint::Report& report,
                     const std::vector<LocatedDiagnostic>& located) {
  cpr::obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(cpr::kLintSchemaVersion);
  w.Key("files").Int(static_cast<int64_t>(files));
  w.Key("errors").Int(report.errors);
  w.Key("warnings").Int(report.warnings);
  w.Key("infos").Int(report.infos);
  w.Key("parse_errors").BeginArray();
  for (const ParseFailure& failure : parse_failures) {
    w.BeginObject();
    w.Key("file").String(failure.file);
    w.Key("line").Int(failure.line);
    w.Key("col").Int(failure.col);
    w.Key("message").String(failure.message);
    w.EndObject();
  }
  w.EndArray();
  w.Key("diagnostics").BeginArray();
  for (const LocatedDiagnostic& entry : located) {
    const cpr::lint::Diagnostic& d = *entry.diagnostic;
    w.BeginObject();
    w.Key("file").String(entry.file);
    w.Key("line").Int(entry.line);
    w.Key("col").Int(entry.col);
    w.Key("rule").String(d.rule);
    w.Key("severity").String(cpr::lint::SeverityName(d.severity));
    w.Key("device").String(d.device);
    w.Key("path").String(d.path);
    w.Key("message").String(d.message);
    w.Key("hint").String(d.hint);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

int CmdLint(const ConfigDir& dir, bool json) {
  std::vector<ParseFailure> parse_failures;
  std::vector<cpr::Config> configs;
  std::vector<size_t> file_of_config;  // configs[c] parsed from paths[...].
  for (size_t i = 0; i < dir.texts.size(); ++i) {
    cpr::ParseErrorDetail detail;
    cpr::Result<cpr::Config> parsed = cpr::ParseConfig(dir.texts[i], &detail);
    if (!parsed.ok()) {
      parse_failures.push_back(ParseFailure{dir.paths[i].string(), detail.line,
                                            detail.col, detail.message});
      continue;
    }
    file_of_config.push_back(i);
    configs.push_back(std::move(parsed).value());
  }

  cpr::lint::Report report = cpr::lint::Run(configs);
  std::map<std::string, size_t> file_of_device;
  for (size_t c = 0; c < configs.size(); ++c) {
    file_of_device[configs[c].hostname] = file_of_config[c];
  }
  std::vector<LocatedDiagnostic> located;
  located.reserve(report.diagnostics.size());
  for (const cpr::lint::Diagnostic& d : report.diagnostics) {
    LocatedDiagnostic entry;
    entry.diagnostic = &d;
    auto it = file_of_device.find(d.device);
    if (it != file_of_device.end()) {
      entry.file = dir.paths[it->second].string();
      if (auto pos = cpr::lint::Locate(dir.texts[it->second], d)) {
        entry.line = pos->first;
        entry.col = pos->second;
      }
    } else {
      entry.file = d.device;  // Cross-device finding on an unparsed file.
    }
    located.push_back(entry);
  }

  bool failed = !parse_failures.empty() || report.errors > 0;
  if (json) {
    std::string doc = LintJson(dir.paths.size(), parse_failures, report, located);
    std::string json_error;
    if (!cpr::obs::ValidateJson(doc, &json_error)) {
      std::fprintf(stderr, "internal error: lint json invalid: %s\n", json_error.c_str());
      return 1;
    }
    std::printf("%s\n", doc.c_str());
    return failed ? 1 : 0;
  }

  for (const ParseFailure& failure : parse_failures) {
    std::printf("%s:%d:%d: error: [parse] %s\n", failure.file.c_str(), failure.line,
                failure.col, failure.message.c_str());
  }
  for (const LocatedDiagnostic& entry : located) {
    const cpr::lint::Diagnostic& d = *entry.diagnostic;
    if (entry.line > 0) {
      std::printf("%s:%d:%d: %s: [%s] %s\n", entry.file.c_str(), entry.line, entry.col,
                  cpr::lint::SeverityName(d.severity), d.rule.c_str(), d.message.c_str());
    } else {
      std::printf("%s: %s: [%s] %s\n", entry.file.c_str(),
                  cpr::lint::SeverityName(d.severity), d.rule.c_str(), d.message.c_str());
    }
    if (!d.hint.empty()) {
      std::printf("    hint: %s\n", d.hint.c_str());
    }
  }
  std::printf("%zu file(s): %zu parse error(s), %d error(s), %d warning(s), %d info(s)\n",
              dir.paths.size(), parse_failures.size(), report.errors, report.warnings,
              report.infos);
  return failed ? 1 : 0;
}

// ---- cpr gen --------------------------------------------------------------

int CmdGen(const CliArgs& args) {
  if (args.fattree_ports < 4 || args.fattree_ports % 2 != 0) {
    std::fprintf(stderr, "error: gen requires --fattree PORTS (even, >= 4)\n");
    return 2;
  }
  const int pods = args.fattree_pods > 0 ? args.fattree_pods : args.fattree_ports;
  if (pods < 2) {
    std::fprintf(stderr, "error: --pods must be >= 2\n");
    return 2;
  }
  cpr::PolicyClass pc;
  if (args.gen_pc == "pc1") {
    pc = cpr::PolicyClass::kAlwaysBlocked;
  } else if (args.gen_pc == "pc2") {
    pc = cpr::PolicyClass::kAlwaysWaypoint;
  } else if (args.gen_pc == "pc3") {
    pc = cpr::PolicyClass::kReachability;
  } else if (args.gen_pc == "pc4") {
    pc = cpr::PolicyClass::kPrimaryPath;
  } else {
    std::fprintf(stderr, "error: unknown --pc %s (pc1|pc2|pc3|pc4)\n",
                 args.gen_pc.c_str());
    return 2;
  }
  // The policy file must land outside the config directory: repair commands
  // load *every* regular file in the directory as a router configuration.
  if (!args.policy_out.empty()) {
    std::error_code rel_ec;
    fs::path rel = fs::relative(args.policy_out, args.config_dir, rel_ec);
    if (!rel_ec && !rel.empty() && rel.native().rfind("..", 0) != 0) {
      std::fprintf(stderr, "error: --policy-out must lie outside the config dir\n");
      return 2;
    }
  }
  cpr::FatTreeScenario scenario = cpr::MakeFatTreeScenario(
      args.fattree_ports, pods, pc, args.gen_policies, args.seed);
  std::vector<std::string> configs = args.gen_broken
                                         ? std::move(scenario.broken_configs)
                                         : std::move(scenario.working_configs);
  int planted = 0;
  if (args.dirty > 0) {
    cpr::Result<int> seeded =
        cpr::SeedLintDefects(&configs, cpr::DirtyOptions::Mix(args.dirty, args.seed));
    if (!seeded.ok()) {
      std::fprintf(stderr, "error: %s\n", seeded.error().message().c_str());
      return 1;
    }
    planted = *seeded;
  }
  int asymmetries = 0;
  if (args.dirty_asym > 0) {
    cpr::Result<int> seeded = cpr::SeedAsymmetry(&configs, args.dirty_asym, args.seed);
    if (!seeded.ok()) {
      std::fprintf(stderr, "error: %s\n", seeded.error().message().c_str());
      return 1;
    }
    asymmetries = *seeded;
  }
  std::error_code ec;
  fs::create_directories(args.config_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", args.config_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::vector<cpr::Config> parsed_configs;
  for (const std::string& text : configs) {
    cpr::Result<cpr::Config> parsed = cpr::ParseConfig(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "internal error: generated config does not parse: %s\n",
                   parsed.error().message().c_str());
      return 1;
    }
    fs::path path = fs::path(args.config_dir) / (parsed->hostname + ".cfg");
    std::ofstream out(path);
    out << text;
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.string().c_str());
      return 1;
    }
    parsed_configs.push_back(std::move(parsed).value());
  }
  if (!args.policy_out.empty()) {
    // Policies are formatted against a network built from the *written*
    // configs so the prefixes resolve for whoever loads the directory; the
    // working and broken snapshots share the topology, so either works.
    cpr::Result<cpr::Network> network =
        cpr::Network::Build(std::move(parsed_configs), scenario.annotations);
    if (!network.ok()) {
      std::fprintf(stderr, "internal error: generated network does not build: %s\n",
                   network.error().message().c_str());
      return 1;
    }
    std::ofstream out(args.policy_out);
    // FormatPolicySpec renders policies only; waypoint annotations are
    // phase-1 input and must ride along for PC2.
    for (const auto& [a, b] : scenario.annotations.waypoint_links) {
      out << "waypoint-link " << a << " " << b << "\n";
    }
    out << cpr::FormatPolicySpec(scenario.policies, *network);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", args.policy_out.c_str());
      return 1;
    }
  }
  std::printf(
      "wrote %zu configuration(s) to %s (%d lint defect(s), %d asymmetry(ies) seeded)\n",
      configs.size(), args.config_dir.c_str(), planted, asymmetries);
  return 0;
}

int CmdInfer(const cpr::Cpr& pipeline) {
  std::vector<cpr::Policy> policies = pipeline.InferPolicies();
  std::fputs(cpr::FormatPolicySpec(policies, pipeline.network()).c_str(), stdout);
  return 0;
}

int CmdVerify(const cpr::Cpr& pipeline, const std::vector<cpr::Policy>& policies) {
  std::vector<cpr::Policy> violations = cpr::FindViolations(pipeline.harc(), policies);
  for (const cpr::Policy& policy : policies) {
    bool violated =
        std::find(violations.begin(), violations.end(), policy) != violations.end();
    std::printf("%-9s %s\n", violated ? "VIOLATED" : "ok",
                policy.ToString(pipeline.network()).c_str());
  }
  std::printf("%zu/%zu policies hold\n", policies.size() - violations.size(),
              policies.size());
  return violations.empty() ? 0 : 1;
}

// Per-problem diagnostics, printed whenever any problem failed so operators
// can see exactly which destination groups degraded and why.
void PrintProblemDiagnostics(const cpr::Cpr& pipeline, const cpr::RepairStats& stats) {
  if (stats.problems_failed == 0) {
    return;
  }
  std::fprintf(stderr, "problems: %d solved, %d failed\n", stats.problems_solved,
               stats.problems_failed);
  const cpr::Network& network = pipeline.network();
  for (size_t i = 0; i < stats.problem_reports.size(); ++i) {
    const cpr::ProblemReport& problem = stats.problem_reports[i];
    if (problem.solved()) {
      continue;
    }
    std::string dsts;
    for (cpr::SubnetId dst : problem.dsts) {
      if (!dsts.empty()) {
        dsts += ",";
      }
      dsts += network.subnets()[static_cast<size_t>(dst)].prefix.ToString();
    }
    std::fprintf(stderr, "  problem %zu [dst %s]: %s after %d attempt(s) on %s (%.2fs)%s%s\n",
                 i, dsts.c_str(), cpr::MaxSmtStatusName(problem.status), problem.attempts,
                 problem.backend.empty() ? "?" : problem.backend.c_str(),
                 problem.solve_seconds, problem.message.empty() ? "" : ": ",
                 problem.message.c_str());
    if (!problem.unsat_core_labels.empty()) {
      std::string core;
      for (const std::string& label : problem.unsat_core_labels) {
        if (!core.empty()) {
          core += ", ";
        }
        core += label;
      }
      std::fprintf(stderr, "    unsat core (conflicting policies): %s\n", core.c_str());
    }
  }
}

// On return, `*report_out` holds the repair report whenever the repair
// engine produced one (even for failed runs), so the stats sink can record
// it; it stays empty only when Repair() itself errored.
// `cpr certify <artifact-dir>`: parse every *.cert.json under the directory
// and re-run the bundled checker over each — offline, no solver constructed.
// Zero artifacts is a failure too: the caller asked to certify something.
int CmdCertify(const std::string& dir) {
  cpr::Result<std::vector<cpr::certify::ArtifactCheck>> checks =
      cpr::certify::CheckArtifactDir(dir);
  if (!checks.ok()) {
    std::fprintf(stderr, "error: %s\n", checks.error().message().c_str());
    return 1;
  }
  if (checks->empty()) {
    std::fprintf(stderr, "error: no *.cert.json artifacts in %s\n", dir.c_str());
    return 1;
  }
  int failed = 0;
  for (const cpr::certify::ArtifactCheck& check : *checks) {
    if (check.ok) {
      std::printf("ok   %-40s %s %s (%lld lemma(s) checked)\n", check.file.c_str(),
                  check.kind.c_str(), check.claim.c_str(),
                  static_cast<long long>(check.lemmas));
    } else {
      ++failed;
      std::printf("FAIL %-40s %s %s: %s\n", check.file.c_str(), check.kind.c_str(),
                  check.claim.c_str(), check.message.c_str());
    }
  }
  std::printf("%zu artifact(s) checked, %d failed\n", checks->size(), failed);
  return failed == 0 ? 0 : 1;
}

int CmdRepair(const cpr::Cpr& pipeline, const std::vector<cpr::Policy>& policies,
              const CliArgs& args, std::optional<cpr::CprReport>* report_out) {
  cpr::Result<cpr::CprReport> report = pipeline.Repair(policies, args.options);
  if (!report.ok()) {
    std::fprintf(stderr, "repair error: %s\n", report.error().message().c_str());
    return 1;
  }
  *report_out = *report;
  if (report->status == cpr::RepairStatus::kLintRejected) {
    std::fprintf(stderr,
                 "lint gate: %d error(s), %d warning(s) in the input configurations:\n",
                 report->lint_report.errors, report->lint_report.warnings);
    for (const cpr::lint::Diagnostic& d : report->lint_report.diagnostics) {
      if (d.severity != cpr::lint::Severity::kInfo) {
        std::fprintf(stderr, "  %s\n", d.ToString().c_str());
      }
    }
    std::fprintf(stderr,
                 "repair refused: the HARC built from broken configurations cannot be "
                 "trusted; fix the errors or re-run with --lint=warn\n");
    return 1;
  }
  if (report->status == cpr::RepairStatus::kNoViolations) {
    std::printf("all policies already hold; nothing to repair\n");
    return 0;
  }
  if (report->incremental.attempted) {
    const auto& inc = report->incremental;
    if (inc.applied) {
      std::printf(
          "incremental: %d/%d group(s) reused, %d re-solved "
          "(%d dirty dst(s), %d dirty tc(s)%s)\n",
          inc.groups_reused, inc.groups_total, inc.groups_resolved,
          inc.dirty_destinations, inc.dirty_traffic_classes,
          inc.fell_back ? ", fell back to full repair" : "");
    } else {
      std::printf("incremental: declined (%s); full repair ran\n",
                  inc.skipped_reason.c_str());
    }
  }
  if (args.options.repair.certify != cpr::certify::CertifyMode::kOff) {
    std::printf("certify (%s): %d result(s) checked, %d verified, %d failed",
                cpr::certify::CertifyModeName(args.options.repair.certify),
                report->stats.certify_checked, report->stats.certify_verified,
                report->stats.certify_failed);
    if (report->stats.certify_artifacts > 0) {
      std::printf("; %d artifact(s) in %s", report->stats.certify_artifacts,
                  args.options.repair.certify_artifact_dir.c_str());
    }
    std::printf("\n");
    for (const cpr::ProblemReport& problem : report->stats.problem_reports) {
      if (problem.certification == cpr::MaxSmtResult::Certification::kFailed) {
        std::fprintf(stderr, "certificate FAILED (%s): %s\n",
                     problem.backend.c_str(), problem.certify_message.c_str());
      }
    }
  }
  PrintProblemDiagnostics(pipeline, report->stats);
  // solve times: the per-problem sum exceeds the solve wall time whenever
  // problems ran in parallel — label it so parallel runs don't read as slow.
  std::printf(
      "timing: encode %.2fs, solve %.2fs (cpu-sum over %d problems), "
      "solve wall %.2fs, repair total %.2fs\n",
      report->stats.encode_seconds, report->stats.solve_seconds,
      report->stats.problems_formulated, report->stats.solve_wall_seconds,
      report->stats.wall_seconds);
  if (report->status != cpr::RepairStatus::kSuccess &&
      report->status != cpr::RepairStatus::kPartial) {
    std::fprintf(stderr, "repair failed: %s\n", cpr::RepairStatusName(report->status));
    return 1;
  }
  if (report->status == cpr::RepairStatus::kPartial) {
    std::printf("partial repair: %d/%d problems solved; patch below covers the "
                "solved destinations only\n",
                report->stats.problems_solved, report->stats.problems_formulated);
  }
  std::printf("repair: %d line(s) changed across %zu construct edit(s)\n",
              report->lines_changed, report->change_log.size());
  for (const std::string& change : report->change_log) {
    std::printf("  * %s\n", change.c_str());
  }
  std::printf("\n%s", report->diff_text.c_str());
  if (report->simulated) {
    std::printf("\nvalidation: %zu graph / %zu simulated residual violations -> %s\n",
                report->residual_graph_violations.size(),
                report->residual_simulation_violations.size(),
                report->Sound() ? "sound" : "UNSOUND");
  } else {
    std::printf("\nvalidation: %zu graph residual violations, simulator not run "
                "(--no-simulate) -> %s\n",
                report->residual_graph_violations.size(),
                report->Sound() ? "sound" : "UNSOUND");
  }
  if (args.options.lint_mode != cpr::LintMode::kOff) {
    if (report->lint_new_findings.empty()) {
      std::printf("lint audit: clean (repaired configurations introduce no new "
                  "findings)\n");
    } else {
      std::printf("lint audit: %zu NEW finding(s) in the repaired configurations:\n",
                  report->lint_new_findings.size());
      for (const cpr::lint::Diagnostic& d : report->lint_new_findings) {
        std::printf("  %s\n", d.ToString().c_str());
      }
    }
  }

  if (!args.out_dir.empty()) {
    std::error_code ec;
    fs::create_directories(args.out_dir, ec);
    for (const cpr::Config& config : report->patched_configs) {
      fs::path path = fs::path(args.out_dir) / (config.hostname + ".cfg");
      std::ofstream out(path);
      out << cpr::PrintConfig(config);
    }
    std::printf("patched configurations written to %s\n", args.out_dir.c_str());
  }
  return report->Sound() ? 0 : 1;
}

// ---- cpr explain ----------------------------------------------------------

// Recomputes the repair and renders its provenance report: one chain per
// emitted edit from policy to configuration line, plus the unsat cores of
// problems that had no repair. The simulator is skipped — explain answers
// "why these changes", not "does the patch validate".
int CmdExplain(const cpr::Cpr& pipeline, const std::vector<cpr::Policy>& policies,
               const CliArgs& args, std::optional<cpr::CprReport>* report_out) {
  cpr::CprOptions options = args.options;
  options.validate_with_simulator = false;
  cpr::Result<cpr::CprReport> report = pipeline.Repair(policies, options);
  if (!report.ok()) {
    std::fprintf(stderr, "repair error: %s\n", report.error().message().c_str());
    return 1;
  }
  *report_out = *report;
  if (args.json) {
    std::string doc = cpr::obs::ProvenanceJson(report->provenance);
    std::string json_error;
    if (!cpr::obs::ValidateJson(doc, &json_error)) {
      std::fprintf(stderr, "internal error: explain json invalid: %s\n",
                   json_error.c_str());
      return 1;
    }
    std::printf("%s\n", doc.c_str());
    return 0;
  }
  std::printf("status: %s\n", cpr::RepairStatusName(report->status));
  std::fputs(cpr::obs::ProvenanceText(report->provenance).c_str(), stdout);
  return 0;
}

// Serializes the run (trace + registry + optional repair report) to the
// --stats-json path. Called on every exit path once the pipeline started.
void WriteStats(const CliArgs& args, int exit_code,
                const std::optional<cpr::CprReport>& report, double wall_seconds) {
  if (args.stats_json_path.empty()) {
    return;
  }
  cpr::StatsRunInfo run;
  run.command = args.command;
  run.config_dir = args.config_dir;
  run.policy_file = args.policy_file;
  run.backend =
      args.options.repair.backend == cpr::BackendChoice::kZ3 ? "z3" : "internal";
  run.granularity = args.options.repair.granularity == cpr::Granularity::kPerDst
                        ? "perdst"
                        : "alltcs";
  run.threads = args.options.repair.num_threads;
  run.status = report.has_value() ? cpr::RepairStatusName(report->status)
                                  : (exit_code == 0 ? "ok" : "error");
  run.wall_seconds = wall_seconds;
  std::string json =
      cpr::BuildStatsJson(run, report.has_value() ? &*report : nullptr);
  cpr::Status written = cpr::WriteStatsJson(args.stats_json_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.error().message().c_str());
  } else {
    std::fprintf(stderr, "stats written to %s\n", args.stats_json_path.c_str());
  }
}

// Serializes the stage-span tree to the --trace-out path as Chrome
// trace_event JSON (chrome://tracing / ui.perfetto.dev).
void WriteTrace(const CliArgs& args) {
  if (args.trace_out_path.empty()) {
    return;
  }
  std::string json =
      cpr::obs::BuildChromeTrace(cpr::obs::Trace::Global().Records());
  cpr::Status written = cpr::WriteStatsJson(args.trace_out_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.error().message().c_str());
  } else {
    std::fprintf(stderr, "trace written to %s\n", args.trace_out_path.c_str());
  }
}

int RunCli(int argc, char** argv) {
  auto run_start = std::chrono::steady_clock::now();
  cpr::Result<CliArgs> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().message().c_str());
    return Usage();
  }
  if (!args->stats_json_path.empty() || !args->trace_out_path.empty()) {
    // A stats/trace file describes exactly one run: drop any instrument state
    // left by earlier in-process activity and start a fresh trace.
    cpr::obs::Registry::Global().Reset();
    cpr::obs::Trace::Global().Enable();
  }

  if (args->command == "gen") {
    return CmdGen(*args);
  }
  if (args->command == "certify") {
    // The positional argument is a certificate artifact directory, not a
    // configuration directory.
    return CmdCertify(args->config_dir);
  }

  cpr::Result<ConfigDir> loaded = LoadConfigDir(args->config_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.error().message().c_str());
    return 1;
  }
  if (args->command == "lint") {
    return CmdLint(*loaded, args->json);
  }
  const std::vector<std::string>& texts = loaded->texts;

  std::string policy_text;
  if (!args->policy_file.empty()) {
    cpr::Result<std::string> content = ReadFile(args->policy_file);
    if (!content.ok()) {
      std::fprintf(stderr, "error: %s\n", content.error().message().c_str());
      return 1;
    }
    policy_text = std::move(content).value();
  }

  cpr::Result<cpr::NetworkAnnotations> annotations =
      cpr::ParseSpecAnnotations(policy_text);
  if (!annotations.ok()) {
    std::fprintf(stderr, "error: %s\n", annotations.error().message().c_str());
    return 1;
  }

  // --incremental: retain the baseline snapshot as a RepairSession and build
  // the pipeline against it. The session is built fresh here (one extra HARC
  // build + verification); the daemon amortizes this by keeping sessions
  // alive across requests.
  std::shared_ptr<cpr::incremental::RepairSession> baseline_session;
  if (args->incremental || !args->baseline_dir.empty()) {
    if (args->baseline_dir.empty()) {
      std::fprintf(stderr, "error: --incremental requires --baseline DIR\n");
      return 2;
    }
    if (args->command != "repair" && args->command != "explain") {
      std::fprintf(stderr, "error: --baseline only applies to repair/explain\n");
      return 2;
    }
    cpr::Result<ConfigDir> base = LoadConfigDir(args->baseline_dir);
    if (!base.ok()) {
      std::fprintf(stderr, "error: baseline: %s\n", base.error().message().c_str());
      return 1;
    }
    std::vector<cpr::Config> base_configs;
    for (const std::string& text : base->texts) {
      cpr::Result<cpr::Config> parsed = cpr::ParseConfig(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: baseline: %s\n", parsed.error().message().c_str());
        return 1;
      }
      base_configs.push_back(std::move(parsed).value());
    }
    // Policies resolve against the baseline network; the engine cross-checks
    // that they mean the same thing in the new snapshot before reusing
    // anything.
    cpr::Result<cpr::Network> base_network =
        cpr::Network::Build(base_configs, *annotations);
    if (!base_network.ok()) {
      std::fprintf(stderr, "error: baseline: %s\n",
                   base_network.error().message().c_str());
      return 1;
    }
    cpr::Result<std::vector<cpr::Policy>> base_policies =
        cpr::ParseSpecPolicies(policy_text, *base_network);
    if (!base_policies.ok()) {
      std::fprintf(stderr, "error: baseline: %s\n",
                   base_policies.error().message().c_str());
      return 1;
    }
    cpr::Result<std::shared_ptr<cpr::incremental::RepairSession>> session =
        cpr::incremental::BuildSession(std::move(base_configs), *annotations,
                                       std::move(*base_policies),
                                       args->options.repair);
    if (!session.ok()) {
      std::fprintf(stderr, "error: baseline: %s\n", session.error().message().c_str());
      return 1;
    }
    baseline_session = std::move(*session);
  }

  cpr::Result<cpr::Cpr> pipeline =
      baseline_session != nullptr
          ? cpr::Cpr::FromBaseline(baseline_session, texts, *annotations)
          : cpr::Cpr::FromConfigTexts(texts, *annotations);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "error: %s\n", pipeline.error().message().c_str());
    return 1;
  }

  std::optional<cpr::CprReport> report;
  auto finish = [&](int exit_code) {
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
            .count();
    WriteStats(*args, exit_code, report, wall);
    WriteTrace(*args);
    return exit_code;
  };

  if (args->command == "show") {
    return finish(CmdShow(*pipeline));
  }
  if (args->command == "infer") {
    return finish(CmdInfer(*pipeline));
  }

  cpr::Result<std::vector<cpr::Policy>> policies =
      cpr::ParseSpecPolicies(policy_text, pipeline->network());
  if (!policies.ok()) {
    std::fprintf(stderr, "error: %s\n", policies.error().message().c_str());
    return 1;
  }
  if (args->command == "verify") {
    return finish(CmdVerify(*pipeline, *policies));
  }
  if (args->command == "repair") {
    return finish(CmdRepair(*pipeline, *policies, *args, &report));
  }
  if (args->command == "explain") {
    return finish(CmdExplain(*pipeline, *policies, *args, &report));
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Exception-safe boundary: library code mostly reports failures through
  // Result<T>, but some substrates throw (workload generators, the Z3 API,
  // the standard library). A throw must produce a one-line error and a
  // non-zero exit, never an abort.
  try {
    return RunCli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown exception\n");
    return 1;
  }
}
