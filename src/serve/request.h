// What a cprd client asks for: one repair over a configuration snapshot.
//
// RequestSpec is the unit that crosses every boundary in the daemon — the
// wire (cprd submit), the queue, the checkpoint file — so it has exactly one
// serialization (the wire field format) used everywhere. Unknown keys are
// ignored so old daemons accept new clients' hints, and missing keys take
// the defaults below; a numeric value must parse whole or the spec is
// rejected.

#ifndef CPR_SRC_SERVE_REQUEST_H_
#define CPR_SRC_SERVE_REQUEST_H_

#include <string>
#include <vector>

#include "core/cpr.h"
#include "netbase/result.h"
#include "serve/wire.h"

namespace cpr::serve {

struct RequestSpec {
  std::string tag;          // Client label, echoed in status output.
  std::string config_dir;   // Directory of router configuration files.
  std::string policy_file;  // Policy spec (core/policy_spec.h format).

  // Total wall-clock budget for the request, queue wait INCLUDED — the
  // deadline starts ticking at admission, not at execution. 0 means "use
  // the daemon default"; < 0 means "already exhausted" (the request is
  // reported kDeadlineExceeded without solver work; checkpoint recovery
  // uses this to preserve expiry across a restart).
  double deadline_seconds = 0;

  // Passed through to RepairOptions (tools/cpr repair flags).
  double timeout_seconds = 10;
  // "internal" | "z3". The internal CDCL/MaxSAT engine solves the boolean
  // problems and breaks ties by changed lines; a problem with PC4's integer
  // costs fails over to Z3 (the daemon always keeps failover on).
  std::string backend = "internal";
  std::string granularity = "perdst"; // "perdst" | "alltcs"
  int max_retries = 0;                // Per-problem solver retries.
  bool simulate = false;              // Re-validate on the simulator.
  std::string lint = "gate";          // "gate" | "warn" | "off"
  std::string compress = "off";       // "on" | "off" | "auto" (compress/).
  // "auto": a re-submission from the same source (config_dir) re-repairs
  // incrementally against the session the daemon retained from the previous
  // sound result — diff, reuse clean groups' verdicts, re-solve dirty
  // ones. "off": always the full pipeline, and no session is retained.
  std::string incremental = "auto";
  // "on" | "off" | "auto": independent certificate checking of every solver
  // claim (certify/). When not "off" the daemon also persists the request's
  // certificate artifacts under <results-dir>/certs/<request-id>/ for
  // offline `cpr certify`.
  std::string certify = "off";
  std::string inject_fault;           // FaultInjectionSpec text (testing).
  // Correlation ID for the request's whole telemetry lifecycle (event log,
  // flight recorder, stage spans, stats-json). Clients may supply their own;
  // the daemon mints one at admission when empty. Rides the wire and the
  // checkpoint file so a recovered request keeps its identity.
  std::string trace_id;
};

// Spec -> pipeline options. The daemon fills options.repair.deadline and
// options.repair.solve_runner itself; this maps only the client-visible
// knobs. Fails on an unknown backend/granularity/lint value or a malformed
// fault spec.
Result<CprOptions> ToCprOptions(const RequestSpec& spec);

// Spec <-> wire fields. FieldsFromSpec omits keys holding their default so
// lines stay short and writes numbers so they read back exactly;
// SpecFromFields applies defaults for missing keys and fails on a malformed
// number ("simulate=true", "deadline=abc").
WireFields FieldsFromSpec(const RequestSpec& spec);
Result<RequestSpec> SpecFromFields(const WireFields& fields);

// Loads the request's inputs from disk: every regular file in config_dir
// (lexicographic order, deterministic device ids) plus the policy text.
struct RequestInputs {
  std::vector<std::string> config_texts;
  std::string policy_text;
};
Result<RequestInputs> LoadRequestInputs(const RequestSpec& spec);

}  // namespace cpr::serve

#endif  // CPR_SRC_SERVE_REQUEST_H_
