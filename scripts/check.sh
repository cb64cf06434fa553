#!/usr/bin/env bash
# Full pre-merge check: build and test the default configuration, smoke-test
# the --stats-json pipeline end to end, then build the ASan+UBSan and TSan
# configurations and run the solver/repair-heavy and concurrency-heavy tests
# under them (the degraded paths exercise worker threads, backend failover,
# and cooperative cancellation — exactly where memory and data-race bugs
# would hide).
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer configurations

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== default configuration =="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # Warning-clean by policy: .clang-tidy sets WarningsAsErrors '*'.
  find src tools -name '*.cc' -print0 |
    xargs -0 -P "$jobs" -n 4 clang-tidy -p build --quiet
  echo "clang-tidy OK"
elif [[ "${CPR_REQUIRE_CLANG_TIDY:-0}" -eq 1 ]]; then
  # CI sets CPR_REQUIRE_CLANG_TIDY=1: a missing tool must fail loudly, not
  # green-skip the static-analysis stage.
  echo "clang-tidy REQUIRED but not installed (CPR_REQUIRE_CLANG_TIDY=1)" >&2
  exit 1
else
  echo "clang-tidy not installed; stage skipped"
fi

echo "== cpr lint smoke =="
lint_json="$(mktemp /tmp/cpr-lint-XXXXXX.json)"
build/tools/cpr lint examples/data/paper-example --json > "$lint_json"
build/tools/cpr_json_validate "$lint_json"
for key in '"schema_version"' '"files"' '"errors"' '"warnings"' \
           '"parse_errors"' '"diagnostics"'; do
  if ! grep -q -- "$key" "$lint_json"; then
    echo "lint smoke FAILED: missing $key in $lint_json" >&2
    exit 1
  fi
done
if grep -q '"errors":[1-9]' "$lint_json"; then
  echo "lint smoke FAILED: example configurations have lint errors" >&2
  exit 1
fi
rm -f "$lint_json"
echo "lint smoke OK"

echo "== --stats-json end-to-end smoke =="
stats_json="$(mktemp /tmp/cpr-stats-XXXXXX.json)"
trap 'rm -f "$stats_json"' EXIT
repair_log="$(mktemp /tmp/cpr-repair-XXXXXX.log)"
build/tools/cpr repair examples/data/paper-example \
  examples/data/paper-example-boolean.policies \
  --backend internal --stats-json "$stats_json" > "$repair_log"

echo "== post-repair lint audit =="
# The repaired configurations must introduce no new lint findings; the
# pipeline's audit prints its verdict on the repair's stdout.
if ! grep -q 'lint audit: clean' "$repair_log"; then
  echo "lint audit FAILED: repair output did not report a clean audit" >&2
  cat "$repair_log" >&2
  exit 1
fi
rm -f "$repair_log"
echo "lint audit OK"

echo "== strict numeric flags =="
# Garbage in a numeric flag is a usage error naming the flag, never a 0.
if flag_err="$(build/tools/cpr repair examples/data/paper-example \
     examples/data/paper-example.policies --threads 4x 2>&1)"; then
  echo "strict flags FAILED: --threads 4x was accepted" >&2
  exit 1
fi
grep -q -- "--threads: expected an integer, got '4x'" <<<"$flag_err" || {
  echo "strict flags FAILED: error does not name the flag: $flag_err" >&2
  exit 1
}
# --seed takes the whole uint32 range (perfbench derives such scenario
# seeds) and rejects a negative instead of wrapping it.
seed_dir="$(mktemp -d /tmp/cpr-seed-XXXXXX)"
build/tools/cpr gen "$seed_dir/ft" --fattree 4 --seed 4126804819 >/dev/null || {
  echo "strict flags FAILED: --seed 4126804819 was rejected" >&2
  exit 1
}
if flag_err="$(build/tools/cpr gen "$seed_dir/neg" --fattree 4 --seed -1 2>&1)"; then
  echo "strict flags FAILED: --seed -1 was accepted" >&2
  exit 1
fi
grep -q -- "--seed: expected an integer in \[0, 4294967295\], got '-1'" <<<"$flag_err" || {
  echo "strict flags FAILED: error does not name the flag: $flag_err" >&2
  exit 1
}
rm -rf "$seed_dir"
echo "strict flags OK"
for key in '"schema_version"' '"stages"' '"counters"' '"gauges"' \
           '"histograms"' '"repair"' '"problems"' '"solve_wall_seconds"' \
           '"cdcl.decisions"' '"cdcl.heap_picks"' '"simulated"' '"lint"' \
           '"lint_errors"' '"audit_new_findings"'; do
  if ! grep -q -- "$key" "$stats_json"; then
    echo "stats smoke FAILED: missing $key in $stats_json" >&2
    exit 1
  fi
done
# The order heap serves every decision of the internal engine: no decision
# falls back to the linear scan.
python3 - "$stats_json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
decisions = counters["cdcl.decisions"]
assert decisions > 0, counters
assert counters["cdcl.heap_picks"] == decisions, counters
assert counters["cdcl.fallback_picks"] == 0, counters
EOF
echo "stats smoke OK ($(wc -c < "$stats_json") bytes)"

echo "== decision tiers and stratum skip smoke =="
# A conflict-free PC1 repair: its decisions come from the index tier (never-
# bumped variables in index order), and the MaxSAT loop skips strata the
# last model already satisfies. The order still serves every decision.
tiers_dir="$(mktemp -d /tmp/cpr-tiers-XXXXXX)"
build/tools/cpr gen "$tiers_dir/ft" --fattree 4 --broken --pc pc1 --policies 40 \
  --seed 7 --policy-out "$tiers_dir/ft.policies" >/dev/null
build/tools/cpr repair "$tiers_dir/ft" "$tiers_dir/ft.policies" --backend internal \
  --no-simulate --stats-json "$tiers_dir/stats.json" >/dev/null
python3 - "$tiers_dir/stats.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
decisions = counters["cdcl.decisions"]
assert decisions > 0, counters
assert counters["cdcl.heap_picks"] == decisions, counters
assert counters["cdcl.fallback_picks"] == 0, counters
assert counters["cdcl.index_picks"] > 0, counters
assert counters["maxsat.strata_skipped"] > 0, counters
EOF
rm -rf "$tiers_dir"
echo "decision tiers smoke OK"

echo "== cpr explain smoke =="
explain_json="$(mktemp /tmp/cpr-explain-XXXXXX.json)"
build/tools/cpr explain examples/data/paper-example \
  examples/data/paper-example-boolean.policies \
  --backend internal --json > "$explain_json"
build/tools/cpr_json_validate "$explain_json"
for key in '"schema_version"' '"edits_total"' '"edits_attributed"' \
           '"chains"' '"unsat_cores"'; do
  if ! grep -q -- "$key" "$explain_json"; then
    echo "explain smoke FAILED: missing $key in $explain_json" >&2
    exit 1
  fi
done
# Every emitted edit must carry a provenance chain: orphans mean a construct
# key mismatch between the encoder and the edit decoder.
if ! grep -q '"orphan_edits":\[\]' "$explain_json"; then
  echo "explain smoke FAILED: orphan edits in $explain_json" >&2
  exit 1
fi
rm -f "$explain_json"
echo "explain smoke OK"

echo "== certify smoke (repair with proofs, then audit offline) =="
# certify_smoke <config-dir> <policy-file> [repair flags...]: repairs on the
# internal engine with every claim checked inline and persisted, then
# re-verifies the artifacts offline.
certify_smoke() {
  local certify_dir certify_stats artifact
  certify_dir="$(mktemp -d /tmp/cpr-certify-XXXXXX)"
  certify_stats="$certify_dir/stats.json"
  build/tools/cpr repair "$1" "$2" "${@:3}" \
    --backend internal --certify on --certify-dir "$certify_dir/artifacts" \
    --stats-json "$certify_stats" > "$certify_dir/repair.log"
  build/tools/cpr_json_validate "$certify_stats"
  grep -q 'certify (on): .* 0 failed' "$certify_dir/repair.log" || {
    echo "certify smoke FAILED on $1: inline check reported failures" >&2
    cat "$certify_dir/repair.log" >&2
    exit 1
  }
  python3 - "$certify_stats" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))["certify"]
assert s["checked"] > 0 and s["verified"] == s["checked"], s
assert s["failed"] == 0, s
assert s["artifacts"] > 0, s
EOF
  # Every persisted proof artifact must be well-formed JSON and must
  # re-verify offline, solver long gone — that is the whole point of the
  # subsystem.
  for artifact in "$certify_dir"/artifacts/*.cert.json; do
    build/tools/cpr_json_validate "$artifact"
  done
  build/tools/cpr certify "$certify_dir/artifacts" | grep -q ', 0 failed'
  rm -rf "$certify_dir"
}
certify_smoke examples/data/paper-example examples/data/paper-example-boolean.policies
# A PC3 fat-tree: its hard constraints are disjunctions the internal engine
# asserts as direct clauses, which the inline check replays event for event.
# --no-simulate: the uncompressed PC3 repair is unsound under simulation
# (the mid-path ACL gap, DESIGN.md §4a), which would fail the run for a
# reason unrelated to certification.
certify_net="$(mktemp -d /tmp/cpr-certify-net-XXXXXX)"
build/tools/cpr gen "$certify_net/configs" --fattree 4 --broken --pc pc3 \
  --policies 12 --seed 7 --policy-out "$certify_net/policies" >/dev/null
certify_smoke "$certify_net/configs" "$certify_net/policies" --no-simulate
rm -rf "$certify_net"
echo "certify smoke OK"

echo "== --trace-out smoke =="
trace_json="$(mktemp /tmp/cpr-trace-XXXXXX.json)"
build/tools/cpr repair examples/data/paper-example \
  examples/data/paper-example-boolean.policies \
  --backend internal --trace-out "$trace_json" >/dev/null
build/tools/cpr_json_validate "$trace_json"
for key in '"traceEvents"' '"ph":"X"' '"pipeline.' '"repair.' 'thread_name'; do
  if ! grep -q -- "$key" "$trace_json"; then
    echo "trace smoke FAILED: missing $key in $trace_json" >&2
    exit 1
  fi
done
rm -f "$trace_json"
echo "trace smoke OK"

# One repair span skeleton on every path: a root pipeline.repair encloses the
# pre-pass span ($2), and repair.wall_seconds covers it.
check_span_skeleton() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
doc, pre_pass = json.load(open(sys.argv[1])), sys.argv[2]
stages = doc["stages"]
roots = [i for i, s in enumerate(stages) if s["name"] == "pipeline.repair"]
assert len(roots) == 1 and stages[roots[0]]["parent"] == -1, roots
def under_repair(i):
    while i != -1:
        i = stages[i]["parent"]
        if i == roots[0]:
            return True
    return False
spans = [i for i, s in enumerate(stages) if s["name"] == pre_pass]
assert spans and all(under_repair(i) for i in spans), pre_pass
wall = doc["repair"]["wall_seconds"]
assert all(wall >= stages[i]["duration_seconds"] - 1e-9 for i in spans), wall
EOF
}

# The repair was simulated (a root pipeline.simulate span) and came out
# sound: solved, with no residual graph or simulated violation.
check_sound_simulated() {
  python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["repair"]["sound"] is True, doc["repair"]
simulate = [s for s in doc["stages"] if s["name"] == "pipeline.simulate"]
assert len(simulate) == 1 and simulate[0]["parent"] == -1, simulate
EOF
}

echo "== compression smoke (symmetric compresses, asymmetric declines) =="
comp_dir="$(mktemp -d /tmp/cpr-compress-XXXXXX)"
comp_json="$comp_dir/stats.json"
build/tools/cpr gen "$comp_dir/sym" --fattree 4 --broken --pc pc1 --policies 4 \
  --policy-out "$comp_dir/sym.policies" --seed 7 >/dev/null
build/tools/cpr repair "$comp_dir/sym" "$comp_dir/sym.policies" \
  --backend internal --compress auto \
  --stats-json "$comp_json" >/dev/null
python3 - "$comp_json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))["compression"]
assert s["attempted"] and s["applied"], s
assert s["quotient_ratio"] > 1.0, s
assert s["lift_verify_failures"] == 0, s
EOF
check_span_skeleton "$comp_json" pipeline.compress
check_sound_simulated "$comp_json"
# Fully asymmetric input must decline with the clean-fallback signature:
# nothing applied and a no-op ratio. The ratio is a float that travels
# through JSON formatting, so compare with a tolerance, never exact equality.
build/tools/cpr gen "$comp_dir/asym" --fattree 4 --broken --pc pc1 --policies 4 \
  --policy-out "$comp_dir/asym.policies" --seed 7 --dirty-asym 20 >/dev/null
build/tools/cpr repair "$comp_dir/asym" "$comp_dir/asym.policies" \
  --backend internal --compress auto --no-simulate \
  --stats-json "$comp_json" >/dev/null
python3 - "$comp_json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))["compression"]
assert s["attempted"] and not s["applied"], s
assert abs(s["quotient_ratio"] - 1.0) < 1e-9, s
EOF
rm -rf "$comp_dir"
echo "compression smoke OK"

echo "== incremental re-repair smoke (edit one router, reuse the rest) =="
incr_dir="$(mktemp -d /tmp/cpr-incr-XXXXXX)"
build/tools/cpr gen "$incr_dir/base" --fattree 4 --broken --pc pc1 --policies 4 \
  --policy-out "$incr_dir/policies" --seed 7 >/dev/null
build/tools/cpr repair "$incr_dir/base" "$incr_dir/policies" \
  --backend internal --no-simulate --out "$incr_dir/repaired" >/dev/null
# One-router edit: revert a single repaired ACL deny, re-breaking one
# traffic class, or else a deny of a repair-created CPR-FLT prefix-list,
# re-breaking one destination (the rule of tests/rebreak.h). The incremental
# run against the repaired baseline must reuse every clean group and finish
# sound without the full-repair fallback.
cp -r "$incr_dir/repaired" "$incr_dir/edited"
python3 - "$incr_dir/edited" <<'EOF'
import pathlib, sys
paths = sorted(pathlib.Path(sys.argv[1]).glob("*.cfg"))
def revert(is_deny, bound_acl_only):
    for path in paths:
        text = path.read_text()
        if bound_acl_only and "access-group" not in text:
            continue
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if is_deny(line):
                del lines[i]
                path.write_text("".join(lines))
                return True
    return False
if not (revert(lambda line: line.startswith(" deny ip 10."), True) or
        revert(lambda line: line.startswith("ip prefix-list CPR-FLT") and " deny " in line,
               False)):
    sys.exit("no repaired ACL or CPR-FLT deny found to revert")
EOF
incr_json="$incr_dir/stats.json"
build/tools/cpr repair "$incr_dir/edited" "$incr_dir/policies" \
  --backend internal --incremental --baseline "$incr_dir/repaired" \
  --stats-json "$incr_json" >/dev/null
python3 - "$incr_json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))["incremental"]
assert s["attempted"] and s["applied"], s
assert not s["everything_dirty"], s
assert s["dirty_destinations"] + s["dirty_traffic_classes"] >= 1, s
assert s["groups_reused"] > 0, s
assert not s["fell_back"], s
EOF
check_span_skeleton "$incr_json" pipeline.incremental
check_sound_simulated "$incr_json"
rm -rf "$incr_dir"
echo "incremental smoke OK"

echo "== cprd daemon smoke (submit, drain, restart, recover) =="
cprd_dir="$(mktemp -d /tmp/cpr-cprd-XXXXXX)"
sock="$cprd_dir/sock"
start_cprd() {
  build/tools/cprd serve --socket "$sock" --checkpoint-dir "$cprd_dir/ckpt" \
    --workers 1 --solve-threads 2 --results-dir "$cprd_dir/results" \
    --event-log "$cprd_dir/events.jsonl" \
    >> "$cprd_dir/daemon.log" 2>&1 &
  cprd_pid=$!
  for _ in $(seq 50); do [[ -S "$sock" ]] && return 0; sleep 0.1; done
  echo "cprd smoke FAILED: daemon never opened $sock" >&2
  cat "$cprd_dir/daemon.log" >&2
  exit 1
}
start_cprd
build/tools/cprd ping --socket "$sock" | grep -q 'ok=1'
# Request 1 runs the full pipeline through the daemon, on the default
# engine: the internal CDCL/MaxSAT stack.
build/tools/cprd submit --socket "$sock" examples/data/paper-example \
  examples/data/paper-example-boolean.policies \
  --tag smoke --wait 60 | tail -1 | grep -q 'status=success'
build/tools/cprd result --socket "$sock" --id 1 | grep -q '"backend":"internal-maxsat"'
# Telemetry (DESIGN.md §14): a real scrape of the live daemon must be
# Prometheus-parseable and must cover both the serve-layer instruments and
# the pipeline instruments merged at request completion; the live flight
# dump must pass the validator's --flight schema.
build/tools/cprd scrape --socket "$sock" > "$cprd_dir/scrape.txt"
grep -q 'cpr_serve_admitted_total{subsystem="serve"} ' "$cprd_dir/scrape.txt"
grep -q 'cpr_repair_problems_solved_total{subsystem="repair"} ' \
  "$cprd_dir/scrape.txt"
python3 - "$cprd_dir/scrape.txt" <<'EOF'
import re, sys
sample = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})?'
    r' -?[0-9][0-9eE+.\-]*$')
lines = [l.rstrip("\n") for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty scrape"
for line in lines:
    ok = line.startswith("# HELP ") or line.startswith("# TYPE ") \
        or sample.match(line)
    assert ok, f"unparseable exposition line: {line!r}"
EOF
build/tools/cprd top --socket "$sock" | grep -q 'serve'
build/tools/cprd dump --socket "$sock" | build/tools/cpr_json_validate --flight
# Request 2 is slow (injected) and request 3 queues behind it (1 worker).
# SIGTERM mid-flight: the daemon must finish #2 within the drain deadline
# and checkpoint #3 for the next daemon.
build/tools/cprd submit --socket "$sock" examples/data/paper-example \
  examples/data/paper-example-boolean.policies --backend internal \
  --tag slow --inject-fault 'slow:p=1:slow=1.5:seed=1' | grep -q 'admitted=1 id=2'
build/tools/cprd submit --socket "$sock" examples/data/paper-example \
  examples/data/paper-example-boolean.policies --backend internal \
  --tag queued | grep -q 'admitted=1 id=3'
kill -TERM "$cprd_pid"
wait "$cprd_pid"
# The restarted daemon recovers exactly the unfinished request (#3) and
# completes it; #1 and #2 finished and must never re-run.
start_cprd
build/tools/cprd stats --socket "$sock" | grep -q ' recovered=1'
build/tools/cprd wait --socket "$sock" --id 3 --timeout 60 | grep -q 'state=done'
build/tools/cprd drain --socket "$sock" | grep -q 'draining=1'
wait "$cprd_pid"
# A third daemon finds a clean slate: completed work is never recovered.
start_cprd
build/tools/cprd stats --socket "$sock" | grep -q ' recovered=0'
build/tools/cprd drain --socket "$sock" >/dev/null
wait "$cprd_pid"
# Every daemon instance appended traced request lifecycles to the shared
# event log, and the final SIGTERM drain left a durable flight dump behind;
# both must validate against their schemas.
build/tools/cpr_json_validate --events "$cprd_dir/events.jsonl"
build/tools/cpr_json_validate --flight "$cprd_dir/ckpt/flightrec.json"
rm -rf "$cprd_dir"
echo "cprd smoke OK"

echo "== cprd loadgen vs committed baseline =="
cprd_bench_json="$(mktemp /tmp/cpr-cprd-bench-XXXXXX.json)"
CPR_BENCH_JSON="$cprd_bench_json" build/bench/cprd_throughput >/dev/null
# Throughput on shared CI machines is noisy; the committed baseline is
# conservative and the tolerance loose — this catches collapses, not jitter.
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_cprd_throughput.json "$cprd_bench_json" --tolerance 0.5
rm -f "$cprd_bench_json"
echo "cprd loadgen OK"

echo "== bench compare (trajectory vs committed baseline) =="
bench_json="$(mktemp /tmp/cpr-bench-XXXXXX.json)"
scripts/bench_smoke.sh "$bench_json" >/dev/null
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_fig07_realdc_time.json "$bench_json"
rm -f "$bench_json"
echo "bench compare OK"

echo "== fig08c compression ablation vs committed smoke baseline =="
cmake --build build -j "$jobs" --target fig08c_network_size >/dev/null
fig08c_json="$(mktemp /tmp/cpr-fig08c-XXXXXX.json)"
CPR_BENCH_FT_MAX_PORTS=6 CPR_BENCH_JSON="$fig08c_json" \
  build/bench/fig08c_network_size >/dev/null
# Speedup is a same-machine A/B ratio but still noisy on shared CI; the
# loose tolerance catches the compression pre-pass collapsing (speedup -> 1,
# lift failures > 0), not jitter.
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_fig08c_smoke.json "$fig08c_json" --tolerance 0.5
rm -f "$fig08c_json"
echo "fig08c ablation OK"

echo "== certify overhead vs committed baseline =="
cmake --build build -j "$jobs" --target certify_overhead >/dev/null
certify_bench_json="$(mktemp /tmp/cpr-certify-bench-XXXXXX.json)"
# The binary gates itself: proof-logging overhead must stay <= 1.10x plain
# and every inline-checked certificate must verify. The baseline compare
# additionally catches the logging or inline-check cost ratios regressing
# against the committed numbers (cost keys are lower-is-better).
CPR_BENCH_JSON="$certify_bench_json" build/bench/certify_overhead >/dev/null
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_certify_overhead.json "$certify_bench_json"
rm -f "$certify_bench_json"
echo "certify overhead OK"

echo "== incremental re-repair vs committed baseline =="
cmake --build build -j "$jobs" --target incremental_rerepair >/dev/null
incr_bench_json="$(mktemp /tmp/cpr-incr-bench-XXXXXX.json)"
CPR_BENCH_JSON="$incr_bench_json" build/bench/incremental_rerepair >/dev/null
# The gate is the edit-replay speedup and verdict parity: with a 0.5
# tolerance the committed ~5.6x must stay above ~2.8x, which catches the
# incremental engine silently degrading to the full pipeline (speedup -> 1)
# or diverging from it (verdicts_equal < edits_replayed), not CI jitter.
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_incremental_rerepair.json "$incr_bench_json" --tolerance 0.5
rm -f "$incr_bench_json"
echo "incremental re-repair OK"

echo "== telemetry overhead vs committed baseline =="
cmake --build build -j "$jobs" --target telemetry_overhead >/dev/null
telemetry_bench_json="$(mktemp /tmp/cpr-telemetry-bench-XXXXXX.json)"
# The binary self-gates the issue contract (best-of-rounds ratio <= 1.05x,
# ON side must actually log events, zero failed requests); the baseline
# compare is a looser trend check that additionally catches failed_requests
# going nonzero without duplicating the absolute gate on a noisy CI box.
CPR_BENCH_JSON="$telemetry_bench_json" build/bench/telemetry_overhead >/dev/null
python3 scripts/bench_compare.py \
  bench/baselines/BENCH_telemetry_overhead.json "$telemetry_bench_json" \
  --tolerance 0.5
rm -f "$telemetry_bench_json"
echo "telemetry overhead OK"

if [[ "$fast" -eq 1 ]]; then
  echo "== sanitizer configurations skipped (--fast) =="
  exit 0
fi

echo "== ASan+UBSan configuration =="
cmake -B build-asan -S . -DCPR_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$jobs"
# Leak detection is off: Z3 keeps global state alive at exit.
ASAN_OPTIONS=detect_leaks=0 ctest --test-dir build-asan --output-on-failure \
  -j "$jobs" -R 'Robust|Repair|Pipeline|TranslatorExactness|Workload|Simulat|Solver|ConstraintSystem|Tseitin|Smt|Sat|MaxSat|Failover|FaultInjection|Backend|Obs|Counter|Gauge|Histogram|Registry|Span|Json|Daemon|Checkpoint|SnapshotCache|Wire|Compress|Incremental|Session|Certify|Rup|ProofLog|Artifact|Expose|EventLog|FlightRecorder|TraceId'

echo "== TSan configuration =="
cmake -B build-tsan -S . -DCPR_TSAN=ON >/dev/null
cmake --build build-tsan -j "$jobs" --target obs_test repair_test serve_test \
  compress_test incremental_test certify_test telemetry_test
# The observability layer is lock-free on the hot path; TSan validates the
# atomics, the repair tests validate the worker pool that feeds them, the
# serve tests validate the daemon (workers + shared solve pool + drain), the
# telemetry tests validate the event-log/flight-recorder concurrent writers
# and scrape-mid-burst exposition, the
# incremental tests validate scoped re-solves sharing that worker pool, and
# the certify tests validate the checking wrapper running on those same
# workers.
# The certify tests drive Z3 directly; uninstrumented libz3 needs the
# scoped suppression in scripts/tsan.supp (our code stays fully checked).
TSAN_OPTIONS="halt_on_error=1:suppressions=$PWD/scripts/tsan.supp" \
  ctest --test-dir build-tsan --output-on-failure \
  -j "$jobs" -R 'Counter|Gauge|Histogram|Registry|Span|Json|Repair|Daemon|Checkpoint|SnapshotCache|Wire|Compress|Incremental|Session|Certify|Rup|ProofLog|Artifact|Expose|EventLog|FlightRecorder|TraceId'

echo "== all checks passed =="
