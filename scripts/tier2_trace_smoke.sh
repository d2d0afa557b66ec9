#!/usr/bin/env bash
# Tier-2 check: observability smoke. Builds Release, exercises the
# lifecycle tracer end to end, and proves three properties:
#
#  1. Export validity — fig09-style and latency-breakdown runs with
#     --trace produce Chrome trace-event JSON that parses (`python3 -m
#     json.tool`), is sorted by timestamp, and carries per-function
#     track metadata (Perfetto-loadable).
#  2. Accounting fidelity — the per-stage span durations in the
#     exported JSON reproduce abl_latency_breakdown's printed stage
#     stack (arb wait / translate / transfer means) within 1%. The
#     binary additionally self-checks its trace totals against the
#     stage histograms and exits non-zero on divergence.
#  3. Cost — abl_trace_overhead enforces that tracing compiled in but
#     disabled stays within 1% events/sec and never perturbs the
#     simulated timeline.
#  4. Telemetry plane — abl_slo_observe runs its own gates (modeled
#     plane cost, SLO breach isolation, postmortem capture) and its
#     exports must be machine-readable: the metrics JSON and
#     postmortem JSON parse, and the Prometheus exposition is
#     well-formed (every sample belongs to a declared family, each
#     family declared exactly once).
#
# Usage: scripts/tier2_trace_smoke.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(realpath -m "${1:-$repo/build-trace}")"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$build" -j "$(nproc)" --target \
  fig09_raw_latency abl_latency_breakdown abl_trace_overhead \
  abl_slo_observe

run="$build/trace-smoke"
mkdir -p "$run"

echo "--- fig09 with tracing ---"
(cd "$run" && "$build/bench/fig09_raw_latency" --trace fig09_trace.json \
  > fig09.out)

echo "--- latency breakdown with tracing (self-checks vs histograms) ---"
(cd "$run" && "$build/bench/abl_latency_breakdown" --trace abl_trace.json \
  > abl_latency.out)

echo "--- tracer overhead ---"
(cd "$run" && "$build/bench/abl_trace_overhead" > overhead.out)
grep "disabled-tracing overhead within 1%" "$run/overhead.out"

echo "--- telemetry plane (SLO windows, flight recorder, exports) ---"
(cd "$run" && "$build/bench/abl_slo_observe" > slo_observe.out)
grep "always-on telemetry within 2%" "$run/slo_observe.out"

# Both exports must be well-formed JSON before any deeper inspection.
python3 -m json.tool "$run/fig09_trace.json" > /dev/null
python3 -m json.tool "$run/abl_trace.json" > /dev/null

# Telemetry-plane exports: metrics snapshot, postmortem dump, bench
# metrics, and the A5 latency-stack export must all parse.
python3 -m json.tool "$run/BENCH_A16_SLO_metrics.json" > /dev/null
python3 -m json.tool "$run/BENCH_A16_SLO_postmortem.json" > /dev/null
python3 -m json.tool "$run/BENCH_A16_SLO.json" > /dev/null
python3 -m json.tool "$run/BENCH_A5.json" > /dev/null

# The Prometheus exposition must be structurally valid: HELP/TYPE
# comments, metric lines with optional {labels} and a float value,
# every sample under a family declared by exactly one TYPE line.
python3 - "$run/BENCH_A16_SLO_metrics.prom" <<'EOF'
import re
import sys

types, samples = {}, 0
line_re = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? ([0-9.eE+-]+|NaN)$")
for lineno, line in enumerate(open(sys.argv[1]), 1):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        parts = line.split()
        assert len(parts) == 4, f"line {lineno}: malformed TYPE"
        name, kind = parts[2], parts[3]
        assert kind in ("counter", "gauge", "summary"), \
            f"line {lineno}: unknown type {kind}"
        assert name not in types, \
            f"line {lineno}: duplicate TYPE for {name}"
        types[name] = kind
        continue
    if line.startswith("#"):
        continue
    m = line_re.match(line)
    assert m, f"line {lineno}: malformed sample: {line!r}"
    name = m.group(1)
    base = re.sub(r"_(sum|count)$", "", name)
    assert name in types or base in types, \
        f"line {lineno}: sample {name} has no TYPE declaration"
    float(m.group(3))
    samples += 1
assert types and samples, "empty exposition"
print(f"ok    Prometheus exposition: {len(types)} families, "
      f"{samples} samples, no duplicate TYPE lines")
EOF

python3 - "$run/fig09_trace.json" "$run/abl_trace.json" \
  "$run/abl_latency.out" <<'EOF'
import json
import re
import sys

def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["displayTimeUnit"] == "ns", path
    events = doc["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert spans, f"{path}: no span events"
    ts = [e["ts"] for e in spans]
    assert ts == sorted(ts), f"{path}: events not sorted by timestamp"
    named_pids = {e["pid"] for e in meta if e["name"] == "process_name"}
    assert {e["pid"] for e in spans} <= named_pids, \
        f"{path}: span on a track without process_name metadata"
    # Map (pid, tid) -> stage name from thread metadata.
    threads = {(e["pid"], e["tid"]): e["args"]["name"]
               for e in meta if e["name"] == "thread_name"}
    return spans, threads

for path in (sys.argv[1], sys.argv[2]):
    spans, _ = load(path)
    print(f"ok    {path}: {len(spans)} spans, sorted, tracks named")

# Re-derive the 4-VF stage stack from the exported spans alone and
# compare with the table abl_latency_breakdown printed (1% tolerance;
# the table is rounded to 0.01 us, negligible at these magnitudes).
spans, threads = load(sys.argv[2])
sums, counts = {}, {}
for e in spans:
    stage = threads[(e["pid"], e["tid"])]
    sums[stage] = sums.get(stage, 0.0) + e["dur"]
    counts[stage] = counts.get(stage, 0) + 1

row = None
for line in open(sys.argv[3]):
    if line.startswith("4-VF contention"):
        # Decimal columns only: arb/translate/transfer/total means in
        # us (the trailing integer block count is deliberately not
        # matched, and neither is the "4" of the scenario name).
        row = [float(v) for v in re.findall(r"\d+\.\d+", line)]
assert row, "4-VF contention row not found in bench output"
arb_us, translate_us, transfer_us = row[0], row[1], row[2]

failures = []
for stage, reported in (("queue_wait", arb_us), ("translate", translate_us),
                        ("transfer", transfer_us)):
    derived = sums[stage] / counts[stage]  # ts/dur are in us already
    ok = abs(derived - reported) <= 0.01 * max(reported, 0.01)
    print(f"{'ok' if ok else 'FAIL':>4}  {stage}: trace-derived "
          f"{derived:.2f} us vs reported {reported:.2f} us")
    if not ok:
        failures.append(stage)

if failures:
    print("\ntrace smoke FAILED: stage accounting diverged >1%")
    sys.exit(1)
print("\ntrace smoke OK")
EOF
