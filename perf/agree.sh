#!/usr/bin/env bash
# A/A check: do two sets of runs of the same code agree within the
# benchmark's own bounds?
#
#   perf/agree.sh [N]        N runs per set and workload (default 5, min 5)
#
# Builds the benchmark once, then for every workload runs two interleaved
# sets (A1 B1 A2 B2 ...) of N untraced runs, each run with another seed,
# and prints per end-to-end metric both medians, both quartile pairs, the
# spread (p75 - p25) / median of each set, the relative difference of the
# medians in the metric's worse direction, and PASS/FAIL against the bound
# in BENCHMARK.json. Quartiles are Python's statistics.quantiles(n=4).
# Then runs every workload twice more at one seed, untraced and traced, and
# checks that the counts which must repeat bit for bit do (allocations,
# fidelity, output digest, exact layer counts). Exits 1 if anything fails.
set -euo pipefail
cd "$(dirname "$0")/.."
N="${1:-5}"
if [ "$N" -lt 5 ]; then
    echo "agree.sh: need at least 5 runs per set" >&2
    exit 2
fi
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
BIN="${CARGO_TARGET_DIR:-perf/target}/release/hhsim-perf"

exec python3 - "$BIN" "$N" <<'PY'
import json, statistics, subprocess, sys

binary, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
seconds = str(spec["run_seconds"])
failed = False

EXACT = [
    "allocs", "alloc_mb", "peak_live_mb", "digest_ok", "fidelity.claims_held",
    "fidelity.median_rel_err", "fidelity.max_rel_err",
    "mapreduce.map_records", "mapreduce.spills", "cluster.probes_per_launch",
    "cluster.faulty.useful_ratio", "cluster.faulty.fetch_failures",
    "cluster.faulty.reexecuted_maps", "shuffle.flows", "harness.failed_runs",
    "harness.points", "harness.grids", "simcache.hits", "simcache.misses",
    "simcache.hit_ratio", "simcache.run_entries", "simcache.stall_entries",
    "simcache.phase_entries", "figures.bytes", "sim.digest",
]

def run(workload, seed, trace=0):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out
    return {k: v["value"] for k, v in result["metrics"].items()}

def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0

for w in spec["workloads"]:
    name = w["name"]
    sets = {"A": [], "B": []}
    for i in range(n):
        for j, label in enumerate("AB"):
            sets[label].append(run(name, 1 + 2 * i + j))
    print(f"== {name}: 2 x {n} runs")
    print(f"{'metric':<26}{'median A':>14}{'median B':>14}{'q1..q3 A':>26}"
          f"{'q1..q3 B':>26}{'spread A':>10}{'spread B':>10}{'worse':>9}{'bound':>7}")
    for m in spec["end_to_end"]:
        a = summary([r[m["name"]] for r in sets["A"]])
        b = summary([r[m["name"]] for r in sets["B"]])
        sign = 1.0 if m["better"] == "lower" else -1.0
        worse = sign * (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
        ok = worse <= m["bound"]
        if m["name"] != "setup_s":   # set-up is judged on its medians only
            ok = ok and a[3] <= m["bound"] and b[3] <= m["bound"]
        failed |= not ok
        print(f"{m['name']:<26}{a[0]:>14.6g}{b[0]:>14.6g}"
              f"{f'{a[1]:.6g}..{a[2]:.6g}':>26}{f'{b[1]:.6g}..{b[2]:.6g}':>26}"
              f"{a[3]:>10.4f}{b[3]:>10.4f}{worse:>+9.4f}{m['bound']:>7}"
              f"  {'PASS' if ok else 'FAIL'}")
    once = {**run(name, 1), **run(name, 1, trace=1)}
    again = {**run(name, 1), **run(name, 1, trace=1)}
    moved = [k for k in EXACT if once[k] != again[k]]
    failed |= bool(moved)
    print(f"exact counts at seed 1, two runs: "
          f"{'identical' if not moved else 'DIFFER: ' + ', '.join(moved)}")
sys.exit(1 if failed else 0)
PY
