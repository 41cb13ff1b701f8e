#!/usr/bin/env sh
# Speedup gate for the parallel hot paths (DESIGN.md §7).
#
# Runs the `bench_parallel` harness (crates/bench/src/bin/bench_parallel.rs),
# which times each parallelised stage pinned to one thread and again at the
# environment's thread count, and records the result to BENCH_parallel.json.
#
# The numbers are always recorded; the speedup floor is only enforced when
# the harness marked the host eligible (`"floor_eligible": true`, i.e. at
# least MIN_CORES cores detected once, inside the bench — this script does
# not re-detect the host). On smaller boxes (CI runners are often 1–2
# vCPUs) the parallel arms legitimately tie the serial ones — the
# determinism battery (tests/determinism.rs) still proves they compute the
# same bytes.
#
# Two further checks ride along:
#   * the `latency_paths` row must carry the per-query path-engine fields
#     (`path_query_us`: CSR vs bidirectional vs ALT timings);
#   * `latency_paths` serial wall-clock must not regress more than
#     MAX_REGRESSION_PCT over the committed BENCH_parallel.json baseline.
set -eu

MIN_CORES=4            # floor eligibility threshold (applied in the bench)
MIN_SPEEDUP=2          # required speedup ...
MIN_STAGES=2           # ... on at least this many of the four stages
MAX_REGRESSION_PCT=20  # latency_paths serial_ms budget vs committed baseline

cd "$(dirname "$0")/.."

# The serial_ms of the latency_paths row in a BENCH_parallel.json file.
latency_serial_ms() {
    awk '/"latency_paths"/ { f = 1 }
         f && /"serial_ms"/ { gsub(/[^0-9.]/, ""); print; exit }' "$1"
}

# Capture the committed baseline before the run overwrites the file.
baseline=""
if [ -f BENCH_parallel.json ]; then
    baseline=$(latency_serial_ms BENCH_parallel.json)
fi

cargo build --release -q -p intertubes-bench --bin bench_parallel
./target/release/bench_parallel > BENCH_parallel.json
echo "bench_gate: wrote BENCH_parallel.json"

# The per-query path-engine breakdown must be present and complete.
for field in path_query_us csr_dijkstra_cold csr_dijkstra_warm \
             bidirectional_cold bidirectional_warm csr_alt_cold csr_alt_warm; do
    if ! grep -q "\"$field\"" BENCH_parallel.json; then
        echo "bench_gate: FAIL — BENCH_parallel.json is missing \"$field\"." >&2
        exit 1
    fi
done

# latency_paths must stay within the regression budget of the committed
# baseline (when one existed).
current=$(latency_serial_ms BENCH_parallel.json)
if [ -n "$baseline" ] && [ -n "$current" ]; then
    within=$(awk -v b="$baseline" -v c="$current" -v m="$MAX_REGRESSION_PCT" \
        'BEGIN { print (c <= b * (1 + m / 100)) ? "yes" : "no" }')
    if [ "$within" != "yes" ]; then
        echo "bench_gate: FAIL — latency_paths serial ${current} ms is more than" \
             "${MAX_REGRESSION_PCT}% over the committed baseline ${baseline} ms." >&2
        exit 1
    fi
    echo "bench_gate: latency_paths serial ${current} ms (baseline ${baseline} ms, budget +${MAX_REGRESSION_PCT}%)"
fi

# The bench records the host honestly; trust its eligibility flag.
if ! grep -q '"floor_eligible": *true' BENCH_parallel.json; then
    cores=$(awk '/"cores"/ { gsub(/[^0-9]/, ""); print; exit }' BENCH_parallel.json)
    echo "bench_gate: OK (recorded only — ${cores:-?} core(s) < $MIN_CORES, floor not enforced)"
    exit 0
fi

fast=$(grep '"speedup"' BENCH_parallel.json |
    awk -v min="$MIN_SPEEDUP" '
        { gsub(/[^0-9.]/, "", $2); if ($2 + 0 >= min) n++ }
        END { print n + 0 }')

echo "bench_gate: $fast stage(s) at >= ${MIN_SPEEDUP}x (need $MIN_STAGES of 4)"
if [ "$fast" -lt "$MIN_STAGES" ]; then
    echo "bench_gate: FAIL — parallel hot paths regressed below the floor." >&2
    echo "See BENCH_parallel.json for per-stage timings." >&2
    exit 1
fi
echo "bench_gate: OK"
