#!/bin/sh
# Runs the PR2 perf benches and composes their JSON into BENCH_PR2.json:
# before/after ns-per-call for the cached communication patterns
# (bench/comm_cache.cpp) and the measured ns-per-step (median and IQR) of
# the DMR RK3 step at 1/2/4/8 worker threads (bench/thread_scaling.cpp).
#
# Usage: bench/run_bench.sh [build-dir] [output.json]
set -e

BUILD=${1:-build}
OUT=${2:-BENCH_PR2.json}

for exe in comm_cache thread_scaling; do
    if [ ! -x "$BUILD/bench/$exe" ]; then
        echo "error: $BUILD/bench/$exe not built (cmake --build $BUILD --target $exe)" >&2
        exit 1
    fi
done

COMM=$("$BUILD/bench/comm_cache")
THREADS=$("$BUILD/bench/thread_scaling")

{
    echo '{'
    echo '  "bench": "PR2: cached communication patterns + tiled multithreaded kernels",'
    echo "  \"comm_cache\": $COMM,"
    echo "  \"thread_scaling\": $THREADS"
    echo '}'
} > "$OUT"

echo "wrote $OUT" >&2
