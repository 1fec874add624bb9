#!/bin/sh
# Runs the PR7 fused-RHS bench and composes its JSON into BENCH_PR7.json:
# per-RK3-stage counted launches and modeled DRAM bytes/point for the
# unfused vs fused pipeline, the modeled V100 step time and speedup, the
# measured host wall time per step at 1/2/4/8 threads (median and IQR),
# and the ScalingSimulator weak-scaling sweep (Params::fusedPipeline off vs
# on) at 1..4096 nodes.
# The bench binary itself enforces the PR7 gates (>= 2x fewer launches per
# stage, >= 1.3x modeled step speedup) and exits nonzero on a miss.
#
# Usage: bench/run_bench_pr7.sh [build-dir] [output.json]
set -e

BUILD=${1:-build}
OUT=${2:-BENCH_PR7.json}

if [ ! -x "$BUILD/bench/fused_rhs" ]; then
    echo "error: $BUILD/bench/fused_rhs not built (cmake --build $BUILD --target fused_rhs)" >&2
    exit 1
fi

FUSED=$("$BUILD/bench/fused_rhs")

{
    echo '{'
    echo '  "bench": "PR7: fused RHS pipeline (shared primitive cache + single-pass WENO flux/divergence + fused RK3 update + launch batching)",'
    echo "  \"fused_rhs\": $FUSED"
    echo '}'
} > "$OUT"

echo "wrote $OUT" >&2
