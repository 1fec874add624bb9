#!/usr/bin/env bash
# Full CI sweep: the crocco-analyze lane (static analysis + deck-key
# registry drift), the Release tier-1 suite, the CROCCO_CHECK
# instrumentation suite, and the sanitizer suite — each in its own build
# tree so configurations never contaminate each other.
#
#   tools/ci.sh            # run everything
#   SKIP_SANITIZE=1 tools/ci.sh   # skip the (slow) sanitizer lane
set -eu
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}

echo "== analyze (crocco-analyze, SARIF artifact) =="
# Gate: the analyzer must come back clean (inline-suppressed findings are
# fine, anything else fails). The SARIF log is the reviewable artifact.
ANALYZE_FLAGS="--sarif crocco-analyze.sarif" tools/lint.sh
# The committed deck-key registry must match the query sites in the code.
build-analyze/tools/analyze/crocco-analyze --root . --write-deck-registry >/dev/null
if ! git diff --exit-code -- docs/deck-keys.md; then
    echo "ci: docs/deck-keys.md is stale — commit the regenerated registry"
    exit 1
fi

echo "== tier-1 (Release) =="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci -j "$JOBS" >/dev/null
(cd build-ci && ctest --output-on-failure)

echo "== no FMA in crocco_core =="
# The SIMD lane kernels reproduce the scalar bits only while no a*b + c is
# contracted into a fused multiply-add (-ffp-contract=off in
# src/core/CMakeLists.txt: GCC's default would emit vfmadd in any function
# compiled for a target with FMA). Fail if any crocco_core object holds one.
core_objs=$(find build-ci/src/core/CMakeFiles/crocco_core.dir -name '*.o')
if objdump -d $core_objs | grep -E '[[:space:]]vfn?m(add|sub)'; then
    echo "ci: fused multiply-add in crocco_core objects (listed above)"
    exit 1
fi

echo "== fault-injection soak (ctest -L resilience) =="
# The seeded comm-fault campaign: every fault kind injected and recovered,
# plus the mid-run rank-death soak with regrids (comm_recovery_test).
(cd build-ci && ctest -L resilience --output-on-failure)

echo "== SDC chaos lane (seed matrix over ctest -R sdc_soak) =="
# The combined chaos soak (SDC + message faults + rank death) re-run under
# several campaign seeds: every seed must drive the recovery ladder back to
# a bitwise-identical trajectory. The default seed (2026) already ran in
# the resilience lane above.
for seed in 7 1234 90210; do
    echo "-- CROCCO_SDC_SEED=$seed"
    (cd build-ci && CROCCO_SDC_SEED=$seed ctest -R sdc_soak --output-on-failure)
done

echo "== perf benches (BENCH_PR2 + BENCH_PR6 + BENCH_PR7 + BENCH_PR9 + BENCH_PR10) =="
bench/run_bench.sh build-ci BENCH_PR2.json
bench/run_bench_pr6.sh build-ci BENCH_PR6.json
bench/run_bench_pr7.sh build-ci BENCH_PR7.json
bench/run_bench_pr9.sh build-ci BENCH_PR9.json
bench/run_bench_pr10.sh build-ci BENCH_PR10.json

echo "== CroccoCheck (Release + CROCCO_CHECK) =="
cmake -B build-ci-check -S . -DCMAKE_BUILD_TYPE=Release -DCROCCO_CHECK=ON \
      -DCROCCO_BUILD_BENCH=OFF -DCROCCO_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ci-check -j "$JOBS" >/dev/null
# Every test carries the check label in this build, the *_mt variants
# included, so e.g. level_geometry_test_mt runs the per-fab geometry launch
# under the race detector with GPU_NUM_THREADS=4.
(cd build-ci-check && ctest -L check --output-on-failure)

if [ "${SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== sanitizers (ASan + UBSan) =="
    cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Debug -DCROCCO_SANITIZE=ON \
          -DCROCCO_BUILD_BENCH=OFF -DCROCCO_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-ci-asan -j "$JOBS" >/dev/null
    (cd build-ci-asan && ctest -L check --output-on-failure)
fi

echo "== CI OK =="
