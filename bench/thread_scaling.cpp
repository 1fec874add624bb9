// PR2 bench: tiled multithreaded kernel execution on the DMR step.
//
// Reports the measured wall time of one full RK3 step at 1/2/4/8 worker
// threads: the median and interquartile range over repeated steps on the
// host that runs the bench. The thread counts are interleaved step by step
// (1, 2, 4, 8, 1, 2, ...) so slow drifts of the host load hit every count
// alike. The hierarchy is frozen after init, so every timed step does the
// same work; results are bitwise identical at every thread count (pinned by
// the *_mt tests), so only the time moves. Counts above the host's core
// count are oversubscribed and measure the scheduler's overhead there.
//
// JSON on stdout (composed into BENCH_PR2.json); table on stderr.
#include "bench_util.hpp"
#include "core/CroccoAmr.hpp"
#include "gpu/ThreadPool.hpp"
#include "problems/Dmr.hpp"

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

using namespace crocco;
using Clock = std::chrono::steady_clock;

int main() {
    problems::Dmr::Options opts;
    opts.nx = 96;
    opts.ny = 24;
    opts.nz = 8;
    opts.maxLevel = 1;
    problems::Dmr dmr(opts);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    // The paper's decomposition knob: chop to 16^3 boxes so every level has
    // enough fabs to spread across 8 workers (96x24x8 at max_grid_size 32 is
    // a mere 3 boxes on level 0).
    cfg.amrInfo.maxGridSize = 16;
    cfg.regridFreq = 1000; // freeze the hierarchy after init for stable timing
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    const int threadCounts[] = {1, 2, 4, 8};
    constexpr int kCounts = 4;
    constexpr int kReps = 15;
    for (int T : threadCounts) { // warm caches (comm patterns, page faults)
        gpu::setNumThreads(T);
        solver.step();
    }
    std::vector<double> stepNs[kCounts];
    for (int r = 0; r < kReps; ++r) {
        for (int i = 0; i < kCounts; ++i) {
            gpu::setNumThreads(threadCounts[i]);
            const auto t0 = Clock::now();
            solver.step();
            stepNs[i].push_back(
                std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
        }
    }
    gpu::setNumThreads(1);

    bench::Quartiles q[kCounts];
    for (int i = 0; i < kCounts; ++i) q[i] = bench::quartiles(stepNs[i]);

    const unsigned hw = std::thread::hardware_concurrency();
    std::fprintf(stderr, "%8s %16s %14s %8s\n", "threads", "median ns/step",
                 "IQR ns", "speedup");
    std::printf("{\n");
    std::printf("  \"layout\": \"DMR %dx%dx%d, %d levels, max_grid_size %d\",\n",
                opts.nx, opts.ny, opts.nz, solver.finestLevel() + 1,
                cfg.amrInfo.maxGridSize);
    std::printf("  \"host_cores\": %u,\n", hw);
    std::printf("  \"method\": \"measured wall time of one RK3 step on this "
                "host, median and interquartile range over %d steps per "
                "thread count, thread counts interleaved step by step\",\n",
                kReps);
    std::printf("  \"steps\": [\n");
    for (int i = 0; i < kCounts; ++i) {
        const double speedup = q[0].p50 / q[i].p50;
        std::fprintf(stderr, "%8d %16.0f %14.0f %7.2fx\n", threadCounts[i],
                     q[i].p50, q[i].iqr(), speedup);
        std::printf("    {\"threads\": %d, \"wall_ns_per_step_p50\": %.0f, "
                    "\"wall_ns_per_step_iqr\": %.0f, \"measured_speedup\": "
                    "%.3f}%s\n",
                    threadCounts[i], q[i].p50, q[i].iqr(), speedup,
                    i < kCounts - 1 ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
