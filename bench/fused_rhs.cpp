// PR7 bench: the fused RHS pipeline (core.fused) on the PR4 DMR layout.
//
// Methodology (execute-the-structure, model-the-time): the same DMR
// hierarchy is advanced twice — unfused (the seed's per-sweep kernels) and
// fused (shared primitive cache, single-pass WENO flux+divergence, fused
// RK3 update, batched per-phase launches). For one steady-state step each,
// the bench records
//
//   * counted kernel launches (gpu::LaunchStats — each ParallelFor /
//     reduction / per-fab MultiFab sweep is one launch; a batched phase
//     charges its flat kernel count), reported per RK3 stage;
//   * modeled DRAM traffic (TinyProfiler's per-region modeled-bytes column,
//     charged from core/KernelProfiles), reported as bytes per point per
//     stage;
//   * the modeled V100 step time: traffic / bwDram + launches x
//     launchOverhead — the quantity the fusion actually moves on a real
//     GPU, where per-fab launch overhead dominates deep-AMR levels;
//   * the measured host wall time of one step at 1/2/4/8 worker threads
//     (median and interquartile range over repeated steps, thread counts
//     and pipelines interleaved step by step).
//
// Both pipelines compute bitwise-identical states (pinned by tests/core/
// fused_rhs_test), so the comparison is pure structure. The bench SELF-
// CHECKS the PR7 acceptance gates — >= 2x fewer launches per RK3 stage and
// >= 1.3x modeled step speedup — and exits nonzero on a miss, so
// `ctest -L perf` enforces them. JSON on stdout (composed into
// BENCH_PR7.json by run_bench_pr7.sh); readable table on stderr. Also
// emits the ScalingSimulator weak-scaling sweep at 1..4096 nodes with
// Params::fusedPipeline off vs on.
#include "bench_util.hpp"
#include "core/CroccoAmr.hpp"
#include "gpu/LaunchStats.hpp"
#include "gpu/ThreadPool.hpp"
#include "machine/ScalingSimulator.hpp"
#include "parallel/SimComm.hpp"
#include "problems/Dmr.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace crocco;
using Clock = std::chrono::steady_clock;

namespace {

double toNs(Clock::duration d) {
    return std::chrono::duration<double, std::nano>(d).count();
}

const char* kRegions[] = {"PrimCache", "WENOx",       "WENOy", "WENOz",
                          "Viscous",   "AdvanceHalo", "Update"};

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kCounts = 4;

struct StepMeasure {
    std::uint64_t launches = 0; ///< counted launches of the step
    double modeledBytes = 0.0;  ///< per-region modeled DRAM bytes summed
    double points = 0.0;        ///< valid points over all levels
    std::vector<double> wallNs[kCounts]; ///< timed steps per thread count
};

std::unique_ptr<core::CroccoAmr> makeSolver(const problems::Dmr& dmr,
                                            parallel::SimComm& comm,
                                            bool fusedPipe) {
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    // BENCH_PR4.json's configuration: fat boxes from loose clustering, many
    // fabs per level, the high-order WENO interpolator, frozen hierarchy.
    cfg.amrInfo.maxGridSize = 40;
    cfg.amrInfo.gridEff = 0.25;
    cfg.interp = core::InterpChoice::Weno;
    cfg.regridFreq = 1000;
    cfg.fused = fusedPipe;
    cfg.nranks = comm.size();
    auto solver =
        std::make_unique<core::CroccoAmr>(dmr.geometry(), cfg, dmr.mapping(), &comm);
    solver->init(dmr.initialCondition(), dmr.boundaryConditions());
    gpu::setNumThreads(1);
    solver->evolve(2); // warm the comm-pattern cache and the scratch pool
    return solver;
}

/// Launches and modeled bytes of one steady-state step.
void countOneStep(core::CroccoAmr& solver, StepMeasure& sm) {
    for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
        const auto& mf = solver.state(lev);
        for (int f = 0; f < mf.numFabs(); ++f)
            sm.points += static_cast<double>(mf.validBox(f).numPts());
    }
    double bytes0 = 0.0;
    for (const char* r : kRegions) bytes0 += solver.profiler().modeledBytes(r);
    const std::uint64_t launches0 = gpu::LaunchStats::count();
    solver.step();
    sm.launches = gpu::LaunchStats::count() - launches0;
    for (const char* r : kRegions) sm.modeledBytes += solver.profiler().modeledBytes(r);
    sm.modeledBytes -= bytes0;
}

void timeOneStep(core::CroccoAmr& solver, int countIdx, StepMeasure& sm) {
    gpu::setNumThreads(kThreadCounts[countIdx]);
    const auto t0 = Clock::now();
    solver.step();
    sm.wallNs[countIdx].push_back(toNs(Clock::now() - t0));
}

} // namespace

int main() {
    problems::Dmr::Options opts;
    opts.nx = 64;
    opts.ny = 48;
    opts.nz = 32;
    opts.maxLevel = 2;
    const problems::Dmr dmr(opts);
    parallel::SimComm commUnfused(8), commFused(8);
    const auto solverUnfused = makeSolver(dmr, commUnfused, false);
    const auto solverFused = makeSolver(dmr, commFused, true);

    StepMeasure unfused, fused;
    countOneStep(*solverUnfused, unfused);
    countOneStep(*solverFused, fused);
    constexpr int kReps = 3;
    for (int r = 0; r < kReps; ++r) {
        for (int i = 0; i < kCounts; ++i) {
            timeOneStep(*solverUnfused, i, unfused);
            timeOneStep(*solverFused, i, fused);
        }
    }
    gpu::setNumThreads(1);

    constexpr double kStages = 3.0;
    const machine::ScalingSimulator simOff;
    const gpu::V100Model& v100 = simOff.params().machine.v100;

    auto modelNs = [&](const StepMeasure& sm) {
        return 1e9 * (sm.modeledBytes / v100.bwDram +
                      static_cast<double>(sm.launches) * v100.launchOverhead);
    };
    const double launchesPerStageUnfused =
        static_cast<double>(unfused.launches) / kStages;
    const double launchesPerStageFused =
        static_cast<double>(fused.launches) / kStages;
    const double launchRatio = launchesPerStageUnfused / launchesPerStageFused;
    const double bppUnfused = unfused.modeledBytes / (kStages * unfused.points);
    const double bppFused = fused.modeledBytes / (kStages * fused.points);
    const double modeledSpeedup = modelNs(unfused) / modelNs(fused);

    std::fprintf(stderr,
                 "per RK3 stage: %.0f launches unfused vs %.0f fused "
                 "(%.1fx); modeled DRAM %.0f B/pt vs %.0f B/pt; modeled step "
                 "%.2f ms vs %.2f ms (%.2fx)\n",
                 launchesPerStageUnfused, launchesPerStageFused, launchRatio,
                 bppUnfused, bppFused, modelNs(unfused) / 1e6,
                 modelNs(fused) / 1e6, modeledSpeedup);

    std::printf("{\n");
    std::printf("  \"layout\": \"DMR 64x48x32, %s levels, max_grid_size 40, "
                "grid_eff 0.25, weno interp, 8 ranks (BENCH_PR4 "
                "configuration)\",\n",
                "3");
    std::printf(
        "  \"model\": \"modeled step = per-region KernelProfiles DRAM bytes / "
        "V100 bwDram + counted launches x launchOverhead; launches counted by "
        "gpu::LaunchStats (batched phases charge their flat kernel count); "
        "identical numerics both ways (bitwise-pinned by fused_rhs_test)\",\n");
    std::printf("  \"per_stage\": {\n");
    std::printf("    \"launches_unfused\": %.1f,\n", launchesPerStageUnfused);
    std::printf("    \"launches_fused\": %.1f,\n", launchesPerStageFused);
    std::printf("    \"launch_ratio\": %.2f,\n", launchRatio);
    std::printf("    \"dram_bytes_per_point_unfused\": %.1f,\n", bppUnfused);
    std::printf("    \"dram_bytes_per_point_fused\": %.1f\n", bppFused);
    std::printf("  },\n");
    std::printf("  \"modeled_step\": {\"unfused_ns\": %.0f, \"fused_ns\": "
                "%.0f, \"speedup\": %.3f},\n",
                modelNs(unfused), modelNs(fused), modeledSpeedup);
    std::printf("  \"method\": \"steps: measured wall time of one step on "
                "this host, median and interquartile range over %d steps per "
                "thread count and pipeline, interleaved step by step\",\n",
                kReps);
    std::printf("  \"steps\": [\n");
    std::fprintf(stderr, "%8s %22s %22s %10s\n", "threads",
                 "unfused ns (IQR)", "fused ns (IQR)", "speedup");
    for (int i = 0; i < kCounts; ++i) {
        const bench::Quartiles u = bench::quartiles(unfused.wallNs[i]);
        const bench::Quartiles f = bench::quartiles(fused.wallNs[i]);
        std::fprintf(stderr, "%8d %12.0f (%7.0f) %12.0f (%7.0f) %9.2fx\n",
                     kThreadCounts[i], u.p50, u.iqr(), f.p50, f.iqr(),
                     u.p50 / f.p50);
        std::printf("    {\"threads\": %d, \"unfused_wall_ns_p50\": %.0f, "
                    "\"unfused_wall_ns_iqr\": %.0f, \"fused_wall_ns_p50\": "
                    "%.0f, \"fused_wall_ns_iqr\": %.0f, \"measured_speedup\": "
                    "%.3f, \"modeled_speedup\": %.3f}%s\n",
                    kThreadCounts[i], u.p50, u.iqr(), f.p50, f.iqr(),
                    u.p50 / f.p50, modeledSpeedup, i < kCounts - 1 ? "," : "");
    }
    std::printf("  ],\n");

    // Weak-scaling sweep: the fused pipeline in the Summit model (flat
    // per-phase launch charge + fused kernel profiles) vs the seed model.
    machine::ScalingSimulator::Params fp;
    fp.fusedPipeline = true;
    const machine::ScalingSimulator simOn(fp);
    std::printf("  \"scaling\": [\n");
    const int nodeCounts[] = {1, 4, 16, 64, 256, 1024, 4096};
    std::fprintf(stderr, "%8s %14s %14s %12s\n", "nodes", "unfused s/it",
                 "fused s/it", "speedup");
    for (int i = 0; i < 7; ++i) {
        const int nodes = nodeCounts[i];
        const machine::ScalingCase c{core::CodeVersion::V20, nodes,
                                     41000000ll * nodes};
        const double off = simOff.iterationTime(c).totalSerial();
        const double on = simOn.iterationTime(c).totalSerial();
        std::fprintf(stderr, "%8d %14.4f %14.4f %11.2fx\n", nodes, off, on,
                     off / on);
        std::printf("    {\"nodes\": %d, \"unfused_s\": %.6f, \"fused_s\": "
                    "%.6f, \"speedup\": %.3f}%s\n",
                    nodes, off, on, off / on, i < 6 ? "," : "");
    }
    std::printf("  ]\n}\n");

    // PR7 acceptance gates, enforced by `ctest -L perf`.
    bool ok = true;
    if (launchRatio < 2.0) {
        std::fprintf(stderr,
                     "FAIL: launch ratio %.2f < 2.0 (need >= 2x fewer kernel "
                     "launches per RK3 stage)\n",
                     launchRatio);
        ok = false;
    }
    if (modeledSpeedup < 1.3) {
        std::fprintf(stderr,
                     "FAIL: modeled step speedup %.2f < 1.3x\n",
                     modeledSpeedup);
        ok = false;
    }
    return ok ? 0 : 1;
}
