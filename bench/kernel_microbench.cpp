// Google-benchmark microbenchmarks of the numerics kernels and the core AMR
// primitives on this host: the measured side of Fig. 3 and the ablation
// substrate. Run with --benchmark_min_time=... for tighter statistics.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>

#include "amr/FillPatch.hpp"
#include "core/ComputeDt.hpp"
#include "core/LaneWidth.hpp"
#include "core/Viscous.hpp"
#include "core/Weno.hpp"
#include "mesh/CoordStore.hpp"
#include "mesh/GridMetrics.hpp"

namespace {

using namespace crocco;
using amr::Box;
using amr::FArrayBox;
using amr::IntVect;

struct KernelState {
    amr::Geometry geom;
    FArrayBox coords, metrics, S, dU;
    core::GasModel gas;

    explicit KernelState(int n) {
        gas.muRef = 0.01;
        geom = amr::Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0},
                             {1, 1, 1}, amr::Periodicity::all());
        auto mapping = std::make_shared<mesh::InteriorWavyMapping>(
            std::array<double, 3>{0, 0, 0}, std::array<double, 3>{1, 1, 1}, 0.02);
        mesh::CoordStore store(mapping, geom, IntVect(2), 0, core::NGHOST + 3);
        const Box grown = geom.domain().grow(core::NGHOST);
        coords = FArrayBox(geom.domain().grow(core::NGHOST + 3), 3);
        store.getCoords(coords, 0);
        metrics = FArrayBox(grown, mesh::MetricComps);
        mesh::computeMetricsFab(coords.const_array(), metrics.array(), grown,
                                geom.cellSizeArray());
        S = FArrayBox(grown, core::NCONS);
        auto s = S.array();
        amr::forEachCell(grown, [&](int i, int j, int k) {
            const double rho = 1.0 + 0.1 * std::sin(0.4 * i + 0.2 * j);
            s(i, j, k, core::URHO) = rho;
            s(i, j, k, core::UMX) = 0.3 * rho;
            s(i, j, k, core::UMY) = 0.1;
            s(i, j, k, core::UMZ) = 0.0;
            s(i, j, k, core::UEDEN) = gas.totalEnergy(rho, 0.3, 0.1 / rho, 0, 1.0);
        });
        dU = FArrayBox(geom.domain(), core::NCONS, 0.0);
    }
};

/// Pins the lane width of WENO kernel 2 and Viscous kernel 2 for one run
/// (0: the automatic width); skips widths this host does not run.
bool pinLaneWidth(benchmark::State& state, int width,
                  std::optional<core::detail::ScopedLaneWidth>& pin) {
    if (width == 0) return true;
    const auto widths = core::detail::supportedLaneWidths();
    if (std::find(widths.begin(), widths.end(), width) == widths.end()) {
        state.SkipWithError("lane width not supported on this host");
        return false;
    }
    pin.emplace(width);
    return true;
}

/// Cells per second, and its inverse in ns per cell.
void reportCells(benchmark::State& state, const Box& box) {
    state.SetItemsProcessed(state.iterations() * box.numPts());
    state.counters["ns_per_cell"] = benchmark::Counter(
        static_cast<double>(box.numPts()),
        benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_WenoX(benchmark::State& state, core::KernelVariant variant, int width) {
    std::optional<core::detail::ScopedLaneWidth> pin;
    if (!pinLaneWidth(state, width, pin)) return;
    KernelState ks(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        core::wenoFlux(0, ks.S.const_array(), ks.metrics.const_array(),
                       ks.geom.domain(), ks.dU.array(), ks.geom.cellSize(0),
                       ks.gas, core::WenoScheme::Symbo, variant);
        benchmark::DoNotOptimize(ks.dU);
    }
    reportCells(state, ks.geom.domain());
}

void BM_Viscous(benchmark::State& state, int width) {
    std::optional<core::detail::ScopedLaneWidth> pin;
    if (!pinLaneWidth(state, width, pin)) return;
    KernelState ks(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        core::viscousFlux(ks.S.const_array(), ks.metrics.const_array(),
                          ks.geom.domain(), ks.dU.array(), ks.geom.cellSizeArray(),
                          ks.gas, core::KernelVariant::Portable);
        benchmark::DoNotOptimize(ks.dU);
    }
    reportCells(state, ks.geom.domain());
}

void BM_ComputeDt(benchmark::State& state) {
    KernelState ks(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::computeDtFab(
            ks.S.const_array(), ks.metrics.const_array(), ks.geom.domain(),
            ks.geom.cellSizeArray(), ks.gas, 0.5));
    }
    state.SetItemsProcessed(state.iterations() * ks.geom.domain().numPts());
}

void BM_Metrics(benchmark::State& state) {
    KernelState ks(static_cast<int>(state.range(0)));
    const Box grown = ks.geom.domain().grow(core::NGHOST);
    for (auto _ : state) {
        mesh::computeMetricsFab(ks.coords.const_array(), ks.metrics.array(),
                                grown, ks.geom.cellSizeArray());
        benchmark::DoNotOptimize(ks.metrics);
    }
    state.SetItemsProcessed(state.iterations() * grown.numPts());
}

void BM_Interp(benchmark::State& state, const amr::Interpolater& interp) {
    const Box fineRegion(IntVect(8), IntVect(8 + static_cast<int>(state.range(0)) - 1));
    const Box crseBox = fineRegion.coarsen(2).grow(interp.nGrowCoarse());
    FArrayBox crse(crseBox, core::NCONS, 1.0), fine(fineRegion, core::NCONS);
    FArrayBox crseCoords(crseBox.grow(1), 3), fineCoords(fineRegion, 3);
    auto cc = crseCoords.array();
    amr::forEachCell(crseCoords.box(), [&](int i, int j, int k) {
        cc(i, j, k, 0) = i + 0.5;
        cc(i, j, k, 1) = j + 0.5;
        cc(i, j, k, 2) = k + 0.5;
    });
    auto fc = fineCoords.array();
    amr::forEachCell(fineRegion, [&](int i, int j, int k) {
        fc(i, j, k, 0) = (i + 0.5) * 0.5;
        fc(i, j, k, 1) = (j + 0.5) * 0.5;
        fc(i, j, k, 2) = (k + 0.5) * 0.5;
    });
    amr::InterpContext ctx{&crseCoords, &fineCoords};
    for (auto _ : state) {
        interp.interp(crse, fine, fineRegion, 0, 0, core::NCONS, IntVect(2), ctx);
        benchmark::DoNotOptimize(fine);
    }
    state.SetItemsProcessed(state.iterations() * fineRegion.numPts());
}

const amr::TrilinearInterp kTrilinear;
const amr::CurvilinearInterp kCurvilinear;
const amr::WenoInterp kWenoInterp;

} // namespace

BENCHMARK_CAPTURE(BM_WenoX, line_scratch, core::KernelVariant::FortranStyle, 0)
    ->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_WenoX, staged_gpu_structure, core::KernelVariant::Portable, 0)
    ->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Viscous, auto_width, 0)->Arg(16)->Arg(32);
// One lane width each (1 = every face and cell scalar), 32^3; run with
// GPU_NUM_THREADS=1 for the single-thread ns/cell of docs/performance.md §8.
BENCHMARK_CAPTURE(BM_WenoX, portable_w1, core::KernelVariant::Portable, 1)->Arg(32);
BENCHMARK_CAPTURE(BM_WenoX, portable_w2, core::KernelVariant::Portable, 2)->Arg(32);
BENCHMARK_CAPTURE(BM_WenoX, portable_w4, core::KernelVariant::Portable, 4)->Arg(32);
BENCHMARK_CAPTURE(BM_Viscous, w1, 1)->Arg(32);
BENCHMARK_CAPTURE(BM_Viscous, w2, 2)->Arg(32);
BENCHMARK_CAPTURE(BM_Viscous, w4, 4)->Arg(32);
BENCHMARK(BM_ComputeDt)->Arg(32);
BENCHMARK(BM_Metrics)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Interp, trilinear, kTrilinear)->Arg(16);
BENCHMARK_CAPTURE(BM_Interp, curvilinear, kCurvilinear)->Arg(16);
BENCHMARK_CAPTURE(BM_Interp, weno, kWenoInterp)->Arg(16);

BENCHMARK_MAIN();
