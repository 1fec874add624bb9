#include "core/CroccoAmr.hpp"
#include "core/LaneWidth.hpp"
#include "core/Rk3.hpp"

#include "gpu/Gpu.hpp"

#include "problems/Canonical.hpp"
#include "problems/Dmr.hpp"

#include "TmpDir.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace crocco::core {
namespace {

using amr::IntVect;
using problems::Dmr;

Dmr::Options smallDmr() {
    Dmr::Options o;
    o.nx = 64;
    o.ny = 16;
    o.nz = 8;
    o.maxLevel = 1;
    return o;
}

TEST(CroccoAmr, DmrInitBuildsRefinementAlongShock) {
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());

    ASSERT_EQ(solver.finestLevel(), 1);
    // The fine level hugs the initial shock (x ~ 1/6 at the wall): far
    // fewer active points than the equivalent uniform fine grid.
    EXPECT_LT(solver.totalPoints(), solver.equivalentPoints() / 2);
    // Fine boxes sit in the left part of the domain where the shock starts.
    const auto& ba1 = solver.boxArray(1);
    ASSERT_GT(ba1.size(), 0);
    EXPECT_LT(ba1.minimalBox().bigEnd(0), 2 * 64); // left half (fine idx)
}

TEST(CroccoAmr, DmrStepsStablyAndTracksShock) {
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.regridFreq = 2;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    const int frontBefore = solver.boxArray(1).minimalBox().bigEnd(0);
    solver.evolve(6);
    EXPECT_GT(solver.time(), 0.0);
    EXPECT_GT(solver.lastDt(), 0.0);
    // Physical density bounds for Mach-10 DMR (max ~ 4x post-shock density).
    for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
        EXPECT_GT(solver.state(lev).min(URHO), 0.5) << "level " << lev;
        EXPECT_LT(solver.state(lev).max(URHO), 40.0) << "level " << lev;
        EXPECT_GT(solver.state(lev).min(UEDEN), 0.0);
    }
    // The refined region's leading edge moved downstream with the shock.
    const int frontAfter = solver.boxArray(1).minimalBox().bigEnd(0);
    EXPECT_GE(frontAfter, frontBefore);
    // Profiler recorded the Algorithm-2 regions.
    for (const char* region : {"FillPatch", "WENOx", "WENOy", "WENOz",
                               "Update", "ComputeDt", "Regrid", "AverageDown"}) {
        EXPECT_TRUE(solver.profiler().has(region)) << region;
    }
}

TEST(CroccoAmr, TiledWenoChargesOneLaunchPerFabKernel) {
    // The WENO sweeps run as tile lists, but a tile is a sub-block of its
    // fab's launch: the unfused RHS charges 3 kernels x 3 directions per fab
    // and stage, exactly as the per-fab sweep did.
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    ASSERT_EQ(cfg.variant, KernelVariant::Portable);
    ASSERT_FALSE(cfg.fused);
    cfg.regridFreq = 1000;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    solver.step();
    std::int64_t nfabs = 0, ntiles = 0;
    for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
        nfabs += solver.boxArray(lev).size();
        for (int dir = 0; dir < 3; ++dir)
            ntiles += static_cast<std::int64_t>(
                gpu::sweepTiles(solver.boxArray(lev).boxes(), dir).size());
    }
    ASSERT_GT(ntiles, 3 * nfabs); // the sweeps really are tiled
    auto wenoLaunches = [&] {
        return solver.profiler().launches("WENOx") +
               solver.profiler().launches("WENOy") +
               solver.profiler().launches("WENOz");
    };
    const std::int64_t before = wenoLaunches();
    solver.step();
    EXPECT_EQ(wenoLaunches() - before, Rk3::nStages * 9 * nfabs);
}

TEST(CroccoAmr, FortranAndCppKernelPathsAgreeWithinPaperTolerance) {
    // §IV-A/§IV-C: L2 norm of per-variable differences between kernel
    // structures stays at round-off across a full driver step.
    Dmr dmr(smallDmr());
    auto mkSolver = [&](KernelVariant v) {
        auto cfg = dmr.solverConfig(CodeVersion::V12);
        cfg.amrInfo.maxLevel = 1;
        cfg.variant = v;
        auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping());
        s->init(dmr.initialCondition(), dmr.boundaryConditions());
        s->evolve(2);
        return s;
    };
    auto a = mkSolver(KernelVariant::Portable);
    auto b = mkSolver(KernelVariant::FortranStyle);
    ASSERT_EQ(a->finestLevel(), b->finestLevel());
    for (int lev = 0; lev <= a->finestLevel(); ++lev) {
        ASSERT_EQ(a->boxArray(lev), b->boxArray(lev));
        for (int n = 0; n < NCONS; ++n) {
            const Real l2 =
                amr::MultiFab::l2Diff(a->state(lev), b->state(lev), n);
            EXPECT_LT(l2, 1e-7) << "lev " << lev << " comp " << n;
        }
    }
}

/// FNV-1a over the time, step count, every box and every state bit of
/// every level.
std::uint64_t stateDigest(const CroccoAmr& solver) {
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    mix(std::bit_cast<std::uint64_t>(solver.time()));
    mix(static_cast<std::uint64_t>(solver.stepCount()));
    for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
        const auto& U = solver.state(lev);
        for (int f = 0; f < U.numFabs(); ++f) {
            const amr::Box& b = U.validBox(f);
            for (int d = 0; d < 3; ++d) {
                mix(static_cast<std::uint64_t>(b.smallEnd(d)));
                mix(static_cast<std::uint64_t>(b.bigEnd(d)));
            }
            auto u = U.const_array(f);
            for (int n = 0; n < NCONS; ++n)
                amr::forEachCell(b, [&](int i, int j, int k) {
                    mix(std::bit_cast<std::uint64_t>(u(i, j, k, n)));
                });
        }
    }
    return h;
}

// The lane width of the WENO and Viscous kernels changes how the host
// executes them, never a bit of the solution: the 3-level curvilinear DMR
// (regrids included) and a periodic viscous Taylor-Green vortex reach the
// same state after 4 steps at every width the host runs.
TEST(CroccoAmr, StateBitwiseIdenticalAtEveryLaneWidth) {
    const auto dmrDigest = [] {
        Dmr::Options o;
        o.nx = 32;
        o.ny = 8;
        o.nz = 8;
        o.maxLevel = 2;
        o.curvilinear = true;
        Dmr dmr(o);
        auto cfg = dmr.solverConfig(CodeVersion::V20);
        cfg.regridFreq = 2;
        CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
        solver.init(dmr.initialCondition(), dmr.boundaryConditions());
        solver.evolve(4);
        EXPECT_EQ(solver.finestLevel(), 2);
        return stateDigest(solver);
    };
    const auto tgvDigest = [] {
        problems::TaylorGreen tgv(16);
        auto cfg = tgv.solverConfig();
        cfg.amrInfo.maxGridSize = 8;
        CroccoAmr solver(tgv.geometry(), cfg, tgv.mapping());
        solver.init(tgv.initialCondition(), nullptr);
        solver.evolve(4);
        return stateDigest(solver);
    };
    // supportedLaneWidths() starts with 1, the all-scalar reference.
    std::uint64_t dmr1 = 0, tgv1 = 0;
    for (const int width : detail::supportedLaneWidths()) {
        const detail::ScopedLaneWidth pin(width);
        const std::uint64_t dmr = dmrDigest(), tgv = tgvDigest();
        if (width == 1) {
            dmr1 = dmr;
            tgv1 = tgv;
            continue;
        }
        EXPECT_EQ(dmr, dmr1) << "width " << width;
        EXPECT_EQ(tgv, tgv1) << "width " << width;
    }
}

TEST(CroccoAmr, MassConservedOnPeriodicProblem) {
    problems::IsentropicVortex vortex(16);
    auto cfg = vortex.solverConfig();
    CroccoAmr solver(vortex.geometry(), cfg, vortex.mapping());
    solver.init(vortex.initialCondition(), nullptr);
    const auto before = solver.conservedTotals();
    solver.evolve(5);
    const auto after = solver.conservedTotals();
    // Fully periodic: fluxes telescope, conserved totals are exact.
    EXPECT_NEAR(after[URHO], before[URHO], 1e-10 * std::abs(before[URHO]));
    EXPECT_NEAR(after[UEDEN], before[UEDEN], 1e-10 * std::abs(before[UEDEN]));
    EXPECT_NEAR(after[UMX], before[UMX], 1e-8 * std::abs(before[UMX]) + 1e-10);
}

TEST(CroccoAmr, CoordStoreFileModeMatchesMemoryMode) {
    // The regrid coordinate source (§III-C) must not change the physics —
    // only the performance (bench/ablation_coordstore measures that).
    Dmr dmr(smallDmr());
    test::TmpDir dir("crocco_coordstore_file_mode");
    auto run = [&](mesh::CoordStore::Mode mode) {
        auto cfg = dmr.solverConfig(CodeVersion::V20);
        cfg.coordMode = mode;
        cfg.coordFileDir = dir.path;
        cfg.regridFreq = 2;
        auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping());
        s->init(dmr.initialCondition(), dmr.boundaryConditions());
        s->evolve(3);
        return s;
    };
    auto mem = run(mesh::CoordStore::Mode::Memory);
    auto file = run(mesh::CoordStore::Mode::File);
    for (int lev = 0; lev <= mem->finestLevel(); ++lev) {
        for (int n = 0; n < NCONS; ++n)
            EXPECT_EQ(amr::MultiFab::l2Diff(mem->state(lev), file->state(lev), n),
                      0.0);
    }
}

TEST(CroccoAmr, EstimateRegridFreqScalesWithPatchSize) {
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    const int freq = solver.estimateRegridFreq();
    EXPECT_GE(freq, 1);
    // Half the smallest fine-patch width at CFL 0.5 -> at least a few steps.
    EXPECT_LE(freq, 200);
}

TEST(CroccoAmr, CurvilinearAndCartesianDmrAgreeApproximately) {
    // §V-B: curvilinear coordinates are "unnecessary for this problem" —
    // running the same DMR on the wavy grid must give nearly the same
    // solution as the uniform grid when restricted to level 0 statistics.
    auto run = [&](bool curvilinear) {
        Dmr::Options o = smallDmr();
        o.maxLevel = 0;
        o.curvilinear = curvilinear;
        o.waveAmplitude = 0.01;
        Dmr dmr(o);
        auto cfg = dmr.solverConfig(CodeVersion::V11);
        auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping());
        s->init(dmr.initialCondition(), dmr.boundaryConditions());
        s->evolve(4);
        return s->conservedTotals();
    };
    const auto curv = run(true);
    const auto cart = run(false);
    EXPECT_NEAR(curv[URHO], cart[URHO], 0.05 * std::abs(cart[URHO]));
    EXPECT_NEAR(curv[UEDEN], cart[UEDEN], 0.05 * std::abs(cart[UEDEN]));
}

TEST(CroccoAmr, CommLogCapturesPaperCommunicationStructure) {
    Dmr dmr(smallDmr());
    parallel::SimComm comm(4);
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.nranks = 4;
    CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping(), &comm);
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    comm.log().clear();
    solver.step();
    // One iteration produces: point-to-point FillBoundary traffic, the
    // FillPatch coarse gather, the curvilinear interpolator's coordinate
    // gather (the paper's bottleneck), and the ComputeDt reduction.
    EXPECT_GT(comm.log().count(parallel::MessageKind::PointToPoint), 0u);
    EXPECT_GT(comm.log().count(parallel::MessageKind::Reduction), 0u);
    bool sawState = false, sawCoords = false;
    for (const auto& m : comm.log().messages()) {
        sawState = sawState || m.tag == "ParallelCopy";
        sawCoords = sawCoords || m.tag == "ParallelCopy_interp";
    }
    EXPECT_TRUE(sawState);
    EXPECT_TRUE(sawCoords);

    // CRoCCo 2.1 (trilinear interpolator) must NOT produce the coordinate
    // gather.
    parallel::SimComm comm21(4);
    auto cfg21 = dmr.solverConfig(CodeVersion::V21);
    cfg21.nranks = 4;
    CroccoAmr solver21(dmr.geometry(), cfg21, dmr.mapping(), &comm21);
    solver21.init(dmr.initialCondition(), dmr.boundaryConditions());
    comm21.log().clear();
    solver21.step();
    for (const auto& m : comm21.log().messages())
        EXPECT_NE(m.tag, "ParallelCopy_interp");
}

} // namespace
} // namespace crocco::core
