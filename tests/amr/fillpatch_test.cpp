#include "amr/FillPatch.hpp"

#include "core/CroccoAmr.hpp"
#include "gpu/ThreadPool.hpp"
#include "problems/Canonical.hpp"
#include "problems/Dmr.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace crocco::amr {
namespace {

std::vector<Box> tiledBoxes(const Box& domain, int size) {
    std::vector<Box> out;
    forEachCell(domain.coarsen(size), [&](int i, int j, int k) {
        const IntVect lo = IntVect{i, j, k} * size;
        out.emplace_back(lo, lo + IntVect(size - 1));
    });
    return out;
}

/// Affine global field in *physical* coordinates at a given level spacing,
/// reproduced exactly by the linear interpolators.
double affine(int lev, const IntVect& p) {
    const double h = (lev == 0) ? 1.0 : 0.5;
    return 2.0 * (p[0] + 0.5) * h - 1.0 * (p[1] + 0.5) * h + 0.5 * (p[2] + 0.5) * h + 3.0;
}

TEST(Uncovered, FindsHolesWithPeriodicImages) {
    const Box domain(IntVect::zero(), IntVect(7));
    Periodicity per;
    per.periodic[0] = true;
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, per);
    BoxArray ba(Box(IntVect{0, 0, 0}, IntVect{7, 3, 7})); // lower half in y
    // Query reaching past x=7 wraps around; past y=3 does not.
    const Box query(IntVect{6, 0, 0}, IntVect{9, 5, 7});
    const auto holes = uncoveredBy(query, ba, geom);
    // x in 6..9 wraps onto 6,7,0,1 which are covered for y<=3; y in 4..5
    // uncovered entirely.
    EXPECT_EQ(totalPts(holes), 4ll * 2 * 8);
}

TEST(LinearExtrapolateGhost, ExactForAffineData) {
    const Box interior(IntVect(2), IntVect(5));
    FArrayBox fab(interior.grow(2), 2, -999.0);
    auto a = fab.array();
    forEachCell(interior, [&](int i, int j, int k) {
        a(i, j, k, 0) = 3.0 * i - 2.0 * j + k + 1.0;
        a(i, j, k, 1) = -i + 4.0 * j + 2.0 * k;
    });
    linearExtrapolateGhost(fab, interior, 0, 2);
    forEachCell(fab.box(), [&](int i, int j, int k) {
        EXPECT_NEAR(a(i, j, k, 0), 3.0 * i - 2.0 * j + k + 1.0, 1e-12);
        EXPECT_NEAR(a(i, j, k, 1), -i + 4.0 * j + 2.0 * k, 1e-12);
    });
}

TEST(FillPatchSingleLevel, CopiesExchangesAndAppliesBC) {
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1});
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 2);
    MultiFab src(ba, dm, 1, 0);
    for (int f = 0; f < src.numFabs(); ++f) {
        auto a = src.array(f);
        forEachCell(src.validBox(f),
                    [&](int i, int j, int k) { a(i, j, k, 0) = affine(0, {i, j, k}); });
    }
    MultiFab dst(ba, dm, 1, 2);
    dst.setVal(-1.0);
    int bcCalls = 0;
    PhysBCFunct bc = [&](MultiFab& mf, const Geometry& g, Real) {
        ++bcCalls;
        // Fill all out-of-domain ghosts with a sentinel we can check.
        for (int f = 0; f < mf.numFabs(); ++f) {
            auto a = mf.array(f);
            forEachCell(mf.grownBox(f), [&](int i, int j, int k) {
                if (!g.domain().contains(IntVect{i, j, k})) a(i, j, k, 0) = 42.0;
            });
        }
    };
    FillPatchSingleLevel(dst, src, geom, bc, 0.0);
    EXPECT_EQ(bcCalls, 1);
    for (int f = 0; f < dst.numFabs(); ++f) {
        auto a = dst.const_array(f);
        forEachCell(dst.grownBox(f), [&](int i, int j, int k) {
            if (domain.contains(IntVect{i, j, k}))
                EXPECT_DOUBLE_EQ(a(i, j, k, 0), affine(0, {i, j, k}));
            else
                EXPECT_DOUBLE_EQ(a(i, j, k, 0), 42.0);
        });
    }
}

struct TwoLevelSetup {
    Box domain0{IntVect::zero(), IntVect(15)};
    Geometry geom0, geom1;
    BoxArray ba0, ba1;
    DistributionMapping dm0, dm1;
    MultiFab crse, fine;

    TwoLevelSetup() {
        Periodicity per;
        per.periodic[2] = true;
        geom0 = Geometry(domain0, {0, 0, 0}, {1, 1, 1}, per);
        geom1 = geom0.refine(IntVect(2));
        ba0 = BoxArray(tiledBoxes(domain0, 8));
        dm0 = DistributionMapping(ba0, 2);
        // Fine level covers the middle of the domain (fine index space).
        ba1 = BoxArray(tiledBoxes(Box(IntVect(8), IntVect(23)), 8));
        dm1 = DistributionMapping(ba1, 2);
        crse.define(ba0, dm0, 1, 4);
        fine.define(ba1, dm1, 1, 4);
        fillLevel(crse, 0);
        fillLevel(fine, 1);
    }
    static void fillLevel(MultiFab& mf, int lev) {
        for (int f = 0; f < mf.numFabs(); ++f) {
            auto a = mf.array(f);
            forEachCell(mf.validBox(f), [&](int i, int j, int k) {
                a(i, j, k, 0) = affine(lev, {i, j, k});
            });
        }
    }
};

PhysBCFunct extrapolationBC() {
    return [](MultiFab& mf, const Geometry& g, Real) {
        for (int f = 0; f < mf.numFabs(); ++f) {
            const Box interior = mf.grownBox(f) & g.domain();
            linearExtrapolateGhost(mf.fab(f), interior, 0, mf.nComp());
        }
    };
}

TEST(FillPatchTwoLevels, GhostsMatchAffineFieldEverywhere) {
    TwoLevelSetup s;
    MultiFab dst(s.ba1, s.dm1, 1, 4);
    dst.setVal(-99.0);
    TrilinearInterp interp;
    FillPatchTwoLevels(dst, s.fine, s.crse, s.geom1, s.geom0, IntVect(2), interp,
                       extrapolationBC(), extrapolationBC(), 0.0);
    // The affine field is reproduced exactly: fine-covered ghosts by copy,
    // coarse-covered by linear interpolation, outside-domain by linear
    // extrapolation BC.
    for (int f = 0; f < dst.numFabs(); ++f) {
        auto a = dst.const_array(f);
        forEachCell(dst.grownBox(f), [&](int i, int j, int k) {
            EXPECT_NEAR(a(i, j, k, 0), affine(1, {i, j, k}), 1e-11)
                << "fab " << f << " at " << IntVect{i, j, k};
        });
    }
}

TEST(FillPatchTwoLevels, CurvilinearInterpolatorLogsGlobalCopy) {
    TwoLevelSetup s;
    parallel::SimComm comm(2);
    MultiFab dst(s.ba1, s.dm1, 1, 4, &comm);
    // Coordinates: uniform physical mapping with spacing h per level.
    MultiFab crseCoords(s.ba0, s.dm0, 3, 7), fineCoords(s.ba1, s.dm1, 3, 7);
    auto fillCoords = [&](MultiFab& mf, double h) {
        for (int f = 0; f < mf.numFabs(); ++f) {
            auto a = mf.array(f);
            forEachCell(mf.grownBox(f), [&](int i, int j, int k) {
                a(i, j, k, 0) = (i + 0.5) * h;
                a(i, j, k, 1) = (j + 0.5) * h;
                a(i, j, k, 2) = (k + 0.5) * h;
            });
        }
    };
    fillCoords(crseCoords, 1.0);
    fillCoords(fineCoords, 0.5);
    CurvilinearInterp interp;
    FillPatchTwoLevels(dst, s.fine, s.crse, s.geom1, s.geom0, IntVect(2), interp,
                       extrapolationBC(), extrapolationBC(), 0.0, &fineCoords,
                       &crseCoords);
    for (int f = 0; f < dst.numFabs(); ++f) {
        auto a = dst.const_array(f);
        forEachCell(dst.grownBox(f), [&](int i, int j, int k) {
            EXPECT_NEAR(a(i, j, k, 0), affine(1, {i, j, k}), 1e-11);
        });
    }
    // The coordinate gather — the paper's scaling bottleneck — was logged
    // under its own tag.
    bool sawInterpCopy = false;
    for (const auto& m : comm.log().messages())
        sawInterpCopy = sawInterpCopy || m.tag == "ParallelCopy_interp";
    EXPECT_TRUE(sawInterpCopy);
}

TEST(InterpFromCoarseLevel, FillsEntireLevel) {
    TwoLevelSetup s;
    MultiFab dst(s.ba1, s.dm1, 1, 4);
    dst.setVal(-99.0);
    TrilinearInterp interp;
    InterpFromCoarseLevel(dst, s.crse, s.geom1, s.geom0, IntVect(2), interp,
                          extrapolationBC(), extrapolationBC(), 0.0);
    for (int f = 0; f < dst.numFabs(); ++f) {
        auto a = dst.const_array(f);
        forEachCell(dst.grownBox(f), [&](int i, int j, int k) {
            EXPECT_NEAR(a(i, j, k, 0), affine(1, {i, j, k}), 1e-11);
        });
    }
}

TEST(AverageDown, RestrictsExactlyAndConserves) {
    TwoLevelSetup s;
    // Perturb the fine level so restriction actually changes the coarse.
    for (int f = 0; f < s.fine.numFabs(); ++f) {
        auto a = s.fine.array(f);
        forEachCell(s.fine.validBox(f), [&](int i, int j, int k) {
            a(i, j, k, 0) += 0.25 * ((i + j + k) % 2 == 0 ? 1.0 : -1.0);
        });
    }
    const Real fineSumBefore = s.fine.sum(0);
    AverageDown(s.fine, s.crse, IntVect(2), 0, 0, 1);
    // Each covered coarse cell equals the mean of its 8 children.
    Real coveredCoarseSum = 0.0;
    for (int f = 0; f < s.crse.numFabs(); ++f) {
        auto c = s.crse.const_array(f);
        for (const auto& [j, overlap] :
             s.ba1.coarsen(IntVect(2)).intersections(s.crse.validBox(f))) {
            forEachCell(overlap, [&](int ii, int jj, int kk) {
                coveredCoarseSum += c(ii, jj, kk, 0);
            });
        }
    }
    // Conservation: coarse covered sum * 8 == fine sum (equal volumes).
    EXPECT_NEAR(coveredCoarseSum * 8.0, fineSumBefore, 1e-9);
}

/// Every component of every allocated cell, fab by fab.
std::vector<Real> allCells(const MultiFab& mf) {
    std::vector<Real> out;
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.const_array(f);
        for (int n = 0; n < mf.nComp(); ++n)
            forEachCell(mf.grownBox(f), [&](int i, int j, int k) {
                out.push_back(a(i, j, k, n));
            });
    }
    return out;
}

/// Both coarse-fine fills of every refined level of `s`, at 1, 4 and 8
/// threads: one pool task per fab must give bitwise the serial result.
void expectFillsThreadInvariant(const core::CroccoAmr& s,
                                const Interpolater& interp,
                                const PhysBCFunct& bc) {
    const int saved = gpu::numThreads();
    ASSERT_GE(s.finestLevel(), 1);
    for (int lev = 1; lev <= s.finestLevel(); ++lev) {
        const bool coords = interp.needsCoordinates();
        const MultiFab* fineCoords = coords ? &s.coords(lev) : nullptr;
        const MultiFab* crseCoords = coords ? &s.coords(lev - 1) : nullptr;
        std::vector<Real> twoRef, interpRef;
        for (int nt : {1, 4, 8}) {
            gpu::setNumThreads(nt);
            MultiFab two(s.boxArray(lev), s.dmap(lev), core::NCONS, core::NGHOST);
            two.setVal(0.0);
            FillPatchTwoLevels(two, s.state(lev), s.state(lev - 1), s.geom(lev),
                               s.geom(lev - 1), s.refRatio(), interp, bc, bc,
                               s.time(), fineCoords, crseCoords);
            MultiFab fromCrse(s.boxArray(lev), s.dmap(lev), core::NCONS,
                              core::NGHOST);
            fromCrse.setVal(0.0);
            InterpFromCoarseLevel(fromCrse, s.state(lev - 1), s.geom(lev),
                                  s.geom(lev - 1), s.refRatio(), interp, bc, bc,
                                  s.time(), fineCoords, crseCoords);
            if (nt == 1) {
                twoRef = allCells(two);
                interpRef = allCells(fromCrse);
                continue;
            }
            EXPECT_TRUE(allCells(two) == twoRef)
                << "FillPatchTwoLevels level " << lev << " threads=" << nt;
            EXPECT_TRUE(allCells(fromCrse) == interpRef)
                << "InterpFromCoarseLevel level " << lev << " threads=" << nt;
        }
    }
    gpu::setNumThreads(saved);
}

TEST(FillPatchTwoLevels, BitwiseAcrossThreadCountsOnCurvilinearDmr) {
    problems::Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 2;
    const problems::Dmr dmr(o);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.amrInfo.maxGridSize = 8; // several fabs per level
    core::CroccoAmr s(dmr.geometry(), cfg, dmr.mapping());
    s.init(dmr.initialCondition(), dmr.boundaryConditions());
    ASSERT_EQ(s.finestLevel(), 2);
    s.evolve(1);
    expectFillsThreadInvariant(s, CurvilinearInterp(), dmr.boundaryConditions());
}

TEST(FillPatchTwoLevels, BitwiseAcrossThreadCountsOnPeriodicVortex) {
    const problems::IsentropicVortex vortex(32);
    auto cfg = vortex.solverConfig();
    cfg.amrInfo.maxLevel = 1;
    cfg.amrInfo.maxGridSize = 8;
    cfg.tagging = {core::TagCriterion::DensityGradient, 0.01};
    core::CroccoAmr s(vortex.geometry(), cfg, vortex.mapping());
    s.init(vortex.initialCondition(), nullptr);
    expectFillsThreadInvariant(s, TrilinearInterp(), nullptr);
    expectFillsThreadInvariant(s, WenoInterp(), nullptr);
}

} // namespace
} // namespace crocco::amr
