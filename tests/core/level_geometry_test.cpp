// Regenerated grid geometry (core::buildLevelGeometry): coordinates and
// metrics that a regrid carries over from the old layout, or computes
// fresh, must equal a from-scratch mesh::computeMetricsFab over each grown
// box BIT FOR BIT — valid and ghost cells, at 1 and 8 ranks, on the
// curvilinear DMR and on a periodic curvilinear vortex (where a periodic
// image must never be copied). The reuse counters on CroccoAmr are pinned
// against an independent count of the index-aligned same-rank overlap.
#include "core/CroccoAmr.hpp"

#include "amr/BoxList.hpp"
#include "core/LevelGeometry.hpp"
#include "mesh/GridMetrics.hpp"
#include "problems/Canonical.hpp"
#include "problems/Dmr.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace crocco::core {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::FArrayBox;
using amr::IntVect;
using amr::MultiFab;

bool sameBits(Real a, Real b) { return std::memcmp(&a, &b, sizeof(Real)) == 0; }

/// Cells of `fab` over `region` (all components) whose bits differ from
/// `ref`.
std::int64_t mismatches(const FArrayBox& fab, const FArrayBox& ref, const Box& region) {
    std::int64_t bad = 0;
    auto a = fab.const_array();
    auto b = ref.const_array();
    for (int n = 0; n < ref.nComp(); ++n)
        amr::forEachCell(region, [&](int i, int j, int k) {
            if (!sameBits(a(i, j, k, n), b(i, j, k, n))) ++bad;
        });
    return bad;
}

/// Coordinates and metrics of one level, rebuilt from nothing: the store's
/// coordinates over each coords grown box and computeMetricsFab over each
/// metrics grown box.
std::int64_t fromScratchMismatches(const mesh::CoordStore& store, int lev,
                                   const amr::Geometry& geom, const MultiFab& coords,
                                   const MultiFab& metrics) {
    std::int64_t bad = 0;
    for (int f = 0; f < metrics.numFabs(); ++f) {
        FArrayBox c(coords.grownBox(f), 3);
        store.getCoords(c, lev);
        FArrayBox m(metrics.grownBox(f), mesh::MetricComps);
        mesh::computeMetricsFab(c.const_array(), m.array(), metrics.grownBox(f),
                                geom.cellSizeArray());
        bad += mismatches(coords.fab(f), c, coords.grownBox(f));
        bad += mismatches(metrics.fab(f), m, metrics.grownBox(f));
    }
    return bad;
}

std::int64_t fromScratchMismatches(const CroccoAmr& s) {
    std::int64_t bad = 0;
    for (int lev = 0; lev <= s.finestLevel(); ++lev)
        bad += fromScratchMismatches(s.coordStore(), lev, s.geom(lev), s.coords(lev),
                                     s.metrics(lev));
    return bad;
}

/// Metric cells (valid + ghost) of the new layout that some fab of the old
/// layout owned by the same rank covers at the same index — the copy set
/// the regeneration may use, counted independently of it.
std::int64_t sameRankOverlap(const BoxArray& oldBa, const DistributionMapping& oldDm,
                             const BoxArray& newBa, const DistributionMapping& newDm,
                             int ngrow) {
    std::int64_t n = 0;
    for (int f = 0; f < newBa.size(); ++f) {
        std::vector<Box> covers;
        for (int o = 0; o < oldBa.size(); ++o)
            if (oldDm[o] == newDm[f]) covers.push_back(oldBa[o].grow(ngrow));
        const Box grown = newBa[f].grow(ngrow);
        n += grown.numPts() - amr::totalPts(amr::boxDiff(grown, covers));
    }
    return n;
}

/// Metric cells of the new layout that a periodic image (non-zero shift)
/// of a same-rank old fab covers — what an image-aware copy would add.
std::int64_t sameRankImageOverlap(const BoxArray& oldBa, const DistributionMapping& oldDm,
                                  const BoxArray& newBa, const DistributionMapping& newDm,
                                  int ngrow, const amr::Geometry& geom) {
    std::int64_t n = 0;
    for (const IntVect& shift : geom.periodicShifts()) {
        if (shift == IntVect::zero()) continue;
        for (int f = 0; f < newBa.size(); ++f)
            for (int o = 0; o < oldBa.size(); ++o)
                if (oldDm[o] == newDm[f])
                    n += (newBa[f].grow(ngrow) & oldBa[o].grow(ngrow).shift(shift))
                             .numPts();
    }
    return n;
}

std::int64_t grownPts(const BoxArray& ba, int ngrow) {
    std::int64_t n = 0;
    for (const Box& b : ba.boxes()) n += b.grow(ngrow).numPts();
    return n;
}

/// How the boxes of a remade level relate to the layout they replace.
struct Coverage {
    int identical = 0;   ///< same box, same owner: copied whole
    int rankChanged = 0; ///< same box, new owner: not copied from it
    int partial = 0;     ///< valid cells overlap an old box, not identical
    int fresh = 0;       ///< valid cells overlap no old box (newly refined)
    std::int64_t copiedPastEdge = 0; ///< copyable ghost cells outside the domain
};

void classify(const BoxArray& oldBa, const DistributionMapping& oldDm,
              const BoxArray& newBa, const DistributionMapping& newDm, int ngrow,
              const Box& domain, Coverage& c) {
    for (int f = 0; f < newBa.size(); ++f) {
        const Box grown = newBa[f].grow(ngrow);
        bool same = false, moved = false, overlap = false;
        for (int o = 0; o < oldBa.size(); ++o) {
            if (oldBa[o] == newBa[f]) {
                if (oldDm[o] == newDm[f]) same = true;
                else moved = true;
            }
            overlap = overlap || oldBa[o].intersects(newBa[f]);
            const Box common = grown & oldBa[o].grow(ngrow);
            if (oldDm[o] == newDm[f] && common.ok())
                c.copiedPastEdge += amr::totalPts(amr::boxDiff(common, domain));
        }
        if (same) ++c.identical;
        else if (moved) ++c.rankChanged;
        else if (overlap) ++c.partial;
        else ++c.fresh;
    }
}

struct RunResult {
    Coverage coverage;
    std::int64_t copied = 0;
    std::int64_t total = 0; ///< metric cells of remade levels
    std::int64_t imageOverlap = 0; ///< see sameRankImageOverlap
    int remakes = 0;
};

/// Step `s` `nsteps` times (regridding every step). After each step, check
/// the whole hierarchy against a from-scratch rebuild and the per-level
/// reuse counters against the independent overlap count.
RunResult stepAndCheck(CroccoAmr& s, int nsteps) {
    RunResult r;
    for (int step = 0; step < nsteps; ++step) {
        std::vector<BoxArray> oldBa;
        std::vector<DistributionMapping> oldDm;
        for (int lev = 0; lev <= s.maxLevel(); ++lev) {
            oldBa.push_back(s.boxArray(lev));
            oldDm.push_back(s.dmap(lev));
        }
        const int oldFinest = s.finestLevel();
        s.step();
        SCOPED_TRACE("after step " + std::to_string(s.stepCount()));
        EXPECT_EQ(fromScratchMismatches(s), 0);
        for (int lev = 1; lev <= s.finestLevel(); ++lev) {
            const MetricReuse& m = s.lastRegridMetricReuse(lev);
            const BoxArray& ba = s.boxArray(lev);
            const int ng = s.metrics(lev).nGrow();
            const bool unchanged = lev <= oldFinest && ba == oldBa[lev] &&
                                   s.dmap(lev) == oldDm[lev];
            if (unchanged) {
                EXPECT_EQ(m.copied + m.computed, 0) << "level " << lev;
                continue;
            }
            EXPECT_EQ(m.copied + m.computed, grownPts(ba, ng)) << "level " << lev;
            if (lev > oldFinest) { // made from coarse: nothing to reuse
                EXPECT_EQ(m.copied, 0) << "level " << lev;
                continue;
            }
            EXPECT_EQ(m.copied, sameRankOverlap(oldBa[lev], oldDm[lev], ba,
                                                s.dmap(lev), ng))
                << "level " << lev;
            classify(oldBa[lev], oldDm[lev], ba, s.dmap(lev), ng,
                     s.geom(lev).domain(), r.coverage);
            r.imageOverlap += sameRankImageOverlap(oldBa[lev], oldDm[lev], ba,
                                                   s.dmap(lev), ng, s.geom(lev));
            r.copied += m.copied;
            r.total += m.copied + m.computed;
            ++r.remakes;
        }
    }
    return r;
}

void expectInitComputesEverything(const CroccoAmr& s) {
    EXPECT_EQ(fromScratchMismatches(s), 0);
    for (int lev = 0; lev <= s.finestLevel(); ++lev) {
        const MetricReuse& m = s.lastRegridMetricReuse(lev);
        EXPECT_EQ(m.copied, 0) << "level " << lev;
        EXPECT_EQ(m.computed, grownPts(s.boxArray(lev), s.metrics(lev).nGrow()))
            << "level " << lev;
    }
}

/// The 3-level curvilinear DMR, nx x nx/4 x 8 base cells.
problems::Dmr regridDmr(int nx) {
    problems::Dmr::Options o;
    o.nx = nx;
    o.ny = nx / 4;
    o.nz = 8;
    o.maxLevel = 2;
    return problems::Dmr(o);
}

/// Regrid every step on boxes of at most 16 cells: the layout of the
/// benchmark's dmr_ranks_regrid workload at nx = 96.
std::unique_ptr<CroccoAmr> makeDmr(int nx, int nranks, parallel::SimComm* comm) {
    auto dmr = regridDmr(nx);
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.nranks = nranks;
    cfg.regridFreq = 1;
    cfg.amrInfo.maxGridSize = 16;
    auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping(), comm);
    s->init(dmr.initialCondition(), dmr.boundaryConditions());
    return s;
}

TEST(LevelGeometry, DmrRegridsMatchFromScratchOneRank) {
    auto s = makeDmr(64, 1, nullptr);
    expectInitComputesEverything(*s);
    const RunResult r = stepAndCheck(*s, 3);
    ASSERT_GT(r.remakes, 0);
    EXPECT_GT(r.copied, 0);
    EXPECT_GT(r.coverage.identical + r.coverage.partial, 0);
    EXPECT_GT(r.coverage.copiedPastEdge, 0);
}

TEST(LevelGeometry, DmrRegridsMatchFromScratchEightRanks) {
    parallel::SimComm comm(8);
    auto s = makeDmr(96, 8, &comm);
    expectInitComputesEverything(*s);
    const RunResult r = stepAndCheck(*s, 3);
    ASSERT_GT(r.remakes, 0);
    // Every relation a new box can have to the old layout occurred.
    EXPECT_GT(r.coverage.identical, 0);
    EXPECT_GT(r.coverage.rankChanged, 0);
    EXPECT_GT(r.coverage.partial, 0);
    EXPECT_GT(r.coverage.fresh, 0);
    EXPECT_GT(r.coverage.copiedPastEdge, 0);
    // Same-rank reuse carries most of the remade levels' metric cells.
    EXPECT_GE(static_cast<double>(r.copied), 0.8 * static_cast<double>(r.total))
        << r.copied << " of " << r.total << " metric cells copied";
}

TEST(LevelGeometry, PeriodicVortexNeverCopiesPeriodicImages) {
    // Curvilinear and fully periodic: the old level's boxes near one face
    // have periodic images near the opposite face. sameRankOverlap counts
    // index-aligned overlap only, so any image copy shows up as a surplus
    // in the copied counter.
    problems::IsentropicVortex vortex(32, /*curvilinear=*/true);
    auto cfg = vortex.solverConfig();
    cfg.amrInfo.maxLevel = 1;
    cfg.amrInfo.maxGridSize = 8;
    cfg.tagging = {TagCriterion::DensityGradient, 0.01};
    cfg.nranks = 4;
    cfg.regridFreq = 1;
    parallel::SimComm comm(4);
    CroccoAmr s(vortex.geometry(), cfg, vortex.mapping(), &comm);
    s.init(vortex.initialCondition(), nullptr);
    ASSERT_EQ(s.finestLevel(), 1);
    expectInitComputesEverything(s);
    const RunResult r = stepAndCheck(s, 6);
    ASSERT_GT(r.remakes, 0);
    EXPECT_GT(r.copied, 0);
    // Images were on offer (so the exact copied count above has teeth).
    EXPECT_GT(r.imageOverlap, 0);
}

TEST(LevelGeometry, ReuseSendsNoMessagesAndCoversEveryBoxRelation) {
    // A hand-built layout change on level 0 of the curvilinear DMR: an
    // identical box, a box that changed rank, a shifted box and a box with
    // no old neighbour, all with ghost cells past the domain edge in z.
    auto dmr = regridDmr(96);
    const amr::Geometry& geom = dmr.geometry();
    const int ng = NGHOST;
    mesh::CoordStore store(dmr.mapping(), geom, IntVect(2), 0, ng + 3);
    parallel::SimComm comm(2);
    auto box = [](int x0, int y0, int x1, int y1) {
        return Box(IntVect{x0, y0, 0}, IntVect{x1, y1, 7});
    };
    const BoxArray oldBa(std::vector<Box>{box(0, 0, 7, 7), box(8, 0, 15, 7),
                                          box(16, 0, 23, 7)});
    const DistributionMapping oldDm(std::vector<int>{0, 1, 0}, 2);
    const BoxArray newBa(std::vector<Box>{box(0, 0, 7, 7), box(8, 0, 15, 7),
                                          box(20, 0, 27, 7), box(40, 4, 47, 11)});
    const DistributionMapping newDm(std::vector<int>{0, 0, 0, 1}, 2);

    MultiFab oldCoords(oldBa, oldDm, 3, ng + 3, &comm);
    MultiFab oldMetrics(oldBa, oldDm, mesh::MetricComps, ng, &comm);
    const MetricReuse init =
        buildLevelGeometry(store, 0, geom, oldCoords, oldMetrics, nullptr);
    EXPECT_EQ(init.copied, 0);
    EXPECT_EQ(init.computed, grownPts(oldBa, ng));

    MultiFab coords(newBa, newDm, 3, ng + 3, &comm);
    MultiFab metrics(newBa, newDm, mesh::MetricComps, ng, &comm);
    const std::size_t msgsBefore = comm.log().messages().size();
    const MetricReuse m = buildLevelGeometry(store, 0, geom, coords, metrics, &oldMetrics);
    EXPECT_EQ(comm.log().messages().size(), msgsBefore);

    EXPECT_EQ(fromScratchMismatches(store, 0, geom, coords, metrics), 0);
    EXPECT_EQ(m.copied + m.computed, grownPts(newBa, ng));
    EXPECT_EQ(m.copied, sameRankOverlap(oldBa, oldDm, newBa, newDm, ng));
    Coverage c;
    classify(oldBa, oldDm, newBa, newDm, ng, geom.domain(), c);
    EXPECT_EQ(c.identical, 1);
    EXPECT_EQ(c.rankChanged, 1);
    EXPECT_EQ(c.partial, 1);
    EXPECT_EQ(c.fresh, 1);
    EXPECT_GT(c.copiedPastEdge, 0);
}

} // namespace
} // namespace crocco::core
