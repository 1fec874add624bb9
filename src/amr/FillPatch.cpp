#include "amr/FillPatch.hpp"

#include "gpu/Gpu.hpp"

#include <cassert>

namespace crocco::amr {

namespace {
int ceilDiv(int a, int b) { return (a + b - 1) / b; }

/// Fab i's coordinate context (empty unless the interpolator needs one).
InterpContext interpContext(const Interpolater& interp,
                            const MultiFab& ctmpCoords,
                            const MultiFab* fineCoords, int i) {
    InterpContext ctx;
    if (interp.needsCoordinates()) {
        ctx.crseCoords = &ctmpCoords.fab(i);
        ctx.fineCoords = &fineCoords->fab(i);
    }
    return ctx;
}
} // namespace

std::vector<Box> uncoveredBy(const Box& region, const BoxArray& ba,
                             const Geometry& geom) {
    std::vector<Box> covers;
    for (const IntVect& s : geom.periodicShifts()) {
        for (const auto& [j, isect] : ba.intersections(region.shift(s)))
            covers.push_back(isect.shift(-s));
    }
    return boxDiff(region, covers);
}

void FillPatchSingleLevel(MultiFab& dst, const MultiFab& src, const Geometry& geom,
                          const PhysBCFunct& bc, Real time) {
    assert(dst.boxArray() == src.boxArray());
    MultiFab::copy(dst, src, 0, 0, dst.nComp(), 0);
    dst.fillBoundary(geom);
    if (bc) bc(dst, geom, time);
}

void FillPatchTwoLevels(MultiFab& dst, const MultiFab& fineSrc,
                        const MultiFab& crseSrc, const Geometry& fineGeom,
                        const Geometry& crseGeom, const IntVect& ratio,
                        const Interpolater& interp, const PhysBCFunct& fineBC,
                        const PhysBCFunct& crseBC, Real time,
                        const MultiFab* fineCoords, const MultiFab* crseCoords) {
    assert(dst.boxArray() == fineSrc.boxArray());

    // 1-2. Fine data everywhere it exists: valid cells, then ghost cells
    // covered by sibling fine patches (incl. periodic images).
    MultiFab::copy(dst, fineSrc, 0, 0, dst.nComp(), 0);
    dst.fillBoundary(fineGeom);

    const int ng = dst.nGrow();
    const int ncomp = dst.nComp();

    // 3. Gather the coarse data needed under every fine ghost region into a
    // scratch MultiFab aligned with dst's (coarsened) layout. This is the
    // ParallelCopy communication FillPatch always performs (Fig. 7).
    const int ngc = ceilDiv(ng, ratio.min()) + interp.nGrowCoarse();
    const BoxArray cba = dst.boxArray().coarsen(ratio);
    MultiFab ctmp(cba, dst.distributionMap(), ncomp, ngc, dst.comm());
    ctmp.parallelCopy(crseSrc, 0, 0, ncomp, ngc, 0, "ParallelCopy", &crseGeom);
    if (crseBC) crseBC(ctmp, crseGeom, time);

    // Curvilinear interpolation additionally needs coarse physical
    // coordinates under the same regions — the paper's *extra* global
    // ParallelCopy that throttles CRoCCo 2.0's weak scaling (§VI-B).
    // Stored coordinates are globally continuous including their ghost
    // cells, so the gather reads source ghosts instead of periodic images.
    MultiFab ctmpCoords;
    if (interp.needsCoordinates()) {
        assert(fineCoords && crseCoords);
        assert(crseCoords->nGrow() >= ngc);
        ctmpCoords.define(cba, dst.distributionMap(), 3, ngc, dst.comm());
        ctmpCoords.parallelCopy(*crseCoords, 0, 0, 3, ngc, crseCoords->nGrow(),
                                "ParallelCopy_interp");
    }

    // 4. Interpolate coarse data into ghost cells no fine patch covers.
    // Ghost cells beyond non-periodic domain faces are left for fineBC;
    // cells beyond periodic faces hold periodic-image data and interpolate
    // like interior cells.
    Box interpDomain = fineGeom.domain();
    for (int d = 0; d < SpaceDim; ++d)
        if (fineGeom.isPeriodic(d)) interpDomain = interpDomain.grow(d, ng);

    // The uncovered pieces come first, on the calling thread; then one pool
    // task per fab interpolates its own pieces into its own dst fab.
    std::vector<std::vector<Box>> pieces(static_cast<std::size_t>(dst.numFabs()));
    for (int i = 0; i < dst.numFabs(); ++i)
        pieces[static_cast<std::size_t>(i)] = uncoveredBy(
            dst.grownBox(i) & interpDomain, dst.boxArray(), fineGeom);
    gpu::ParallelForIndex(dst.numFabs(), [&](int i) {
        const InterpContext ctx = interpContext(interp, ctmpCoords, fineCoords, i);
        for (const Box& piece : pieces[static_cast<std::size_t>(i)])
            interp.interp(ctmp.fab(i), dst.fab(i), piece, 0, 0, ncomp, ratio, ctx);
    });

    // 5. Physical boundary conditions.
    if (fineBC) fineBC(dst, fineGeom, time);
}

void InterpFromCoarseLevel(MultiFab& dst, const MultiFab& crseSrc,
                           const Geometry& fineGeom, const Geometry& crseGeom,
                           const IntVect& ratio, const Interpolater& interp,
                           const PhysBCFunct& fineBC, const PhysBCFunct& crseBC,
                           Real time, const MultiFab* fineCoords,
                           const MultiFab* crseCoords) {
    const int ng = dst.nGrow();
    const int ncomp = dst.nComp();
    const int ngc = ceilDiv(ng, ratio.min()) + interp.nGrowCoarse();
    const BoxArray cba = dst.boxArray().coarsen(ratio);
    MultiFab ctmp(cba, dst.distributionMap(), ncomp, ngc, dst.comm());
    ctmp.parallelCopy(crseSrc, 0, 0, ncomp, ngc, 0, "ParallelCopy", &crseGeom);
    if (crseBC) crseBC(ctmp, crseGeom, time);

    MultiFab ctmpCoords;
    if (interp.needsCoordinates()) {
        assert(fineCoords && crseCoords);
        assert(crseCoords->nGrow() >= ngc);
        ctmpCoords.define(cba, dst.distributionMap(), 3, ngc, dst.comm());
        ctmpCoords.parallelCopy(*crseCoords, 0, 0, 3, ngc, crseCoords->nGrow(),
                                "ParallelCopy_interp");
    }

    Box interpDomain = fineGeom.domain();
    for (int d = 0; d < SpaceDim; ++d)
        if (fineGeom.isPeriodic(d)) interpDomain = interpDomain.grow(d, ng);

    gpu::ParallelForIndex(dst.numFabs(), [&](int i) {
        interp.interp(ctmp.fab(i), dst.fab(i), dst.grownBox(i) & interpDomain, 0,
                      0, ncomp, ratio,
                      interpContext(interp, ctmpCoords, fineCoords, i));
    });
    if (fineBC) fineBC(dst, fineGeom, time);
}

void linearExtrapolateGhost(FArrayBox& fab, const Box& interior, int srcComp,
                            int numComp) {
    assert(fab.box().contains(interior));
    auto a = fab.array();
    Box filled = interior;
    for (int d = 0; d < SpaceDim; ++d) {
        if (fab.box().length(d) == filled.length(d)) continue;
        assert(filled.length(d) >= 2);
        const int lo = filled.smallEnd(d), hi = filled.bigEnd(d);
        forEachCell(fab.box(), [&](int i, int j, int k) {
            IntVect p{i, j, k};
            // Only touch cells whose off-dimension indices are inside the
            // already-filled slab (sweep order widens `filled` one dim at a
            // time, so corners are handled by later sweeps reading earlier
            // extrapolations).
            for (int dd = 0; dd < SpaceDim; ++dd)
                if (dd != d && (p[dd] < filled.smallEnd(dd) || p[dd] > filled.bigEnd(dd)))
                    return;
            if (p[d] >= lo && p[d] <= hi) return;
            IntVect e0 = p, e1 = p;
            int m;
            if (p[d] < lo) {
                e0[d] = lo;
                e1[d] = lo + 1;
                m = lo - p[d];
            } else {
                e0[d] = hi;
                e1[d] = hi - 1;
                m = p[d] - hi;
            }
            for (int n = srcComp; n < srcComp + numComp; ++n) {
                a(p[0], p[1], p[2], n) = (1 + m) * a(e0[0], e0[1], e0[2], n) -
                                         m * a(e1[0], e1[1], e1[2], n);
            }
        });
        IntVect flo = filled.smallEnd(), fhi = filled.bigEnd();
        flo[d] = fab.box().smallEnd(d);
        fhi[d] = fab.box().bigEnd(d);
        filled = Box(flo, fhi);
    }
}

void AverageDown(const MultiFab& fine, MultiFab& crse, const IntVect& ratio,
                 int srcComp, int destComp, int numComp) {
    const double volRatio = 1.0 / static_cast<double>(ratio.product());
    for (int ci = 0; ci < crse.numFabs(); ++ci) {
        auto c = crse.array(ci);
        for (int fj = 0; fj < fine.numFabs(); ++fj) {
            const Box overlap = crse.validBox(ci) & fine.validBox(fj).coarsen(ratio);
            if (!overlap.ok()) continue;
            auto f = fine.const_array(fj);
            for (int n = 0; n < numComp; ++n) {
                forEachCell(overlap, [&](int i, int j, int k) {
                    double s = 0.0;
                    for (int dk = 0; dk < ratio[2]; ++dk)
                        for (int dj = 0; dj < ratio[1]; ++dj)
                            for (int di = 0; di < ratio[0]; ++di)
                                s += f(i * ratio[0] + di, j * ratio[1] + dj,
                                       k * ratio[2] + dk, srcComp + n);
                    c(i, j, k, destComp + n) = s * volRatio;
                });
            }
            if (auto* comm = crse.comm()) {
                const int srcRank = fine.distributionMap()[fj];
                const int dstRank = crse.distributionMap()[ci];
                if (srcRank != dstRank) {
                    comm->recordP2P(srcRank, dstRank,
                                    overlap.numPts() * numComp *
                                        static_cast<std::int64_t>(sizeof(Real)),
                                    "AverageDown");
                }
            }
        }
    }
    // Restriction rewrote coarse valid cells under the fine level, so any
    // coarse ghost data is out of date until the next exchange (check-build
    // shadow bookkeeping; no-op otherwise).
    crse.invalidateGhosts();
}

} // namespace crocco::amr
