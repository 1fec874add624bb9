#include "core/LevelGeometry.hpp"

#include "amr/BoxList.hpp"
#include "gpu/Gpu.hpp"
#include "mesh/GridMetrics.hpp"

#include <cassert>
#include <vector>

namespace crocco::core {

using amr::Box;
using amr::MultiFab;
using amr::Real;

MetricReuse buildLevelGeometry(const mesh::CoordStore& store, int lev,
                               const amr::Geometry& geom, MultiFab& coords,
                               MultiFab& metrics, const MultiFab* oldMetrics) {
    assert(coords.nGrow() >= metrics.nGrow() + 3);
    assert(metrics.nComp() == mesh::MetricComps && coords.nComp() == 3);
    assert(coords.boxArray() == metrics.boxArray());
    const std::array<Real, 3> dxi = geom.cellSizeArray();
    const amr::DistributionMapping& dm = metrics.distributionMap();
    assert(!oldMetrics || (oldMetrics->nGrow() == metrics.nGrow() &&
                           oldMetrics->nComp() == mesh::MetricComps));
    const int nold = oldMetrics ? oldMetrics->numFabs() : 0;

    std::vector<std::int64_t> computed(static_cast<std::size_t>(metrics.numFabs()), 0);
    gpu::ParallelForIndex(metrics.numFabs(), [&](int f) {
        store.getCoords(coords.fab(f), lev);
        const Box grown = metrics.grownBox(f);
        std::vector<Box> todo{grown};
        for (int o = 0; o < nold && !todo.empty(); ++o) {
            const Box src = oldMetrics->grownBox(o);
            if (oldMetrics->distributionMap()[o] != dm[f] || !src.intersects(grown))
                continue;
            std::vector<Box> rest;
            for (const Box& piece : todo) {
                const Box common = piece & src;
                if (!common.ok()) {
                    rest.push_back(piece);
                    continue;
                }
                metrics.fab(f).copyFrom(oldMetrics->fab(o), common, 0, 0,
                                        mesh::MetricComps);
                for (const Box& r : amr::boxDiff(piece, common)) rest.push_back(r);
            }
            todo = std::move(rest);
        }
        for (const Box& r : todo) {
            mesh::computeMetricsFab(coords.const_array(f), metrics.array(f), r, dxi);
            computed[static_cast<std::size_t>(f)] += r.numPts();
        }
    });

    MetricReuse out;
    for (int f = 0; f < metrics.numFabs(); ++f) {
        const std::int64_t c = computed[static_cast<std::size_t>(f)];
        out.computed += c;
        out.copied += metrics.grownBox(f).numPts() - c;
    }
    return out;
}

} // namespace crocco::core
