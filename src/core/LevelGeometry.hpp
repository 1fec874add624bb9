#pragma once

#include "amr/Geometry.hpp"
#include "amr/MultiFab.hpp"
#include "mesh/CoordStore.hpp"

#include <cstdint>

namespace crocco::core {

/// Metric cells (valid + ghost) of one level-geometry build, split by
/// source: copied from the previous layout of the level, or computed by
/// mesh::computeMetricsFab.
struct MetricReuse {
    std::int64_t copied = 0;
    std::int64_t computed = 0;
};

/// InitGridMetrics of Algorithm 1 for one level layout (§III-C
/// "Regridding"). `coords` and `metrics` must already be defined on the new
/// BoxArray/DistributionMapping, with coords.nGrow() >= metrics.nGrow() + 3
/// so the metrics' 4th-order stencils reach. One gpu::ParallelForIndex task
/// per fab:
///   1. fills the fab's coordinates (valid + ghost) from `store`;
///   2. copies every metric cell that a fab of `oldMetrics` owned by the
///      *same rank* already holds at the same index (valid or ghost) —
///      index-aligned only: no periodic images, no messages;
///   3. runs mesh::computeMetricsFab over the uncovered remainder.
/// A metric value is a pure function of the global coordinates within ±3
/// cells, and the store serves those (including the smooth extension into
/// ghost cells), so a copied cell is bitwise identical to a recomputed one.
/// `oldMetrics == nullptr` (init, a level made from coarse, restores)
/// computes every cell.
MetricReuse buildLevelGeometry(const mesh::CoordStore& store, int lev,
                               const amr::Geometry& geom, amr::MultiFab& coords,
                               amr::MultiFab& metrics,
                               const amr::MultiFab* oldMetrics);

} // namespace crocco::core
