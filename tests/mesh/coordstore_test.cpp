#include "mesh/CoordStore.hpp"

#include "TmpDir.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace crocco::mesh {
namespace {

using amr::Box;
using amr::Geometry;
using amr::IntVect;

Geometry makeGeom(int n, bool periodicZ) {
    amr::Periodicity per;
    per.periodic[2] = periodicZ;
    return Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0}, {1, 1, 1},
                    per);
}

TEST(CoordStore, CellCoordMatchesMapping) {
    auto mapping = std::make_shared<UniformMapping>(
        std::array<Real, 3>{0, 0, 0}, std::array<Real, 3>{4, 1, 2});
    CoordStore store(mapping, makeGeom(8, false), IntVect(2), 1, 2);
    const auto p = store.cellCoord(0, IntVect{0, 0, 0});
    EXPECT_DOUBLE_EQ(p[0], 4.0 * 0.5 / 8);
    EXPECT_DOUBLE_EQ(p[1], 1.0 * 0.5 / 8);
    // Level 1 has twice the resolution.
    const auto q = store.cellCoord(1, IntVect{0, 0, 0});
    EXPECT_DOUBLE_EQ(q[0], 4.0 * 0.5 / 16);
}

TEST(CoordStore, GhostsAreContinuousExtension) {
    // Ghost coordinates are always the smooth continuation of the mapping,
    // even across periodic faces — metric differencing and curvilinear
    // interpolation need globally consistent values, not periodic images.
    auto mapping = std::make_shared<UniformMapping>(
        std::array<Real, 3>{0, 0, 0}, std::array<Real, 3>{1, 1, 1});
    CoordStore store(mapping, makeGeom(8, true), IntVect(2), 0, 2);
    const auto g = store.cellCoord(0, IntVect{0, 0, -1});
    EXPECT_DOUBLE_EQ(g[2], -0.5 / 8.0);
    const auto gx = store.cellCoord(0, IntVect{-1, 0, 0});
    EXPECT_DOUBLE_EQ(gx[0], -0.5 / 8.0);
}

TEST(CoordStore, MemoryAndFileModesAgree) {
    auto mapping = std::make_shared<InteriorWavyMapping>(
        std::array<Real, 3>{0, 0, 0}, std::array<Real, 3>{4, 1, 1}, 0.04);
    const Geometry g = makeGeom(8, true);
    CoordStore mem(mapping, g, IntVect(2), 1, 3, CoordStore::Mode::Memory);
    test::TmpDir dir("crocco_coordstore_modes");
    CoordStore file(mapping, g, IntVect(2), 1, 3, CoordStore::Mode::File,
                    dir.path);
    for (int lev = 0; lev <= 1; ++lev) {
        const Box target = g.domain().refine(lev == 0 ? 1 : 2).grow(2);
        amr::FArrayBox a(target, 3), b(target, 3);
        mem.getCoords(a, lev);
        file.getCoords(b, lev);
        for (int m = 0; m < 3; ++m)
            EXPECT_EQ(amr::FArrayBox::l2Diff(a, b, target, m), 0.0)
                << "lev " << lev << " comp " << m;
    }
}

TEST(CoordStore, FillsMultiFabValidAndGhost) {
    auto mapping = std::make_shared<UniformMapping>(
        std::array<Real, 3>{0, 0, 0}, std::array<Real, 3>{1, 1, 1});
    const Geometry g = makeGeom(16, false);
    CoordStore store(mapping, g, IntVect(2), 0, 4);
    amr::BoxArray ba(Box(IntVect(4), IntVect(11)));
    amr::DistributionMapping dm(ba, 1);
    amr::MultiFab coords(ba, dm, 3, 4);
    store.getCoords(coords, 0);
    auto a = coords.const_array(0);
    amr::forEachCell(coords.grownBox(0), [&](int i, int j, int k) {
        EXPECT_DOUBLE_EQ(a(i, j, k, 0), (i + 0.5) / 16.0);
        EXPECT_DOUBLE_EQ(a(i, j, k, 1), (j + 0.5) / 16.0);
        EXPECT_DOUBLE_EQ(a(i, j, k, 2), (k + 0.5) / 16.0);
    });
}

TEST(CoordStore, BytesStoredReflectsModeAndFootprint) {
    auto mapping = std::make_shared<UniformMapping>(
        std::array<Real, 3>{0, 0, 0}, std::array<Real, 3>{1, 1, 1});
    const Geometry g = makeGeom(8, false);
    CoordStore mem(mapping, g, IntVect(2), 1, 2, CoordStore::Mode::Memory);
    test::TmpDir dir("crocco_coordstore_bytes");
    CoordStore file(mapping, g, IntVect(2), 1, 2, CoordStore::Mode::File, dir.path);
    // Memory mode stores both levels' grown grids: 12^3 + 20^3 cells x 3.
    EXPECT_EQ(mem.bytesStored(),
              static_cast<std::int64_t>((12 * 12 * 12 + 20 * 20 * 20) * 3 * 8));
    EXPECT_EQ(file.bytesStored(), 0);
}

} // namespace
} // namespace crocco::mesh
