#include "mesh/GridMetrics.hpp"

#include "mesh/CoordStore.hpp"
#include "mesh/Mapping.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace crocco::mesh {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::FArrayBox;
using amr::Geometry;
using amr::IntVect;
using amr::MultiFab;

struct MetricsSetup {
    Geometry geom;
    MultiFab coords, metrics;

    MetricsSetup(std::shared_ptr<const Mapping> mapping, int n, int ngMetrics = 1) {
        geom = Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0}, {1, 1, 1},
                        amr::Periodicity::all());
        CoordStore store(std::move(mapping), geom, IntVect(2), 0, ngMetrics + 3);
        BoxArray ba(geom.domain());
        DistributionMapping dm(ba, 1);
        coords.define(ba, dm, 3, ngMetrics + 3);
        metrics.define(ba, dm, MetricComps, ngMetrics);
        store.getCoords(coords, 0);
        computeMetricsFab(coords.const_array(0), metrics.array(0),
                          metrics.grownBox(0), geom.cellSizeArray());
    }
};

TEST(GridMetrics, ComponentIndexing) {
    // 9 first derivatives then 18 symmetric second derivatives = 27.
    EXPECT_EQ(metric1(0, 0), 0);
    EXPECT_EQ(metric1(2, 2), 8);
    EXPECT_EQ(metric2(0, 0, 0), 9);
    EXPECT_EQ(metric2(0, 1, 2), metric2(0, 2, 1)); // symmetry
    EXPECT_EQ(metric2(2, 2, 2), 9 + 12 + 2);
    int maxComp = 0;
    for (int d = 0; d < 3; ++d)
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k) maxComp = std::max(maxComp, metric2(d, j, k));
    EXPECT_EQ(maxComp, MetricComps - 1);
}

TEST(GridMetrics, UniformGridIsExact) {
    // x = 4 xi, y = eta, z = 2 zeta on an 8^3 grid: dxi_0/dx = 1/4 etc.,
    // J = 8, all second metrics zero.
    auto mapping = std::make_shared<UniformMapping>(
        std::array<Real, 3>{0, 0, 0}, std::array<Real, 3>{4, 1, 2});
    MetricsSetup s(mapping, 8);
    auto m = s.metrics.const_array(0);
    amr::forEachCell(s.geom.domain(), [&](int i, int j, int k) {
        EXPECT_NEAR(m(i, j, k, metric1(0, 0)), 0.25, 1e-12);
        EXPECT_NEAR(m(i, j, k, metric1(1, 1)), 1.0, 1e-12);
        EXPECT_NEAR(m(i, j, k, metric1(2, 2)), 0.5, 1e-12);
        EXPECT_NEAR(m(i, j, k, metric1(0, 1)), 0.0, 1e-12);
        EXPECT_NEAR(m(i, j, k, metric1(1, 2)), 0.0, 1e-12);
        EXPECT_NEAR(jacobian(m, i, j, k), 8.0, 1e-10);
        for (int n = 9; n < MetricComps; ++n)
            EXPECT_NEAR(m(i, j, k, n), 0.0, 1e-10);
    });
}

TEST(GridMetrics, WavyGridMetricsConvergeAt4thOrder) {
    // Compare the computed dxi/dx against the analytic inverse Jacobian of
    // the wavy mapping at two resolutions; 4th-order differencing should
    // drop the error by ~16x.
    auto mapping = std::make_shared<WavyMapping>(std::array<Real, 3>{0, 0, 0},
                                                 std::array<Real, 3>{1, 1, 1},
                                                 0.02);
    double errs[2];
    for (int r = 0; r < 2; ++r) {
        const int n = (r == 0) ? 8 : 16;
        MetricsSetup s(mapping, n);
        auto m = s.metrics.const_array(0);
        double worst = 0.0;
        // Analytic forward Jacobian by tight finite differences of the
        // mapping itself (h far below the grid spacing).
        const double h = 1e-6;
        amr::forEachCell(s.geom.domain(), [&](int i, int j, int k) {
            const double xi = (i + 0.5) / n, eta = (j + 0.5) / n,
                         zeta = (k + 0.5) / n;
            double T[3][3];
            for (int d = 0; d < 3; ++d) {
                double sp[3]{xi, eta, zeta}, sm[3]{xi, eta, zeta};
                sp[d] += h;
                sm[d] -= h;
                const auto pp = mapping->toPhysical(sp[0], sp[1], sp[2]);
                const auto pm = mapping->toPhysical(sm[0], sm[1], sm[2]);
                for (int c = 0; c < 3; ++c) T[c][d] = (pp[c] - pm[c]) / (2 * h);
            }
            // Invert T to get the analytic dxi/dx.
            const double det =
                T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1]) -
                T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0]) +
                T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0]);
            const double M00 = (T[1][1] * T[2][2] - T[1][2] * T[2][1]) / det;
            worst = std::max(worst,
                             std::abs(m(i, j, k, metric1(0, 0)) - M00));
        });
        errs[r] = worst;
    }
    const double order = std::log2(errs[0] / errs[1]);
    EXPECT_GT(order, 3.4) << errs[0] << " " << errs[1];
}

TEST(GridMetrics, GclResidualSmallAndConverging) {
    auto mapping = std::make_shared<WavyMapping>(std::array<Real, 3>{0, 0, 0},
                                                 std::array<Real, 3>{1, 1, 1},
                                                 0.02);
    double res[2];
    for (int r = 0; r < 2; ++r) {
        const int n = (r == 0) ? 8 : 16;
        MetricsSetup s(mapping, n);
        res[r] = gclResidual(s.metrics.const_array(0), s.geom.domain(),
                             s.geom.cellSizeArray());
    }
    EXPECT_LT(res[1], res[0]); // refining the grid shrinks the GCL error
    EXPECT_LT(res[1], 0.5);    // and it is small in absolute terms
}

TEST(GridMetrics, SecondMetricsVanishOnAffineMapsOnly) {
    auto affine = std::make_shared<UniformMapping>(std::array<Real, 3>{1, 2, 3},
                                                   std::array<Real, 3>{5, 4, 9});
    MetricsSetup sa(affine, 8);
    auto ma = sa.metrics.const_array(0);
    double worstAffine = 0.0;
    amr::forEachCell(sa.geom.domain(), [&](int i, int j, int k) {
        for (int n = 9; n < MetricComps; ++n)
            worstAffine = std::max(worstAffine, std::abs(ma(i, j, k, n)));
    });
    EXPECT_LT(worstAffine, 1e-10);

    auto curved = std::make_shared<WavyMapping>(std::array<Real, 3>{0, 0, 0},
                                                std::array<Real, 3>{1, 1, 1},
                                                0.05);
    MetricsSetup sc(curved, 8);
    auto mc = sc.metrics.const_array(0);
    double worstCurved = 0.0;
    amr::forEachCell(sc.geom.domain(), [&](int i, int j, int k) {
        for (int n = 9; n < MetricComps; ++n)
            worstCurved = std::max(worstCurved, std::abs(mc(i, j, k, n)));
    });
    EXPECT_GT(worstCurved, 1.0); // second derivatives are genuinely nonzero
}

} // namespace
} // namespace crocco::mesh
