#include "core/BCFill.hpp"
#include "core/ComputeDt.hpp"
#include "core/LevelGeometry.hpp"
#include "core/Rk3.hpp"
#include "core/Tagging.hpp"

#include "mesh/CoordStore.hpp"
#include "mesh/GridMetrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

namespace crocco::core {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::Geometry;
using amr::IntVect;
using amr::MultiFab;

// ------------------------------------------------------------------- RK3

TEST(Rk3, CoefficientsAreWilliamsons) {
    EXPECT_DOUBLE_EQ(Rk3::A[0], 0.0);
    EXPECT_DOUBLE_EQ(Rk3::A[1], -5.0 / 9.0);
    EXPECT_DOUBLE_EQ(Rk3::A[2], -153.0 / 128.0);
    EXPECT_DOUBLE_EQ(Rk3::B[0], 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(Rk3::B[1], 15.0 / 16.0);
    EXPECT_DOUBLE_EQ(Rk3::B[2], 8.0 / 15.0);
}

double integrateOde(double dt, int nsteps) {
    // dy/dt = -y via the low-storage scheme; exact = exp(-t).
    double y = 1.0, g = 0.0;
    for (int s = 0; s < nsteps; ++s) {
        for (int stage = 0; stage < Rk3::nStages; ++stage) {
            g = Rk3::A[stage] * g + dt * (-y);
            y += Rk3::B[stage] * g;
        }
    }
    return y;
}

TEST(Rk3, ThirdOrderConvergenceOnLinearOde) {
    const double T = 1.0;
    const double e1 = std::abs(integrateOde(T / 20, 20) - std::exp(-T));
    const double e2 = std::abs(integrateOde(T / 40, 40) - std::exp(-T));
    const double order = std::log2(e1 / e2);
    EXPECT_GT(order, 2.8);
    EXPECT_LT(order, 3.4);
}

TEST(Rk3, StableAtCflOne) {
    // Advection-like imaginary eigenvalue at the scheme's stability edge:
    // y' = i*w*y with |w*dt| slightly under the RK3 bound (~1.73) must not
    // grow over many steps.
    std::complex<double> y{1.0, 0.0}, g{0.0, 0.0};
    const std::complex<double> lambda{0.0, 1.7};
    for (int s = 0; s < 200; ++s) {
        for (int stage = 0; stage < Rk3::nStages; ++stage) {
            g = Rk3::A[stage] * g + lambda * y;
            y += Rk3::B[stage] * g;
        }
    }
    EXPECT_LE(std::abs(y), 1.0 + 1e-6);
}

// -------------------------------------------------------------- ComputeDt

struct DtFixture {
    Geometry geom;
    MultiFab U, metrics;
    GasModel gas;

    DtFixture(int n, Real u, Real p, Real rho) {
        geom = Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0},
                        {1, 1, 1}, amr::Periodicity::all());
        auto mapping = std::make_shared<mesh::UniformMapping>(
            std::array<Real, 3>{0, 0, 0}, std::array<Real, 3>{1, 1, 1});
        mesh::CoordStore store(mapping, geom, IntVect(2), 0, NGHOST + 3);
        BoxArray ba(geom.domain());
        DistributionMapping dm(ba, 1);
        MultiFab coords(ba, dm, 3, NGHOST + 3);
        metrics.define(ba, dm, mesh::MetricComps, NGHOST);
        buildLevelGeometry(store, 0, geom, coords, metrics, nullptr);
        U.define(ba, dm, NCONS, NGHOST);
        U.setVal(0.0);
        U.setVal(rho, URHO, 1);
        U.setVal(rho * u, UMX, 1);
        U.setVal(gas.totalEnergy(rho, u, 0, 0, p), UEDEN, 1);
    }
};

TEST(ComputeDt, MatchesAnalyticCflOnUniformFlow) {
    // Physical grid == computational grid (unit cube, n^3): dxi/dx = n/n=1,
    // physical dx = 1/n. dt = cfl / sum_d (|u_d| + a)/dx_d.
    const int n = 8;
    const Real u = 0.5, p = 1.0, rho = 1.4;
    DtFixture fx(n, u, p, rho);
    const Real a = fx.gas.soundSpeed(rho, p);
    const Real dx = 1.0 / n;
    const Real expected = 0.5 / ((std::abs(u) + a + 2 * a) / dx);
    const Real dt = computeDt(fx.U, fx.metrics, fx.geom, fx.gas, 0.5);
    EXPECT_NEAR(dt, expected, 1e-10);
}

TEST(ComputeDt, FasterFlowMeansSmallerDt) {
    DtFixture slow(8, 0.1, 1.0, 1.4), fast(8, 3.0, 1.0, 1.4);
    EXPECT_GT(computeDt(slow.U, slow.metrics, slow.geom, slow.gas, 0.5),
              computeDt(fast.U, fast.metrics, fast.geom, fast.gas, 0.5));
}

TEST(ComputeDt, LogsGlobalReduction) {
    DtFixture fx(8, 0.5, 1.0, 1.4);
    parallel::SimComm comm(4);
    BoxArray ba(fx.geom.domain());
    // Re-define U attached to a comm so the reduction is logged.
    MultiFab U2(ba, DistributionMapping(ba, 4), NCONS, NGHOST, &comm);
    MultiFab::copy(U2, fx.U, 0, 0, NCONS, 0);
    computeDt(U2, fx.metrics, fx.geom, fx.gas, 0.5);
    EXPECT_EQ(comm.log().count(parallel::MessageKind::Reduction), 3u);
}

// ----------------------------------------------------------------- BCFill

struct BcFixture {
    Geometry geom{Box(IntVect::zero(), IntVect(7)), {0, 0, 0}, {1, 1, 1},
                  amr::Periodicity{{false, false, true}}};
    MultiFab mf;
    BcFixture() {
        BoxArray ba(geom.domain());
        mf.define(ba, DistributionMapping(ba, 1), NCONS, 2);
        mf.setVal(0.0);
        auto a = mf.array(0);
        amr::forEachCell(geom.domain(), [&](int i, int j, int k) {
            a(i, j, k, URHO) = 1.0 + i + 10 * j;
            a(i, j, k, UMX) = 0.5 * i;
            a(i, j, k, UMY) = 0.25 * j;
            a(i, j, k, UMZ) = 0.1 * k;
            a(i, j, k, UEDEN) = 5.0;
        });
    }
};

TEST(BCFill, OutflowExtrapolatesZeroOrder) {
    BcFixture fx;
    BCSpec spec;
    spec.face[0][0] = {BCType::Outflow, {}};
    applyBCs(fx.mf, fx.geom, spec);
    auto a = fx.mf.const_array(0);
    EXPECT_DOUBLE_EQ(a(-1, 3, 3, URHO), a(0, 3, 3, URHO));
    EXPECT_DOUBLE_EQ(a(-2, 3, 3, UMX), a(0, 3, 3, UMX));
}

TEST(BCFill, DirichletSetsExternalState) {
    BcFixture fx;
    BCSpec spec;
    spec.face[0][1] = {BCType::Dirichlet, {9.0, 1.0, 2.0, 3.0, 99.0}};
    applyBCs(fx.mf, fx.geom, spec);
    auto a = fx.mf.const_array(0);
    EXPECT_DOUBLE_EQ(a(8, 3, 3, URHO), 9.0);
    EXPECT_DOUBLE_EQ(a(9, 3, 3, UEDEN), 99.0);
}

TEST(BCFill, SlipWallMirrorsAndFlipsNormalMomentum) {
    BcFixture fx;
    BCSpec spec;
    spec.face[1][0] = {BCType::SlipWall, {}};
    applyBCs(fx.mf, fx.geom, spec);
    auto a = fx.mf.const_array(0);
    // Ghost j=-1 mirrors j=0; j=-2 mirrors j=1.
    EXPECT_DOUBLE_EQ(a(3, -1, 3, URHO), a(3, 0, 3, URHO));
    EXPECT_DOUBLE_EQ(a(3, -2, 3, URHO), a(3, 1, 3, URHO));
    EXPECT_DOUBLE_EQ(a(3, -1, 3, UMY), -a(3, 0, 3, UMY));
    EXPECT_DOUBLE_EQ(a(3, -1, 3, UMX), a(3, 0, 3, UMX)); // tangential kept
}

TEST(BCFill, NoSlipWallFlipsAllMomentum) {
    BcFixture fx;
    BCSpec spec;
    spec.face[1][1] = {BCType::NoSlipWall, {}};
    applyBCs(fx.mf, fx.geom, spec);
    auto a = fx.mf.const_array(0);
    EXPECT_DOUBLE_EQ(a(3, 8, 3, UMX), -a(3, 7, 3, UMX));
    EXPECT_DOUBLE_EQ(a(3, 8, 3, UMY), -a(3, 7, 3, UMY));
    EXPECT_DOUBLE_EQ(a(3, 8, 3, UMZ), -a(3, 7, 3, UMZ));
    EXPECT_DOUBLE_EQ(a(3, 8, 3, URHO), a(3, 7, 3, URHO));
}

TEST(BCFill, PeriodicFacesAreLeftToFillBoundary) {
    BcFixture fx;
    BCSpec spec; // z faces periodic in geometry
    spec.face[2][0] = {BCType::Dirichlet, {7, 7, 7, 7, 7}};
    applyBCs(fx.mf, fx.geom, spec);
    auto a = fx.mf.const_array(0);
    EXPECT_DOUBLE_EQ(a(3, 3, -1, URHO), 0.0); // untouched
}

// ---------------------------------------------------------------- Tagging

TEST(Tagging, DensityGradientFlagsJumpOnly) {
    BcFixture fx;
    // Overwrite: uniform except a density jump at i = 4.
    auto a = fx.mf.array(0);
    amr::forEachCell(fx.mf.grownBox(0), [&](int i, int j, int k) {
        a(i, j, k, URHO) = i < 4 ? 1.0 : 5.0;
        a(i, j, k, UMX) = a(i, j, k, UMY) = a(i, j, k, UMZ) = 0.0;
        a(i, j, k, UEDEN) = 2.5;
    });
    std::vector<IntVect> tags;
    tagCells(fx.mf, {TagCriterion::DensityGradient, 0.5}, tags);
    EXPECT_FALSE(tags.empty());
    for (const IntVect& t : tags) {
        EXPECT_TRUE(t[0] == 3 || t[0] == 4) << t;
    }
}

TEST(Tagging, MomentumGradientAndVorticity) {
    BcFixture fx;
    auto a = fx.mf.array(0);
    amr::forEachCell(fx.mf.grownBox(0), [&](int i, int j, int k) {
        a(i, j, k, URHO) = 1.0;
        a(i, j, k, UMX) = j >= 4 ? 2.0 : 0.0; // shear layer at j = 4
        a(i, j, k, UMY) = a(i, j, k, UMZ) = 0.0;
        a(i, j, k, UEDEN) = 2.5;
    });
    std::vector<IntVect> momTags, vortTags;
    tagCells(fx.mf, {TagCriterion::MomentumGradient, 0.5}, momTags);
    tagCells(fx.mf, {TagCriterion::Vorticity, 0.5}, vortTags);
    EXPECT_FALSE(momTags.empty());
    EXPECT_FALSE(vortTags.empty());
    for (const IntVect& t : vortTags) EXPECT_TRUE(t[1] == 3 || t[1] == 4);
}

TEST(Tagging, NoTagsBelowThreshold) {
    BcFixture fx;
    fx.mf.setVal(1.0);
    std::vector<IntVect> tags;
    tagCells(fx.mf, {TagCriterion::DensityGradient, 0.1}, tags);
    EXPECT_TRUE(tags.empty());
}

} // namespace
} // namespace crocco::core
