#include "core/Viscous.hpp"

#include "core/LaneWidth.hpp"

#include "amr/FArrayBox.hpp"
#include "amr/Geometry.hpp"
#include "mesh/CoordStore.hpp"
#include "mesh/GridMetrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace crocco::core {
namespace {

using amr::Box;
using amr::FArrayBox;
using amr::Geometry;
using amr::IntVect;

struct ViscousFixture {
    Geometry geom;
    FArrayBox coords, metrics, S, dU;
    GasModel gas;

    ViscousFixture(int n, Real mu,
                   const std::function<std::array<Real, 5>(Real, Real, Real)>& prim) {
        gas.muRef = mu;
        gas.Tsuth = 0.0; // power-law off: mu(T) = muRef * (T/Tref)^1.5
        geom = Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0},
                        {1, 1, 1}, amr::Periodicity::all());
        auto mapping = std::make_shared<mesh::UniformMapping>(
            std::array<Real, 3>{0, 0, 0},
            std::array<Real, 3>{2 * M_PI, 2 * M_PI, 2 * M_PI});
        mesh::CoordStore store(mapping, geom, IntVect(2), 0, NGHOST + 3);
        const Box grown = geom.domain().grow(NGHOST);
        coords = FArrayBox(geom.domain().grow(NGHOST + 3), 3);
        store.getCoords(coords, 0);
        metrics = FArrayBox(grown, mesh::MetricComps);
        mesh::computeMetricsFab(coords.const_array(), metrics.array(), grown,
                                geom.cellSizeArray());
        S = FArrayBox(grown, NCONS);
        auto s = S.array();
        auto x = coords.const_array();
        amr::forEachCell(grown, [&](int i, int j, int k) {
            IntVect w{((i % n) + n) % n, ((j % n) + n) % n, ((k % n) + n) % n};
            const auto q = prim(x(w[0], w[1], w[2], 0), x(w[0], w[1], w[2], 1),
                                x(w[0], w[1], w[2], 2));
            s(i, j, k, URHO) = q[0];
            s(i, j, k, UMX) = q[0] * q[1];
            s(i, j, k, UMY) = q[0] * q[2];
            s(i, j, k, UMZ) = q[0] * q[3];
            s(i, j, k, UEDEN) = gas.totalEnergy(q[0], q[1], q[2], q[3], q[4]);
        });
        dU = FArrayBox(geom.domain(), NCONS, 0.0);
    }

    void run() {
        viscousFlux(S.const_array(), metrics.const_array(), geom.domain(),
                    dU.array(), geom.cellSizeArray(), gas,
                    KernelVariant::Portable);
    }
};

TEST(ViscousKernel, ZeroForUniformFlow) {
    ViscousFixture fx(8, 0.01, [](Real, Real, Real) {
        return std::array<Real, 5>{1.0, 0.5, 0.25, -0.3, 1.0};
    });
    fx.run();
    for (int nc = 0; nc < NCONS; ++nc) {
        EXPECT_NEAR(fx.dU.max(fx.geom.domain(), nc), 0.0, 1e-11);
        EXPECT_NEAR(fx.dU.min(fx.geom.domain(), nc), 0.0, 1e-11);
    }
}

TEST(ViscousKernel, ShearLayerDiffusionMatchesAnalyticRhs) {
    // u = sin(y), constant rho, T: d(rho u)/dt = mu d2u/dy2 = -mu sin(y)
    // (mu constant because T is uniform).
    const Real mu = 0.02;
    auto prim = [](Real, Real y, Real) {
        return std::array<Real, 5>{1.0, std::sin(y), 0.0, 0.0, 1.0 / 1.4};
    };
    // At this rho/p, T = p/(rho R) = 1/1.4; set Tref so mu(T) = muRef.
    double errs[2];
    for (int r = 0; r < 2; ++r) {
        const int n = r == 0 ? 16 : 32;
        ViscousFixture fx(n, mu, prim);
        fx.gas.Tref = 1.0 / 1.4;
        fx.run();
        auto a = fx.dU.const_array();
        auto x = fx.coords.const_array();
        double worst = 0.0;
        amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
            const Real exact = -mu * std::sin(x(i, j, k, 1));
            worst = std::max(worst, std::abs(a(i, j, k, UMX) - exact));
        });
        errs[r] = worst;
    }
    EXPECT_LT(errs[0], 0.1 * mu);
    // 4th-order convergence: error drops by ~16x per refinement.
    EXPECT_GT(std::log2(errs[0] / errs[1]), 3.2) << errs[0] << " " << errs[1];
}

TEST(ViscousKernel, HeatConductionActsOnTemperatureGradient) {
    // Constant velocity zero, T varies: only the energy equation responds,
    // with d(E)/dt = d/dx(k dT/dx) = -k_cond T'' ... for T = T0 + a sin(x):
    // RHS_E = -lambda * a * sin(x) (lambda locally ~const for small a).
    auto prim = [](Real x, Real, Real) {
        const Real T = 1.0 + 0.01 * std::sin(x);
        const Real rho = 1.0;
        return std::array<Real, 5>{rho, 0.0, 0.0, 0.0, rho * 1.0 * T};
    };
    ViscousFixture fx(32, 0.05, prim);
    fx.gas.Tref = 1.0;
    fx.run();
    // Momentum untouched (no velocity), energy responds with the right
    // sign: where T peaks, heat flows away -> dE/dt < 0.
    auto a = fx.dU.const_array();
    auto x = fx.coords.const_array();
    const Real lambda = fx.gas.conductivity(1.0);
    double worst = 0.0;
    amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
        EXPECT_NEAR(a(i, j, k, UMX), 0.0, 1e-10);
        EXPECT_NEAR(a(i, j, k, UMY), 0.0, 1e-10);
        const Real exact = -lambda * 0.01 * std::sin(x(i, j, k, 0));
        worst = std::max(worst, std::abs(a(i, j, k, UEDEN) - exact));
    });
    EXPECT_LT(worst, 0.05 * lambda * 0.01);
}

TEST(ViscousKernel, DissipatesKineticEnergyGlobally) {
    // For any periodic velocity field the volume-integrated viscous work on
    // momentum against velocity is negative (dissipation).
    auto prim = [](Real x, Real y, Real z) {
        return std::array<Real, 5>{1.0, std::sin(x) * std::cos(y),
                                   -std::cos(x) * std::sin(y),
                                   0.3 * std::sin(z), 1.0 / 1.4};
    };
    ViscousFixture fx(16, 0.05, prim);
    fx.gas.Tref = 1.0 / 1.4;
    fx.run();
    auto a = fx.dU.const_array();
    auto s = fx.S.const_array();
    Real work = 0.0;
    amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
        const Real rho = s(i, j, k, URHO);
        work += (s(i, j, k, UMX) / rho) * a(i, j, k, UMX) +
                (s(i, j, k, UMY) / rho) * a(i, j, k, UMY) +
                (s(i, j, k, UMZ) / rho) * a(i, j, k, UMZ);
    });
    EXPECT_LT(work, 0.0);
}

TEST(GasModel, SutherlandViscosityAndEos) {
    GasModel g;
    g.muRef = 1.7e-5;
    g.Tref = 273.0;
    g.Tsuth = 110.4 / 273.0;
    EXPECT_NEAR(g.viscosity(273.0), g.muRef, 1e-12);
    EXPECT_GT(g.viscosity(600.0), g.muRef); // increases with T
    EXPECT_DOUBLE_EQ(g.pressure(1.0, 0, 0, 0, 2.5), 1.0);
    EXPECT_DOUBLE_EQ(g.totalEnergy(1.0, 0, 0, 0, 1.0), 2.5);
    EXPECT_NEAR(g.soundSpeed(1.4, 1.0), 1.0, 1e-12);
    EXPECT_NEAR(g.temperature(2.0, 4.0), 2.0, 1e-12);
    EXPECT_NEAR(g.cv() * (g.gamma - 1.0), g.Rgas, 1e-12);
    EXPECT_NEAR(g.cp() - g.cv(), g.Rgas, 1e-12);
}

/// A fab `len` cells long in i on a wavy curvilinear grid, with density,
/// velocity and temperature varying in every direction, so every term of
/// the stress tensor, heat flux and Sutherland viscosity is live.
struct LaneFixture {
    Box box;
    FArrayBox coords, metrics, S;
    GasModel gas;
    std::array<Real, 3> dxi{0.1, 0.15, 0.2};

    explicit LaneFixture(int len) : box(IntVect{-1, 0, 1}, IntVect{len - 2, 5, 4}) {
        gas.muRef = 0.01;
        const Box grown = box.grow(NGHOST);
        coords = FArrayBox(box.grow(NGHOST + 3), 3);
        auto x = coords.array();
        amr::forEachCell(coords.box(), [&](int i, int j, int k) {
            const Real a = dxi[0] * i, b = dxi[1] * j, c = dxi[2] * k;
            x(i, j, k, 0) = a + 0.02 * std::sin(3.0 * b + 1.0 * c);
            x(i, j, k, 1) = b + 0.03 * std::sin(2.0 * a + 0.5 * c);
            x(i, j, k, 2) = c + 0.01 * std::cos(1.5 * a + b);
        });
        metrics = FArrayBox(grown, mesh::MetricComps);
        mesh::computeMetricsFab(coords.const_array(), metrics.array(), grown, dxi);
        S = FArrayBox(grown, NCONS);
        auto s = S.array();
        amr::forEachCell(grown, [&](int i, int j, int k) {
            const Real rho = 1.0 + 0.2 * std::sin(0.7 * i + 0.3 * j);
            const Real u = 0.5 + 0.1 * std::cos(0.4 * k + 0.6 * i);
            const Real v = -0.2 + 0.05 * std::sin(0.8 * i - 0.3 * k);
            const Real w = 0.1 * std::sin(0.9 * j + 0.5 * i);
            const Real p = 1.0 + 0.3 * std::cos(0.5 * i + 0.2 * k);
            s(i, j, k, URHO) = rho;
            s(i, j, k, UMX) = rho * u;
            s(i, j, k, UMY) = rho * v;
            s(i, j, k, UMZ) = rho * w;
            s(i, j, k, UEDEN) = gas.totalEnergy(rho, u, v, w, p);
        });
    }

    /// The bit patterns of the viscous dU over `box`.
    std::vector<std::uint64_t> run(const SgsModel& sgs) const {
        FArrayBox dU(box, NCONS, 0.0);
        viscousFlux(S.const_array(), metrics.const_array(), box, dU.array(), dxi, gas,
                    KernelVariant::Portable, sgs);
        std::vector<std::uint64_t> out;
        auto a = dU.const_array();
        for (int n = 0; n < NCONS; ++n)
            amr::forEachCell(box, [&](int i, int j, int k) {
                out.push_back(std::bit_cast<std::uint64_t>(a(i, j, k, n)));
            });
        return out;
    }
};

// Kernel 2 runs the stress and heat flux of adjacent cells along i as SIMD
// lanes (the SGS model off) and each row's last `len % W` cells as scalars,
// through one template in the scalar operation order: every lane width the
// host runs must reproduce width 1 (all scalar) bit for bit. The rows are
// len + 4 cells long, so the i-lengths give every remainder mod 8. With the
// SGS model on, every width runs the scalar path and must match too.
TEST(ViscousLanes, EveryWidthBitwiseEqualsScalar) {
    const std::vector<int> widths = detail::supportedLaneWidths();
    for (const int len : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33}) {
        const LaneFixture fx(len);
        for (const Real cs : {0.0, 0.17}) {
            SgsModel sgs;
            sgs.cs = cs;
            std::vector<std::uint64_t> scalar;
            {
                const detail::ScopedLaneWidth pin(1);
                scalar = fx.run(sgs);
            }
            for (const int width : widths) {
                const detail::ScopedLaneWidth pin(width);
                EXPECT_TRUE(fx.run(sgs) == scalar)
                    << "width " << width << " len " << len << " cs " << cs;
            }
        }
    }
}

} // namespace
} // namespace crocco::core
