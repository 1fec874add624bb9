#include "core/Weno.hpp"

#include "amr/FArrayBox.hpp"
#include "amr/Geometry.hpp"
#include "mesh/CoordStore.hpp"
#include "mesh/GridMetrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace crocco::core {
namespace {

using amr::Box;
using amr::FArrayBox;
using amr::Geometry;
using amr::IntVect;

/// One periodic single-fab level on a chosen mapping, with coords/metrics
/// and a conserved-state fab filled from a primitive-field functor.
struct KernelFixture {
    Geometry geom;
    FArrayBox coords, metrics, S, dU;
    GasModel gas;

    KernelFixture(std::shared_ptr<const mesh::Mapping> mapping, int n,
                  const std::function<std::array<Real, 5>(Real, Real, Real)>& prim) {
        geom = Geometry(Box(IntVect::zero(), IntVect(n - 1)), {0, 0, 0},
                        {1, 1, 1}, amr::Periodicity::all());
        mesh::CoordStore store(std::move(mapping), geom, IntVect(2), 0,
                               NGHOST + 3);
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
            // Periodic state: evaluate the field at the wrapped coordinate.
            IntVect p{i, j, k};
            IntVect w = p;
            for (int d = 0; d < 3; ++d)
                w[d] = ((w[d] % n) + n) % n;
            const auto q = prim(x(w[0], w[1], w[2], 0), x(w[0], w[1], w[2], 1),
                                x(w[0], w[1], w[2], 2));
            const Real rho = q[0], u = q[1], v = q[2], ww = q[3], pp = q[4];
            s(i, j, k, URHO) = rho;
            s(i, j, k, UMX) = rho * u;
            s(i, j, k, UMY) = rho * v;
            s(i, j, k, UMZ) = rho * ww;
            s(i, j, k, UEDEN) = gas.totalEnergy(rho, u, v, ww, pp);
        });
        dU = FArrayBox(geom.domain(), NCONS, 0.0);
    }

    void runWeno(KernelVariant variant, WenoScheme scheme = WenoScheme::Symbo) {
        for (int dir = 0; dir < 3; ++dir) {
            wenoFlux(dir, S.const_array(), metrics.const_array(), geom.domain(),
                     dU.array(), geom.cellSize(dir), gas, scheme, variant);
        }
    }
};

std::shared_ptr<const mesh::Mapping> uniformMap() {
    return std::make_shared<mesh::UniformMapping>(std::array<Real, 3>{0, 0, 0},
                                                  std::array<Real, 3>{1, 1, 1});
}
std::shared_ptr<const mesh::Mapping> wavyMap(double amp) {
    return std::make_shared<mesh::WavyMapping>(std::array<Real, 3>{0, 0, 0},
                                               std::array<Real, 3>{1, 1, 1}, amp);
}

TEST(WenoKernel, FreeStreamPreservedOnUniformGrid) {
    // Constant state on a uniform grid: RHS must vanish to round-off.
    KernelFixture fx(uniformMap(), 12, [](Real, Real, Real) {
        return std::array<Real, 5>{1.2, 0.7, -0.3, 0.4, 2.0};
    });
    fx.runWeno(KernelVariant::Portable);
    for (int nc = 0; nc < NCONS; ++nc) {
        EXPECT_NEAR(fx.dU.max(fx.geom.domain(), nc), 0.0, 1e-10) << nc;
        EXPECT_NEAR(fx.dU.min(fx.geom.domain(), nc), 0.0, 1e-10) << nc;
    }
}

TEST(WenoKernel, FreeStreamErrorSmallAndConvergingOnCurvedGrid) {
    // On a curvilinear grid the discrete GCL is violated at truncation
    // order: constant flow produces a small residual that shrinks under
    // refinement.
    auto constPrim = [](Real, Real, Real) {
        return std::array<Real, 5>{1.0, 1.0, 0.5, 0.25, 1.0};
    };
    double errs[2];
    for (int r = 0; r < 2; ++r) {
        KernelFixture fx(wavyMap(0.02), r == 0 ? 8 : 16, constPrim);
        fx.runWeno(KernelVariant::Portable);
        double worst = 0.0;
        auto a = fx.dU.const_array();
        amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
            for (int nc = 0; nc < NCONS; ++nc)
                worst = std::max(worst, std::abs(a(i, j, k, nc)));
        });
        errs[r] = worst;
    }
    EXPECT_LT(errs[1], errs[0]);
    EXPECT_LT(errs[1], 0.5);
}

class VariantEquivalence : public ::testing::TestWithParam<WenoScheme> {};

TEST_P(VariantEquivalence, FortranStyleMatchesPortableWithinPaperTolerance) {
    // §IV-A: the L2 norm of the per-variable difference between the two
    // kernel structures plateaued at ~1e-7 for the paper's (different-
    // language) versions; our two C++ structures share arithmetic order per
    // point — the Portable SIMD lanes run the scalar operation sequence — so
    // they agree far tighter than that bound: bit for bit.
    auto prim = [](Real x, Real y, Real z) {
        return std::array<Real, 5>{1.0 + 0.2 * std::sin(2 * M_PI * x),
                                   0.5 * std::cos(2 * M_PI * y),
                                   0.1 * std::sin(2 * M_PI * z), 0.05,
                                   1.0 + 0.1 * std::cos(2 * M_PI * x)};
    };
    KernelFixture a(wavyMap(0.02), 12, prim);
    KernelFixture b(wavyMap(0.02), 12, prim);
    a.runWeno(KernelVariant::Portable, GetParam());
    b.runWeno(KernelVariant::FortranStyle, GetParam());
    for (int nc = 0; nc < NCONS; ++nc) {
        const Real l2 = FArrayBox::l2Diff(a.dU, b.dU, a.geom.domain(), nc);
        EXPECT_LT(l2, 1e-7) << "component " << nc; // the paper's criterion
        EXPECT_LT(l2, 1e-11) << "component " << nc; // and our stricter one
    }
    auto pa = a.dU.const_array(), pb = b.dU.const_array();
    int differing = 0;
    for (int nc = 0; nc < NCONS; ++nc)
        amr::forEachCell(a.geom.domain(), [&](int i, int j, int k) {
            differing += std::bit_cast<std::uint64_t>(pa(i, j, k, nc)) !=
                         std::bit_cast<std::uint64_t>(pb(i, j, k, nc));
        });
    EXPECT_EQ(differing, 0) << "values not bitwise equal"; // and the exact one
}

INSTANTIATE_TEST_SUITE_P(Schemes, VariantEquivalence,
                         ::testing::Values(WenoScheme::JS5, WenoScheme::Symbo));

TEST(WenoKernel, ConservesOnPeriodicUniformGrid) {
    // Sum of J * dU over a periodic domain telescopes to zero.
    auto prim = [](Real x, Real y, Real) {
        return std::array<Real, 5>{1.0 + 0.3 * std::sin(2 * M_PI * x),
                                   0.4 * std::sin(2 * M_PI * y), 0.1, -0.2,
                                   1.0 + 0.2 * std::cos(2 * M_PI * x)};
    };
    KernelFixture fx(uniformMap(), 16, prim);
    fx.runWeno(KernelVariant::Portable);
    auto a = fx.dU.const_array();
    auto m = fx.metrics.const_array();
    for (int nc = 0; nc < NCONS; ++nc) {
        Real total = 0.0;
        amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
            total += a(i, j, k, nc) * mesh::jacobian(m, i, j, k);
        });
        EXPECT_NEAR(total, 0.0, 1e-9) << "component " << nc;
    }
}

TEST(WenoKernel, AdvectsDensityWaveInRightDirection) {
    // rho-wave moving with u > 0: d(rho)/dt = -u d(rho)/dx; check the sign
    // and approximate magnitude against the analytic RHS.
    const Real u0 = 0.5;
    auto prim = [u0](Real x, Real, Real) {
        return std::array<Real, 5>{1.0 + 0.01 * std::sin(2 * M_PI * x), u0, 0.0,
                                   0.0, 1.0};
    };
    KernelFixture fx(uniformMap(), 32, prim);
    fx.runWeno(KernelVariant::Portable, WenoScheme::JS5);
    auto a = fx.dU.const_array();
    auto x = fx.coords.const_array();
    double worst = 0.0;
    amr::forEachCell(fx.geom.domain(), [&](int i, int j, int k) {
        const Real exact = -u0 * 0.01 * 2 * M_PI * std::cos(2 * M_PI * x(i, j, k, 0));
        worst = std::max(worst, std::abs(a(i, j, k, URHO) - exact));
    });
    EXPECT_LT(worst, 2e-3);
}

} // namespace
} // namespace crocco::core
