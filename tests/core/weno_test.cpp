#include "core/Weno.hpp"

#include "core/LaneWidth.hpp"

#include "amr/FArrayBox.hpp"
#include "gpu/Gpu.hpp"
#include "mesh/GridMetrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace crocco::core {
namespace {

using amr::IntVect;

class WenoScheme_P : public ::testing::TestWithParam<WenoScheme> {};

TEST_P(WenoScheme_P, ReproducesConstants) {
    const Real f[6] = {3.5, 3.5, 3.5, 3.5, 3.5, 3.5};
    EXPECT_NEAR(wenoReconstruct(f, GetParam()), 3.5, 1e-13);
}

TEST_P(WenoScheme_P, ReproducesLinearData) {
    // Linear data has identical candidate reconstructions, so the nonlinear
    // weights are irrelevant and the result is the exact midpoint value.
    Real f[6];
    for (int i = 0; i < 6; ++i) f[i] = 2.0 * (i - 2) + 1.0; // cell i is f[2]
    EXPECT_NEAR(wenoReconstruct(f, GetParam()), 2.0 * 0.5 + 1.0, 1e-12);
}

TEST_P(WenoScheme_P, FluxDifferenceIsHighOrderOnSmoothData) {
    // Finite-difference WENO reconstructs the numerical flux h(x_{i+1/2}),
    // not f(x_{i+1/2}) itself: the high-order property is that the flux
    // *difference* approximates the derivative, (R_{i+1/2} - R_{i-1/2})/h =
    // f'(x_i) + O(h^5) for the linear scheme. Measure that order.
    auto runAt = [&](double h) {
        Real lo[6], hi[6];
        for (int i = 0; i < 6; ++i) {
            lo[i] = std::sin(1.0 + (i - 3) * h); // window for i-1/2
            hi[i] = std::sin(1.0 + (i - 2) * h); // window for i+1/2
        }
        const double deriv =
            (wenoReconstruct(hi, GetParam()) - wenoReconstruct(lo, GetParam())) / h;
        return std::abs(deriv - std::cos(1.0));
    };
    const double e1 = runAt(0.2), e2 = runAt(0.1);
    EXPECT_GT(std::log2(e1 / e2), 3.5) << e1 << " " << e2;
}

TEST_P(WenoScheme_P, NonOscillatoryAtJump) {
    // A step must not produce values outside [min, max] of the data (ENO
    // property, small epsilon-tolerance allowed).
    const Real f[6] = {1.0, 1.0, 1.0, 10.0, 10.0, 10.0};
    const Real v = wenoReconstruct(f, GetParam());
    EXPECT_GE(v, 1.0 - 0.02);
    EXPECT_LE(v, 10.0 + 0.02);
    const Real g[6] = {10.0, 10.0, 10.0, 1.0, 1.0, 1.0};
    const Real w = wenoReconstruct(g, GetParam());
    EXPECT_GE(w, 1.0 - 0.02);
    EXPECT_LE(w, 10.0 + 0.02);
}

TEST_P(WenoScheme_P, UpwindBiasAtDownstreamShock) {
    // With a discontinuity in the downwind half of the window, the
    // left-biased reconstruction must come from the smooth upwind data.
    const Real f[6] = {2.0, 2.0, 2.0, 2.0, 50.0, 50.0};
    const Real v = wenoReconstruct(f, GetParam());
    EXPECT_NEAR(v, 2.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Schemes, WenoScheme_P,
                         ::testing::Values(WenoScheme::JS5, WenoScheme::Symbo));

TEST(WenoSymbo, UsesDownwindInformationOnSmoothData) {
    // SYMBO's raison d'etre: on smooth data the downwind stencil
    // participates, giving a different (bandwidth-optimized) value than the
    // purely upwind JS5.
    Real f[6];
    for (int i = 0; i < 6; ++i) f[i] = std::sin(0.8 * (i - 2));
    const Real js = wenoReconstruct(f, WenoScheme::JS5);
    const Real sy = wenoReconstruct(f, WenoScheme::Symbo);
    EXPECT_GT(std::abs(js - sy), 1e-8);
    // And SYMBO is *closer* to symmetric than JS5 (its candidate set is
    // symmetric even though its optimized weights retain an upwind bias):
    // the mirror-image window reconstructs closer to the original value.
    Real g[6];
    for (int i = 0; i < 6; ++i) g[i] = f[5 - i];
    const Real asymSy = std::abs(wenoReconstruct(g, WenoScheme::Symbo) - sy);
    const Real asymJs = std::abs(wenoReconstruct(g, WenoScheme::JS5) - js);
    EXPECT_LT(asymSy, asymJs);
}

TEST(WenoSymbo, SharperThanJs5OnSmoothData) {
    // The added downwind stencil raises the design order on smooth data:
    // SYMBO's reconstruction error should beat JS5's.
    double ejs = 0, esy = 0;
    for (int t = 0; t < 10; ++t) {
        const double x0 = 0.3 * t;
        const double h = 0.2;
        Real f[6];
        for (int i = 0; i < 6; ++i) f[i] = std::sin(x0 + (i - 2) * h);
        const double exact = std::sin(x0 + 0.5 * h);
        ejs += std::abs(wenoReconstruct(f, WenoScheme::JS5) - exact);
        esy += std::abs(wenoReconstruct(f, WenoScheme::Symbo) - exact);
    }
    EXPECT_LT(esy, ejs);
}

/// One fab on a wavy curvilinear grid with a smooth state plus a density
/// jump, so WENO weights, metrics and the characteristic projection all
/// vary from cell to cell.
struct TileFixture {
    amr::FArrayBox coords, metrics, S;
    GasModel gas;
    std::array<Real, 3> dxi{0.1, 0.15, 0.2};

    /// `jump` is the density jump across the plane i + j = 7 (0: smooth).
    explicit TileFixture(const Box& box, Real jump = 1.5) {
        const Box grown = box.grow(NGHOST);
        coords = amr::FArrayBox(box.grow(NGHOST + 3), 3);
        auto x = coords.array();
        amr::forEachCell(coords.box(), [&](int i, int j, int k) {
            const Real a = dxi[0] * i, b = dxi[1] * j, c = dxi[2] * k;
            x(i, j, k, 0) = a + 0.02 * std::sin(3.0 * b + 1.0 * c);
            x(i, j, k, 1) = b + 0.03 * std::sin(2.0 * a + 0.5 * c);
            x(i, j, k, 2) = c + 0.01 * std::cos(1.5 * a + b);
        });
        metrics = amr::FArrayBox(grown, mesh::MetricComps);
        mesh::computeMetricsFab(coords.const_array(), metrics.array(), grown, dxi);
        S = amr::FArrayBox(grown, NCONS);
        auto s = S.array();
        amr::forEachCell(grown, [&](int i, int j, int k) {
            const Real rho = 1.0 + 0.2 * std::sin(0.7 * i + 0.3 * j) +
                             (i + j > 6 ? jump : 0.0);
            const Real u = 0.5 + 0.1 * std::cos(0.4 * k), v = -0.2, w = 0.1 * std::sin(0.9 * j);
            const Real p = 1.0 + 0.3 * std::cos(0.5 * i + 0.2 * k);
            s(i, j, k, URHO) = rho;
            s(i, j, k, UMX) = rho * u;
            s(i, j, k, UMY) = rho * v;
            s(i, j, k, UMZ) = rho * w;
            s(i, j, k, UEDEN) = gas.totalEnergy(rho, u, v, w, p);
        });
    }
};

/// The bit patterns of every value of `fab` (so 0.0 and -0.0 differ).
std::vector<std::uint64_t> fabBits(const amr::FArrayBox& fab) {
    std::vector<std::uint64_t> out;
    auto a = fab.const_array();
    for (int n = 0; n < fab.nComp(); ++n)
        amr::forEachCell(fab.box(), [&](int i, int j, int k) {
            out.push_back(std::bit_cast<std::uint64_t>(a(i, j, k, n)));
        });
    return out;
}

// A tile list is a decomposition of the fab's sweep, not a new scheme: every
// cell keeps its per-cell expression, so dU is bitwise the whole-fab dU —
// for boxes shorter than one tile and for lengths that are not a multiple
// of the tile length.
TEST(WenoTiles, TiledSweepBitwiseEqualsWholeFab) {
    const Box boxes[] = {Box(IntVect{0, 0, 0}, IntVect{4, 5, 6}),
                         Box(IntVect{-3, 2, 1}, IntVect{15, 14, 10})};
    for (const Box& box : boxes) {
        const TileFixture fx(box);
        for (KernelVariant variant :
             {KernelVariant::Portable, KernelVariant::FortranStyle}) {
            for (Reconstruction recon :
                 {Reconstruction::ComponentWise, Reconstruction::CharacteristicWise}) {
                for (int dir = 0; dir < 3; ++dir) {
                    const auto d = static_cast<std::size_t>(dir);
                    amr::FArrayBox whole(box, NCONS, 0.0), tiled(box, NCONS, 0.0);
                    wenoFlux(dir, fx.S.const_array(), fx.metrics.const_array(), box,
                             whole.array(), fx.dxi[d], fx.gas, WenoScheme::Symbo,
                             variant, recon);
                    const auto tiles = gpu::sweepTiles({box}, dir);
                    gpu::ParallelForTiles(tiles, [&](const gpu::FabTile& t) {
                        wenoFlux(dir, fx.S.const_array(), fx.metrics.const_array(),
                                 t.box, tiled.array(), fx.dxi[d], fx.gas,
                                 WenoScheme::Symbo, variant, recon);
                    });
                    EXPECT_TRUE(fabBits(tiled) == fabBits(whole))
                        << "box " << box << " dir " << dir << " variant "
                        << static_cast<int>(variant) << " recon "
                        << static_cast<int>(recon) << " tiles " << tiles.size();
                }
            }
        }
    }
}

// The Portable kernel 2 evaluates adjacent faces along i as SIMD lanes and
// the faces left over at the end of each row as scalars; FortranStyle (the
// paper's Fig. 3 baseline) evaluates every face as a scalar. Both run the
// one reconstruction template, so the lanes must reproduce the scalar bits
// exactly, at every lane width the host runs (1 = all faces scalar, 2 =
// SSE2, 4 = AVX2). The i-lengths give rows shorter than a step, whole
// steps, and every remainder mod 8 (faces per row: len + 1 along i, len
// along j and k). The shocked state's jump sits at i = 7 - j for j in
// [0, 7], so across the rows it lands in every lane of a step of up to 8
// faces: SYMBO's limiter drops the downwind stencil in the lanes whose
// windows straddle the jump and keeps it in the others of the step.
TEST(WenoLanes, PortableBitwiseEqualsFortranStyle) {
    const std::vector<int> widths = detail::supportedLaneWidths();
    for (const Real jump : {0.0, 1.5}) {
        for (const int len : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33}) {
            const Box box(IntVect{-1, 0, 1}, IntVect{len - 2, 7, 4});
            const TileFixture fx(box, jump);
            for (WenoScheme scheme : {WenoScheme::JS5, WenoScheme::Symbo}) {
                for (Reconstruction recon : {Reconstruction::ComponentWise,
                                             Reconstruction::CharacteristicWise}) {
                    for (int dir = 0; dir < 3; ++dir) {
                        const auto d = static_cast<std::size_t>(dir);
                        amr::FArrayBox scalar(box, NCONS, 0.0);
                        wenoFlux(dir, fx.S.const_array(), fx.metrics.const_array(), box,
                                 scalar.array(), fx.dxi[d], fx.gas, scheme,
                                 KernelVariant::FortranStyle, recon);
                        for (const int width : widths) {
                            const detail::ScopedLaneWidth pin(width);
                            amr::FArrayBox lanes(box, NCONS, 0.0);
                            wenoFlux(dir, fx.S.const_array(), fx.metrics.const_array(),
                                     box, lanes.array(), fx.dxi[d], fx.gas, scheme,
                                     KernelVariant::Portable, recon);
                            EXPECT_TRUE(fabBits(lanes) == fabBits(scalar))
                                << "width " << width << " jump " << jump << " len "
                                << len << " scheme " << static_cast<int>(scheme)
                                << " recon " << static_cast<int>(recon) << " dir "
                                << dir;
                        }
                    }
                }
            }
        }
    }
}

/// The widest lane width this build ships that the CPU runs, asked
/// independently of the dispatch.
int widestShippedWidth() {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) return 4;
#endif
    return 2;
}

// The dispatch picks the widest shipped width by itself, refuses a width
// the build does not ship or the CPU cannot run before any kernel runs, and
// a reset restores the automatic choice.
TEST(LaneDispatch, AutoWidthOverrideAndReset) {
    const std::vector<int> widths = detail::supportedLaneWidths();
    ASSERT_FALSE(widths.empty());
    EXPECT_EQ(widths.front(), 1);
    EXPECT_EQ(widths.back(), widestShippedWidth());
    EXPECT_EQ(detail::laneWidth(), widestShippedWidth());

    const std::uint64_t launches = gpu::LaunchStats::count();
    for (const int bad : {0, -2, 3, 6, 16, 2 * widestShippedWidth()})
        EXPECT_THROW(detail::setLaneWidthForTesting(bad), std::invalid_argument)
            << "width " << bad;
    EXPECT_EQ(gpu::LaunchStats::count(), launches);
    EXPECT_EQ(detail::laneWidth(), widestShippedWidth());

    for (const int width : widths) {
        detail::setLaneWidthForTesting(width);
        EXPECT_EQ(detail::laneWidth(), width);
        detail::resetLaneWidth();
        EXPECT_EQ(detail::laneWidth(), widestShippedWidth());
    }
}

} // namespace
} // namespace crocco::core
