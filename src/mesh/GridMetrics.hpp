#pragma once

#include "amr/Array4.hpp"
#include "amr/Box.hpp"

#include <array>

namespace crocco::mesh {

using amr::Array4;
using amr::Box;
using amr::Real;

/// Grid-metric storage layout (§III-C "Data management"): solving on
/// generalized curvilinear grids needs high-order reconstructions of the
/// first and second derivatives of the computational coordinates (ξ, η, ζ)
/// with respect to physical (x, y, z) — 9 first + 18 symmetric second
/// derivatives = the paper's 27-component metrics MultiFab.
inline constexpr int MetricComps = 27;

/// Component of ∂ξ_d/∂x_j.
constexpr int metric1(int d, int j) { return 3 * d + j; }

/// Component of ∂²ξ_d/∂x_j∂x_k (symmetric in j,k).
constexpr int metric2(int d, int j, int k) {
    // Voigt order: (0,0) (1,1) (2,2) (1,2) (0,2) (0,1)
    const int a = j < k ? j : k;
    const int b = j < k ? k : j;
    const int sym = (a == b) ? a : (a == 1 ? 3 : (b == 2 ? 4 : 5));
    return 9 + 6 * d + sym;
}

/// Jacobian determinant J = det(∂x/∂ξ) recovered from the stored inverse
/// metrics at one cell (J is not stored; the kernels recompute this cheap
/// 3x3 determinant, keeping the metrics MultiFab at 27 components).
/// Inline: the WENO, viscous and fused kernels and the conservation sums
/// call it once per cell.
inline Real jacobian(const Array4<const Real>& metrics, int i, int j, int k) {
    // det(M) = 1/J for M = ∂ξ/∂x.
    const Real a00 = metrics(i, j, k, metric1(0, 0));
    const Real a01 = metrics(i, j, k, metric1(0, 1));
    const Real a02 = metrics(i, j, k, metric1(0, 2));
    const Real a10 = metrics(i, j, k, metric1(1, 0));
    const Real a11 = metrics(i, j, k, metric1(1, 1));
    const Real a12 = metrics(i, j, k, metric1(1, 2));
    const Real a20 = metrics(i, j, k, metric1(2, 0));
    const Real a21 = metrics(i, j, k, metric1(2, 1));
    const Real a22 = metrics(i, j, k, metric1(2, 2));
    const Real detM = a00 * (a11 * a22 - a12 * a21) -
                      a01 * (a10 * a22 - a12 * a20) +
                      a02 * (a10 * a21 - a11 * a20);
    return 1.0 / detM;
}

/// Compute the 27 metric components over `region` of one fab.
/// `coords` must provide cell-center physical coordinates on
/// region.grow(3): first metrics use 4th-order central differences
/// (±2 cells) and second metrics difference the first metrics once more
/// (±1 cell). `dxi` is the computational cell spacing.
/// Each value depends only on the coordinates within ±3 cells, never on
/// `region`, so any sub-box computes the same bits as the whole fab. The
/// solver's level driver (core::buildLevelGeometry) relies on this to copy
/// surviving cells across a regrid and compute only the remainder.
void computeMetricsFab(const Array4<const Real>& coords, const Array4<Real>& metrics,
                       const Box& region, const std::array<Real, 3>& dxi);

/// Discrete geometric-conservation-law residual max-norm over `region`:
/// max_j | Σ_d ∂(J·∂ξ_d/∂x_j)/∂ξ_d |. Zero in exact arithmetic on any grid;
/// truncation-order small for the discrete metrics. The free-stream
/// preservation tests bound this.
Real gclResidual(const Array4<const Real>& metrics, const Box& region,
                 const std::array<Real, 3>& dxi);

} // namespace crocco::mesh
