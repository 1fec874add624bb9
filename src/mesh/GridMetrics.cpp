#include "mesh/GridMetrics.hpp"

#include "amr/FArrayBox.hpp"

#include <cmath>

namespace crocco::mesh {

using amr::FArrayBox;
using amr::IntVect;

namespace {

/// 4th-order central first derivative along dimension d of component m.
inline Real d1(const Array4<const Real>& f, int i, int j, int k, int m, int d,
               Real invdx) {
    const IntVect e = IntVect::basis(d);
    return (-f(i + 2 * e[0], j + 2 * e[1], k + 2 * e[2], m) +
            8.0 * f(i + e[0], j + e[1], k + e[2], m) -
            8.0 * f(i - e[0], j - e[1], k - e[2], m) +
            f(i - 2 * e[0], j - 2 * e[1], k - 2 * e[2], m)) *
           (invdx / 12.0);
}

/// 2nd-order central first derivative (used for the second metrics).
inline Real d1c2(const Array4<const Real>& f, int i, int j, int k, int m, int d,
                 Real invdx) {
    const IntVect e = IntVect::basis(d);
    return (f(i + e[0], j + e[1], k + e[2], m) -
            f(i - e[0], j - e[1], k - e[2], m)) *
           (0.5 * invdx);
}

/// Invert a 3x3 matrix T (rows: physical dims, cols: computational dims);
/// returns det(T).
inline Real invert3x3(const Real T[3][3], Real M[3][3]) {
    const Real det = T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1]) -
                     T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0]) +
                     T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0]);
    const Real inv = 1.0 / det;
    M[0][0] = (T[1][1] * T[2][2] - T[1][2] * T[2][1]) * inv;
    M[0][1] = (T[0][2] * T[2][1] - T[0][1] * T[2][2]) * inv;
    M[0][2] = (T[0][1] * T[1][2] - T[0][2] * T[1][1]) * inv;
    M[1][0] = (T[1][2] * T[2][0] - T[1][0] * T[2][2]) * inv;
    M[1][1] = (T[0][0] * T[2][2] - T[0][2] * T[2][0]) * inv;
    M[1][2] = (T[0][2] * T[1][0] - T[0][0] * T[1][2]) * inv;
    M[2][0] = (T[1][0] * T[2][1] - T[1][1] * T[2][0]) * inv;
    M[2][1] = (T[0][1] * T[2][0] - T[0][0] * T[2][1]) * inv;
    M[2][2] = (T[0][0] * T[1][1] - T[0][1] * T[1][0]) * inv;
    return det;
}

} // namespace

void computeMetricsFab(const Array4<const Real>& coords, const Array4<Real>& metrics,
                       const Box& region, const std::array<Real, 3>& dxi) {
    // Pass 1: first metrics M = (∂x/∂ξ)^-1 on region.grow(1), held in a
    // scratch fab so pass 2 can difference them.
    const Box r1 = region.grow(1);
    FArrayBox firstTmp(r1, 9);
    auto first = firstTmp.array();
    amr::forEachCell(r1, [&](int i, int j, int k) {
        Real T[3][3], M[3][3];
        for (int m = 0; m < 3; ++m)
            for (int d = 0; d < 3; ++d)
                T[m][d] = d1(coords, i, j, k, m, d, 1.0 / dxi[d]);
        invert3x3(T, M);
        for (int d = 0; d < 3; ++d)
            for (int m = 0; m < 3; ++m) first(i, j, k, metric1(d, m)) = M[d][m];
    });

    auto firstC = firstTmp.const_array();
    amr::forEachCell(region, [&](int i, int j, int k) {
        for (int n = 0; n < 9; ++n) metrics(i, j, k, n) = firstC(i, j, k, n);
        // Second metrics by the chain rule:
        //   ∂²ξ_d/∂x_j∂x_k = Σ_e (∂ξ_e/∂x_k) ∂(∂ξ_d/∂x_j)/∂ξ_e
        for (int d = 0; d < 3; ++d) {
            for (int jj = 0; jj < 3; ++jj) {
                for (int kk = jj; kk < 3; ++kk) {
                    Real s = 0.0;
                    for (int e = 0; e < 3; ++e) {
                        s += firstC(i, j, k, metric1(e, kk)) *
                             d1c2(firstC, i, j, k, metric1(d, jj), e, 1.0 / dxi[e]);
                    }
                    metrics(i, j, k, metric2(d, jj, kk)) = s;
                }
            }
        }
    });
}

Real gclResidual(const Array4<const Real>& metrics, const Box& region,
                 const std::array<Real, 3>& dxi) {
    Real worst = 0.0;
    amr::forEachCell(region, [&](int i, int j, int k) {
        for (int m = 0; m < 3; ++m) {
            Real r = 0.0;
            for (int d = 0; d < 3; ++d) {
                const IntVect e = IntVect::basis(d);
                // 2nd-order central difference of J * ∂ξ_d/∂x_m along ξ_d.
                const Real fp = jacobian(metrics, i + e[0], j + e[1], k + e[2]) *
                                metrics(i + e[0], j + e[1], k + e[2], metric1(d, m));
                const Real fm = jacobian(metrics, i - e[0], j - e[1], k - e[2]) *
                                metrics(i - e[0], j - e[1], k - e[2], metric1(d, m));
                r += (fp - fm) / (2.0 * dxi[d]);
            }
            worst = std::max(worst, std::abs(r));
        }
    });
    return worst;
}

} // namespace crocco::mesh
