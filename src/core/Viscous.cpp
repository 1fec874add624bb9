#include "core/Viscous.hpp"

#include "amr/FArrayBox.hpp"
#include "gpu/Gpu.hpp"
#include "mesh/GridMetrics.hpp"

#include <cassert>

namespace crocco::core {

using amr::FArrayBox;
using amr::IntVect;
using mesh::jacobian;
using mesh::metric1;

namespace {

/// 4th-order central first derivative of scratch component m along dim d.
inline Real d1(const Array4<const Real>& f, int i, int j, int k, int m, int d,
               Real invdx) {
    const IntVect e = IntVect::basis(d);
    return (-f(i + 2 * e[0], j + 2 * e[1], k + 2 * e[2], m) +
            8.0 * f(i + e[0], j + e[1], k + e[2], m) -
            8.0 * f(i - e[0], j - e[1], k - e[2], m) +
            f(i - 2 * e[0], j - 2 * e[1], k - 2 * e[2], m)) *
           (invdx / 12.0);
}

// Scratch component layout.
constexpr int QU = 0, QV = 1, QW = 2, QT = 3, QRHO = 4, NPRIM = 5;
/// Contravariant viscous flux Theta^d: 3 momentum + 1 energy per direction.
constexpr int thetaComp(int d, int m) { return 4 * d + m; }

/// The SGS eddy viscosity at one cell from the physical velocity gradients
/// gu[a][b] = du_a/dx_b and the cell's Jacobian. 0.0 when the model is off
/// (exactly what SgsModel::eddyViscosity returns then), without the filter
/// width's cbrt.
inline Real sgsEddyViscosity(const SgsModel& sgs, const Real gu[3][3], Real J,
                             const std::array<Real, 3>& dxi, Real rho) {
    if (!sgs.active()) return 0.0;
    const Real delta = SgsModel::filterWidth(J * dxi[0] * dxi[1] * dxi[2]);
    return sgs.eddyViscosity(gu, rho, delta);
}

} // namespace

void viscousFlux(const Array4<const Real>& S, const Array4<const Real>& metrics,
                 const Box& validBox, const Array4<Real>& dU,
                 const std::array<Real, 3>& dxi, const GasModel& gas,
                 KernelVariant /*variant: both code paths share this staged
                                  implementation; the Fortran/C++ structural
                                  difference the paper measures is dominated
                                  by the WENO kernels (see Weno.cpp)*/,
                 const SgsModel& sgs) {
    assert(gas.viscous() || sgs.active());

    // Kernel 1: primitive fields over the widest region (pass 2 reads +-2).
    const Box primBox = validBox.grow(4);
    FArrayBox primFab(primBox, NPRIM);
    auto q = primFab.array();
    gpu::ParallelFor(primBox, [&](int i, int j, int k) {
        const Prim p = toPrim(S, i, j, k, gas);
        q(i, j, k, QU) = p.u;
        q(i, j, k, QV) = p.v;
        q(i, j, k, QW) = p.w;
        q(i, j, k, QT) = gas.temperature(p.rho, p.p);
        q(i, j, k, QRHO) = p.rho;
    });

    // Kernel 2: stress tensor, heat flux, and the contravariant viscous
    // fluxes Theta^d at every cell the divergence stencil reads.
    const Box fluxBox = validBox.grow(2);
    FArrayBox thetaFab(fluxBox, 12);
    auto th = thetaFab.array();
    auto qc = primFab.const_array();
    gpu::ParallelFor(fluxBox, [&](int i, int j, int k) {
        // Physical-space gradients by the chain rule:
        // dphi/dx_m = sum_d (dxi_d/dx_m) dphi/dxi_d.
        Real gxi[NPRIM][3]; // computational gradients
        for (int m = 0; m < NPRIM; ++m)
            for (int d = 0; d < 3; ++d)
                gxi[m][d] = d1(qc, i, j, k, m, d, 1.0 / dxi[static_cast<std::size_t>(d)]);
        Real M[3][3];
        for (int d = 0; d < 3; ++d)
            for (int m = 0; m < 3; ++m) M[d][m] = metrics(i, j, k, metric1(d, m));
        Real gu[3][3], gT[3];
        for (int m = 0; m < 3; ++m) {
            for (int vc = 0; vc < 3; ++vc) {
                gu[vc][m] = 0.0;
                for (int d = 0; d < 3; ++d) gu[vc][m] += M[d][m] * gxi[vc][d];
            }
            gT[m] = 0.0;
            for (int d = 0; d < 3; ++d) gT[m] += M[d][m] * gxi[QT][d];
        }
        const Real Jloc = jacobian(metrics, i, j, k);
        const Real muT = sgsEddyViscosity(sgs, gu, Jloc, dxi, qc(i, j, k, QRHO));
        const Real mu = gas.viscosity(qc(i, j, k, QT)) + muT;
        const Real lambda = gas.conductivity(qc(i, j, k, QT)) +
                            muT * gas.cp() / sgs.prandtlT;
        const Real divu = gu[0][0] + gu[1][1] + gu[2][2];
        Real tau[3][3];
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                tau[a][b] = mu * (gu[a][b] + gu[b][a] -
                                  (a == b ? (2.0 / 3.0) * divu : 0.0));
        const Real u[3] = {qc(i, j, k, QU), qc(i, j, k, QV), qc(i, j, k, QW)};
        const Real J = Jloc;
        for (int d = 0; d < 3; ++d) {
            for (int a = 0; a < 3; ++a) {
                Real s = 0.0;
                for (int b = 0; b < 3; ++b) s += M[d][b] * tau[a][b];
                th(i, j, k, thetaComp(d, a)) = J * s;
            }
            Real se = 0.0;
            for (int b = 0; b < 3; ++b) {
                Real work = lambda * gT[b];
                for (int a = 0; a < 3; ++a) work += u[a] * tau[a][b];
                se += M[d][b] * work;
            }
            th(i, j, k, thetaComp(d, 3)) = J * se;
        }
    });

    // Kernel 3: divergence of Theta into dU (viscous terms enter the RHS
    // with a positive sign).
    auto thc = thetaFab.const_array();
    gpu::ParallelFor(validBox, [&](int i, int j, int k) {
        const Real Jinv = 1.0 / jacobian(metrics, i, j, k);
        for (int d = 0; d < 3; ++d) {
            const Real invdx = 1.0 / dxi[static_cast<std::size_t>(d)];
            dU(i, j, k, UMX) += Jinv * d1(thc, i, j, k, thetaComp(d, 0), d, invdx);
            dU(i, j, k, UMY) += Jinv * d1(thc, i, j, k, thetaComp(d, 1), d, invdx);
            dU(i, j, k, UMZ) += Jinv * d1(thc, i, j, k, thetaComp(d, 2), d, invdx);
            dU(i, j, k, UEDEN) += Jinv * d1(thc, i, j, k, thetaComp(d, 3), d, invdx);
        }
    });
}

void viscousFluxFused(const Array4<const Real>& cache,
                      const Array4<const Real>& metrics, const Box& validBox,
                      const Array4<Real>& dU, const std::array<Real, 3>& dxi,
                      const GasModel& gas, const SgsModel& sgs) {
    assert(gas.viscous() || sgs.active());

    // Map the unfused scratch's component order (QU,QV,QW,QT,QRHO) onto the
    // shared-cache layout so the gradient loop runs in the identical order
    // over identical (bit-equal) operands.
    constexpr int cacheComp[NPRIM] = {fused::QC_U, fused::QC_V, fused::QC_W,
                                      fused::QC_T, fused::QC_RHO};

    // Kernel 1 (unfused kernel 2): theta from cached primitives.
    const Box fluxBox = validBox.grow(2);
    FArrayBox thetaFab(fluxBox, 12);
    auto th = thetaFab.array();
    gpu::ParallelFor(fluxBox, [&](int i, int j, int k) {
        Real gxi[NPRIM][3];
        for (int m = 0; m < NPRIM; ++m)
            for (int d = 0; d < 3; ++d)
                gxi[m][d] = d1(cache, i, j, k, cacheComp[m], d,
                               1.0 / dxi[static_cast<std::size_t>(d)]);
        Real M[3][3];
        for (int d = 0; d < 3; ++d)
            for (int m = 0; m < 3; ++m) M[d][m] = metrics(i, j, k, metric1(d, m));
        Real gu[3][3], gT[3];
        for (int m = 0; m < 3; ++m) {
            for (int vc = 0; vc < 3; ++vc) {
                gu[vc][m] = 0.0;
                for (int d = 0; d < 3; ++d) gu[vc][m] += M[d][m] * gxi[vc][d];
            }
            gT[m] = 0.0;
            for (int d = 0; d < 3; ++d) gT[m] += M[d][m] * gxi[QT][d];
        }
        const Real Jloc = cache(i, j, k, fused::QC_J);
        const Real muT =
            sgsEddyViscosity(sgs, gu, Jloc, dxi, cache(i, j, k, fused::QC_RHO));
        const Real mu = gas.viscosity(cache(i, j, k, fused::QC_T)) + muT;
        const Real lambda = gas.conductivity(cache(i, j, k, fused::QC_T)) +
                            muT * gas.cp() / sgs.prandtlT;
        const Real divu = gu[0][0] + gu[1][1] + gu[2][2];
        Real tau[3][3];
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                tau[a][b] = mu * (gu[a][b] + gu[b][a] -
                                  (a == b ? (2.0 / 3.0) * divu : 0.0));
        const Real u[3] = {cache(i, j, k, fused::QC_U),
                           cache(i, j, k, fused::QC_V),
                           cache(i, j, k, fused::QC_W)};
        const Real J = Jloc;
        for (int d = 0; d < 3; ++d) {
            for (int a = 0; a < 3; ++a) {
                Real s = 0.0;
                for (int b = 0; b < 3; ++b) s += M[d][b] * tau[a][b];
                th(i, j, k, thetaComp(d, a)) = J * s;
            }
            Real se = 0.0;
            for (int b = 0; b < 3; ++b) {
                Real work = lambda * gT[b];
                for (int a = 0; a < 3; ++a) work += u[a] * tau[a][b];
                se += M[d][b] * work;
            }
            th(i, j, k, thetaComp(d, 3)) = J * se;
        }
    });

    // Kernel 2 (unfused kernel 3): divergence, Jacobian from the cache.
    auto thc = thetaFab.const_array();
    gpu::ParallelFor(validBox, [&](int i, int j, int k) {
        const Real Jinv = 1.0 / cache(i, j, k, fused::QC_J);
        for (int d = 0; d < 3; ++d) {
            const Real invdx = 1.0 / dxi[static_cast<std::size_t>(d)];
            dU(i, j, k, UMX) += Jinv * d1(thc, i, j, k, thetaComp(d, 0), d, invdx);
            dU(i, j, k, UMY) += Jinv * d1(thc, i, j, k, thetaComp(d, 1), d, invdx);
            dU(i, j, k, UMZ) += Jinv * d1(thc, i, j, k, thetaComp(d, 2), d, invdx);
            dU(i, j, k, UEDEN) += Jinv * d1(thc, i, j, k, thetaComp(d, 3), d, invdx);
        }
    });
}

} // namespace crocco::core
