// The Viscous kernel of Algorithm 2. Kernel 2 (stress tensor, heat flux
// and contravariant viscous fluxes per cell) runs W adjacent cells along
// the unit-stride i axis as SIMD lanes when the SGS model is off, and the
// last `len % W` cells of each row as scalars; kernel 3 (their divergence)
// does the same with the SGS model on or off, with the lane width chosen
// at run time as for the WENO interface fluxes (see Weno.cpp and
// docs/performance.md §8). Lanes and scalars run one template in one
// operation order, so every width produces the same bits.
#include "core/Viscous.hpp"

#include "core/LaneWidth.hpp"

#include "amr/FArrayBox.hpp"
#include "gpu/Gpu.hpp"
#include "mesh/GridMetrics.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace crocco::core {

using amr::FArrayBox;
using amr::IntVect;
using mesh::jacobian;
using mesh::metric1;

namespace {

// Scratch component layout.
constexpr int QU = 0, QV = 1, QW = 2, QT = 3, QRHO = 4, NPRIM = 5;
/// The primitive components of viscousFlux's scratch, in thetaAt's order.
constexpr int kPrimComps[NPRIM] = {QU, QV, QW, QT, QRHO};
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

// The lane code of kernels 2 and 3 (Lanes.inl, ViscousLanes.inl), compiled
// once per instruction set, each copy in its own internal namespace; every
// #include sits above the first target region (see Weno.cpp).

/// SSE2, the x86-64 baseline: two cells per step, and the scalar kernel
/// (T = Real) behind every other caller in this file.
namespace sse2 {
constexpr int W = 2;
#include "core/Lanes.inl"
#include "core/ViscousLanes.inl"
} // namespace sse2

#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr int W = 4;
#include "core/Lanes.inl"
#include "core/ViscousLanes.inl"
} // namespace avx2
#pragma GCC pop_options
#endif

using sse2::divergenceAt;
using sse2::rowStarts;
using sse2::thetaAt;

/// Kernel 2's and kernel 3's lane rows of one width.
struct ViscousLaneRows {
    decltype(&sse2::thetaLaneRow) theta = nullptr;
    decltype(&sse2::divergenceLaneRow) divergence = nullptr;
};

/// The lane rows at `width` lanes (detail::laneWidth()); null for width 1,
/// which runs every cell through the scalar path.
ViscousLaneRows viscousLaneRows(int width) {
    switch (width) {
    case 2: return {sse2::thetaLaneRow, sse2::divergenceLaneRow};
#if defined(__x86_64__)
    case 4: return {avx2::thetaLaneRow, avx2::divergenceLaneRow};
#endif
    default: return {};
    }
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
    // One thread per i-row: lanes along i while the SGS model is off, the
    // row's last `len % W` cells (and, with SGS on, every cell) as scalars.
    const ViscousLaneRows lanes = viscousLaneRows(detail::laneWidth());
    const auto thetaRow = sgs.active() ? nullptr : lanes.theta;
    const int ilo = fluxBox.smallEnd(0), ihi = fluxBox.bigEnd(0);
    gpu::ParallelFor(rowStarts(fluxBox), [&](int, int j, int k) {
        int i = thetaRow ? thetaRow(qc, metrics, th, ilo, ihi - ilo + 1, j, k, dxi, gas, sgs)
                         : ilo;
        for (; i <= ihi; ++i)
            thetaAt(qc, kPrimComps, metrics, jacobian(metrics, i, j, k), th, i, j, k,
                    dxi, gas, sgs);
    });

    // Kernel 3: divergence of Theta into dU (viscous terms enter the RHS
    // with a positive sign), one thread per i-row as kernel 2.
    auto thc = thetaFab.const_array();
    const int vlo = validBox.smallEnd(0), vhi = validBox.bigEnd(0);
    gpu::ParallelFor(rowStarts(validBox), [&](int, int j, int k) {
        int i = lanes.divergence
                    ? lanes.divergence(thc, metrics, dU, vlo, vhi - vlo + 1, j, k, dxi)
                    : vlo;
        for (; i <= vhi; ++i)
            divergenceAt(thc, 1.0 / jacobian(metrics, i, j, k), dU, i, j, k, dxi);
    });
}

void viscousFluxFused(const Array4<const Real>& cache,
                      const Array4<const Real>& metrics, const Box& validBox,
                      const Array4<Real>& dU, const std::array<Real, 3>& dxi,
                      const GasModel& gas, const SgsModel& sgs) {
    assert(gas.viscous() || sgs.active());

    // Map the unfused scratch's component order (QU,QV,QW,QT,QRHO) onto the
    // shared-cache layout: the one thetaAt template runs in the identical
    // order over identical (bit-equal) operands.
    constexpr int cacheComp[NPRIM] = {fused::QC_U, fused::QC_V, fused::QC_W,
                                      fused::QC_T, fused::QC_RHO};

    // Kernel 1 (unfused kernel 2): theta from cached primitives.
    const Box fluxBox = validBox.grow(2);
    FArrayBox thetaFab(fluxBox, 12);
    auto th = thetaFab.array();
    gpu::ParallelFor(fluxBox, [&](int i, int j, int k) {
        thetaAt(cache, cacheComp, metrics, cache(i, j, k, fused::QC_J), th, i, j, k,
                dxi, gas, sgs);
    });

    // Kernel 2 (unfused kernel 3): divergence, Jacobian from the cache.
    auto thc = thetaFab.const_array();
    gpu::ParallelFor(validBox, [&](int i, int j, int k) {
        divergenceAt(thc, 1.0 / cache(i, j, k, fused::QC_J), dU, i, j, k, dxi);
    });
}

} // namespace crocco::core
