// crocco-analyze:allow-file(R1): the FortranStyle kernel variant mirrors the
// paper's contiguous-pencil layout and needs the raw pencil base pointers.
//
// The WENOx/y/z kernels (Algorithm 2). The Portable variant is the GPU
// port's three staged kernels: (1) per-cell contravariant flux, (2) one
// Lax-Friedrichs-split WENO flux per interface, (3) flux difference into dU.
// Kernel 2 is the bulk of the work. Where the paper gives each interface a
// GPU thread, the host gives each interface a SIMD lane: one step evaluates
// W adjacent faces along the unit-stride i axis as GCC vector lanes, and
// the last `len % W` faces of each row run the same formula on scalars.
// Kernel 1 runs its cells the same way; kernel 3 stays scalar.
// W is chosen at run time, once: 4 (AVX2) where the CPU has it, else 2
// (SSE2, the x86-64 baseline). Each width's copy of the lane code is
// compiled under its own `#pragma GCC target` region. An AVX-512 copy
// (W = 8) was measured and not kept: it did not beat W = 4 end to end.
//
// Determinism: wenoReconstruct is one template over the value type, used by
// the lanes, the scalar remainder, the characteristic-wise path, the
// FortranStyle variant and the fused sweep. Every lane performs the scalar
// operation sequence — the max/min folds keep the scalar order and the
// SYMBO limiter is a select, not a branch. crocco_core is compiled with
// -ffp-contract=off: GCC's C++ default, `fast`, fuses a*b + c into an FMA
// in any function whose target has one (an AVX-512 copy would), so with
// contraction off every width produces the same bits (docs/performance.md
// §8).
#include "core/Weno.hpp"

#include "core/Eigen.hpp"
#include "core/LaneWidth.hpp"

#include "amr/FArrayBox.hpp"
#include "gpu/Arena.hpp"
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

/// Linear weights of the symmetric 4-stencil WENO-SYMBO scheme; the 4th is
/// the downwind stencil. Following Martín, Taylor, Wu & Weirs (2006), the
/// weights trade formal order for spectral resolution: they satisfy the
/// 4th-order moment condition 3(d3 - d0) + (d1 - d2) = 0 (the scheme is
/// exactly 4th-order accurate, as the paper's numerics are) with a mild
/// upwind bias and a ~7.7% downwind share. (The unique 6th-order choice
/// would be {.05, .45, .45, .05}; these sit in the 4th-order family.)
constexpr Real kSymboD[4] = {0.0833333, 0.4300000, 0.4100000, 0.0766667};
/// Classic Jiang-Shu optimal weights (3 upwind stencils).
constexpr Real kJsD[3] = {0.1, 0.6, 0.3};
constexpr Real kWenoEps = 1e-6;
/// Relative-smoothness limiter: the downwind stencil participates only when
/// all four stencils are comparably smooth (ratio below this), restoring
/// strict upwinding near discontinuities (§II-A's "weighs candidate
/// stencils via local relative smoothness").
constexpr Real kSymboRelLimit = 5.0;

// The lane code (Lanes.inl, WenoLanes.inl), compiled once per
// instruction set, each copy in its own internal namespace. Every #include
// of this file sits above the first target region, so the inline header
// functions (Array4, toPrim, jacobian, ...) keep their baseline definitions
// and no widened out-of-line copy of them can be emitted here.

/// SSE2, the x86-64 baseline: two faces (cells) per step, and the scalar
/// reconstruction (T = Real) behind every other caller in this file.
namespace sse2 {
constexpr int W = 2;
#include "core/Lanes.inl"
#include "core/WenoLanes.inl"
} // namespace sse2

#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr int W = 4;
#include "core/Lanes.inl"
#include "core/WenoLanes.inl"
} // namespace avx2
#pragma GCC pop_options
#endif

using sse2::maxOf;
using sse2::rowStarts;
using sse2::reconstruct;
using sse2::splitReconstruct;

/// The lane rows of the Portable kernels 1 and 2 at one width.
struct WenoLaneRows {
    decltype(&sse2::cellFluxLaneRow) cellFlux = nullptr;
    decltype(&sse2::faceLaneRow) faces = nullptr;
};

/// The lane rows at `width` lanes (detail::laneWidth()); null for width 1,
/// which runs every cell and face through the scalar path.
WenoLaneRows wenoLaneRows(int width) {
    switch (width) {
    case 2: return {sse2::cellFluxLaneRow, sse2::faceLaneRow};
#if defined(__x86_64__)
    case 4: return {avx2::cellFluxLaneRow, avx2::faceLaneRow};
#endif
    default: return {};
    }
}

} // namespace

Real wenoReconstruct(const Real f[6], WenoScheme scheme) {
    return reconstruct(f, scheme);
}

namespace {

/// Stage A payload at one cell: contravariant flux, conserved state copy,
/// and the local spectral radius for Lax-Friedrichs splitting.
struct CellFlux {
    Real fhat[NCONS];
    Real s;
    Real jm[3]; ///< contravariant metric row J * dxi_dir/dx (for the
                ///< characteristic projection direction)
};
constexpr int kCellFluxComps = NCONS + 4;

inline CellFlux cellFlux(const Array4<const Real>& S,
                         const Array4<const Real>& metrics, int i, int j, int k,
                         int dir, const GasModel& gas) {
    const Prim q = toPrim(S, i, j, k, gas);
    const Real J = jacobian(metrics, i, j, k);
    const Real jm0 = J * metrics(i, j, k, metric1(dir, 0));
    const Real jm1 = J * metrics(i, j, k, metric1(dir, 1));
    const Real jm2 = J * metrics(i, j, k, metric1(dir, 2));
    const Real uhat = jm0 * q.u + jm1 * q.v + jm2 * q.w;
    CellFlux c;
    c.fhat[URHO] = q.rho * uhat;
    c.fhat[UMX] = q.rho * q.u * uhat + jm0 * q.p;
    c.fhat[UMY] = q.rho * q.v * uhat + jm1 * q.p;
    c.fhat[UMZ] = q.rho * q.w * uhat + jm2 * q.p;
    c.fhat[UEDEN] = (S(i, j, k, UEDEN) + q.p) * uhat;
    c.s = std::abs(uhat) + q.a * std::sqrt(jm0 * jm0 + jm1 * jm1 + jm2 * jm2);
    c.jm[0] = jm0;
    c.jm[1] = jm1;
    c.jm[2] = jm2;
    return c;
}

/// Primitive state decoded from a conserved 5-vector.
inline Prim consToPrim(const Real U[NCONS], const GasModel& gas) {
    const Real rho = U[URHO], rinv = 1.0 / rho;
    const Real u = U[UMX] * rinv, v = U[UMY] * rinv, w = U[UMZ] * rinv;
    const Real p = gas.pressure(rho, u, v, w, U[UEDEN]);
    return {rho, u, v, w, p, gas.soundSpeed(rho, p)};
}

/// Interface flux at i+1/2 from the six surrounding cells' stage-A payloads
/// and conserved states: the scalar form shared by the FortranStyle and
/// fused sweeps, kernel 2's remainder and the characteristic-wise path.
inline void interfaceFlux(const CellFlux cells[6], const Real cons[6][NCONS],
                          WenoScheme scheme, Reconstruction recon,
                          const GasModel& gas, Real out[NCONS]) {
    Real alpha = cells[0].s;
    for (int l = 1; l < 6; ++l) alpha = maxOf(alpha, cells[l].s);

    if (recon == Reconstruction::ComponentWise) {
        for (int m = 0; m < NCONS; ++m) {
            Real fh[6], u[6];
            for (int l = 0; l < 6; ++l) {
                fh[l] = cells[l].fhat[m];
                u[l] = cons[l][m];
            }
            out[m] = splitReconstruct(fh, u, alpha, scheme);
        }
        return;
    }

    // Characteristic-wise: eigensystem at the interface-averaged state and
    // metric direction (cells 2 and 3 straddle the interface).
    Real avgCons[NCONS], kdir[3];
    for (int m = 0; m < NCONS; ++m)
        avgCons[m] = 0.5 * (cons[2][m] + cons[3][m]);
    for (int d = 0; d < 3; ++d)
        kdir[d] = 0.5 * (cells[2].jm[d] + cells[3].jm[d]);
    const EigenSystem es = eulerEigenvectors(consToPrim(avgCons, gas), kdir, gas);

    Real outChar[NCONS];
    for (int m = 0; m < NCONS; ++m) {
        Real cf[6], cu[6];
        for (int l = 0; l < 6; ++l) {
            cf[l] = 0.0;
            cu[l] = 0.0;
            for (int c = 0; c < NCONS; ++c) {
                cf[l] += es.L[m][c] * cells[l].fhat[c];
                cu[l] += es.L[m][c] * cons[l][c];
            }
        }
        outChar[m] = splitReconstruct(cf, cu, alpha, scheme);
    }
    for (int c = 0; c < NCONS; ++c) {
        out[c] = 0.0;
        for (int m = 0; m < NCONS; ++m) out[c] += es.R[c][m] * outChar[m];
    }
}

/// Gather the six-cell window of the face stored at cell p (interface
/// p + e/2, e the unit vector of the sweep): cell l of the window is
/// p + (l - 2) e, read from the stage-A scratch and the conserved state.
inline void gatherFace(const Array4<const Real>& scc, const Array4<const Real>& S,
                       const IntVect& p, const IntVect& e, CellFlux cells[6],
                       Real cons[6][NCONS]) {
    for (int l = 0; l < 6; ++l) {
        const int ci = p[0] + (l - 2) * e[0];
        const int cj = p[1] + (l - 2) * e[1];
        const int ck = p[2] + (l - 2) * e[2];
        for (int m = 0; m < NCONS; ++m) {
            cells[l].fhat[m] = scc(ci, cj, ck, m);
            cons[l][m] = S(ci, cj, ck, m);
        }
        cells[l].s = scc(ci, cj, ck, NCONS);
        for (int d = 0; d < 3; ++d)
            cells[l].jm[d] = scc(ci, cj, ck, NCONS + 1 + d);
    }
}

void wenoFluxPortable(int dir, const Array4<const Real>& S,
                      const Array4<const Real>& metrics, const Box& validBox,
                      const Array4<Real>& dU, Real dxi, const GasModel& gas,
                      WenoScheme scheme, Reconstruction recon) {
    const IntVect e = IntVect::basis(dir);

    // Scratch lives in (device) global memory, allocated from the host
    // before launch — the paper's fix for both in-kernel allocation and the
    // data races of shared line scratch (§IV-B). Leased from the scratch
    // pool: every cell/face written before read, so recycled storage is
    // safe (and check builds re-poison it on each acquire anyway).
    const Box cellBox = validBox.grow(dir, 3);
    auto scratchLease = gpu::ScratchPool::instance().acquire(cellBox, kCellFluxComps);
    FArrayBox& scratch = scratchLease.fab();
    auto sc = scratch.array();

    // Kernels 1 and 2 run one thread per i-row: W cells (faces) per lane
    // step, the row's last `len % W` as scalars.
    const WenoLaneRows lanes = wenoLaneRows(detail::laneWidth());

    // Kernel 1: per-cell contravariant flux + spectral radius + metric row.
    const int clo = cellBox.smallEnd(0), chi = cellBox.bigEnd(0);
    gpu::ParallelFor(rowStarts(cellBox), [&](int, int j, int k) {
        int i = lanes.cellFlux
                    ? lanes.cellFlux(S, metrics, sc, clo, chi - clo + 1, j, k, dir, gas)
                    : clo;
        for (; i <= chi; ++i) {
            const CellFlux c = cellFlux(S, metrics, i, j, k, dir, gas);
            for (int m = 0; m < NCONS; ++m) sc(i, j, k, m) = c.fhat[m];
            sc(i, j, k, NCONS) = c.s;
            for (int d = 0; d < 3; ++d) sc(i, j, k, NCONS + 1 + d) = c.jm[d];
        }
    });

    // Kernel 2: one lane per interface; interface i+1/2 is stored at cell
    // index i, for i in [lo-1, hi]. The characteristic-wise projection runs
    // every face as a scalar.
    const Box faceBox(validBox.smallEnd() - e, validBox.bigEnd());
    auto fluxLease = gpu::ScratchPool::instance().acquire(faceBox, NCONS);
    FArrayBox& flux = fluxLease.fab();
    auto fx = flux.array();
    auto scc = scratch.const_array();
    const int ilo = faceBox.smallEnd(0), ihi = faceBox.bigEnd(0);
    const auto faceRow = recon == Reconstruction::ComponentWise ? lanes.faces : nullptr;
    gpu::ParallelFor(rowStarts(faceBox), [&](int, int j, int k) {
        int i = faceRow ? faceRow(scc, S, fx, ilo, ihi - ilo + 1, j, k, e, scheme) : ilo;
        for (; i <= ihi; ++i) {
            CellFlux cells[6];
            Real cons[6][NCONS], out[NCONS];
            gatherFace(scc, S, {i, j, k}, e, cells, cons);
            interfaceFlux(cells, cons, scheme, recon, gas, out);
            for (int m = 0; m < NCONS; ++m) fx(i, j, k, m) = out[m];
        }
    });

    // Kernel 3: flux difference into dU. It stays scalar: lanes measured no
    // faster here (docs/performance.md §8).
    auto fxc = flux.const_array();
    gpu::ParallelFor(validBox, [&](int i, int j, int k) {
        const Real scale = 1.0 / (dxi * jacobian(metrics, i, j, k));
        for (int m = 0; m < NCONS; ++m) {
            dU(i, j, k, m) -=
                scale * (fxc(i, j, k, m) - fxc(i - e[0], j - e[1], k - e[2], m));
        }
    });
}

void wenoFluxFortranStyle(int dir, const Array4<const Real>& S,
                          const Array4<const Real>& metrics, const Box& validBox,
                          const Array4<Real>& dU, Real dxi, const GasModel& gas,
                          WenoScheme scheme, Reconstruction recon) {
    const int lo = validBox.smallEnd(dir), hi = validBox.bigEnd(dir);
    const int nline = hi - lo + 1;

    // 1-D line scratch reused across every pencil — the original Fortran
    // structure that is fast on CPU but racy if naively parallelized over
    // all three dimensions (which is exactly why the GPU port moved to the
    // staged 3-D-scratch form above). The buffers are thread_local so the
    // allocation happens once per worker thread, not once per fab per
    // direction per stage (each worker owns its scratch, so the fab-level
    // pool parallelism stays race-free); every element is written before it
    // is read in each pencil, so reuse across calls is safe.
    thread_local std::vector<CellFlux> line;
    thread_local std::vector<Real> cons;
    thread_local std::vector<Real> flux;
    line.resize(static_cast<std::size_t>(nline) + 6);
    cons.resize(static_cast<std::size_t>(nline + 6) * NCONS);
    flux.resize(static_cast<std::size_t>(nline + 1) * NCONS);
    CellFlux* __restrict__ lf = line.data();
    Real* __restrict__ lc = cons.data();
    Real* __restrict__ fl = flux.data();

    const int d1 = (dir + 1) % 3, d2 = (dir + 2) % 3;
    for (int c2 = validBox.smallEnd(d2); c2 <= validBox.bigEnd(d2); ++c2) {
        for (int c1 = validBox.smallEnd(d1); c1 <= validBox.bigEnd(d1); ++c1) {
            IntVect p;
            p[d1] = c1;
            p[d2] = c2;
            // Gather the pencil including 3 ghost cells each side.
            for (int l = 0; l < nline + 6; ++l) {
                p[dir] = lo - 3 + l;
                lf[l] = cellFlux(S, metrics, p[0], p[1], p[2], dir, gas);
                for (int m = 0; m < NCONS; ++m)
                    lc[l * NCONS + m] = S(p[0], p[1], p[2], m);
            }
            // Interface fluxes along the pencil (interface f at line index
            // f corresponds to cell interface lo-1+f+1/2). The conserved
            // window is a view into the contiguous line buffer — row l of
            // the window is lc[(f+l)*NCONS ..], so no per-face copy.
            for (int f = 0; f <= nline; ++f) {
                const auto* consWin =
                    reinterpret_cast<const Real(*)[NCONS]>(&lc[f * NCONS]);
                interfaceFlux(&lf[f], consWin, scheme, recon, gas, &fl[f * NCONS]);
            }
            // Difference into dU.
            for (int c0 = lo; c0 <= hi; ++c0) {
                p[dir] = c0;
                const Real scale =
                    1.0 / (dxi * jacobian(metrics, p[0], p[1], p[2]));
                const int f = c0 - lo;
                for (int m = 0; m < NCONS; ++m) {
                    dU(p[0], p[1], p[2], m) -=
                        scale * (fl[(f + 1) * NCONS + m] - fl[f * NCONS + m]);
                }
            }
        }
    }
}

/// Stage A of the fused sweep: the cellFlux payload rebuilt from the shared
/// primitive/metric cache. The metric row products, uhat, the flux vector
/// and the spectral radius are the exact expressions of cellFlux() with the
/// toPrim/jacobian results substituted by their cached (bit-identical)
/// values — only the redundant EOS decode and 3x3 determinant disappear.
inline CellFlux cellFluxCached(const Array4<const Real>& S,
                               const Array4<const Real>& cache,
                               const Array4<const Real>& metrics, int i, int j,
                               int k, int dir) {
    const Real rho = cache(i, j, k, fused::QC_RHO);
    const Real u = cache(i, j, k, fused::QC_U);
    const Real v = cache(i, j, k, fused::QC_V);
    const Real w = cache(i, j, k, fused::QC_W);
    const Real p = cache(i, j, k, fused::QC_P);
    const Real a = cache(i, j, k, fused::QC_A);
    const Real J = cache(i, j, k, fused::QC_J);
    const Real jm0 = J * metrics(i, j, k, metric1(dir, 0));
    const Real jm1 = J * metrics(i, j, k, metric1(dir, 1));
    const Real jm2 = J * metrics(i, j, k, metric1(dir, 2));
    const Real uhat = jm0 * u + jm1 * v + jm2 * w;
    CellFlux c;
    c.fhat[URHO] = rho * uhat;
    c.fhat[UMX] = rho * u * uhat + jm0 * p;
    c.fhat[UMY] = rho * v * uhat + jm1 * p;
    c.fhat[UMZ] = rho * w * uhat + jm2 * p;
    c.fhat[UEDEN] = (S(i, j, k, UEDEN) + p) * uhat;
    c.s = std::abs(uhat) + a * std::sqrt(jm0 * jm0 + jm1 * jm1 + jm2 * jm2);
    c.jm[0] = jm0;
    c.jm[1] = jm1;
    c.jm[2] = jm2;
    return c;
}

} // namespace

void wenoFluxFused(int dir, const Array4<const Real>& S,
                   const Array4<const Real>& cache,
                   const Array4<const Real>& metrics, const Box& validBox,
                   const Array4<Real>& dU, Real dxi, const GasModel& gas,
                   WenoScheme scheme, Reconstruction recon, bool firstTerm) {
    assert(dir >= 0 && dir < 3);

    // Kernel 1 (stage A): cached contravariant flux + spectral radius into
    // pooled scratch, exactly the portable kernel 1 minus the EOS/Jacobian
    // re-derivation.
    const Box cellBox = validBox.grow(dir, 3);
    auto scratchLease = gpu::ScratchPool::instance().acquire(cellBox, kCellFluxComps);
    auto sc = scratchLease.fab().array();
    gpu::ParallelFor(cellBox, [&](int i, int j, int k) {
        const CellFlux c = cellFluxCached(S, cache, metrics, i, j, k, dir);
        for (int m = 0; m < NCONS; ++m) sc(i, j, k, m) = c.fhat[m];
        sc(i, j, k, NCONS) = c.s;
        for (int d = 0; d < 3; ++d) sc(i, j, k, NCONS + 1 + d) = c.jm[d];
    });

    // Kernel 2 (fused stages B+C): one task per pencil along `dir`. Each
    // pencil computes its faces in order, carries the previous face's flux
    // in registers, and writes the divergence straight into dU — no
    // face-flux fab, one interfaceFlux evaluation per face. Pencils own
    // disjoint dU cells, so the pass is race-free and deterministic for
    // every thread count.
    const int lo = validBox.smallEnd(dir), hi = validBox.bigEnd(dir);
    amr::IntVect planeHi = validBox.bigEnd();
    planeHi[dir] = validBox.smallEnd(dir);
    const Box plane(validBox.smallEnd(), planeHi);
    auto scc = scratchLease.fab().const_array();
    const IntVect e = IntVect::basis(dir);
    gpu::ParallelFor(plane, [&](int i0, int j0, int k0) {
        IntVect p{i0, j0, k0};
        CellFlux cells[6];
        Real cons[6][NCONS];
        Real fprev[NCONS], fcur[NCONS];
        // Gather the 6-cell window of the face stored at cell index `fc`
        // (interface fc+1/2) — the gather of the portable kernel 2 remainder.
        const auto gather = [&](int fc) {
            IntVect q = p;
            q[dir] = fc;
            gatherFace(scc, S, q, e, cells, cons);
        };
        gather(lo - 1);
        interfaceFlux(cells, cons, scheme, recon, gas, fprev);
        for (int c0 = lo; c0 <= hi; ++c0) {
            gather(c0);
            interfaceFlux(cells, cons, scheme, recon, gas, fcur);
            p[dir] = c0;
            const Real scale =
                1.0 / (dxi * cache(p[0], p[1], p[2], fused::QC_J));
            for (int m = 0; m < NCONS; ++m) {
                // `0.0 - x` is bitwise the unfused path's `0 -= x` after
                // dU.setVal(0); the compound form matches its `dU -= x`.
                if (firstTerm)
                    dU(p[0], p[1], p[2], m) = 0.0 - scale * (fcur[m] - fprev[m]);
                else
                    dU(p[0], p[1], p[2], m) -= scale * (fcur[m] - fprev[m]);
            }
            for (int m = 0; m < NCONS; ++m) fprev[m] = fcur[m];
        }
    });
}

void wenoFlux(int dir, const Array4<const Real>& S,
              const Array4<const Real>& metrics, const Box& validBox,
              const Array4<Real>& dU, Real dxi, const GasModel& gas,
              WenoScheme scheme, KernelVariant variant, Reconstruction recon) {
    assert(dir >= 0 && dir < 3);
    if (variant == KernelVariant::Portable) {
        wenoFluxPortable(dir, S, metrics, validBox, dU, dxi, gas, scheme, recon);
    } else {
        wenoFluxFortranStyle(dir, S, metrics, validBox, dU, dxi, gas, scheme,
                             recon);
    }
}

} // namespace crocco::core
