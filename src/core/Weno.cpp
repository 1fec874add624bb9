// crocco-analyze:allow-file(R1): the FortranStyle kernel variant mirrors the
// paper's contiguous-pencil layout and needs the raw pencil base pointers.
//
// The WENOx/y/z kernels (Algorithm 2). The Portable variant is the GPU
// port's three staged kernels: (1) per-cell contravariant flux, (2) one
// Lax-Friedrichs-split WENO flux per interface, (3) flux difference into dU.
// Kernel 2 is the bulk of the work. Where the paper gives each interface a
// GPU thread, the host gives each interface a SIMD lane: one iteration
// evaluates W = 2 adjacent faces along the unit-stride i axis as GCC vector
// lanes (one SSE2 register: the baseline x86-64 ISA, no extra compile
// flag), and the last `len % W` faces of each row run the same formula on
// scalars.
//
// Determinism: wenoReconstruct is one template over the value type, used by
// the lanes, the scalar remainder, the characteristic-wise path, the
// FortranStyle variant and the fused sweep. Every lane performs the scalar
// operation sequence — the max/min folds keep the scalar order and the
// SYMBO limiter is a select, not a branch — and the baseline -O2 build emits
// no FMA, so all of them produce the same bits (docs/performance.md §8).
#include "core/Weno.hpp"

#include "core/Eigen.hpp"

#include "amr/FArrayBox.hpp"
#include "gpu/Arena.hpp"
#include "gpu/Gpu.hpp"
#include "mesh/GridMetrics.hpp"

#include <cassert>
#include <cstring>

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

/// Faces per lane step of kernel 2, and their value type: W adjacent
/// interfaces along i in one 16-byte SSE2 register, the baseline x86-64
/// vector width. A 32-byte vector (W = 4) measured slower there, because
/// GCC splits each of its operations into register pairs, scalarizes every
/// compare and select, and spills (docs/performance.md §8).
constexpr int W = 2;
using Lanes = Real __attribute__((vector_size(W * sizeof(Real))));

/// std::max(a, b) and std::min(a, b) for either value type: std::max is
/// `a < b ? b : a` and std::min is `b < a ? b : a`, lane by lane.
template <class T>
inline T maxOf(T a, T b) { return a < b ? b : a; }
template <class T>
inline T minOf(T a, T b) { return b < a ? b : a; }

/// Left-biased reconstruction at i+1/2 for T = Real or Lanes. The max/min
/// folds run left to right, as std::max({...})/std::min({...}) do.
template <class T>
inline T reconstruct(const T f[6], WenoScheme scheme) {
    // Candidate 3-point reconstructions of the value at i+1/2; f[2] is cell i.
    const T q0 = (2.0 * f[0] - 7.0 * f[1] + 11.0 * f[2]) / 6.0;
    const T q1 = (-f[1] + 5.0 * f[2] + 2.0 * f[3]) / 6.0;
    const T q2 = (2.0 * f[2] + 5.0 * f[3] - f[4]) / 6.0;
    // Jiang-Shu smoothness indicators.
    const T b0 = (13.0 / 12.0) * (f[0] - 2 * f[1] + f[2]) * (f[0] - 2 * f[1] + f[2]) +
                 0.25 * (f[0] - 4 * f[1] + 3 * f[2]) * (f[0] - 4 * f[1] + 3 * f[2]);
    const T b1 = (13.0 / 12.0) * (f[1] - 2 * f[2] + f[3]) * (f[1] - 2 * f[2] + f[3]) +
                 0.25 * (f[1] - f[3]) * (f[1] - f[3]);
    const T b2 = (13.0 / 12.0) * (f[2] - 2 * f[3] + f[4]) * (f[2] - 2 * f[3] + f[4]) +
                 0.25 * (3 * f[2] - 4 * f[3] + f[4]) * (3 * f[2] - 4 * f[3] + f[4]);

    if (scheme == WenoScheme::JS5) {
        const T a0 = kJsD[0] / ((kWenoEps + b0) * (kWenoEps + b0));
        const T a1 = kJsD[1] / ((kWenoEps + b1) * (kWenoEps + b1));
        const T a2 = kJsD[2] / ((kWenoEps + b2) * (kWenoEps + b2));
        return (a0 * q0 + a1 * q1 + a2 * q2) / (a0 + a1 + a2);
    }

    // WENO-SYMBO: add the downwind candidate (mirror image of stencil 0
    // about the interface).
    const T q3 = (11.0 * f[3] - 7.0 * f[4] + 2.0 * f[5]) / 6.0;
    const T b3 = (13.0 / 12.0) * (f[3] - 2 * f[4] + f[5]) * (f[3] - 2 * f[4] + f[5]) +
                 0.25 * (3 * f[3] - 4 * f[4] + f[5]) * (3 * f[3] - 4 * f[4] + f[5]);
    const T a0 = kSymboD[0] / ((kWenoEps + b0) * (kWenoEps + b0));
    const T a1 = kSymboD[1] / ((kWenoEps + b1) * (kWenoEps + b1));
    const T a2 = kSymboD[2] / ((kWenoEps + b2) * (kWenoEps + b2));
    T a3 = kSymboD[3] / ((kWenoEps + b3) * (kWenoEps + b3));
    const T bmax = maxOf(maxOf(maxOf(b0, b1), b2), b3);
    const T bmin = minOf(minOf(minOf(b0, b1), b2), b3);
    a3 = bmax > kSymboRelLimit * bmin + kWenoEps ? T{} : a3;
    return (a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3) / (a0 + a1 + a2 + a3);
}

/// Lax-Friedrichs split of one component's six-cell window (flux `fhat`,
/// conserved value `u`, splitting speed `alpha`) and the sum of the
/// left- and right-biased reconstructions: the interface flux of that
/// component (or characteristic field).
template <class T>
inline T splitReconstruct(const T fhat[6], const T u[6], T alpha,
                          WenoScheme scheme) {
    T fp[6], fm[6];
    for (int l = 0; l < 6; ++l) {
        fp[l] = 0.5 * (fhat[l] + alpha * u[l]);
        // Right-biased window mirrors about the interface.
        fm[5 - l] = 0.5 * (fhat[l] - alpha * u[l]);
    }
    return reconstruct(fp, scheme) + reconstruct(fm, scheme);
}

/// The W values of component n at (i..i+W-1, j, k). Lane loads and stores
/// go through these two helpers only: check builds read and write every
/// lane through the checked Array4 accessor, so bounds, ghost-validity and
/// the race detector see each cell; release builds copy the contiguous
/// unit-stride run in one go.
inline Lanes loadLanes(const Array4<const Real>& a, int i, int j, int k, int n) {
    Lanes v;
#ifdef CROCCO_CHECK
    for (int l = 0; l < W; ++l) v[l] = a(i + l, j, k, n);
#else
    std::memcpy(&v, &a(i, j, k, n), sizeof v);
#endif
    return v;
}

inline void storeLanes(const Array4<Real>& a, int i, int j, int k, int n,
                       Lanes v) {
#ifdef CROCCO_CHECK
    for (int l = 0; l < W; ++l) a(i + l, j, k, n) = v[l];
#else
    std::memcpy(&a(i, j, k, n), &v, sizeof v);
#endif
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

/// Kernel 2's lane step: the ComponentWise flux of the W faces stored at
/// (i..i+W-1, j, k), every lane running interfaceFlux's ComponentWise
/// arithmetic. The window cells of adjacent faces are adjacent along i in
/// every sweep direction, so each window row is one unit-stride load.
inline void laneFaces(const Array4<const Real>& scc, const Array4<const Real>& S,
                      const Array4<Real>& fx, int i, int j, int k,
                      const IntVect& e, WenoScheme scheme) {
    Lanes alpha = loadLanes(scc, i - 2 * e[0], j - 2 * e[1], k - 2 * e[2], NCONS);
    for (int o = -1; o <= 3; ++o)
        alpha = maxOf(alpha, loadLanes(scc, i + o * e[0], j + o * e[1], k + o * e[2], NCONS));
    for (int m = 0; m < NCONS; ++m) {
        Lanes fh[6], u[6];
        for (int l = 0; l < 6; ++l) {
            const int o = l - 2;
            fh[l] = loadLanes(scc, i + o * e[0], j + o * e[1], k + o * e[2], m);
            u[l] = loadLanes(S, i + o * e[0], j + o * e[1], k + o * e[2], m);
        }
        storeLanes(fx, i, j, k, m, splitReconstruct(fh, u, alpha, scheme));
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

    // Kernel 1: per-cell contravariant flux + spectral radius + metric row.
    gpu::ParallelFor(cellBox, [&](int i, int j, int k) {
        const CellFlux c = cellFlux(S, metrics, i, j, k, dir, gas);
        for (int m = 0; m < NCONS; ++m) sc(i, j, k, m) = c.fhat[m];
        sc(i, j, k, NCONS) = c.s;
        for (int d = 0; d < 3; ++d) sc(i, j, k, NCONS + 1 + d) = c.jm[d];
    });

    // Kernel 2: one lane per interface; interface i+1/2 is stored at cell
    // index i, for i in [lo-1, hi]. One task per j-k row of the face box:
    // W faces per lane step, the last `len % W` faces (and, for the
    // characteristic-wise projection, every face) as scalars.
    const Box faceBox(validBox.smallEnd() - e, validBox.bigEnd());
    auto fluxLease = gpu::ScratchPool::instance().acquire(faceBox, NCONS);
    FArrayBox& flux = fluxLease.fab();
    auto fx = flux.array();
    auto scc = scratch.const_array();
    const int ilo = faceBox.smallEnd(0), ihi = faceBox.bigEnd(0);
    const int laneEnd =
        recon == Reconstruction::ComponentWise ? ilo + faceBox.length(0) / W * W : ilo;
    IntVect rowHi = faceBox.bigEnd();
    rowHi[0] = ilo;
    gpu::ParallelFor(Box(faceBox.smallEnd(), rowHi), [&](int, int j, int k) {
        int i = ilo;
        for (; i < laneEnd; i += W) laneFaces(scc, S, fx, i, j, k, e, scheme);
        for (; i <= ihi; ++i) {
            CellFlux cells[6];
            Real cons[6][NCONS], out[NCONS];
            gatherFace(scc, S, {i, j, k}, e, cells, cons);
            interfaceFlux(cells, cons, scheme, recon, gas, out);
            for (int m = 0; m < NCONS; ++m) fx(i, j, k, m) = out[m];
        }
    });

    // Kernel 3: flux difference into dU.
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
