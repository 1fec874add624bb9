#pragma once

#include <cstdint>
#include <string>

namespace crocco::gpu {

/// Static cost profile of one numerics kernel: work and traffic per grid
/// point. Counted from the kernel source (see core/KernelProfiles.cpp);
/// these drive the roofline model and the execution-time models below.
struct KernelProfile {
    std::string name;
    double flopsPerPoint = 0.0;      ///< double-precision flops
    double dramBytesPerPoint = 0.0;  ///< bytes moved to/from HBM
    double l2BytesPerPoint = 0.0;    ///< bytes moved through L2
    double l1BytesPerPoint = 0.0;    ///< bytes moved through L1
    double registersPerThread = 0.0; ///< register pressure (occupancy driver)

    /// Arithmetic intensity (flop/byte) at each memory level.
    double aiDram() const { return flopsPerPoint / dramBytesPerPoint; }
    double aiL2() const { return flopsPerPoint / l2BytesPerPoint; }
    double aiL1() const { return flopsPerPoint / l1BytesPerPoint; }
};

/// Execution-time model of one Summit NVIDIA V100 (16 GB HBM2).
///
/// The paper's Nsight profiling (Fig. 4) shows the CRoCCo kernels are
/// bandwidth-bound at every level of the hierarchy with theoretical
/// occupancy limited to 12.5% by register pressure. A hierarchical-roofline
/// time model reproduces exactly those effects:
///
///   t = t_launch + max(flops/peak_eff, bytes_m/BW_m for each level m)
///
/// with bandwidths de-rated at small problem sizes (the device does not
/// saturate until enough threads are resident), which produces the paper's
/// size-dependent speedup band of 2.5x-15.8x (Fig. 3).
struct V100Model {
    double peakFlops = 7.8e12;   ///< DP peak the paper quotes
    double bwDram = 900e9;       ///< HBM2 STREAM-like ceiling
    double bwL2 = 2.5e12;
    double bwL1 = 14.0e12;
    double occupancyAt32Regs = 1.0; ///< occupancy with no register pressure
    double registerFile = 65536;    ///< 32-bit registers per SM
    double launchOverhead = 12e-6;  ///< per kernel launch, seconds
    double pointsToSaturate = 2.0e5; ///< ~full-device problem size
    double copyEngineDispatch = 1.2e-6; ///< per async-copy enqueue+engine setup, s

    /// Theoretical occupancy given register pressure (paper: 12.5%).
    double occupancy(const KernelProfile& k) const;

    /// Fraction of peak bandwidth achieved with n resident points.
    double saturation(std::int64_t npoints) const;

    /// Modeled kernel execution time in seconds.
    double kernelTime(const KernelProfile& k, std::int64_t npoints) const;

    /// Achieved DP flop rate implied by kernelTime (for the roofline plot).
    double achievedFlops(const KernelProfile& k, std::int64_t npoints) const;

    /// Modeled cost of one stream-ordered asynchronous ghost copy: the
    /// copy-engine dispatch plus staging the payload through HBM (read +
    /// write). This is the *non-overlappable* device-side cost a posted
    /// (nonblocking) ghost exchange would pay per descriptor in the
    /// modeled overlap; the network transit itself is charged by
    /// machine::NetworkModel and can hide behind interior compute.
    double asyncCopyTime(std::int64_t bytes) const {
        return copyEngineDispatch + 2.0 * static_cast<double>(bytes) / bwDram;
    }
};

/// Execution-time model of one 22-core IBM POWER9 socket running
/// MPI-rank-per-core, as in CRoCCo 1.x. The Fortran rate anchors the model;
/// the portable C++ kernels run a constant factor slower (the paper's
/// measured ~1.2x, which our own two kernel variants also exhibit — see
/// bench/fig3_kernels).
struct P9SocketModel {
    int cores = 22;
    double coreFlopsFortran = 0.85e9; ///< effective DP rate per core, Fortran
    double cppSlowdown = 1.2;

    double kernelTime(const KernelProfile& k, std::int64_t npoints, bool cpp) const;
};

} // namespace crocco::gpu
