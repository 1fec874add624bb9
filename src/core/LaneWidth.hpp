#pragma once

// Testing interface of the SIMD lane dispatch behind WENO kernel 2 and
// Viscous kernel 2 (docs/performance.md §8). The solver picks the widest
// lane width the host runs, once; nothing but tests should call these.

#include <vector>

namespace crocco::core::detail {

/// Lane widths this build ships and this host runs, ascending: 1 (every
/// face and cell as a scalar), 2 (SSE2, the x86-64 baseline) and, where
/// the CPU has AVX2, 4.
std::vector<int> supportedLaneWidths();

/// The width the lane kernels use now: the widest supported one, unless a
/// test forced another.
int laneWidth();

/// Force `width` for the lane kernels. Throws std::invalid_argument, and
/// changes nothing, if `width` is not in supportedLaneWidths().
void setLaneWidthForTesting(int width);

/// Back to the automatic (widest supported) width.
void resetLaneWidth();

/// setLaneWidthForTesting for one scope.
struct ScopedLaneWidth {
    explicit ScopedLaneWidth(int width) { setLaneWidthForTesting(width); }
    ~ScopedLaneWidth() { resetLaneWidth(); }
    ScopedLaneWidth(const ScopedLaneWidth&) = delete;
    ScopedLaneWidth& operator=(const ScopedLaneWidth&) = delete;
};

} // namespace crocco::core::detail
