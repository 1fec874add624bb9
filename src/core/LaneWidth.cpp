#include "core/LaneWidth.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

namespace crocco::core::detail {

namespace {

/// The widest shipped width the CPU runs, asked once.
int autoWidth() {
    static const int width = [] {
#if defined(__x86_64__)
        if (__builtin_cpu_supports("avx2")) return 4;
#endif
        return 2;
    }();
    return width;
}

/// A forced width, 0 for the automatic one.
std::atomic<int> forcedWidth{0};

} // namespace

std::vector<int> supportedLaneWidths() {
    std::vector<int> widths;
    for (int w = 1; w <= autoWidth(); w *= 2) widths.push_back(w);
    return widths;
}

int laneWidth() {
    const int forced = forcedWidth.load();
    return forced != 0 ? forced : autoWidth();
}

void setLaneWidthForTesting(int width) {
    const auto widths = supportedLaneWidths();
    if (std::find(widths.begin(), widths.end(), width) == widths.end())
        throw std::invalid_argument("lane width " + std::to_string(width) +
                                    " is not supported on this host");
    forcedWidth.store(width);
}

void resetLaneWidth() { forcedWidth.store(0); }

} // namespace crocco::core::detail
