#pragma once

#include "machine/ScalingSimulator.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace crocco::bench {

/// Shared helpers for the figure/table benches: consistent row printing so
/// bench outputs read like the paper's tables.

inline const char* versionName(core::CodeVersion v) {
    switch (v) {
        case core::CodeVersion::V10: return "CRoCCo 1.0 (Fortran CPU)";
        case core::CodeVersion::V11: return "CRoCCo 1.1 (C++ CPU)";
        case core::CodeVersion::V12: return "CRoCCo 1.2 (C++ CPU + AMR)";
        case core::CodeVersion::V20: return "CRoCCo 2.0 (GPU + AMR)";
        case core::CodeVersion::V21: return "CRoCCo 2.1 (GPU + AMR, trilinear)";
    }
    return "?";
}

inline void printHeader(const std::string& title) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

/// The paper's Table I weak-scaling rows: {nodes, equivalent grid points}.
inline std::vector<machine::ScalingCase> tableOneCases(core::CodeVersion v) {
    const std::pair<int, double> rows[] = {
        {4, 1.64e8},   {16, 6.55e8},  {36, 1.47e9},  {64, 2.62e9},
        {100, 4.10e9}, {256, 1.05e10}, {400, 1.64e10}, {1024, 4.19e10},
    };
    std::vector<machine::ScalingCase> cases;
    for (const auto& [nodes, pts] : rows)
        cases.push_back({v, nodes, static_cast<std::int64_t>(pts)});
    return cases;
}

/// Strong scaling node counts (Fig. 5 left): 16..1024 at 1.27e9 points.
inline std::vector<machine::ScalingCase> strongCases(core::CodeVersion v) {
    std::vector<machine::ScalingCase> cases;
    for (int nodes : {16, 32, 64, 128, 256, 512, 1024})
        cases.push_back({v, nodes, 1270000000ll});
    return cases;
}

/// Median and interquartile range of a set of measured times (linear
/// interpolation between order statistics).
struct Quartiles {
    double p25 = 0.0, p50 = 0.0, p75 = 0.0;
    double iqr() const { return p75 - p25; }
};

inline Quartiles quartiles(std::vector<double> v) {
    if (v.empty()) return {};
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
        const double x = q * static_cast<double>(v.size() - 1);
        const auto lo = static_cast<std::size_t>(x);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (x - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    return {at(0.25), at(0.5), at(0.75)};
}

} // namespace crocco::bench
