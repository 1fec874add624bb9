#pragma once
// The measurement loop shared by both runners: episodes of solver steps
// through the public CroccoAmr API, counters read from the program's own
// public statistics, output checks, and (traced runner only) the per-layer
// accounting, host calibration and modeled figures.

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// Run the thread-count invariance check after the timed episodes.
    bool checkThreads = true;
    /// Directory for the Chrome trace file (traced runner only).
    std::string traceDir = ".";
};

/// Runs the workload and prints one raw JSON record on stdout. Returns the
/// process exit code: 0 when every output check passed, 1 otherwise.
int run(const Options& opts);

} // namespace perfbench
