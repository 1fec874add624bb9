#pragma once
// The benchmark's workloads: how each builds its solver through the public
// core::CroccoAmr API, and the output checks each must pass.

#include "core/CroccoAmr.hpp"
#include "parallel/SimComm.hpp"
#include "problems/Canonical.hpp"
#include "problems/Dmr.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace core = crocco::core;
namespace parallel = crocco::parallel;
namespace problems = crocco::problems;

struct WorkloadSpec {
    std::string name;
    /// Steps per episode. Every episode starts from a freshly constructed
    /// solver, so each run measures the same mix of steps (on DMR: regrid
    /// steps and plain steps) however many episodes fit in its time.
    int episodeSteps = 0;
    /// Steps of the thread-count invariance check.
    int prefixSteps = 0;
    /// Wall seconds of one episode (set-up included) on the reference host,
    /// a 4-core AMD EPYC: a run of S seconds measures round(S / this) whole
    /// episodes. A fixed step count per --seconds keeps the step mix, and
    /// with it every percentile, the same from run to run.
    double nominalEpisodeSeconds = 1.0;
};

/// Throws std::invalid_argument for an unknown name.
WorkloadSpec workloadSpec(const std::string& name);

/// One constructed and initialised solver (the benchmark's set-up), plus
/// the state its output checks carry between steps.
class Case {
public:
    /// The seed perturbs the initial condition by a relative 1e-10 per cell:
    /// every seed gives distinct inputs and bits, the same AMR hierarchy
    /// and the same amount of work.
    Case(const std::string& workload, std::uint64_t seed, int nthreads);

    core::CroccoAmr& solver() { return *solver_; }
    const core::CroccoAmr& solver() const { return *solver_; }
    const core::CroccoAmr::Config& config() const { return cfg_; }
    parallel::SimComm* comm() { return comm_.get(); }

    /// Per-step output check; "" when it passes, else what failed.
    std::string checkStep();
    /// End-of-episode output checks; "" when they pass.
    std::string checkFinal() const;

private:
    std::string workload_;
    core::CroccoAmr::Config cfg_;
    std::unique_ptr<problems::Dmr> dmr_;
    std::unique_ptr<problems::TaylorGreen> tgv_;
    std::unique_ptr<parallel::SimComm> comm_;
    std::unique_ptr<core::CroccoAmr> solver_;
    double mass0_ = 0.0;
    double lastKe_ = 0.0;
};

/// FNV-1a digest of the valid state of every level, the grids and the
/// clock: equal digests mean bitwise-equal solver states.
std::uint64_t stateDigest(const core::CroccoAmr& solver);

/// Bytes the solver's resident fields occupy (state, RK3 accumulator,
/// coordinates, metrics; ghosts included) on the current hierarchy.
double workingSetBytes(const core::CroccoAmr& solver);

} // namespace perfbench
