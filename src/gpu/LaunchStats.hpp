#pragma once

#include "gpu/ThreadPool.hpp"

#include <atomic>
#include <cstdint>

namespace crocco::gpu {

/// Global counter of modeled device kernel launches — the observable the
/// paper's launch-overhead story (§IV, deep AMR levels => many small boxes
/// => per-launch cost dominates) is told against.
///
/// Counting semantics:
///  * Every gpu::ParallelFor / reduction call models exactly one device
///    kernel launch (the k-slab tiling is an execution detail of one
///    launch, not extra launches), and each per-fab MultiFab arithmetic
///    sweep (setVal / mult / saxpy) models one launch per fab.
///  * A *batched* phase (gpu::BatchedParallelForIndex) aggregates the
///    per-fab sub-kernels of one pipeline phase into a fixed number of
///    launches with per-fab work descriptors: the phase charges
///    `kernelsPerTask` launches once, and the nested per-fab launches are
///    suppressed while the batch is active (ThreadPool::inBatchedPhase()).
///  * A *tiled* sweep (gpu::ParallelForTiles) cuts each fab's launch into
///    tiles; only the fab's lead tile counts its kernels, so the sweep
///    charges what the one-task-per-fab sweep does.
///
/// perf::TinyProfiler::Scope snapshots count() on entry/exit, giving every
/// profiled region a launch column; the counter itself is a relaxed atomic
/// so pool workers can count concurrently without ordering cost.
class LaunchStats {
public:
    static std::uint64_t count() {
        return counter().load(std::memory_order_relaxed);
    }

    /// One (or n) modeled launches, suppressed inside a batched phase.
    static void add(std::uint64_t n = 1) {
        if (ThreadPool::inBatchedPhase()) return;
        counter().fetch_add(n, std::memory_order_relaxed);
    }

    /// Launches of a batched phase itself — never suppressed.
    static void addBatched(std::uint64_t n) {
        counter().fetch_add(n, std::memory_order_relaxed);
    }

    static void reset() { counter().store(0, std::memory_order_relaxed); }

private:
    static std::atomic<std::uint64_t>& counter() {
        static std::atomic<std::uint64_t> c{0};
        return c;
    }
};

} // namespace crocco::gpu
