#pragma once

#include <functional>

namespace crocco::gpu {

/// RAII marker for work that belongs to a launch counted elsewhere: while
/// alive on a thread, gpu::LaunchStats::add() suppresses counting. Two
/// users: one task of a *batched* launch (the fused RHS pipeline's launch
/// aggregation, gpu::BatchedParallelForIndex), whose per-fab sub-kernels
/// are work descriptors of one aggregated device launch; and a non-lead
/// tile of a tiled fab sweep (gpu::ParallelForTiles), whose kernels are
/// sub-blocks of the launches its fab's lead tile counts.
class BatchedPhaseScope {
public:
    BatchedPhaseScope();
    ~BatchedPhaseScope();
    BatchedPhaseScope(const BatchedPhaseScope&) = delete;
    BatchedPhaseScope& operator=(const BatchedPhaseScope&) = delete;

private:
    bool prev_;
};

/// Deterministic host thread pool behind the tiled gpu::ParallelFor /
/// reduction launches (the host-backend analog of Parthenon-style tiled
/// kernel execution).
///
/// Design constraints, in order:
///  1. *Determinism.* The caller and the workers claim task indices from one
///     atomic counter, so which thread runs task t depends on timing — but
///     what task t computes does not. Tasks write disjoint data, and every
///     reduction writes per-task partials that the caller combines in task
///     order after the launch (ReduceMin/ReduceMax, MultiFab norms), so
///     every result is bitwise independent of the thread count and of the
///     claim order. A task must therefore never depend on which thread runs
///     it or on which other tasks ran before it.
///  2. *Balance.* A thread that finishes early claims the next task instead
///     of idling behind a fixed assignment, so launches whose tasks differ in
///     cost (unequal boxes, cost-ordered tile lists) keep every thread busy
///     until the list runs dry. Listing expensive tasks first shortens the
///     tail (see gpu::ParallelForTiles).
///  3. *Safety under nesting.* A task that itself calls ParallelFor (fab-
///     level parallelism over kernels that launch per-cell loops) must not
///     deadlock: nested launches detect they are inside a pool task and run
///     serially, exactly as nested device launches serialize on one stream.
///  4. *1 thread == today's behavior.* With numThreads() == 1 nothing is
///     dispatched and callers' serial Fortran-order loops are preserved.
///
/// Configured via the ParmParse key `gpu.num_threads`; the environment
/// variable GPU_NUM_THREADS overrides the deck, and with neither set the
/// default is std::thread::hardware_concurrency().
class ThreadPool {
public:
    static ThreadPool& instance();

    int numThreads() const { return nthreads_; }

    /// Resize the pool (clamped to >= 1). Joins and respawns workers; must
    /// not be called from inside a pool task.
    void setNumThreads(int n);

    /// GPU_NUM_THREADS env var if set, else hardware_concurrency().
    static int defaultNumThreads();

    /// True while the calling thread is executing a pool task (used to
    /// serialize nested launches).
    static bool inParallelRegion();

    /// True while the calling thread is inside a BatchedPhaseScope (used by
    /// gpu::LaunchStats to fold a batched phase's per-fab sub-kernels, or a
    /// non-lead tile's kernels, into the launches counted for them).
    static bool inBatchedPhase();

    /// Run f(t) exactly once for every t in [0, ntasks), in any order and
    /// on any thread: the caller and the workers claim indices from a shared
    /// counter until none is left. f must write disjoint data for distinct t
    /// (the per-cell kernel contract). Runs serially in task order when
    /// numThreads() == 1, ntasks <= 1, or when nested inside another run().
    /// A throwing task stops its thread's claiming; the other threads finish
    /// the remaining tasks, and the first exception caught is rethrown on
    /// the calling thread once every thread has stopped.
    void run(int ntasks, const std::function<void(int)>& f);

    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

private:
    ThreadPool();
    struct Impl;
    Impl* impl_;
    int nthreads_ = 1;
};

inline int numThreads() { return ThreadPool::instance().numThreads(); }
inline void setNumThreads(int n) { ThreadPool::instance().setNumThreads(n); }

} // namespace crocco::gpu
