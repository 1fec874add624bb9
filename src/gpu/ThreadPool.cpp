#include "gpu/ThreadPool.hpp"

#ifdef CROCCO_CHECK
#include "check/RaceDetector.hpp"
#endif

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace crocco::gpu {

namespace {
thread_local bool tlInTask = false;
thread_local bool tlInBatch = false;
} // namespace

BatchedPhaseScope::BatchedPhaseScope() : prev_(tlInBatch) { tlInBatch = true; }

BatchedPhaseScope::~BatchedPhaseScope() { tlInBatch = prev_; }

struct ThreadPool::Impl {
    std::mutex m;
    std::condition_variable wake;  // workers wait here for a new epoch
    std::condition_variable done;  // caller waits here for stripe completion
    std::vector<std::thread> workers;

    // Job state, guarded by m (read by workers only between wake/done).
    const std::function<void(int)>* job = nullptr;
    int ntasks = 0;
    int nthreads = 1;
    std::uint64_t epoch = 0; // bumped per run(); workers run once per epoch
    int remaining = 0;       // workers still executing the current epoch
    bool stop = false;

    std::exception_ptr firstError;
    std::mutex errM;

    // Schedule tracing (single-threaded only; no locking needed).
    bool tracing = false;
    std::vector<TracedLaunch> trace;

    void runStripe(int tid) {
        tlInTask = true;
        try {
            for (int t = tid; t < ntasks; t += nthreads) {
#ifdef CROCCO_CHECK
                // Bind this worker's Array4 accesses to task t; nested
                // launches run inline here, so their accesses are charged to
                // the enclosing task — exactly the serialization rule.
                check::RaceDetector::TaskScope scope(t);
#endif
                (*job)(t);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(errM);
            if (!firstError) firstError = std::current_exception();
        }
        tlInTask = false;
    }

    void workerLoop(int tid) {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(m);
                wake.wait(lk, [&] { return stop || epoch != seen; });
                if (stop) return;
                seen = epoch;
            }
            runStripe(tid);
            {
                std::lock_guard<std::mutex> lk(m);
                if (--remaining == 0) done.notify_one();
            }
        }
    }

    void spawn(int n) {
        nthreads = n;
        for (int t = 1; t < n; ++t)
            workers.emplace_back([this, t] { workerLoop(t); });
    }

    void joinAll() {
        {
            std::lock_guard<std::mutex> lk(m);
            stop = true;
        }
        wake.notify_all();
        for (auto& w : workers) w.join();
        workers.clear();
        stop = false;
        // Workers spawned later start with seen == 0; the epoch must restart
        // there too, or they would "see" a phantom new epoch with no job.
        epoch = 0;
        job = nullptr;
        remaining = 0;
    }
};

ThreadPool::ThreadPool() : impl_(new Impl) {
    nthreads_ = defaultNumThreads();
    impl_->spawn(nthreads_);
}

ThreadPool::~ThreadPool() {
    impl_->joinAll();
    delete impl_;
}

ThreadPool& ThreadPool::instance() {
    static ThreadPool pool;
    return pool;
}

int ThreadPool::defaultNumThreads() {
    if (const char* env = std::getenv("GPU_NUM_THREADS")) {
        const int n = std::atoi(env);
        if (n >= 1) return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

bool ThreadPool::inParallelRegion() { return tlInTask; }

bool ThreadPool::inBatchedPhase() { return tlInBatch; }

void ThreadPool::setNumThreads(int n) {
    if (n < 1) n = 1;
    if (n == nthreads_) return;
    impl_->joinAll();
    nthreads_ = n;
    impl_->spawn(n);
}

void ThreadPool::beginScheduleTrace() {
    if (nthreads_ != 1)
        throw std::logic_error(
            "ThreadPool::beginScheduleTrace requires numThreads() == 1");
    impl_->trace.clear();
    impl_->tracing = true;
}

std::vector<TracedLaunch> ThreadPool::endScheduleTrace() {
    impl_->tracing = false;
    return std::move(impl_->trace);
}

void ThreadPool::run(int ntasks, const std::function<void(int)>& f) {
    if (ntasks <= 0) return;
    if (nthreads_ == 1 || ntasks == 1 || tlInTask) {
        if (impl_->tracing && !tlInTask) {
            std::vector<double> taskNs(static_cast<std::size_t>(ntasks));
            for (int t = 0; t < ntasks; ++t) {
                const auto t0 = std::chrono::steady_clock::now();
                f(t);
                taskNs[static_cast<std::size_t>(t)] =
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
            }
            impl_->trace.push_back(TracedLaunch{std::move(taskNs)});
            return;
        }
        for (int t = 0; t < ntasks; ++t) f(t);
        return;
    }
#ifdef CROCCO_CHECK
    check::RaceDetector::instance().beginLaunch(ntasks);
#endif
    {
        std::lock_guard<std::mutex> lk(impl_->m);
        impl_->job = &f;
        impl_->ntasks = ntasks;
        impl_->remaining = nthreads_ - 1;
        ++impl_->epoch;
    }
    impl_->wake.notify_all();
    impl_->runStripe(0); // the caller is thread 0
    {
        std::unique_lock<std::mutex> lk(impl_->m);
        impl_->done.wait(lk, [&] { return impl_->remaining == 0; });
        impl_->job = nullptr;
    }
#ifdef CROCCO_CHECK
    // Scan before rethrowing a task exception: a race report should not be
    // masked by the exception it may well have caused.
    check::RaceDetector::instance().endLaunch();
#endif
    if (impl_->firstError) {
        auto e = impl_->firstError;
        impl_->firstError = nullptr;
        std::rethrow_exception(e);
    }
}

} // namespace crocco::gpu
