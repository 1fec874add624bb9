#include "gpu/Gpu.hpp"
#include "gpu/ThreadPool.hpp"

#include "amr/MultiFab.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

namespace crocco::gpu {
namespace {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::IntVect;
using amr::MultiFab;

std::vector<Box> tiledBoxes(const Box& domain, int tile) {
    std::vector<Box> out;
    for (int k = domain.smallEnd(2); k <= domain.bigEnd(2); k += tile)
        for (int j = domain.smallEnd(1); j <= domain.bigEnd(1); j += tile)
            for (int i = domain.smallEnd(0); i <= domain.bigEnd(0); i += tile)
                out.emplace_back(IntVect{i, j, k},
                                 IntVect{i + tile - 1, j + tile - 1, k + tile - 1});
    return out;
}

/// Restore the process-wide pool size on scope exit so test order and the
/// GPU_NUM_THREADS ctest instances don't interfere.
struct ThreadGuard {
    int saved = numThreads();
    ~ThreadGuard() { setNumThreads(saved); }
};

// The determinism contract (docs/performance.md): reductions combine
// fixed-decomposition partials in a fixed order, so results are bitwise
// identical — EXPECT_EQ on doubles, not EXPECT_NEAR — for every thread
// count.
TEST(ThreadPool, MultiFabReductionsBitwiseIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    const Box domain(IntVect::zero(), IntVect(31));
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 2);
    MultiFab mf(ba, dm, 2, 1);
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.array(f);
        for (int n = 0; n < 2; ++n)
            amr::forEachCell(mf.validBox(f), [&](int i, int j, int k) {
                a(i, j, k, n) = std::sin(0.7 * i + 1.3 * j + 2.1 * k + n) * 1e3;
            });
    }

    setNumThreads(1);
    const double norm1 = mf.norm2(0);
    const double sum1 = mf.sum(1);
    const double min1 = mf.min(0);
    const double max1 = mf.max(1);

    for (int nt : {2, 3, 4, 8}) {
        setNumThreads(nt);
        EXPECT_EQ(mf.norm2(0), norm1) << "threads=" << nt;
        EXPECT_EQ(mf.sum(1), sum1) << "threads=" << nt;
        EXPECT_EQ(mf.min(0), min1) << "threads=" << nt;
        EXPECT_EQ(mf.max(1), max1) << "threads=" << nt;
    }
}

TEST(ThreadPool, ReduceMinBitwiseIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    const Box b(IntVect{-3, 0, 2}, IntVect{12, 9, 17});
    auto f = [](int i, int j, int k) {
        return std::cos(0.31 * i) * std::sin(0.17 * j) + 0.05 * k;
    };
    setNumThreads(1);
    const double mn1 = ReduceMin(b, f);
    const double mx1 = ReduceMax(b, f);
    for (int nt : {2, 5, 8}) {
        setNumThreads(nt);
        EXPECT_EQ(ReduceMin(b, f), mn1) << "threads=" << nt;
        EXPECT_EQ(ReduceMax(b, f), mx1) << "threads=" << nt;
    }
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
    ThreadGuard guard;
    for (int nt : {1, 2, 3, 4, 8}) {
        setNumThreads(nt);
        for (int ntasks : {1, 2, 7, 64, 1001}) {
            std::vector<std::atomic<int>> runs(static_cast<std::size_t>(ntasks));
            ThreadPool::instance().run(ntasks, [&](int t) {
                runs[static_cast<std::size_t>(t)].fetch_add(1);
            });
            for (int t = 0; t < ntasks; ++t)
                EXPECT_EQ(runs[static_cast<std::size_t>(t)].load(), 1)
                    << "threads=" << nt << " ntasks=" << ntasks << " task=" << t;
        }
    }
}

/// Deterministic per-key microsecond delay in [0, 200): a seeded hash, so a
/// seed fixes which tasks (or cells) are slow and thereby which thread gets
/// to claim what next.
int delayUs(std::uint64_t seed, std::uint64_t key) {
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + key;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<int>((x ^ (x >> 31)) % 200);
}

struct ClaimRun {
    std::vector<double> outputs; ///< one value per task
    double norm = 0.0;           ///< per-task partials combined in task order
    double rmin = 0.0, rmax = 0.0;
};

ClaimRun runWithDelays(std::uint64_t seed) {
    ClaimRun r;
    const int ntasks = 48;
    r.outputs.assign(ntasks, 0.0);
    std::vector<double> partial(ntasks, 0.0);
    ParallelForIndex(ntasks, [&](int t) {
        const auto ut = static_cast<std::size_t>(t);
        std::this_thread::sleep_for(std::chrono::microseconds(delayUs(seed, ut)));
        double v = 0.0;
        for (int m = 1; m <= 200 + t; ++m) v += std::sin(0.37 * m * (t + 1)) / m;
        r.outputs[ut] = v;
        partial[ut] = v * v;
    });
    for (double p : partial) r.norm += p;
    r.norm = std::sqrt(r.norm);

    const Box b(IntVect{-2, 0, 1}, IntVect{9, 6, 12});
    auto f = [&](int i, int j, int k) {
        if (delayUs(seed, static_cast<std::uint64_t>(k)) < 20 && i == 0 && j == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        return std::cos(0.31 * i) * std::sin(0.17 * j) + 0.05 * k;
    };
    r.rmin = ReduceMin(b, f);
    r.rmax = ReduceMax(b, f);
    return r;
}

// Claim order is timing: seeded per-task sleeps reshuffle which thread
// claims which task. Outputs and reductions must not notice — bitwise, at
// every thread count and for every seed.
TEST(ThreadPool, ClaimOrderNeverChangesResults) {
    ThreadGuard guard;
    setNumThreads(1);
    const ClaimRun ref = runWithDelays(0);
    for (int nt : {1, 2, 3, 4, 8}) {
        setNumThreads(nt);
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            const ClaimRun r = runWithDelays(seed);
            EXPECT_EQ(r.outputs, ref.outputs) << "threads=" << nt << " seed=" << seed;
            EXPECT_EQ(r.norm, ref.norm) << "threads=" << nt << " seed=" << seed;
            EXPECT_EQ(r.rmin, ref.rmin) << "threads=" << nt << " seed=" << seed;
            EXPECT_EQ(r.rmax, ref.rmax) << "threads=" << nt << " seed=" << seed;
        }
    }
}

TEST(SweepTiles, CutAcrossTheSweepLargestFirstOneLeadPerFab) {
    const std::vector<Box> boxes = {Box(IntVect{0, 0, 0}, IntVect{31, 23, 7}),
                                    Box(IntVect{32, 0, 0}, IntVect{36, 5, 6}),
                                    Box(IntVect{0, 24, 0}, IntVect{19, 31, 12})};
    for (int dir = 0; dir < 3; ++dir) {
        const std::vector<FabTile> tiles = sweepTiles(boxes, dir);
        std::vector<std::int64_t> covered(boxes.size(), 0);
        std::vector<int> leads(boxes.size(), 0);
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            const FabTile& tile = tiles[t];
            const Box& fab = boxes[static_cast<std::size_t>(tile.fab)];
            EXPECT_TRUE(fab.contains(tile.box));
            // Never cut along the sweep: every tile spans the fab in `dir`.
            EXPECT_EQ(tile.box.length(dir), fab.length(dir));
            int cutAxes = 0;
            for (int d = 0; d < 3; ++d) {
                if (tile.box.length(d) == fab.length(d)) continue;
                ++cutAxes;
                EXPECT_LE(tile.box.length(d), kSweepTileLen);
            }
            EXPECT_LE(cutAxes, 1);
            if (t > 0) {
                EXPECT_GE(tiles[t - 1].box.numPts(), tile.box.numPts());
            }
            covered[static_cast<std::size_t>(tile.fab)] += tile.box.numPts();
            leads[static_cast<std::size_t>(tile.fab)] += tile.lead ? 1 : 0;
        }
        for (std::size_t f = 0; f < boxes.size(); ++f) {
            EXPECT_EQ(covered[f], boxes[f].numPts()) << "dir " << dir << " fab " << f;
            EXPECT_EQ(leads[f], 1) << "dir " << dir << " fab " << f;
        }
    }
    // The fixed tile length, not the thread count, sets the decomposition.
    EXPECT_EQ(sweepTiles(boxes, 0).size(), 3u + 1u + 2u);
}

TEST(SweepTiles, OnlyLeadTilesCountLaunches) {
    ThreadGuard guard;
    const std::vector<Box> boxes = {Box(IntVect::zero(), IntVect{31, 15, 7}),
                                    Box(IntVect{32, 0, 0}, IntVect{47, 15, 7})};
    const auto tiles = sweepTiles(boxes, 0);
    ASSERT_GT(tiles.size(), boxes.size());
    for (int nt : {1, 4}) {
        setNumThreads(nt);
        const std::uint64_t before = LaunchStats::count();
        ParallelForTiles(tiles, [&](const FabTile& tile) {
            ParallelFor(tile.box, [](int, int, int) {});
            ParallelFor(tile.box, [](int, int, int) {});
        });
        // Two kernels per fab, however many tiles each fab was cut into.
        EXPECT_EQ(LaunchStats::count() - before, 2u * boxes.size()) << "threads=" << nt;
    }
}

TEST(ThreadPool, NestedLaunchesSerializeInsteadOfDeadlocking) {
    ThreadGuard guard;
    setNumThreads(4);
    const Box inner(IntVect::zero(), IntVect(3));
    std::vector<std::int64_t> counts(8, 0);
    ParallelForIndex(8, [&](int t) {
        EXPECT_TRUE(ThreadPool::inParallelRegion());
        // The nested launch must run serially on this worker (no pool
        // re-entry), so a plain counter is race-free here.
        std::int64_t c = 0;
        ParallelFor(inner, [&](int, int, int) { ++c; });
        counts[static_cast<std::size_t>(t)] = c;
    });
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    for (std::int64_t c : counts) EXPECT_EQ(c, inner.numPts());
}

TEST(ThreadPool, ExceptionInTaskPropagatesToCaller) {
    ThreadGuard guard;
    setNumThreads(3);
    EXPECT_THROW(ThreadPool::instance().run(
                     6,
                     [&](int t) {
                         if (t == 4) throw std::runtime_error("task 4 failed");
                     }),
                 std::runtime_error);
    // The pool survives a throwing job and runs the next one.
    std::vector<int> seen(5, 0);
    ThreadPool::instance().run(5, [&](int t) { seen[static_cast<std::size_t>(t)] = 1; });
    for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(ThreadPool, SingleThreadRunsTasksInOrderOnCaller) {
    ThreadGuard guard;
    setNumThreads(1);
    const auto caller = std::this_thread::get_id();
    std::vector<int> order;
    ThreadPool::instance().run(5, [&](int t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(t);
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DefaultHonorsEnvironmentOverride) {
    // defaultNumThreads reads GPU_NUM_THREADS each call — the hook the
    // GPU_NUM_THREADS=4 ctest instances and ParmParse rely on.
    const char* old = std::getenv("GPU_NUM_THREADS");
    const std::string saved = old ? old : "";
    ::setenv("GPU_NUM_THREADS", "7", 1);
    EXPECT_EQ(ThreadPool::defaultNumThreads(), 7);
    if (old) ::setenv("GPU_NUM_THREADS", saved.c_str(), 1);
    else ::unsetenv("GPU_NUM_THREADS");
    EXPECT_GE(ThreadPool::defaultNumThreads(), 1);
}

} // namespace
} // namespace crocco::gpu
