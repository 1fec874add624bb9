#include "check/Check.hpp"
#include "check/RaceDetector.hpp"
#include "gpu/Gpu.hpp"
#include "problems/Dmr.hpp"

#include <gtest/gtest.h>

// ThreadPool race detector: deliberately conflicting launches must be
// flagged, the codebase's legitimate decompositions (disjoint slabs,
// disjoint components, nested serialized launches) must stay clean, and a
// stock RK3 advance at 8 threads must produce zero reports.
//
// The "racy" launches below touch *disjoint memory* whose per-task bounding
// boxes overlap: the detector is conservative over bboxes, so it flags
// them, while the test itself stays free of real data races (and clean
// under thread sanitizers).

#ifndef CROCCO_CHECK

namespace {
TEST(RaceDetector, RequiresCheckBuild) {
    GTEST_SKIP() << "race detector suites require -DCROCCO_CHECK=ON";
}
} // namespace

#else

namespace crocco::gpu {
namespace {

using amr::Box;
using amr::FArrayBox;
using amr::IntVect;

struct ThreadGuard {
    int saved = numThreads();
    ~ThreadGuard() { setNumThreads(saved); }
};

TEST(RaceDetector, OverlappingWritesBetweenTasksFlagged) {
    ThreadGuard guard;
    setNumThreads(4);
    FArrayBox fab(Box(IntVect(0), IntVect(7)), 1);
    auto a = fab.array();
    check::ScopedFailureCapture cap;
    ParallelForIndex(2, [&](int t) {
        // Opposite corners per task: disjoint cells, identical bboxes.
        a(t == 0 ? 0 : 7, 0, 0) = 1.0;
        a(t == 0 ? 7 : 0, 7, 7) = 2.0;
    });
    ASSERT_GE(cap.count(check::Kind::Race), 1u);
    const auto v = cap.violations(); // by value: violations() returns a copy
    EXPECT_NE(v[0].message.find("write-write"), std::string::npos) << v[0].message;
    EXPECT_NE(v[0].message.find("fab#"), std::string::npos) << v[0].message;
}

TEST(RaceDetector, ReadWriteOverlapBetweenTasksFlagged) {
    ThreadGuard guard;
    setNumThreads(4);
    FArrayBox fab(Box(IntVect(0), IntVect(3)), 1); // bare fab: fully Valid
    auto w = fab.array();
    auto r = fab.const_array();
    check::ScopedFailureCapture cap;
    ParallelForIndex(2, [&](int t) {
        if (t == 0) {
            w(0, 0, 0) = 1.0;
            w(3, 3, 3) = 2.0;
        } else {
            (void)r(3, 0, 0);
            (void)r(0, 3, 3);
        }
    });
    ASSERT_GE(cap.count(check::Kind::Race), 1u);
    EXPECT_NE(cap.violations()[0].message.find("read-write"),
              std::string::npos)
        << cap.violations()[0].message;
}

TEST(RaceDetector, DisjointSlabsAndComponentsClean) {
    ThreadGuard guard;
    setNumThreads(4);
    const Box box(IntVect(0), IntVect(7));
    FArrayBox fab(box, 2);
    auto a = fab.array();
    auto& det = check::RaceDetector::instance();
    const auto before = det.launches();
    check::ScopedFailureCapture cap;
    // Standard per-cell kernel: tasks own disjoint k-slabs.
    ParallelFor(box, [&](int i, int j, int k) { a(i, j, k, 0) = i + j + k; });
    // Same cells, disjoint components per task: compMask keeps it clean.
    ParallelFor(box, 2, [&](int i, int j, int k, int n) { a(i, j, k, n) = n; });
    EXPECT_EQ(cap.count(), 0u);
    EXPECT_GE(det.launches(), before + 2) << "launches were pool-parallel";
}

TEST(RaceDetector, NestedLaunchesChargeTheEnclosingTask) {
    ThreadGuard guard;
    setNumThreads(4);
    FArrayBox fab(Box(IntVect(0), IntVect(7)), 1);
    auto a = fab.array();
    {
        // Disjoint halves via nested per-cell launches: clean.
        check::ScopedFailureCapture cap;
        ParallelForIndex(2, [&](int t) {
            const Box half(IntVect{0, 0, t * 4}, IntVect{7, 7, t * 4 + 3});
            ParallelFor(half, [&](int i, int j, int k) { a(i, j, k) = t; });
        });
        EXPECT_EQ(cap.count(), 0u);
    }
    {
        // Single-cell nested launches at opposite corners: each outer task's
        // accumulated bbox spans the fab, so the pair is flagged even though
        // every access went through a (serialized) nested launch.
        check::ScopedFailureCapture cap;
        ParallelForIndex(2, [&](int t) {
            const IntVect c0 = t == 0 ? IntVect{0, 0, 0} : IntVect{7, 7, 7};
            const IntVect c1 = t == 0 ? IntVect{7, 7, 6} : IntVect{0, 0, 1};
            ParallelFor(Box(c0, c0), [&](int i, int j, int k) { a(i, j, k) = t; });
            ParallelFor(Box(c1, c1), [&](int i, int j, int k) { a(i, j, k) = t; });
        });
        EXPECT_GE(cap.count(check::Kind::Race), 1u);
    }
}

TEST(RaceDetector, SerialExecutionIsUnrecorded) {
    ThreadGuard guard;
    setNumThreads(1);
    FArrayBox fab(Box(IntVect(0), IntVect(3)), 1);
    auto a = fab.array();
    auto& det = check::RaceDetector::instance();
    const auto before = det.launches();
    check::ScopedFailureCapture cap;
    // Serially executed tasks may legitimately revisit cells.
    ParallelForIndex(2, [&](int t) { a(0, 0, 0) = t; });
    EXPECT_EQ(cap.count(), 0u);
    EXPECT_EQ(det.launches(), before);
}

TEST(RaceDetector, StockRk3AdvanceCleanAtEightThreads) {
    ThreadGuard guard;
    problems::Dmr::Options o;
    o.nx = 64;
    o.ny = 16;
    o.nz = 8;
    o.maxLevel = 1;
    problems::Dmr dmr(o);
    auto cfg = dmr.solverConfig(core::CodeVersion::V20);
    cfg.gpuNumThreads = 8; // the solver ctor installs this in the pool
    cfg.regridFreq = 2;    // include a regrid in the watched window
    core::CroccoAmr solver(dmr.geometry(), cfg, dmr.mapping());
    auto& det = check::RaceDetector::instance();
    const auto before = det.launches();
    check::ScopedFailureCapture cap;
    solver.init(dmr.initialCondition(), dmr.boundaryConditions());
    solver.evolve(2);
    EXPECT_EQ(cap.count(), 0u) << (cap.count() ? cap.violations()[0].message
                                               : std::string());
    EXPECT_GT(det.launches(), before) << "the detector actually engaged";
}

} // namespace
} // namespace crocco::gpu

#endif // CROCCO_CHECK
