// The fused RHS pipeline (Config::fused) must be BITWISE identical to the
// unfused path on a full DMR run with regrids — the contract docs/
// performance.md §5 lays out: every cached primitive/metric value equals
// the unfused inline computation bit-for-bit, the fused flux+divergence
// pencil pass evaluates the exact interfaceFlux arithmetic once per face,
// the dir-0 assignment reproduces setVal(0) + `-=`, and the fused RK3
// update performs the mult/saxpy/saxpy chain per cell in order.
//
// Thread counts are swept in-test (1 = serial launches, 8 = pooled
// claim-scheduled tasks with batched phases), so the _mt ctest variant re-checks the same
// property under GPU_NUM_THREADS=4 as well. The launch-count/modeled-bytes
// profiler columns must show the fusion: strictly fewer counted launches
// and modeled DRAM bytes per WENO region.
#include "core/CroccoAmr.hpp"

#include "core/FusedRhs.hpp"
#include "gpu/Arena.hpp"
#include "gpu/ThreadPool.hpp"
#include "problems/Dmr.hpp"

#ifdef CROCCO_CHECK
#include "check/Check.hpp"
#endif

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace crocco::core {
namespace {

using problems::Dmr;

Dmr::Options smallDmr() {
    Dmr::Options o;
    o.nx = 64;
    o.ny = 16;
    o.nz = 8;
    o.maxLevel = 1;
    return o;
}

std::unique_ptr<CroccoAmr> runDmr(bool fusedPipe, int nsteps) {
    Dmr dmr(smallDmr());
    auto cfg = dmr.solverConfig(CodeVersion::V20);
    cfg.regridFreq = 2; // include regrids in the compared trajectory
    cfg.fused = fusedPipe;
    auto s = std::make_unique<CroccoAmr>(dmr.geometry(), cfg, dmr.mapping());
    s->init(dmr.initialCondition(), dmr.boundaryConditions());
    s->evolve(nsteps);
    return s;
}

void expectBitwiseEqual(const CroccoAmr& a, const CroccoAmr& b) {
    ASSERT_EQ(a.finestLevel(), b.finestLevel());
    EXPECT_EQ(a.time(), b.time());
    EXPECT_EQ(a.lastDt(), b.lastDt());
    for (int lev = 0; lev <= a.finestLevel(); ++lev) {
        const amr::MultiFab& ua = a.state(lev);
        const amr::MultiFab& ub = b.state(lev);
        ASSERT_EQ(ua.boxArray(), ub.boxArray()) << "level " << lev;
        for (int f = 0; f < ua.numFabs(); ++f) {
            auto x = ua.const_array(f);
            auto y = ub.const_array(f);
            for (int n = 0; n < NCONS; ++n)
                amr::forEachCell(ua.validBox(f), [&](int i, int j, int k) {
                    EXPECT_EQ(x(i, j, k, n), y(i, j, k, n))
                        << "level " << lev << " fab " << f << " comp " << n
                        << " (" << i << "," << j << "," << k << ")";
                });
        }
    }
}

TEST(FusedRhs, DmrBitwiseIdenticalToUnfusedPath) {
    for (int nthreads : {1, 8}) {
        gpu::setNumThreads(nthreads);
        auto unfused = runDmr(false, 4);
        auto fusedRun = runDmr(true, 4);
        SCOPED_TRACE("nthreads=" + std::to_string(nthreads));
        expectBitwiseEqual(*unfused, *fusedRun);
        // The fused run exercised the cache phase; the unfused run did not.
        EXPECT_TRUE(fusedRun->profiler().has("PrimCache"));
        EXPECT_FALSE(unfused->profiler().has("PrimCache"));
        // Launch fusion is visible in the per-region counted launches: the
        // unfused WENO sweep is 3 kernels per fab, the fused one 2 flat.
        EXPECT_LT(fusedRun->profiler().launches("WENOx"),
                  unfused->profiler().launches("WENOx"));
        EXPECT_GT(unfused->profiler().launches("WENOx"), 0);
        // And in the modeled-DRAM column (face-flux round trip removed).
        EXPECT_GT(fusedRun->profiler().modeledBytes("WENOx"), 0.0);
        EXPECT_LT(fusedRun->profiler().modeledBytes("WENOx"),
                  unfused->profiler().modeledBytes("WENOx"));
        EXPECT_LT(fusedRun->profiler().modeledBytes("Update"),
                  unfused->profiler().modeledBytes("Update"));
    }
    gpu::setNumThreads(1);
}

TEST(FusedRhs, ThreadCountDoesNotChangeFusedResults) {
    // Determinism within the fused path itself: batched phases tile fabs
    // onto workers, but every dU cell is owned by exactly one pencil/fab,
    // so the pooled run reproduces the serial-launch run bit-for-bit.
    gpu::setNumThreads(1);
    auto t1 = runDmr(true, 3);
    gpu::setNumThreads(8);
    auto t8 = runDmr(true, 3);
    gpu::setNumThreads(1);
    expectBitwiseEqual(*t1, *t8);
}

#ifdef CROCCO_CHECK
TEST(FusedRhs, ScratchPoolRepoisonsPrimCacheBetweenStages) {
    // The shared primitive cache is leased from the ScratchPool and
    // recycled across RK3 stages. A consumer reading a cache cell the
    // current stage has not yet written must abort in check builds — i.e.
    // the pool re-poisons recycled storage on every acquire, so a stale
    // previous-stage value can never be read silently.
    const amr::Box box(amr::IntVect(0, 0, 0), amr::IntVect(7, 7, 7));
    {
        auto lease = gpu::ScratchPool::instance().acquire(box, fused::NCACHE);
        auto a = lease.fab().array();
        a(3, 3, 3, fused::QC_P) = 1.0; // stage N writes...
        EXPECT_EQ(lease.fab().const_array()(3, 3, 3, fused::QC_P), 1.0);
    } // ...lease returns to the free list
    auto lease = gpu::ScratchPool::instance().acquire(box, fused::NCACHE);
    check::ScopedFailureCapture cap;
    (void)lease.fab().const_array()(3, 3, 3, fused::QC_P);
    EXPECT_EQ(cap.count(check::Kind::Uninit), 1u)
        << "recycled cache storage must be re-poisoned on acquire";
}
#endif

} // namespace
} // namespace crocco::core
