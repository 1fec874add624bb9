// Full-solver acceptance for the rank-pair aggregated exchange
// (comm.aggregate, docs/performance.md §6): a complete DMR run with regrids
// must be BITWISE identical with aggregation on and off — across thread
// counts, composed with the fused-RHS path, under
// a seeded drop+corrupt fault campaign at aggregate granularity, and
// composed with PR6 rank-death recovery (the satellite regression: the
// communicator shrink renumbers ranks, so CommCache::noteCommSize must drop
// every cached aggregation plan). Also asserts the comm.log_summary digest.
#include "core/CroccoAmr.hpp"

#include "amr/CommCache.hpp"
#include "gpu/ThreadPool.hpp"
#include "parallel/CommFaults.hpp"
#include "problems/Dmr.hpp"
#include "resilience/BuddyCheckpoint.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace crocco::core {
namespace {

using amr::CommCache;
using amr::MultiFab;
using problems::Dmr;

Dmr smallDmr() {
    Dmr::Options o;
    o.nx = 32;
    o.ny = 8;
    o.nz = 8;
    o.maxLevel = 1;
    return Dmr(o);
}

CroccoAmr::Config soakConfig(int nranks) {
    auto cfg = smallDmr().solverConfig(CodeVersion::V20);
    cfg.nranks = nranks;
    cfg.regridFreq = 3; // several regrids inside a 10-step run
    // Small boxes so every rank owns several and the exchanges actually
    // cross ranks — otherwise there is nothing to aggregate.
    cfg.amrInfo.maxGridSize = 8;
    return cfg;
}

std::unique_ptr<CroccoAmr> makeSolver(const CroccoAmr::Config& cfg,
                                      parallel::SimComm* comm) {
    auto dmr = smallDmr();
    auto solver = std::make_unique<CroccoAmr>(dmr.geometry(), cfg,
                                              dmr.mapping(), comm);
    solver->init(dmr.initialCondition(), dmr.boundaryConditions());
    return solver;
}

void expectBitwiseIdentical(const CroccoAmr& a, const CroccoAmr& b) {
    ASSERT_EQ(a.stepCount(), b.stepCount());
    ASSERT_EQ(a.time(), b.time());
    ASSERT_EQ(a.finestLevel(), b.finestLevel());
    for (int lev = 0; lev <= a.finestLevel(); ++lev) {
        const MultiFab& ua = a.state(lev);
        const MultiFab& ub = b.state(lev);
        ASSERT_EQ(ua.boxArray().size(), ub.boxArray().size()) << "level " << lev;
        for (int f = 0; f < ua.numFabs(); ++f) {
            ASSERT_EQ(ua.validBox(f), ub.validBox(f));
            auto x = ua.const_array(f);
            auto y = ub.const_array(f);
            for (int n = 0; n < NCONS; ++n)
                amr::forEachCell(ua.validBox(f), [&](int i, int j, int k) {
                    ASSERT_EQ(x(i, j, k, n), y(i, j, k, n))
                        << "level " << lev << " fab " << f << " comp " << n
                        << " (" << i << "," << j << "," << k << ")";
                });
        }
    }
}

/// The solver ctor latches cfg.commAggregate into the CommCache singleton;
/// make every test start and finish from the unaggregated default.
struct CacheReset {
    CacheReset() { wipe(); }
    ~CacheReset() { wipe(); }
    static void wipe() {
        auto& cache = CommCache::instance();
        cache.setAggregate(false);
        cache.clear();
        cache.resetStats();
    }
};

std::size_t fillBoundaryMessages(const parallel::SimComm& comm) {
    std::size_t n = 0;
    for (const auto& m : comm.log().messages())
        if (m.kind == parallel::MessageKind::PointToPoint &&
            m.tag.find("Fill") != std::string::npos)
            ++n;
    return n;
}

TEST(AggregateFill, DmrWithRegridsBitwiseIdenticalAcrossThreadCounts) {
    CacheReset reset;
    const int nsteps = 10;
    for (int nthreads : {1, 8}) {
        gpu::setNumThreads(nthreads);
        SCOPED_TRACE("nthreads=" + std::to_string(nthreads));

        CacheReset::wipe();
        parallel::SimComm plainComm(4);
        auto plain = makeSolver(soakConfig(4), &plainComm);
        plain->evolve(nsteps);

        CacheReset::wipe();
        parallel::SimComm aggComm(4);
        auto cfg = soakConfig(4);
        cfg.commAggregate = true;
        auto agg = makeSolver(cfg, &aggComm);
        agg->evolve(nsteps);

        expectBitwiseIdentical(*plain, *agg);
        // The whole point: far fewer wire messages for the same bytes.
        EXPECT_LT(fillBoundaryMessages(aggComm), fillBoundaryMessages(plainComm));
        EXPECT_GT(CommCache::instance().stats().planHits, 0);
    }
    gpu::setNumThreads(1);
}

TEST(AggregateFill, ComposesWithFusedPipeline) {
    // Aggregation must be invisible with and without the fused RHS
    // pipeline (PR7).
    CacheReset reset;
    const int nsteps = 6;
    for (bool fused : {false, true}) {
        SCOPED_TRACE("fused=" + std::to_string(fused));
        CacheReset::wipe();
        parallel::SimComm plainComm(4);
        auto cfg = soakConfig(4);
        cfg.fused = fused;
        auto plain = makeSolver(cfg, &plainComm);
        plain->evolve(nsteps);

        CacheReset::wipe();
        parallel::SimComm aggComm(4);
        cfg.commAggregate = true;
        auto agg = makeSolver(cfg, &aggComm);
        agg->evolve(nsteps);

        expectBitwiseIdentical(*plain, *agg);
        EXPECT_LT(fillBoundaryMessages(aggComm),
                  fillBoundaryMessages(plainComm));
    }
}

TEST(AggregateFill, SeededDropAndCorruptSoakAtAggregateGranularity) {
    // Verified exchange at pair granularity: one CRC stamp per packed
    // message, one NACK + one whole-buffer retransmit per corrupted or
    // dropped pair — and the run still lands on the fault-free trajectory.
    CacheReset reset;
    const int nsteps = 10;
    parallel::SimComm cleanComm(4);
    auto reference = makeSolver(soakConfig(4), &cleanComm);
    reference->evolve(nsteps);

    CacheReset::wipe();
    parallel::SimComm comm(4);
    parallel::CommFaults faults(2026);
    parallel::CommFaults::Rates rates;
    rates.drop = 0.02;
    rates.corrupt = 0.02;
    faults.setRates(rates);
    comm.attachFaults(&faults);
    auto cfg = soakConfig(4);
    cfg.commAggregate = true;
    auto solver = makeSolver(cfg, &comm);
    solver->evolve(nsteps);

    const auto& fs = comm.faultStats();
    EXPECT_GT(fs.verified, 0);
    EXPECT_GT(fs.retransmits, 0) << "campaign never fired — soak is vacuous";
    EXPECT_EQ(fs.crcFailures, fs.nacks);
    expectBitwiseIdentical(*solver, *reference);
}

TEST(AggregateFill, ComposesWithRankDeathRecovery) {
    // Satellite regression: mid-run rank death shrinks the communicator and
    // renumbers ranks; cached aggregation plans hold the OLD rank ids, so
    // noteCommSize must drop them before the next exchange replays. The
    // recovered aggregated run must still match the clean unaggregated one.
    CacheReset reset;
    const int nsteps = 10;
    parallel::SimComm cleanComm(4);
    auto reference = makeSolver(soakConfig(4), &cleanComm);
    reference->evolve(nsteps);

    CacheReset::wipe();
    parallel::SimComm comm(4);
    parallel::CommFaults faults;
    faults.armRankDeath(5, 2);
    comm.attachFaults(&faults);
    auto cfg = soakConfig(4);
    cfg.commAggregate = true;
    auto solver = makeSolver(cfg, &comm);

    resilience::BuddyCheckpoint buddy;
    CroccoAmr::EvolveOptions opts;
    opts.buddy = &buddy;
    opts.buddyEvery = 2;
    solver->evolve(nsteps, opts);

    EXPECT_EQ(solver->buddyRecoveryCount(), 1);
    EXPECT_EQ(comm.size(), 3);
    // Every surviving plan was rebuilt against the shrunk communicator.
    EXPECT_EQ(CommCache::instance().notedCommSize(), 3);
    expectBitwiseIdentical(*solver, *reference);
}

TEST(AggregateFill, LogSummaryDigestsEachStep) {
    CacheReset reset;
    parallel::SimComm comm(4);
    auto cfg = soakConfig(4);
    cfg.commAggregate = true;
    cfg.commLogSummary = true;
    auto solver = makeSolver(cfg, &comm);
    EXPECT_TRUE(solver->lastCommSummary().empty());
    solver->evolve(3);

    // emitCommSummary ran on the last step (0-based index 2) and digested
    // only that step's traffic.
    const std::string& line = solver->lastCommSummary();
    ASSERT_FALSE(line.empty());
    EXPECT_NE(line.find("step 2 "), std::string::npos) << line;
    EXPECT_NE(line.find("comm: msgs="), std::string::npos) << line;
    EXPECT_NE(line.find("rtx=0"), std::string::npos) << line;
    // The digest is a per-step slice, not the cumulative log: three steps of
    // traffic add up to strictly more than the last step's digest alone.
    const auto total = comm.log().summarize();
    EXPECT_EQ(line.find("msgs=" + std::to_string(total.messages) + " "),
              std::string::npos)
        << "step digest matched the cumulative count; line: " << line;
}

} // namespace
} // namespace crocco::core
