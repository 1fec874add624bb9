// Rank-pair aggregated exchange (comm.aggregate, docs/performance.md §6):
// every off-rank copy between one (src, dst) rank pair packs into a single
// staging buffer and crosses the wire as exactly one SimComm message. The
// field data must stay bitwise-identical to the unaggregated exchange in
// every mode — blocking, async Begin/End, CRC-verified, and under injected
// corruption — while the message log intentionally collapses to one entry
// per communicating pair. Also pinned here: the aggregation-plan cache
// (hit/build stats, DM-fingerprint validation, rank-shrink invalidation)
// and the CommLog per-step summary the comm.log_summary key prints.
#include "amr/CommCache.hpp"

#include "amr/MultiFab.hpp"
#include "gpu/ThreadPool.hpp"
#include "parallel/CommFaults.hpp"
#include "parallel/SimComm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace crocco::amr {
namespace {

double field(const IntVect& p, int comp) {
    return comp + std::sin(0.3 * p[0]) + 2.0 * std::cos(0.5 * p[1]) +
           0.1 * p[2] * p[2];
}

std::vector<Box> tiledBoxes(const Box& domain, int size) {
    std::vector<Box> out;
    forEachCell(domain.coarsen(size), [&](int i, int j, int k) {
        const IntVect lo = IntVect{i, j, k} * size;
        out.emplace_back(lo, lo + IntVect(size - 1));
    });
    return out;
}

void fillField(MultiFab& mf) {
    for (int f = 0; f < mf.numFabs(); ++f) {
        auto a = mf.array(f);
        for (int n = 0; n < mf.nComp(); ++n)
            forEachCell(mf.validBox(f), [&](int i, int j, int k) {
                a(i, j, k, n) = field({i, j, k}, n);
            });
    }
}

/// The singleton cache carries the aggregate flag and plans across tests;
/// scope every test body so no state leaks into the rest of the suite.
struct CacheGuard {
    explicit CacheGuard(bool aggregate) {
        auto& cache = CommCache::instance();
        cache.clear();
        cache.resetStats();
        cache.setAggregate(aggregate);
    }
    ~CacheGuard() {
        auto& cache = CommCache::instance();
        cache.setAggregate(false);
        cache.clear();
        cache.resetStats();
    }
};

void expectSameGhosts(const MultiFab& a, const MultiFab& b) {
    ASSERT_EQ(a.numFabs(), b.numFabs());
    for (int f = 0; f < a.numFabs(); ++f) {
        auto x = a.const_array(f);
        auto y = b.const_array(f);
        for (int n = 0; n < a.nComp(); ++n)
            forEachCell(a.grownBox(f), [&](int i, int j, int k) {
                ASSERT_EQ(x(i, j, k, n), y(i, j, k, n))
                    << "fab " << f << " comp " << n << " (" << i << "," << j
                    << "," << k << ")";
            });
    }
}

/// (src, dst) -> summed payload bytes of a tag's messages (fault traffic
/// excluded — suffixes never appear in a clean run anyway).
std::map<std::pair<int, int>, std::int64_t>
pairBytes(const parallel::CommLog& log, const std::string& tag) {
    std::map<std::pair<int, int>, std::int64_t> out;
    for (const auto& m : log.messages())
        if (m.tag == tag) out[{m.src, m.dst}] += m.bytes;
    return out;
}

// ----------------------------------------------------------- plan builder

TEST(AggregationPlan, GroupsOffRankCopiesPerPairInBuildOrder) {
    // Four fabs on three ranks: 0 -> r0, 1 -> r1, 2 -> r0, 3 -> r2.
    DistributionMapping dm(std::vector<int>{0, 1, 0, 2}, 3);
    const Box cell(IntVect::zero(), IntVect{1, 0, 0});
    CommPattern pat;
    pat.srcSize = pat.dstSize = 4;
    // Build order: (r1->r0), on-rank (r0->r0), (r1->r0) again, (r2->r1).
    // Copies 0 and 2 both write fab 0's `cell` region, so the dst regions
    // overlap and the batched unpack must not fan one task per slot.
    pat.copies.push_back({0, 1, cell, IntVect::zero(), cell.numPts()});
    pat.copies.push_back({0, 2, cell, IntVect::zero(), cell.numPts()});
    pat.copies.push_back({0, 1, cell, IntVect::zero(), cell.numPts()});
    pat.copies.push_back({1, 3, cell, IntVect::zero(), cell.numPts()});

    const AggregationPlan plan = buildAggregationPlan(pat, dm, dm);
    ASSERT_EQ(plan.pairs.size(), 2u); // (1,0) and (2,1); on-rank skipped
    EXPECT_EQ(plan.pairs[0].srcRank, 1);
    EXPECT_EQ(plan.pairs[0].dstRank, 0);
    ASSERT_EQ(plan.pairs[0].slots.size(), 2u);
    EXPECT_EQ(plan.pairs[0].slots[0].copyIndex, 0);
    EXPECT_EQ(plan.pairs[0].slots[0].offsetPts, 0);
    EXPECT_EQ(plan.pairs[0].slots[1].copyIndex, 2);
    EXPECT_EQ(plan.pairs[0].slots[1].offsetPts, cell.numPts());
    EXPECT_EQ(plan.pairs[0].totalPts, 2 * cell.numPts());
    EXPECT_EQ(plan.pairs[1].srcRank, 2);
    EXPECT_EQ(plan.pairs[1].dstRank, 1);
    ASSERT_EQ(plan.pairs[1].slots.size(), 1u);
    EXPECT_EQ(plan.pairs[1].slots[0].copyIndex, 3);
    EXPECT_EQ(plan.dmFingerprint, fingerprintMappings(dm, dm));
    // Identical dst cells written twice -> not disjoint; the batched unpack
    // must serialize those slots.
    EXPECT_FALSE(plan.disjointDst);
    // Deterministic: a rebuild is field-wise identical.
    EXPECT_EQ(plan, buildAggregationPlan(pat, dm, dm));
}

TEST(AggregationPlan, FingerprintSeparatesOwnerVectorsAndRankCounts) {
    DistributionMapping a(std::vector<int>{0, 1}, 2);
    DistributionMapping b(std::vector<int>{1, 0}, 2);
    DistributionMapping c(std::vector<int>{0, 1}, 3);
    EXPECT_NE(fingerprintMappings(a, a), fingerprintMappings(b, b));
    EXPECT_NE(fingerprintMappings(a, a), fingerprintMappings(a, b));
    EXPECT_NE(fingerprintMappings(a, a), fingerprintMappings(c, c));
    EXPECT_EQ(fingerprintMappings(a, b),
              fingerprintMappings(DistributionMapping(std::vector<int>{0, 1}, 2),
                                  DistributionMapping(std::vector<int>{1, 0}, 2)));
}

// ------------------------------------------------- blocking fillBoundary

TEST(AggregateExchange, FillBoundaryOneMessagePerPairBitwiseIdentical) {
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 3);

    for (int nthreads : {1, 8}) {
        gpu::setNumThreads(nthreads);
        SCOPED_TRACE("nthreads=" + std::to_string(nthreads));
        parallel::SimComm plainComm(3), aggComm(3);
        MultiFab plain(ba, dm, 2, 3, &plainComm);
        MultiFab agg(ba, dm, 2, 3, &aggComm);
        fillField(plain);
        fillField(agg);
        {
            CacheGuard guard(false);
            plain.fillBoundary(geom);
        }
        {
            CacheGuard guard(true);
            agg.fillBoundary(geom);
        }
        expectSameGhosts(plain, agg);

        const auto plainPairs = pairBytes(plainComm.log(), "FillBoundary");
        const auto aggPairs = pairBytes(aggComm.log(), "FillBoundary");
        ASSERT_FALSE(plainPairs.empty());
        // Same communicating pairs, same bytes per pair...
        EXPECT_EQ(plainPairs, aggPairs);
        // ...but exactly ONE message per pair, down from one per box copy.
        EXPECT_EQ(aggComm.log().count(), aggPairs.size());
        EXPECT_GT(plainComm.log().count(), aggComm.log().count());
        // Pairs leave the wire in sorted (src, dst) order.
        std::pair<int, int> prev{-1, -1};
        for (const auto& m : aggComm.log().messages()) {
            EXPECT_EQ(m.kind, parallel::MessageKind::PointToPoint);
            const std::pair<int, int> cur{m.src, m.dst};
            EXPECT_LT(prev, cur);
            prev = cur;
        }
    }
    gpu::setNumThreads(1);
}

TEST(AggregateExchange, ParallelCopyAggregatesAcrossLayouts) {
    const Box domain(IntVect::zero(), IntVect(15));
    BoxArray srcBa(tiledBoxes(domain, 8));
    BoxArray dstBa(tiledBoxes(domain, 4));
    DistributionMapping srcDm(srcBa, 3);
    DistributionMapping dstDm(dstBa, 3);

    parallel::SimComm plainComm(3), aggComm(3);
    MultiFab src1(srcBa, srcDm, 2, 0, &plainComm);
    MultiFab src2(srcBa, srcDm, 2, 0, &aggComm);
    MultiFab plain(dstBa, dstDm, 2, 1, &plainComm);
    MultiFab agg(dstBa, dstDm, 2, 1, &aggComm);
    fillField(src1);
    fillField(src2);
    plain.setVal(-1.0);
    agg.setVal(-1.0);
    {
        CacheGuard guard(false);
        plain.parallelCopy(src1, 0, 0, 2, 0, 0);
    }
    {
        CacheGuard guard(true);
        agg.parallelCopy(src2, 0, 0, 2, 0, 0);
    }
    // Valid regions (the copy's target scope) bitwise identical.
    for (int f = 0; f < plain.numFabs(); ++f) {
        auto x = plain.const_array(f);
        auto y = agg.const_array(f);
        for (int n = 0; n < 2; ++n)
            forEachCell(plain.validBox(f), [&](int i, int j, int k) {
                ASSERT_EQ(x(i, j, k, n), y(i, j, k, n));
            });
    }
    const auto plainPairs = pairBytes(plainComm.log(), "ParallelCopy");
    const auto aggPairs = pairBytes(aggComm.log(), "ParallelCopy");
    ASSERT_FALSE(plainPairs.empty());
    EXPECT_EQ(plainPairs, aggPairs);
    EXPECT_EQ(aggComm.log().count(), aggPairs.size());
    EXPECT_GT(plainComm.log().count(), aggComm.log().count());
    for (const auto& m : aggComm.log().messages())
        EXPECT_EQ(m.kind, parallel::MessageKind::ParallelCopy);
}

// ------------------------------------------------------ verified exchange

TEST(AggregateExchange, VerifiedAggregateStampsOneCrcPerPairMessage) {
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 3);

    CacheGuard guard(true);
    parallel::SimComm plainComm(3), verComm(3);
    verComm.setVerifyExchanges(true);
    MultiFab plain(ba, dm, 2, 3, &plainComm);
    MultiFab ver(ba, dm, 2, 3, &verComm);
    fillField(plain);
    fillField(ver);
    plain.fillBoundary(geom);
    ver.fillBoundary(geom);

    expectSameGhosts(plain, ver);
    ASSERT_EQ(verComm.log().count(), plainComm.log().count());
    EXPECT_GT(verComm.faultStats().verified, 0);
    for (std::size_t i = 0; i < verComm.log().count(); ++i) {
        const auto& v = verComm.log().messages()[i];
        const auto& p = plainComm.log().messages()[i];
        EXPECT_EQ(v.src, p.src);
        EXPECT_EQ(v.dst, p.dst);
        EXPECT_EQ(v.bytes, p.bytes);
        EXPECT_NE(v.crc, 0u) << "pair message " << i << " lost its CRC stamp";
    }
}

TEST(AggregateExchange, CorruptedSlotRetransmitsOnePairBufferIntact) {
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 3);

    CacheGuard guard(true);
    parallel::SimComm refComm(3), comm(3);
    parallel::CommFaults faults(7); // seeded; zero rates, armed fault only
    faults.armMessageFault(parallel::MessageFault::Corrupt, 2);
    comm.attachFaults(&faults);
    EXPECT_TRUE(comm.exchangeVerification());

    MultiFab ref(ba, dm, 2, 3, &refComm);
    MultiFab mf(ba, dm, 2, 3, &comm);
    fillField(ref);
    fillField(mf);
    ref.fillBoundary(geom);
    mf.fillBoundary(geom);

    // Corrupting one slot of one packed message costs exactly one NACK and
    // one whole-buffer retransmit — and the ghosts still land intact.
    expectSameGhosts(ref, mf);
    const auto& fs = comm.faultStats();
    EXPECT_EQ(fs.corrupted, 1);
    EXPECT_EQ(fs.crcFailures, 1);
    EXPECT_EQ(fs.nacks, 1);
    EXPECT_EQ(fs.retransmits, 1);
    const auto s = comm.log().summarize();
    EXPECT_EQ(s.retransmits, 1u);
    EXPECT_EQ(s.nacks, 1u);
    // Fault traffic aside, the pair-message stream is unchanged.
    EXPECT_EQ(pairBytes(comm.log(), "FillBoundary"),
              pairBytes(refComm.log(), "FillBoundary"));
}

// ------------------------------------------------------- CommLog summary

TEST(CommLogSummary, CountsKindsBytesAndFaultTraffic) {
    parallel::CommLog log;
    log.record({0, 1, 100, parallel::MessageKind::PointToPoint, "FB", 7});
    log.record({1, 2, 50, parallel::MessageKind::ParallelCopy, "PC", 0});
    log.record({0, 1, 100, parallel::MessageKind::PointToPoint, "FB/rtx1", 7});
    log.record({1, 0, 8, parallel::MessageKind::PointToPoint, "FB/nack", 7});
    log.record({0, 1, 100, parallel::MessageKind::PointToPoint, "FB/dup", 7});
    log.record({0, 2, 30, parallel::MessageKind::Reduction, "ComputeDt", 0});

    const auto s = log.summarize();
    EXPECT_EQ(s.messages, 6u);
    EXPECT_EQ(s.bytes, 388);
    EXPECT_EQ(s.p2p, 4u);
    EXPECT_EQ(s.parallelCopy, 1u);
    EXPECT_EQ(s.reductions, 1u);
    EXPECT_EQ(s.retransmits, 1u);
    EXPECT_EQ(s.nacks, 1u);
    EXPECT_EQ(s.duplicates, 1u);

    // fromIndex slices a step's traffic out of the cumulative log.
    const auto tail = log.summarize(5);
    EXPECT_EQ(tail.messages, 1u);
    EXPECT_EQ(tail.reductions, 1u);
    EXPECT_EQ(tail.bytes, 30);

    const std::string line = parallel::CommLog::formatSummary(s);
    EXPECT_NE(line.find("msgs=6"), std::string::npos) << line;
    EXPECT_NE(line.find("bytes=388"), std::string::npos) << line;
    EXPECT_NE(line.find("p2p=4"), std::string::npos) << line;
    EXPECT_NE(line.find("pc=1"), std::string::npos) << line;
    EXPECT_NE(line.find("red=1"), std::string::npos) << line;
    EXPECT_NE(line.find("rtx=1"), std::string::npos) << line;
    EXPECT_NE(line.find("nack=1"), std::string::npos) << line;
    EXPECT_NE(line.find("dup=1"), std::string::npos) << line;
}

// ----------------------------------------------------- plan cache + LRU

TEST(AggregationPlanCache, HitsBuildsAndExplicitInvalidation) {
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 3);

    CacheGuard guard(true);
    auto& cache = CommCache::instance();
    parallel::SimComm comm(3);
    MultiFab mf(ba, dm, 2, 3, &comm);
    fillField(mf);

    mf.fillBoundary(geom);
    EXPECT_EQ(cache.planCount(), 1u);
    EXPECT_EQ(cache.stats().planBuilds, 1);
    EXPECT_EQ(cache.stats().planHits, 0);

    mf.fillBoundary(geom);
    EXPECT_EQ(cache.planCount(), 1u);
    EXPECT_EQ(cache.stats().planBuilds, 1);
    EXPECT_EQ(cache.stats().planHits, 1);

    // Dropping the pattern (regrid replaces a level) drops its plan too.
    cache.invalidate(ba.id());
    EXPECT_EQ(cache.planCount(), 0u);
}

TEST(AggregationPlanCache, CommShrinkDropsPlans) {
    // Satellite regression: after PR6 rank-death renumbering a cached plan
    // holds stale rank ids; noteCommSize with a shrunk size must drop every
    // plan along with the patterns (the fingerprint alone could alias).
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dm(ba, 3);

    CacheGuard guard(true);
    auto& cache = CommCache::instance();
    parallel::SimComm comm(3);
    MultiFab mf(ba, dm, 2, 3, &comm);
    fillField(mf);
    mf.fillBoundary(geom);
    ASSERT_EQ(cache.planCount(), 1u);

    cache.noteCommSize(2); // the communicator shrank under us
    EXPECT_EQ(cache.planCount(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(AggregationPlanCache, DmFingerprintMismatchForcesRebuild) {
    // Two MultiFabs share a BoxArray (same cache key) but own it under
    // different DistributionMappings — the cached plan must never replay
    // the other mapping's rank ids.
    const Box domain(IntVect::zero(), IntVect(15));
    Geometry geom(domain, {0, 0, 0}, {1, 1, 1}, Periodicity::all());
    BoxArray ba(tiledBoxes(domain, 8));
    DistributionMapping dmA(ba, 3);
    std::vector<int> owners(static_cast<std::size_t>(ba.size()));
    for (int i = 0; i < ba.size(); ++i)
        owners[static_cast<std::size_t>(i)] = (dmA[i] + 1) % 3; // rotated
    DistributionMapping dmB(owners, 3);

    CacheGuard guard(true);
    auto& cache = CommCache::instance();
    parallel::SimComm commA(3), commB(3);
    MultiFab a(ba, dmA, 2, 3, &commA);
    MultiFab b(ba, dmB, 2, 3, &commB);
    fillField(a);
    fillField(b);

    a.fillBoundary(geom);
    const auto builds = cache.stats().planBuilds;
    b.fillBoundary(geom); // same key, different owners -> rebuild, no hit
    EXPECT_EQ(cache.stats().planBuilds, builds + 1);
    EXPECT_EQ(cache.planCount(), 1u);

    // And the rebuilt plan carries B's ranks: every message src/dst is a
    // rank that actually owns a fab under dmB.
    std::set<int> ranksB;
    for (int i = 0; i < ba.size(); ++i) ranksB.insert(dmB[i]);
    for (const auto& m : commB.log().messages()) {
        EXPECT_TRUE(ranksB.count(m.src)) << m.src;
        EXPECT_TRUE(ranksB.count(m.dst)) << m.dst;
    }
}

} // namespace
} // namespace crocco::amr
