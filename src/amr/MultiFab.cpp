#include "amr/MultiFab.hpp"

#include "amr/CommCache.hpp"
#include "check/Check.hpp"
#include "gpu/Arena.hpp"
#include "gpu/Gpu.hpp"
#include "resilience/Crc32.hpp"

#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace crocco::amr {

namespace {

/// RAII profiler region that is a no-op when the cache has no profiler
/// attached (MultiFab is usable without any perf instrumentation).
struct MaybeScope {
    perf::TinyProfiler* prof;
    const char* name;
    std::chrono::steady_clock::time_point start;
    explicit MaybeScope(const char* n)
        : prof(CommCache::instance().profiler()), name(n),
          start(std::chrono::steady_clock::now()) {}
    ~MaybeScope() {
        if (!prof) return;
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        prof->addTime(name, dt.count());
    }
};

/// CRC32 of one fab rectangle (the payload of a single copy descriptor):
/// cells in forEachCell (Fortran) order, components outermost, chained per
/// Real. Sender and receiver checksum the same region shape in the same
/// order, so equal data ⟺ equal checksum. `crc` seeds the chain so an
/// aggregated message can checksum its slots back to back — the seeded
/// chain over the slot regions equals the flat CRC over the packed buffer.
std::uint32_t regionCrc(const FArrayBox& f, const Box& region, int comp,
                        int ncomp, std::uint32_t crc = 0) {
    auto a = f.const_array();
    for (int n = comp; n < comp + ncomp; ++n) {
        forEachCell(region, [&](int i, int j, int k) {
            const Real v = a(i, j, k, n);
            crc = resilience::crc32(&v, sizeof(Real), crc);
        });
    }
    return crc;
}

/// Flip `bit` of the `target`-th value (forEachCell order, components
/// outermost — the packing order) inside a fab rectangle.
void scrambleRegionValue(FArrayBox& f, const Box& region, int comp, int ncomp,
                         std::int64_t target, unsigned bit) {
    auto a = f.array();
    std::int64_t idx = 0;
    bool done = false;
    for (int n = comp; n < comp + ncomp && !done; ++n) {
        forEachCell(region, [&](int i, int j, int k) {
            if (done || idx++ != target) return;
            Real v = a(i, j, k, n);
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(Real));
            bits ^= (std::uint64_t{1} << bit);
            std::memcpy(&v, &bits, sizeof(Real));
            a(i, j, k, n) = v;
            done = true;
        });
    }
}

/// Flip one bit of one Real inside a fab rectangle — the payload damage a
/// Corrupt fault does in flight. `word` deterministically selects the cell,
/// component, and bit.
void scrambleRegionBit(FArrayBox& f, const Box& region, int comp, int ncomp,
                       std::uint64_t word) {
    const std::int64_t nvals = region.numPts() * ncomp;
    if (nvals <= 0) return;
    scrambleRegionValue(
        f, region, comp, ncomp,
        static_cast<std::int64_t>(word % static_cast<std::uint64_t>(nvals)),
        static_cast<unsigned>((word >> 32) % (sizeof(Real) * 8)));
}

/// Flattened (pair, slot) work item of the batched pack/unpack launches.
struct FlatSlot {
    int pair = 0;
    int slot = 0;
};

std::vector<FlatSlot> flattenSlots(const AggregationPlan& plan) {
    std::vector<FlatSlot> flat;
    for (int p = 0; p < static_cast<int>(plan.pairs.size()); ++p)
        for (int s = 0; s < static_cast<int>(plan.pairs[p].slots.size()); ++s)
            flat.push_back({p, s});
    return flat;
}

/// Lease one staging buffer per rank pair and pack every slot with one
/// batched launch. Slot values land at offsetPts * numComp, components
/// outermost in forEachCell order — exactly the sequence regionCrc walks,
/// so the flat CRC over a pair's buffer equals the chained region CRCs the
/// receiver recomputes over the delivered ghosts.
std::vector<gpu::ScratchPool::Lease>
packAggregated(const CommPattern& pattern, const AggregationPlan& plan,
               const MultiFab& src, int srcComp, int numComp) {
    std::vector<gpu::ScratchPool::Lease> staging;
    staging.reserve(plan.pairs.size());
    for (const RankPairBatch& b : plan.pairs)
        staging.push_back(
            gpu::ScratchPool::instance().acquireLinear(b.totalPts * numComp));
    const std::vector<FlatSlot> flat = flattenSlots(plan);
    gpu::BatchedParallelForIndex(static_cast<int>(flat.size()), 1, [&](int t) {
        const RankPairBatch& b = plan.pairs[flat[t].pair];
        const AggregateSlot& sl = b.slots[flat[t].slot];
        const CopyDescriptor& d = pattern.copies[sl.copyIndex];
        auto sa = staging[flat[t].pair].fab().array();
        auto a = src.fab(d.srcFab).const_array();
        std::int64_t off = sl.offsetPts * numComp;
        for (int n = srcComp; n < srcComp + numComp; ++n)
            forEachCell(d.region.shift(d.shift), [&](int i, int j, int k) {
                sa(static_cast<int>(off++), 0, 0, 0) = a(i, j, k, n);
            });
    });
    return staging;
}

/// Copy one packed slot out of its staging buffer into the destination
/// region — the receive side of the aggregated exchange.
void unpackSlot(const CommPattern& pattern, const AggregateSlot& sl,
                const FArrayBox& stagingFab, MultiFab& dst, int destComp,
                int numComp) {
    const CopyDescriptor& d = pattern.copies[sl.copyIndex];
    auto sa = stagingFab.const_array();
    auto da = dst.fab(d.dstFab).array();
    std::int64_t off = sl.offsetPts * numComp;
    for (int n = destComp; n < destComp + numComp; ++n)
        forEachCell(d.region, [&](int i, int j, int k) {
            da(i, j, k, n) = sa(static_cast<int>(off++), 0, 0, 0);
        });
}

/// Deliver every packed slot with one batched launch. With pairwise-
/// disjoint dst regions each slot is its own task (exact per-task
/// footprints keep the race detector clean); overlapping-but-consistent
/// deliveries (parallelCopy reading grown sources) serialize into a single
/// task of the same launch.
void unpackAggregated(const CommPattern& pattern, const AggregationPlan& plan,
                      std::vector<gpu::ScratchPool::Lease>& staging,
                      MultiFab& dst, int destComp, int numComp) {
    const std::vector<FlatSlot> flat = flattenSlots(plan);
    if (flat.empty()) return;
    auto one = [&](int t) {
        const RankPairBatch& b = plan.pairs[flat[t].pair];
        unpackSlot(pattern, b.slots[flat[t].slot], staging[flat[t].pair].fab(),
                   dst, destComp, numComp);
    };
    if (plan.disjointDst) {
        gpu::BatchedParallelForIndex(static_cast<int>(flat.size()), 1, one);
    } else {
        gpu::BatchedParallelForIndex(1, 1, [&](int) {
            for (int t = 0; t < static_cast<int>(flat.size()); ++t) one(t);
        });
    }
}

/// Serial re-delivery of one pair (initial delivery in verified mode, and
/// what a retransmit replays from the still-leased staging buffer).
void deliverPair(const CommPattern& pattern, const RankPairBatch& b,
                 const FArrayBox& stagingFab, MultiFab& dst, int destComp,
                 int numComp) {
    for (const AggregateSlot& sl : b.slots)
        unpackSlot(pattern, sl, stagingFab, dst, destComp, numComp);
}

/// CRC32 of a packed pair buffer — the wire checksum of the aggregated
/// message.
std::uint32_t stagingCrc(const FArrayBox& stagingFab, std::int64_t nvals) {
    std::uint32_t crc = 0;
    auto sa = stagingFab.const_array();
    for (std::int64_t v = 0; v < nvals; ++v) {
        const Real x = sa(static_cast<int>(v), 0, 0, 0);
        crc = resilience::crc32(&x, sizeof(Real), crc);
    }
    return crc;
}

/// Receiver-side checksum of one delivered pair: the slot regions chained
/// in pack order (equals stagingCrc of an intact delivery).
std::uint32_t pairDeliveredCrc(const CommPattern& pattern,
                               const RankPairBatch& b, const MultiFab& dst,
                               int destComp, int numComp) {
    std::uint32_t crc = 0;
    for (const AggregateSlot& sl : b.slots) {
        const CopyDescriptor& d = pattern.copies[sl.copyIndex];
        crc = regionCrc(dst.fab(d.dstFab), d.region, destComp, numComp, crc);
    }
    return crc;
}

/// Corrupt-fault damage at aggregate granularity: `word` picks one value
/// (and bit) across the pair's packed payload; the strike lands in the one
/// slot covering that offset — corrupt one slot, NACK + retransmit one
/// buffer.
void scramblePair(const CommPattern& pattern, const RankPairBatch& b,
                  MultiFab& dst, int destComp, int numComp,
                  std::uint64_t word) {
    const std::int64_t nvals = b.totalPts * numComp;
    if (nvals <= 0) return;
    const std::int64_t target =
        static_cast<std::int64_t>(word % static_cast<std::uint64_t>(nvals));
    const unsigned bit =
        static_cast<unsigned>((word >> 32) % (sizeof(Real) * 8));
    for (const AggregateSlot& sl : b.slots) {
        const CopyDescriptor& d = pattern.copies[sl.copyIndex];
        const std::int64_t start = sl.offsetPts * numComp;
        if (target < start || target >= start + d.npts * numComp) continue;
        scrambleRegionValue(dst.fab(d.dstFab), d.region, destComp, numComp,
                            target - start, bit);
        return;
    }
}

/// Per-region message accounting (TinyProfiler Msgs / MsgBytes columns);
/// no-op without an attached profiler.
void chargeMessages(const std::string& tag, std::int64_t nmsgs, double bytes) {
    if (nmsgs <= 0) return;
    if (perf::TinyProfiler* prof = CommCache::instance().profiler())
        prof->addMessages(tag, nmsgs, bytes);
}

/// Resolve the aggregation plan of an exchange: nullptr when aggregation
/// is off (or single-rank); the cached plan — fingerprint-validated
/// against the live mappings — when the pattern is cacheable; a fresh
/// derivation into `local` otherwise.
const AggregationPlan*
resolvePlan(CommCache& cache, const CommCache::Key& key, bool cacheable,
            const CommPattern& pattern, const DistributionMapping& srcDm,
            const DistributionMapping& dstDm, parallel::SimComm* comm,
            AggregationPlan& local) {
    if (!cache.aggregate() || !comm || comm->size() <= 1) return nullptr;
    const std::uint64_t fp = fingerprintMappings(srcDm, dstDm);
    if (cacheable) {
        if (const AggregationPlan* p = cache.lookupPlan(key, fp)) return p;
        return &cache.insertPlan(key,
                                 buildAggregationPlan(pattern, srcDm, dstDm));
    }
    local = buildAggregationPlan(pattern, srcDm, dstDm);
    return &local;
}

} // namespace

MultiFab::MultiFab(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                   int ngrow, parallel::SimComm* comm) {
    define(ba, dm, ncomp, ngrow, comm);
}

void MultiFab::define(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                      int ngrow, parallel::SimComm* comm) {
    assert(ba.size() == dm.size());
    assert(ncomp >= 1 && ngrow >= 0);
    ba_ = ba;
    dm_ = dm;
    ncomp_ = ncomp;
    ngrow_ = ngrow;
    comm_ = comm;
    fabs_.clear();
    fabs_.reserve(ba.size());
    for (int i = 0; i < ba.size(); ++i) fabs_.emplace_back(ba[i].grow(ngrow), ncomp);
    if constexpr (check::enabled) {
        // MultiFab storage models fresh device allocations: poison it and
        // start the shadow maps at Uninit so never-filled reads are caught
        // (bare FArrayBoxes — kernel scratch — stay value-initialized).
        for (int i = 0; i < ba.size(); ++i)
            fabs_[static_cast<std::size_t>(i)].markUninitialized(ba[i]);
    }
}

void MultiFab::invalidateGhosts() {
    if constexpr (check::enabled) {
        for (auto& f : fabs_) f.invalidateGhostShadow();
    }
}

void MultiFab::setVal(Real v) {
    // Each fab's sweep models one device kernel launch (FArrayBox loops do
    // not route through gpu::ParallelFor, so they are counted here).
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        gpu::LaunchStats::add();
        fabs_[i].setVal(v);
    });
}

void MultiFab::setVal(Real v, int comp, int ncomp) {
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        gpu::LaunchStats::add();
        fabs_[i].setVal(v, fabs_[i].box(), comp, ncomp);
    });
}

void MultiFab::replay(const CommPattern& pattern, const MultiFab& src,
                      int srcComp, int destComp, int numComp,
                      const std::string& tag, bool p2p,
                      const AggregationPlan* plan) {
    if (plan && !plan->pairs.empty()) {
        replayAggregated(pattern, *plan, src, srcComp, destComp, numComp, tag,
                         p2p);
        return;
    }
    // Copies target disjoint dst regions and read only src cells fillBoundary
    // never writes (valid cells of siblings / a const source MultiFab), so
    // descriptor order is free — but SimComm recording must match the build
    // order byte for byte, so the replay stays serial and in order.
    const bool verified = comm_ && comm_->exchangeVerification();
    std::int64_t nmsgs = 0;
    double msgBytes = 0.0;
    for (const CopyDescriptor& d : pattern.copies) {
        const int srcRank = src.distributionMap()[d.srcFab];
        const int dstRank = dm_[d.dstFab];
        if (verified && srcRank != dstRank) {
            // Hardened path: the descriptor's copy is the payload delivery,
            // wrapped in CRC verification + the fault injector. Byte order
            // of the recorded stream matches the plain path (one message
            // per off-rank descriptor, in build order), with fault traffic
            // (retransmits, NACKs) appended where faults strike.
            const std::int64_t bytes =
                d.npts * numComp * static_cast<std::int64_t>(sizeof(Real));
            const Box srcRegion = d.region.shift(d.shift);
            parallel::SimComm::Transfer t;
            t.src = srcRank;
            t.dst = dstRank;
            t.bytes = bytes;
            t.kind = p2p ? parallel::MessageKind::PointToPoint
                         : parallel::MessageKind::ParallelCopy;
            t.tag = tag;
            t.deliver = [&, this] {
                fabs_[d.dstFab].copyFrom(src.fab(d.srcFab), d.region, srcComp,
                                         destComp, numComp, d.shift);
            };
            t.payloadCrc = [&] {
                return regionCrc(src.fab(d.srcFab), srcRegion, srcComp, numComp);
            };
            t.deliveredCrc = [&, this] {
                return regionCrc(fabs_[d.dstFab], d.region, destComp, numComp);
            };
            t.scramble = [&, this](std::uint64_t w) {
                scrambleRegionBit(fabs_[d.dstFab], d.region, destComp, numComp, w);
            };
            comm_->sendVerified(t);
            ++nmsgs;
            msgBytes += static_cast<double>(bytes);
            continue;
        }
        fabs_[d.dstFab].copyFrom(src.fab(d.srcFab), d.region, srcComp, destComp,
                                 numComp, d.shift);
        if (!comm_) continue;
        const std::int64_t bytes =
            d.npts * numComp * static_cast<std::int64_t>(sizeof(Real));
        if (p2p) {
            comm_->recordP2P(srcRank, dstRank, bytes, tag);
        } else if (srcRank != dstRank) {
            comm_->recordMessage(srcRank, dstRank, bytes,
                                 parallel::MessageKind::ParallelCopy, tag);
        }
        if (srcRank != dstRank) {
            ++nmsgs;
            msgBytes += static_cast<double>(bytes);
        }
    }
    chargeMessages(tag, nmsgs, msgBytes);
}

void MultiFab::replayAggregated(const CommPattern& pattern,
                                const AggregationPlan& plan,
                                const MultiFab& src, int srcComp, int destComp,
                                int numComp, const std::string& tag, bool p2p) {
    // On-rank copies never hit the wire: apply them directly, in build
    // order, exactly like the unaggregated replay.
    for (const CopyDescriptor& d : pattern.copies) {
        if (src.distributionMap()[d.srcFab] != dm_[d.dstFab]) continue;
        fabs_[d.dstFab].copyFrom(src.fab(d.srcFab), d.region, srcComp,
                                 destComp, numComp, d.shift);
    }
    auto staging = packAggregated(pattern, plan, src, srcComp, numComp);
    const parallel::MessageKind kind = p2p
                                           ? parallel::MessageKind::PointToPoint
                                           : parallel::MessageKind::ParallelCopy;
    double totalBytes = 0.0;
    if (comm_ && comm_->exchangeVerification()) {
        // Hardened path at aggregate granularity: one CRC stamp, one
        // retransmit budget, one NACK per packed pair message. Delivery —
        // and every retransmit — re-unpacks the pair from its staging
        // buffer, so corrupting one slot costs one buffer resend.
        for (std::size_t p = 0; p < plan.pairs.size(); ++p) {
            const RankPairBatch& b = plan.pairs[p];
            const std::int64_t bytes =
                b.totalPts * numComp * static_cast<std::int64_t>(sizeof(Real));
            totalBytes += static_cast<double>(bytes);
            parallel::SimComm::Transfer t;
            t.src = b.srcRank;
            t.dst = b.dstRank;
            t.bytes = bytes;
            t.kind = kind;
            t.tag = tag;
            t.deliver = [&, p] {
                deliverPair(pattern, plan.pairs[p], staging[p].fab(), *this,
                            destComp, numComp);
            };
            t.payloadCrc = [&, p] {
                return stagingCrc(staging[p].fab(),
                                  plan.pairs[p].totalPts * numComp);
            };
            t.deliveredCrc = [&, p] {
                return pairDeliveredCrc(pattern, plan.pairs[p], *this,
                                        destComp, numComp);
            };
            t.scramble = [&, p](std::uint64_t w) {
                scramblePair(pattern, plan.pairs[p], *this, destComp, numComp,
                             w);
            };
            comm_->sendVerified(t);
        }
    } else {
        for (const RankPairBatch& b : plan.pairs) {
            const std::int64_t bytes =
                b.totalPts * numComp * static_cast<std::int64_t>(sizeof(Real));
            totalBytes += static_cast<double>(bytes);
            if (comm_)
                comm_->recordMessage(b.srcRank, b.dstRank, bytes, kind, tag);
        }
        unpackAggregated(pattern, plan, staging, *this, destComp, numComp);
    }
    chargeMessages(tag, static_cast<std::int64_t>(plan.pairs.size()),
                   totalBytes);
}

namespace {

/// Check-build replay guard: a sampled cache hit re-derives the pattern and
/// requires it byte-identical to the cached descriptors — the invariant the
/// CommCache invalidation rules promise (docs/performance.md). A mismatch
/// means a stale pattern survived a layout change.
void verifyReplay(const CommPattern& cached, const CommPattern& rebuilt,
                  const char* what) {
    if (cached == rebuilt) return;
    std::ostringstream os;
    os << what << " cache replay diverges from re-derivation: cached "
       << cached.copies.size() << " copies (srcSize=" << cached.srcSize
       << ", dstSize=" << cached.dstSize << "), rebuilt "
       << rebuilt.copies.size() << " copies (srcSize=" << rebuilt.srcSize
       << ", dstSize=" << rebuilt.dstSize << ")";
    for (std::size_t c = 0;
         c < cached.copies.size() && c < rebuilt.copies.size(); ++c) {
        if (cached.copies[c] == rebuilt.copies[c]) continue;
        os << "; first differing descriptor at index " << c;
        break;
    }
    check::fail(check::Kind::CommCache, os.str());
}

} // namespace

CommPattern MultiFab::buildFillBoundaryPattern(
    const std::vector<IntVect>& shifts) const {
    CommPattern pattern;
    pattern.srcSize = pattern.dstSize = ba_.size();
    for (int i = 0; i < numFabs(); ++i) {
        // Ghost region of fab i = allocated box minus valid box.
        for (const Box& g : boxDiff(grownBox(i), ba_[i])) {
            for (const IntVect& s : shifts) {
                // A ghost cell at index p is filled from valid cell p + s
                // of a periodic image (s == 0 covers interior neighbors).
                for (const auto& [j, isect] : ba_.intersections(g.shift(s))) {
                    const Box dstRegion = isect.shift(-s);
                    pattern.copies.push_back(
                        {i, j, dstRegion, s, dstRegion.numPts()});
                }
            }
        }
    }
    return pattern;
}

void MultiFab::fillBoundary(const Geometry& geom) {
    const auto shifts = geom.periodicShifts();
    CommCache& cache = CommCache::instance();
    if (comm_) cache.noteCommSize(comm_->size());
    const CommCache::Key key{ba_.id(), ba_.id(), ngrow_, 0, hashShifts(shifts),
                             CommCache::FillBoundary};
    const bool cacheable = cache.enabled() && ba_.id() != 0;
    if (cacheable) {
        if (const CommPattern* pat = cache.lookup(key, ba_.size(), ba_.size())) {
            if (check::enabled && check::commGuardShouldVerify())
                verifyReplay(*pat, buildFillBoundaryPattern(shifts),
                             "FillBoundary");
            MaybeScope scope("CommCacheHit");
            AggregationPlan local;
            const AggregationPlan* plan =
                resolvePlan(cache, key, cacheable, *pat, dm_, dm_, comm_, local);
            replay(*pat, *this, 0, 0, ncomp_, "FillBoundary", /*p2p=*/true,
                   plan);
            return;
        }
    }
    CommPattern pattern;
    {
        MaybeScope scope("CommCacheBuild");
        pattern = buildFillBoundaryPattern(shifts);
    }
    const CommPattern& stored =
        cacheable ? cache.insert(key, std::move(pattern)) : pattern;
    AggregationPlan local;
    const AggregationPlan* plan =
        resolvePlan(cache, key, cacheable, stored, dm_, dm_, comm_, local);
    replay(stored, *this, 0, 0, ncomp_, "FillBoundary", /*p2p=*/true, plan);
}

void MultiFab::parallelCopy(const MultiFab& src, int srcComp, int destComp,
                            int numComp, int dstNGrow, int srcNGrow,
                            const std::string& tag,
                            const Geometry* geomForPeriodicity) {
    assert(dstNGrow <= ngrow_ && srcNGrow <= src.nGrow());
    assert(srcComp + numComp <= src.nComp() && destComp + numComp <= ncomp_);
    std::vector<IntVect> shifts{IntVect::zero()};
    if (geomForPeriodicity) shifts = geomForPeriodicity->periodicShifts();
    CommCache& cache = CommCache::instance();
    if (comm_) cache.noteCommSize(comm_->size());
    const CommCache::Key key{src.boxArray().id(), ba_.id(), dstNGrow, srcNGrow,
                             hashShifts(shifts), CommCache::ParallelCopy};
    const bool cacheable =
        cache.enabled() && ba_.id() != 0 && src.boxArray().id() != 0;
    if (cacheable) {
        if (const CommPattern* pat =
                cache.lookup(key, src.boxArray().size(), ba_.size())) {
            if (check::enabled && check::commGuardShouldVerify())
                verifyReplay(
                    *pat,
                    buildParallelCopyPattern(src, dstNGrow, srcNGrow, shifts),
                    "ParallelCopy");
            MaybeScope scope("CommCacheHit");
            AggregationPlan local;
            const AggregationPlan* plan =
                resolvePlan(cache, key, cacheable, *pat, src.distributionMap(),
                            dm_, comm_, local);
            replay(*pat, src, srcComp, destComp, numComp, tag, /*p2p=*/false,
                   plan);
            return;
        }
    }
    CommPattern pattern;
    {
        MaybeScope scope("CommCacheBuild");
        pattern = buildParallelCopyPattern(src, dstNGrow, srcNGrow, shifts);
    }
    const CommPattern& stored =
        cacheable ? cache.insert(key, std::move(pattern)) : pattern;
    AggregationPlan local;
    const AggregationPlan* plan = resolvePlan(
        cache, key, cacheable, stored, src.distributionMap(), dm_, comm_, local);
    replay(stored, src, srcComp, destComp, numComp, tag, /*p2p=*/false, plan);
}

CommPattern MultiFab::buildParallelCopyPattern(
    const MultiFab& src, int dstNGrow, int srcNGrow,
    const std::vector<IntVect>& shifts) const {
    CommPattern pattern;
    pattern.srcSize = src.boxArray().size();
    pattern.dstSize = ba_.size();
    for (int i = 0; i < numFabs(); ++i) {
        const Box dstRegion = ba_[i].grow(dstNGrow);
        for (const IntVect& s : shifts) {
            // A dst cell at index p receives src cell p + s (s != 0
            // reaches across a periodic boundary into the domain image).
            // The hash query is over ungrown boxes, so widen it by
            // srcNGrow and re-intersect against the grown source box.
            for (const auto& [j, coarse] : src.boxArray().intersections(
                     dstRegion.shift(s).grow(srcNGrow))) {
                const Box isect =
                    src.boxArray()[j].grow(srcNGrow) & dstRegion.shift(s);
                if (!isect.ok()) continue;
                (void)coarse;
                pattern.copies.push_back(
                    {i, j, isect.shift(-s), s, isect.numPts()});
            }
        }
    }
    return pattern;
}

void MultiFab::mult(Real a, int comp, int numComp, int ngrow) {
    assert(comp + numComp <= ncomp_);
    assert(ngrow >= 0 && ngrow <= ngrow_);
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        gpu::LaunchStats::add();
        auto arr = fabs_[i].array();
        for (int n = comp; n < comp + numComp; ++n)
            forEachCell(ba_[i].grow(ngrow), [&](int ii, int j, int k) {
                arr(ii, j, k, n) *= a;
            });
    });
}

void MultiFab::copy(MultiFab& dst, const MultiFab& src, int srcComp, int destComp,
                    int numComp, int ngrow) {
    assert(dst.boxArray() == src.boxArray());
    assert(ngrow <= dst.nGrow() && ngrow <= src.nGrow());
    gpu::ParallelForIndex(dst.numFabs(), [&](int i) {
        dst.fabs_[i].copyFrom(src.fab(i), dst.ba_[i].grow(ngrow), srcComp,
                              destComp, numComp);
    });
}

void MultiFab::saxpy(MultiFab& dst, Real a, const MultiFab& src, int srcComp,
                     int destComp, int numComp) {
    assert(dst.boxArray() == src.boxArray());
    gpu::ParallelForIndex(dst.numFabs(), [&](int i) {
        gpu::LaunchStats::add();
        dst.fabs_[i].saxpy(a, src.fab(i), dst.ba_[i], srcComp, destComp, numComp);
    });
}

// The reductions below compute one partial per fab (each fab's sweep is the
// serial Fortran-order loop) and combine the partials in fab-index order.
// The decomposition and the combination order depend only on the BoxArray,
// never on the thread count, so results are bitwise identical for every
// gpu.num_threads setting — the determinism contract of docs/performance.md.

Real MultiFab::min(int comp) const {
    std::vector<Real> partial(static_cast<std::size_t>(numFabs()),
                              std::numeric_limits<Real>::infinity());
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        partial[static_cast<std::size_t>(i)] = fabs_[i].min(ba_[i], comp);
    });
    Real m = std::numeric_limits<Real>::infinity();
    for (Real p : partial) m = std::min(m, p);
    return m;
}

Real MultiFab::max(int comp) const {
    std::vector<Real> partial(static_cast<std::size_t>(numFabs()),
                              -std::numeric_limits<Real>::infinity());
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        partial[static_cast<std::size_t>(i)] = fabs_[i].max(ba_[i], comp);
    });
    Real m = -std::numeric_limits<Real>::infinity();
    for (Real p : partial) m = std::max(m, p);
    return m;
}

Real MultiFab::sum(int comp) const {
    std::vector<Real> partial(static_cast<std::size_t>(numFabs()), 0.0);
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        partial[static_cast<std::size_t>(i)] = fabs_[i].sum(ba_[i], comp);
    });
    Real s = 0.0;
    for (Real p : partial) s += p;
    return s;
}

Real MultiFab::norm2(int comp) const {
    std::vector<Real> partial(static_cast<std::size_t>(numFabs()), 0.0);
    gpu::ParallelForIndex(numFabs(), [&](int i) {
        auto a = const_array(i);
        Real p = 0.0;
        forEachCell(ba_[i], [&](int ii, int j, int k) {
            const Real v = a(ii, j, k, comp);
            p += v * v;
        });
        partial[static_cast<std::size_t>(i)] = p;
    });
    Real s = 0.0;
    for (Real p : partial) s += p;
    return std::sqrt(s);
}

Real MultiFab::l2Diff(const MultiFab& a, const MultiFab& b, int comp) {
    assert(a.boxArray() == b.boxArray());
    std::vector<Real> partial(static_cast<std::size_t>(a.numFabs()), 0.0);
    gpu::ParallelForIndex(a.numFabs(), [&](int i) {
        const Real d = FArrayBox::l2Diff(a.fab(i), b.fab(i), a.ba_[i], comp);
        partial[static_cast<std::size_t>(i)] = d * d;
    });
    Real s = 0.0;
    for (Real p : partial) s += p;
    return std::sqrt(s);
}

} // namespace crocco::amr
