#pragma once

#include "amr/BoxArray.hpp"
#include "amr/DistributionMapping.hpp"
#include "amr/FArrayBox.hpp"
#include "amr/Geometry.hpp"
#include "parallel/SimComm.hpp"

#include <vector>

namespace crocco::amr {

struct CommPattern;
struct AggregationPlan;

/// A distributed multi-component field: one FArrayBox per box of a
/// BoxArray, each allocated over its box grown by nGrow ghost cells.
/// Mirrors amrex::MultiFab.
///
/// In this in-process reproduction every "rank's" fabs live in the same
/// address space, so communication primitives (FillBoundary, ParallelCopy)
/// perform direct copies while logging the messages a distributed run would
/// send to the attached parallel::SimComm. That keeps numerics exact and
/// the communication structure observable for the Summit machine model.
class MultiFab {
public:
    MultiFab() = default;
    MultiFab(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
             int ngrow, parallel::SimComm* comm = nullptr);

    void define(const BoxArray& ba, const DistributionMapping& dm, int ncomp,
                int ngrow, parallel::SimComm* comm = nullptr);

    bool isDefined() const { return !fabs_.empty(); }
    const BoxArray& boxArray() const { return ba_; }
    const DistributionMapping& distributionMap() const { return dm_; }
    int nComp() const { return ncomp_; }
    int nGrow() const { return ngrow_; }
    int numFabs() const { return static_cast<int>(fabs_.size()); }
    std::int64_t numPts() const { return ba_.numPts(); }

    FArrayBox& fab(int i) { return fabs_[i]; }
    const FArrayBox& fab(int i) const { return fabs_[i]; }
    Array4<Real> array(int i) { return fabs_[i].array(); }
    Array4<const Real> const_array(int i) const { return fabs_[i].const_array(); }

    /// Valid (non-ghost) region of fab i.
    const Box& validBox(int i) const { return ba_[i]; }
    /// Allocated region of fab i (valid + ghosts).
    Box grownBox(int i) const { return ba_[i].grow(ngrow_); }

    void setVal(Real v);
    void setVal(Real v, int comp, int ncomp);

    /// Fill ghost cells of every fab from valid cells of sibling fabs,
    /// honoring the domain periodicity in geom. Ghost cells outside the
    /// domain and not covered by a periodic image are left untouched
    /// (physical BCs fill those; see core::BCFill).
    ///
    /// The copy pattern is served by the process-wide CommCache keyed on
    /// (BoxArray id, nGrow, periodic shifts): the BoxArray hash intersection
    /// runs once per layout and every later call replays the cached
    /// descriptors, producing identical copies and identical SimComm
    /// messages (see docs/performance.md).
    void fillBoundary(const Geometry& geom);

    /// General rectangle copy from another MultiFab with a possibly
    /// different BoxArray/DistributionMapping: dst valid+dstNGrow cells are
    /// filled wherever they overlap src valid cells. This is the global
    /// communication step the paper identifies as the scaling bottleneck of
    /// the custom curvilinear interpolator.
    /// `srcNGrow` > 0 additionally reads the source's (already filled)
    /// ghost cells — used to gather stored coordinates, whose ghost values
    /// are globally consistent. Patterns are cached per (src BoxArray id,
    /// dst BoxArray id, ngrows, periodicity) like fillBoundary's.
    /// The ghost scopes carry no defaults (lint rule R3): every call site
    /// states how far into the ghost regions the copy reaches.
    void parallelCopy(const MultiFab& src, int srcComp, int destComp,
                      int numComp, int dstNGrow, int srcNGrow,
                      const std::string& tag = "ParallelCopy",
                      const Geometry* geomForPeriodicity = nullptr);

    /// Component-wise copy between MultiFabs on the same BoxArray.
    static void copy(MultiFab& dst, const MultiFab& src, int srcComp,
                     int destComp, int numComp, int ngrow);

    /// Scale components in place over the valid region grown by `ngrow`
    /// ghost layers (0 = valid cells only, nGrow() = every allocated cell).
    /// The scope is explicit because the reductions (sum/norm2) are
    /// valid-only: scaling ghosts too is harmless before a fillBoundary but
    /// wrong when ghost data must stay consistent with a previous exchange.
    void mult(Real a, int comp, int numComp, int ngrow);

    /// dst = dst + a*src on the same BoxArray (valid regions).
    static void saxpy(MultiFab& dst, Real a, const MultiFab& src, int srcComp,
                      int destComp, int numComp);

    /// Reductions over valid regions (exact, no rank decomposition error).
    Real min(int comp) const;
    Real max(int comp) const;
    Real sum(int comp) const;
    Real norm2(int comp) const;

    /// L2 norm of the component-wise difference of two compatible
    /// MultiFabs over valid cells (paper §IV-A validation metric).
    static Real l2Diff(const MultiFab& a, const MultiFab& b, int comp);

    parallel::SimComm* comm() const { return comm_; }

    /// Check builds: downgrade every fab's Valid ghost-region shadow cells
    /// to Stale — called after the valid region is rewritten (RK3 update,
    /// AverageDown) so a kernel reading ghosts before the next exchange is
    /// caught. No-op without CROCCO_CHECK.
    void invalidateGhosts();

private:
    /// Execute a cached/built communication pattern: perform the data copies
    /// and record the SimComm messages (point-to-point for fillBoundary,
    /// ParallelCopy messages otherwise) in build order. With a non-null
    /// aggregation `plan` carrying off-rank pairs the exchange routes
    /// through replayAggregated instead.
    void replay(const CommPattern& pattern, const MultiFab& src, int srcComp,
                int destComp, int numComp, const std::string& tag, bool p2p,
                const AggregationPlan* plan = nullptr);

    /// Aggregated exchange (comm.aggregate): on-rank copies apply directly,
    /// every off-rank copy is packed into one ScratchPool staging buffer
    /// per (src rank, dst rank) pair with a single batched launch, exactly
    /// one SimComm message goes out per pair, and delivery unpacks with a
    /// single batched launch (verified mode delivers per pair inside the
    /// CRC/retransmit machinery instead). Field results are bitwise
    /// identical to the unaggregated replay; only the message log changes.
    void replayAggregated(const CommPattern& pattern,
                          const AggregationPlan& plan, const MultiFab& src,
                          int srcComp, int destComp, int numComp,
                          const std::string& tag, bool p2p);

    /// Derive the copy-descriptor lists the CommCache stores. Factored out
    /// of fillBoundary/parallelCopy so the check build's replay guard can
    /// re-derive a pattern on sampled cache hits and compare it against the
    /// cached copy (see docs/correctness.md).
    CommPattern buildFillBoundaryPattern(const std::vector<IntVect>& shifts) const;
    CommPattern buildParallelCopyPattern(const MultiFab& src, int dstNGrow,
                                         int srcNGrow,
                                         const std::vector<IntVect>& shifts) const;

    BoxArray ba_;
    DistributionMapping dm_;
    int ncomp_ = 0;
    int ngrow_ = 0;
    std::vector<FArrayBox> fabs_;
    parallel::SimComm* comm_ = nullptr;
};

} // namespace crocco::amr
