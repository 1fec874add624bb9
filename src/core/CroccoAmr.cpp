// crocco-analyze:allow-file(R1): checkpoint serialization streams whole-fab
// payloads; raw pointers feed the CRC32 and byte-level I/O paths.
#include "core/CroccoAmr.hpp"

#include "amr/BoxList.hpp"
#include "amr/CommCache.hpp"
#include "core/KernelProfiles.hpp"
#include "core/LevelGeometry.hpp"
#include "core/Rk3.hpp"
#include "gpu/Arena.hpp"
#include "gpu/Gpu.hpp"
#include "gpu/ThreadPool.hpp"
#include "mesh/GridMetrics.hpp"
#include "resilience/Crc32.hpp"
#include "resilience/StateValidator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace crocco::core {

using amr::Box;
using amr::BoxArray;
using amr::DistributionMapping;
using amr::IntVect;
using amr::MultiFab;

CroccoAmr::Config CroccoAmr::Config::forVersion(CodeVersion v) {
    Config c;
    switch (v) {
        case CodeVersion::V10:
            c.variant = KernelVariant::FortranStyle;
            c.amrInfo.maxLevel = 0;
            break;
        case CodeVersion::V11:
            c.variant = KernelVariant::Portable;
            c.amrInfo.maxLevel = 0;
            break;
        case CodeVersion::V12:
        case CodeVersion::V20:
            c.variant = KernelVariant::Portable;
            c.interp = InterpChoice::Curvilinear;
            break;
        case CodeVersion::V21:
            c.variant = KernelVariant::Portable;
            c.interp = InterpChoice::Trilinear;
            break;
    }
    return c;
}

CroccoAmr::CroccoAmr(const amr::Geometry& geom0, const Config& cfg,
                     std::shared_ptr<const mesh::Mapping> mapping,
                     parallel::SimComm* comm)
    : amr::AmrCore(geom0, cfg.amrInfo, cfg.nranks, comm), cfg_(cfg),
      mapping_(std::move(mapping)) {
    // Coordinates carry 3 extra ghost layers beyond the state so the
    // metrics' 4th-order stencils reach (see core::buildLevelGeometry).
    coordStore_ = std::make_unique<mesh::CoordStore>(
        mapping_, geom0, cfg.amrInfo.refRatio, cfg.amrInfo.maxLevel, NGHOST + 3,
        cfg.coordMode, cfg.coordFileDir);
    const int nlev = cfg.amrInfo.maxLevel + 1;
    U_.resize(nlev);
    G_.resize(nlev);
    coords_.resize(nlev);
    metrics_.resize(nlev);
    metricReuse_.resize(nlev);
    switch (cfg.interp) {
        case InterpChoice::Curvilinear:
            interp_ = std::make_unique<amr::CurvilinearInterp>();
            break;
        case InterpChoice::Trilinear:
            interp_ = std::make_unique<amr::TrilinearInterp>();
            break;
        case InterpChoice::Weno:
            interp_ = std::make_unique<amr::WenoInterp>();
            break;
        case InterpChoice::ConservativeLinear:
            interp_ = std::make_unique<amr::CellConservativeLinear>();
            break;
    }
    // Execution-tuning knobs are process-wide (the thread pool and the comm
    // cache are singletons); the most recently constructed solver wins,
    // which matches the one-solver-per-process usage of every driver.
    gpu::setNumThreads(cfg.gpuNumThreads > 0 ? cfg.gpuNumThreads
                                             : gpu::ThreadPool::defaultNumThreads());
    auto& cache = amr::CommCache::instance();
    cache.setEnabled(cfg.commCache);
    cache.setCapacity(static_cast<std::size_t>(std::max(cfg.commCacheCapacity, 0)));
    cache.attachProfiler(&prof_);
    cache.setAggregate(cfg.commAggregate);
    if (auto* c = this->comm()) {
        // Hardened-exchange policy from the deck (comm.* keys). Zero-valued
        // knobs keep SimComm's defaults so decks without the keys are
        // byte-identical to the seed.
        if (cfg.commTimeout > 0.0) c->setTimeout(cfg.commTimeout);
        if (cfg.commMaxRetransmits > 0)
            c->setMaxRetransmits(cfg.commMaxRetransmits);
        if (cfg.commVerify) c->setVerifyExchanges(true);
    }
}

CroccoAmr::~CroccoAmr() {
    // The cache holds a non-owning pointer to this solver's profiler; drop
    // it before the profiler dies so no later MultiFab call dangles.
    auto& cache = amr::CommCache::instance();
    if (cache.profiler() == &prof_) cache.attachProfiler(nullptr);
}

const amr::Interpolater& CroccoAmr::interpolater() const { return *interp_; }

void CroccoAmr::init(InitFunct initialCondition, amr::PhysBCFunct physBC) {
    init_ = std::move(initialCondition);
    physBC_ = std::move(physBC);
    perf::TinyProfiler::Scope scope(prof_, "InitGrid");
    std::fill(metricReuse_.begin(), metricReuse_.end(), MetricReuse{});
    initGrids(time_);
}

void CroccoAmr::defineLevelData(int lev, const BoxArray& ba,
                                const DistributionMapping& dm) {
    U_[lev].define(ba, dm, NCONS, NGHOST, comm());
    G_[lev].define(ba, dm, NCONS, 0, comm());
    G_[lev].setVal(0.0);
    defineLevelGeometry(lev, ba, dm, coords_[lev], metrics_[lev], nullptr);
}

void CroccoAmr::defineLevelGeometry(int lev, const BoxArray& ba,
                                    const DistributionMapping& dm,
                                    MultiFab& coords, MultiFab& metrics,
                                    const MultiFab* oldMetrics) {
    perf::TinyProfiler::Scope scope(prof_, "InitGridMetrics");
    coords.define(ba, dm, 3, NGHOST + 3, comm());
    metrics.define(ba, dm, mesh::MetricComps, NGHOST, comm());
    metricReuse_[static_cast<std::size_t>(lev)] =
        buildLevelGeometry(*coordStore_, lev, geom(lev), coords, metrics, oldMetrics);
}

void CroccoAmr::makeNewLevelFromScratch(int lev, Real /*time*/, const BoxArray& ba,
                                        const DistributionMapping& dm) {
    defineLevelData(lev, ba, dm);
    perf::TinyProfiler::Scope scope(prof_, "InitFlow");
    assert(init_);
    gpu::ParallelForIndex(U_[lev].numFabs(), [&](int f) {
        auto u = U_[lev].array(f);
        auto x = coords_[lev].const_array(f);
        amr::forEachCell(U_[lev].validBox(f), [&](int i, int j, int k) {
            const auto s = init_(x(i, j, k, 0), x(i, j, k, 1), x(i, j, k, 2));
            for (int n = 0; n < NCONS; ++n) u(i, j, k, n) = s[static_cast<std::size_t>(n)];
        });
    });
}

void CroccoAmr::makeNewLevelFromCoarse(int lev, Real time, const BoxArray& ba,
                                       const DistributionMapping& dm) {
    defineLevelData(lev, ba, dm);
    amr::InterpFromCoarseLevel(U_[lev], U_[lev - 1], geom(lev), geom(lev - 1),
                               refRatio(), interpolater(), physBC_, physBC_, time,
                               &coords_[lev], &coords_[lev - 1]);
}

void CroccoAmr::remakeLevel(int lev, Real time, const BoxArray& ba,
                            const DistributionMapping& dm) {
    MultiFab newU(ba, dm, NCONS, NGHOST, comm());
    MultiFab newG(ba, dm, NCONS, 0, comm());
    newG.setVal(0.0);
    // Metric cells the old layout already holds on the same rank carry
    // over; only the rest is computed.
    MultiFab newCoords, newMetrics;
    defineLevelGeometry(lev, ba, dm, newCoords, newMetrics, &metrics_[lev]);
    // Newly uncovered regions come from coarse interpolation; regions the
    // old level already resolved keep their fine data.
    amr::InterpFromCoarseLevel(newU, U_[lev - 1], geom(lev), geom(lev - 1),
                               refRatio(), interpolater(), physBC_, physBC_, time,
                               &newCoords, &coords_[lev - 1]);
    newU.parallelCopy(U_[lev], 0, 0, NCONS, 0, 0, "Regrid");
    U_[lev] = std::move(newU);
    G_[lev] = std::move(newG);
    coords_[lev] = std::move(newCoords);
    metrics_[lev] = std::move(newMetrics);
}

void CroccoAmr::clearLevel(int lev) {
    U_[lev] = MultiFab();
    G_[lev] = MultiFab();
    coords_[lev] = MultiFab();
    metrics_[lev] = MultiFab();
}

void CroccoAmr::errorEst(int lev, std::vector<IntVect>& tags, Real /*time*/) {
    MultiFab Sborder(boxArray(lev), dmap(lev), NCONS, NGHOST, comm());
    fillPatch(lev, Sborder);
    tagCells(Sborder, cfg_.tagging, tags);
}

void CroccoAmr::fillPatch(int lev, MultiFab& dst) {
    perf::TinyProfiler::Scope scope(prof_, "FillPatch");
    if (lev == 0) {
        amr::FillPatchSingleLevel(dst, U_[0], geom(0), physBC_, time_);
    } else {
        amr::FillPatchTwoLevels(dst, U_[lev], U_[lev - 1], geom(lev),
                                geom(lev - 1), refRatio(), interpolater(),
                                physBC_, physBC_, time_, &coords_[lev],
                                &coords_[lev - 1]);
    }
}

int CroccoAmr::rhsGhostWidth() const {
    // WENO interface fluxes reach 3 cells across a face; the viscous/SGS
    // stencil (gradients of gradients) reaches 4. The fused stage cache
    // covers each valid box grown by this width.
    return (cfg_.gas.viscous() || cfg_.sgs.active()) ? 4 : 3;
}

Real CroccoAmr::computeDtAllLevels() {
    perf::TinyProfiler::Scope scope(prof_, "ComputeDt");
    Real dt = std::numeric_limits<Real>::infinity();
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        dt = std::min(dt, computeDt(U_[lev], metrics_[lev], geom(lev), cfg_.gas,
                                    cfg_.cfl));
    }
    return dt;
}

namespace {

/// Total valid points of the level — the per-point unit the modeled-DRAM
/// profiler column (KernelProfiles dramBytesPerPoint) is charged against.
double levelValidPts(const MultiFab& mf) {
    double pts = 0.0;
    for (int f = 0; f < mf.numFabs(); ++f)
        pts += static_cast<double>(mf.validBox(f).numPts());
    return pts;
}

} // namespace

void CroccoAmr::computeRhs(int lev, const MultiFab& Sborder, MultiFab& dU) {
    // Each WENO sweep runs as one cost-ordered tile list over the level's
    // fabs: tiles cut across the sweep direction own disjoint dU cells and
    // evaluate the exact per-cell expressions of the whole-fab sweep (read-
    // only Sborder/metrics, per-call kernel scratch), so every thread count
    // and claim order produces bitwise-identical dU. Viscous keeps one task
    // per fab (its stencil needs halos in every direction). The profiler
    // scopes stay outside the parallel region — TinyProfiler is not
    // thread-safe.
    const auto dxi = geom(lev).cellSizeArray();
    const double pts = levelValidPts(dU);
    static const char* wenoNames[3] = {"WENOx", "WENOy", "WENOz"};
    for (int dir = 0; dir < 3; ++dir) {
        perf::TinyProfiler::Scope scope(prof_, wenoNames[dir]);
        prof_.addBytes(wenoNames[dir],
                       wenoKernelProfile().dramBytesPerPoint * pts);
        gpu::ParallelForTiles(
            gpu::sweepTiles(dU.boxArray().boxes(), dir),
            [&](const gpu::FabTile& tile) {
                wenoFlux(dir, Sborder.const_array(tile.fab),
                         metrics_[lev].const_array(tile.fab), tile.box,
                         dU.array(tile.fab), dxi[static_cast<std::size_t>(dir)],
                         cfg_.gas, cfg_.scheme, cfg_.variant, cfg_.recon);
            });
    }
    if (cfg_.gas.viscous() || cfg_.sgs.active()) {
        perf::TinyProfiler::Scope scope(prof_, "Viscous");
        prof_.addBytes("Viscous", viscousKernelProfile().dramBytesPerPoint * pts);
        gpu::ParallelForIndex(dU.numFabs(), [&](int f) {
            viscousFlux(Sborder.const_array(f), metrics_[lev].const_array(f),
                        dU.validBox(f), dU.array(f), dxi, cfg_.gas, cfg_.variant,
                        cfg_.sgs);
        });
    }
}

void CroccoAmr::computeRhsFused(int lev, const MultiFab& Sborder,
                                MultiFab& dU) {
    // The fused pipeline (Config::fused). Per stage and level:
    //   1. one batched PrimCache launch decodes primitives + temperature +
    //      Jacobian into a pooled per-fab cache (EOS/determinant evaluated
    //      once instead of once per sweep);
    //   2. three batched two-kernel WENO sweeps (flux+divergence fused; the
    //      dir-0 sweep assigns, absorbing dU.setVal(0));
    //   3. a batched two-kernel viscous pass reading the same cache.
    // Each phase is ONE counted launch for the whole level (the per-fab
    // sub-kernels run inside a BatchedPhaseScope), matching how a real GPU
    // port would aggregate per-fab grids into a single batched launch.
    // Bitwise contract: every cached value equals the unfused inline
    // computation bit-for-bit, and every dU accumulation keeps the unfused
    // per-cell expression and ordering (pinned by tests/core/fused_rhs_test).
    const auto dxi = geom(lev).cellSizeArray();
    const int gw = rhsGhostWidth();
    const int nf = dU.numFabs();
    const double pts = levelValidPts(dU);

    std::vector<gpu::ScratchPool::Lease> leases;
    leases.reserve(static_cast<std::size_t>(nf));
    std::vector<Array4<Real>> caches(static_cast<std::size_t>(nf));
    for (int f = 0; f < nf; ++f) {
        leases.push_back(gpu::ScratchPool::instance().acquire(
            dU.validBox(f).grow(gw), fused::NCACHE));
        caches[static_cast<std::size_t>(f)] = leases.back().fab().array();
    }

    {
        perf::TinyProfiler::Scope scope(prof_, "PrimCache");
        prof_.addBytes("PrimCache",
                       fusedPrimCacheProfile().dramBytesPerPoint * pts);
        gpu::BatchedParallelForIndex(nf, 1, [&](int f) {
            fused::computePrimCache(Sborder.const_array(f),
                                    metrics_[lev].const_array(f),
                                    dU.validBox(f).grow(gw),
                                    caches[static_cast<std::size_t>(f)],
                                    cfg_.gas);
        });
    }
    static const char* wenoNames[3] = {"WENOx", "WENOy", "WENOz"};
    for (int dir = 0; dir < 3; ++dir) {
        perf::TinyProfiler::Scope scope(prof_, wenoNames[dir]);
        prof_.addBytes(wenoNames[dir],
                       fusedWenoKernelProfile().dramBytesPerPoint * pts);
        gpu::BatchedParallelForIndex(nf, 2, [&](int f) {
            wenoFluxFused(dir, Sborder.const_array(f),
                          caches[static_cast<std::size_t>(f)],
                          metrics_[lev].const_array(f), dU.validBox(f),
                          dU.array(f), dxi[static_cast<std::size_t>(dir)],
                          cfg_.gas, cfg_.scheme, cfg_.recon, dir == 0);
        });
    }
    if (cfg_.gas.viscous() || cfg_.sgs.active()) {
        perf::TinyProfiler::Scope scope(prof_, "Viscous");
        prof_.addBytes("Viscous",
                       fusedViscousKernelProfile().dramBytesPerPoint * pts);
        gpu::BatchedParallelForIndex(nf, 2, [&](int f) {
            viscousFluxFused(caches[static_cast<std::size_t>(f)],
                             metrics_[lev].const_array(f), dU.validBox(f),
                             dU.array(f), dxi, cfg_.gas, cfg_.sgs);
        });
    }
}

void CroccoAmr::rk3Advance() {
    // Algorithm 2: three Williamson stages, each sweeping all levels with
    // the same global dt (no subcycling).
    for (int stage = 0; stage < Rk3::nStages; ++stage) {
        for (int lev = 0; lev <= finestLevel(); ++lev) {
            MultiFab Sborder(boxArray(lev), dmap(lev), NCONS, NGHOST, comm());
            MultiFab dU(boxArray(lev), dmap(lev), NCONS, 0, comm());
            fillPatch(lev, Sborder); // includes BC_Fill
            if (cfg_.fused) {
                // The fused dir-0 sweep assigns into dU (bitwise the
                // setVal(0) + `-=` of the unfused path) — no zero-fill.
                computeRhsFused(lev, Sborder, dU);
            } else {
                dU.setVal(0.0);
                computeRhs(lev, Sborder, dU);
            }
            // SDC hooks between RHS production and consumption: an armed
            // kernel flip lands in dU here, and the sampled dual execution
            // re-derives one fab's RHS to catch exactly such corruption
            // before the update bakes it into U.
            if (sdcInjector_) sdcInjector_->corruptStage(step_, stage, lev, dU);
            if (cfg_.sdc.guard && cfg_.sdc.sample > 0 &&
                step_ % cfg_.sdc.sample == 0)
                dualExecuteCheck(lev, stage, Sborder, dU);
            {
                perf::TinyProfiler::Scope scope(prof_, "Update");
                const auto& up = cfg_.fused ? fusedUpdateKernelProfile()
                                            : updateKernelProfile();
                prof_.addBytes("Update",
                               up.dramBytesPerPoint * levelValidPts(dU));
                // G <- A*G + dt*RHS;  U <- U + B*G.
                rk3StageUpdate(G_[lev], U_[lev], dU,
                               Rk3::A[static_cast<std::size_t>(stage)],
                               Rk3::B[static_cast<std::size_t>(stage)], dt_,
                               cfg_.fused);
            }
            // The valid region just advanced a stage: whatever ghost data
            // U still carries (e.g. from a regrid interpolation) is now
            // outdated. Check builds mark it Stale so a read before the
            // next fillPatch aborts; unchecked builds compile this away.
            U_[lev].invalidateGhosts();
            if (stage == Rk3::nStages - 1 && lev > 0) {
                perf::TinyProfiler::Scope scope(prof_, "AverageDown");
                amr::AverageDown(U_[lev], U_[lev - 1], refRatio(), 0, 0, NCONS);
            }
        }
    }
}

void CroccoAmr::dualExecuteCheck(int lev, int stage, const MultiFab& Sborder,
                                 const MultiFab& dU) {
    const int nf = dU.numFabs();
    if (nf == 0) return;
    const int f = resilience::FabGuard::sampledFab(step_, stage, lev, nf);
    perf::TinyProfiler::Scope scope(prof_, "SdcDualExec");
    // Re-derive the sampled fab's RHS with the plain serial kernels — a
    // structurally independent path from the fused pipeline,
    // pinned bitwise-identical to them by the core tests, so any
    // discrepancy here is corruption, not roundoff.
    auto lease = gpu::ScratchPool::instance().acquire(dU.validBox(f), NCONS);
    amr::FArrayBox& ref = lease.fab();
    ref.setVal(0.0);
    const auto dxi = geom(lev).cellSizeArray();
    for (int dir = 0; dir < 3; ++dir)
        wenoFlux(dir, Sborder.const_array(f), metrics_[lev].const_array(f),
                 dU.validBox(f), ref.array(), dxi[static_cast<std::size_t>(dir)],
                 cfg_.gas, cfg_.scheme, cfg_.variant, cfg_.recon);
    if (cfg_.gas.viscous() || cfg_.sgs.active())
        viscousFlux(Sborder.const_array(f), metrics_[lev].const_array(f),
                    dU.validBox(f), ref.array(), dxi, cfg_.gas, cfg_.variant,
                    cfg_.sgs);
    ++sdcGuard_.stats().dualChecks;
    if (!resilience::FabGuard::bitwiseEqual(ref, dU.fab(f), dU.validBox(f),
                                            NCONS)) {
        ++sdcGuard_.stats().dualMismatches;
        throw resilience::SdcFault(
            step_, resilience::FaultClass::KernelSdc,
            "dual-execution mismatch: stage " + std::to_string(stage) +
                " RHS of level " + std::to_string(lev) + " fab " +
                std::to_string(f) + " differs from its recomputation");
    }
}

void CroccoAmr::emitCommSummary() {
    if (!cfg_.commLogSummary) return;
    const auto* c = comm();
    if (!c) return;
    const parallel::CommLog::Summary s = c->log().summarize(commLogMark_);
    lastCommSummary_ =
        "step " + std::to_string(step_) + " " +
        parallel::CommLog::formatSummary(s);
    std::cout << lastCommSummary_ << '\n';
    commLogMark_ = c->log().count();
}

void CroccoAmr::step() {
    if (cfg_.commLogSummary && comm()) commLogMark_ = comm()->log().count();
    // SDC window boundary: flips that hit resident state while it sat cold
    // since the last stamp land now, and the guard verify (on its cadence)
    // catches and repairs them before anything reads the state.
    if (sdcInjector_) sdcInjector_->corruptCold(step_, U_, finestLevel());
    if (cfg_.sdc.guard && cfg_.sdc.interval > 0 &&
        step_ % cfg_.sdc.interval == 0)
        sdcVerifyAndRepair("step-start verify");
    // Scheduled rank deaths fire at step boundaries: the node dies between
    // iterations, and the first communication touching it — a regrid
    // exchange, the ComputeDt reduction, or an RK3 waitall — raises
    // RankFailure for evolve()'s recovery path.
    if (auto* c = comm()) {
        if (auto* f = c->faults()) {
            if (const auto dead = f->takeRankDeath(step_)) c->killRank(*dead);
        }
    }
    const int freq = cfg_.regridFreq > 0 ? cfg_.regridFreq : estimateRegridFreq();
    if (maxLevel() > 0 && step_ % freq == 0) {
        perf::TinyProfiler::Scope scope(prof_, "Regrid");
        std::fill(metricReuse_.begin(), metricReuse_.end(), MetricReuse{});
        regrid(0, time_);
    }
    dt_ = computeDtAllLevels();
    if (faultInjector_) dt_ = faultInjector_->perturbDt(step_, dt_);

    if (!cfg_.guard.enabled) {
        try {
            rk3Advance();
        } catch (const resilience::SdcFault& sf) {
            // Dual execution caught a corrupted stage RHS, but with the
            // step guard off there is no in-step snapshot to roll back to:
            // record the unavailable rung and escalate to evolve()'s
            // buddy/disk rungs.
            ladder_.log().record(step_, sf.fault(),
                                 resilience::Rung::StepRollback, false,
                                 "guard disabled: no in-step snapshot");
            throw;
        }
        if (faultInjector_) faultInjector_->corruptState(step_, U_, finestLevel());
        emitCommSummary();
        time_ += dt_;
        ++step_;
        if (cfg_.sdc.guard) {
            perf::TinyProfiler::Scope scope(prof_, "SdcStamp");
            sdcGuard_.stamp(U_, finestLevel());
        }
        return;
    }

    // Snapshot the conserved state so a corrupted step can be undone. The
    // RK3 accumulator G is annihilated at stage 0 (A[0] = 0), so U_ plus
    // the unadvanced time/step counters are the whole rollback state.
    std::vector<MultiFab> snapshot;
    snapshot.reserve(static_cast<std::size_t>(finestLevel()) + 1);
    for (int lev = 0; lev <= finestLevel(); ++lev)
        snapshot.push_back(U_[static_cast<std::size_t>(lev)]);
    auto restore = [&] {
        for (int lev = 0; lev <= finestLevel(); ++lev) {
            U_[static_cast<std::size_t>(lev)] = snapshot[static_cast<std::size_t>(lev)];
            G_[static_cast<std::size_t>(lev)].setVal(0.0);
        }
    };

    for (int attempt = 0;; ++attempt) {
        try {
            rk3Advance();
        } catch (const resilience::SdcFault& sf) {
            // Dual execution caught a corrupted stage RHS mid-advance. The
            // flip was transient (its one-shot arm is spent), so the retry
            // replays the identical step — and dtBackoffApplies says an SDC
            // rollback keeps dt, or the repaired trajectory would diverge
            // bitwise from the fault-free run.
            restore();
            const bool retry = attempt < cfg_.guard.maxRetries;
            ladder_.log().record(step_, sf.fault(),
                                 resilience::Rung::StepRollback, retry,
                                 sf.what());
            if (!retry) throw;
            ++rollbackCount_;
            if (resilience::RecoveryLadder::dtBackoffApplies(sf.fault()))
                dt_ *= cfg_.guard.dtBackoff;
            continue;
        }
        if (faultInjector_) faultInjector_->corruptState(step_, U_, finestLevel());
        resilience::HealthReport rep;
        {
            perf::TinyProfiler::Scope scope(prof_, "HealthCheck");
            rep = resilience::validateHierarchy(U_, finestLevel(), cfg_.gas,
                                                cfg_.guard.maxFaultsReported);
        }
        if (rep.healthy()) {
            lastHealth_ = std::move(rep);
            break;
        }
        restore();
        if (attempt >= cfg_.guard.maxRetries) {
            ladder_.log().record(step_, resilience::FaultClass::HealthFault,
                                 resilience::Rung::StepRollback, false,
                                 "retries exhausted");
            throw resilience::SolverDivergence(step_, dt_, std::move(rep));
        }
        ladder_.log().record(step_, resilience::FaultClass::HealthFault,
                             resilience::Rung::StepRollback, true);
        ++rollbackCount_;
        if (resilience::RecoveryLadder::dtBackoffApplies(
                resilience::FaultClass::HealthFault))
            dt_ *= cfg_.guard.dtBackoff;
    }
    emitCommSummary();
    time_ += dt_;
    ++step_;
    if (cfg_.sdc.guard) {
        perf::TinyProfiler::Scope scope(prof_, "SdcStamp");
        sdcGuard_.stamp(U_, finestLevel());
    }
}

void CroccoAmr::evolve(int nsteps) {
    // Baseline stamp before the first step (same as the EvolveOptions
    // overload): upsets that land before the first end-of-step stamp would
    // otherwise have nothing to verify against and ride silently.
    if (cfg_.sdc.guard && !sdcGuard_.stamped())
        sdcGuard_.stamp(U_, finestLevel());
    for (int n = 0; n < nsteps; ++n) step();
}

void CroccoAmr::evolve(int nsteps, const EvolveOptions& opts) {
    const int target = step_ + nsteps;
    const bool checkpointing = opts.restart && opts.checkpointEvery > 0;
    const bool buddying = opts.buddy && opts.buddyEvery > 0;
    // Seed a recovery point before the first step so a divergence early in
    // the run still has somewhere to fall back to.
    if (checkpointing && opts.restart->available().empty())
        opts.restart->write(step_,
                            [&](const std::string& d) { writeCheckpoint(d); });
    if (buddying && !opts.buddy->valid())
        opts.buddy->store(U_, finestLevel(), step_, time_, comm());
    // Baseline stamp before the first step: without it, upsets that land
    // before the first end-of-step stamp have nothing to verify against and
    // ride silently (the SDC bench's interval-1 zero-undetected gate).
    if (cfg_.sdc.guard && !sdcGuard_.stamped())
        sdcGuard_.stamp(U_, finestLevel());
    int recoveries = 0;
    // Post-restore housekeeping shared by every rung: the restored state is
    // known-good by construction (CRC-verified checkpoint or mirror), so it
    // becomes the new guard baseline.
    auto restamp = [&] {
        if (cfg_.sdc.guard) sdcGuard_.stamp(U_, finestLevel());
    };
    // The ladder's last repair rung. False = nothing to restore from; the
    // caller surfaces the original fault (Abort).
    auto diskRestore = [&](resilience::FaultClass fault) {
        if (!opts.restart) {
            ladder_.log().record(step_, fault, resilience::Rung::Abort, false,
                                 "no restart manager attached");
            return false;
        }
        ++diskRecoveryCount_;
        opts.restart->restoreLatest([&](const std::string& d) {
            readCheckpoint(d, init_, physBC_);
        });
        ladder_.log().record(step_, fault, resilience::Rung::DiskRestart, true);
        restamp();
        return true;
    };
    while (step_ < target) {
        try {
            step();
            const bool doCkpt =
                checkpointing && step_ % opts.checkpointEvery == 0;
            const bool doBuddy = buddying && step_ % opts.buddyEvery == 0;
            // A checkpoint or mirror written from silently corrupted state
            // poisons the recovery source itself — verify (and repair) the
            // guarded state before either write reads it.
            if (doCkpt || doBuddy) sdcVerifyAndRepair("checkpoint source");
            if (doCkpt)
                opts.restart->write(
                    step_, [&](const std::string& d) { writeCheckpoint(d); });
            if (doBuddy)
                opts.buddy->store(U_, finestLevel(), step_, time_, comm());
        } catch (const resilience::SolverDivergence&) {
            const bool canRestore =
                opts.restart && recoveries < opts.maxRecoveries;
            ladder_.log().record(step_, resilience::FaultClass::HealthFault,
                                 resilience::Rung::DiskRestart, canRestore,
                                 canRestore ? "" : "recovery budget exhausted");
            if (!canRestore) throw;
            ++recoveries;
            ++recoveryCount_;
            opts.restart->restoreLatest([&](const std::string& d) {
                readCheckpoint(d, init_, physBC_);
            });
            restamp();
            continue;
        } catch (const resilience::SdcFault& sf) {
            // The local rungs are spent (fab repair impossible or step
            // rollback exhausted): climb to the buddy mirror, then disk.
            if (recoveries >= opts.maxRecoveries) throw;
            ++recoveries;
            ++recoveryCount_;
            if (restoreFromBuddySnapshot(opts)) {
                ++buddyRecoveryCount_;
                ladder_.log().record(step_, sf.fault(),
                                     resilience::Rung::BuddyRestore, true,
                                     sf.what());
                restamp();
            } else {
                ladder_.log().record(step_, sf.fault(),
                                     resilience::Rung::BuddyRestore, false,
                                     "no verified buddy mirror");
                if (!diskRestore(sf.fault())) throw;
            }
            continue;
        } catch (const parallel::RankFailure& rf) {
            if (recoveries >= opts.maxRecoveries) throw;
            ++recoveries;
            ++recoveryCount_;
            if (recoverFromRankDeath(rf.deadRank(), opts)) {
                ++buddyRecoveryCount_;
                ladder_.log().record(step_, resilience::FaultClass::RankDeath,
                                     resilience::Rung::BuddyRestore, true,
                                     "rank " + std::to_string(rf.deadRank()));
                restamp();
            } else {
                // No usable buddy copy (none stored, the replica died with
                // the rank, or the mirror failed its CRC check): full disk
                // restore. The communicator is already shrunk;
                // readCheckpoint rebuilds the mappings over the survivors.
                ladder_.log().record(step_, resilience::FaultClass::RankDeath,
                                     resilience::Rung::BuddyRestore, false,
                                     "no usable buddy copy");
                if (!diskRestore(resilience::FaultClass::RankDeath)) throw;
            }
            continue;
        }
    }
}

bool CroccoAmr::recoverFromRankDeath(int deadRank, const EvolveOptions& opts) {
    auto* c = comm();
    assert(c && !c->rankAlive(deadRank));
    // Decide the restore source *before* the shrink: the buddy partner must
    // have survived, judged under the snapshot's (pre-death) numbering.
    bool useBuddy =
        opts.buddy && opts.buddy->canRecover(deadRank) &&
        opts.buddy->nranks() == c->size() &&
        c->rankAlive(
            resilience::BuddyCheckpoint::partnerOf(deadRank, c->size()));
    // The mirror sat in partner memory since its store() — exactly the
    // long-idle state SDC hits. Verify every mirrored fab's CRC *before*
    // any byte of it overwrites live state; a corrupted mirror falls
    // through to the disk rung instead of being trusted.
    if (useBuddy && !opts.buddy->verifyMirror()) {
        ladder_.log().record(step_, resilience::FaultClass::CheckpointCorrupt,
                             resilience::Rung::BuddyRestore, false,
                             "buddy mirror failed CRC verification");
        useBuddy = false;
    }
    // ULFM sequence: revoke + shrink. Survivors are renumbered densely,
    // pending ops are revoked, and every layer tracking the communicator
    // size follows suit.
    c->shrink();
    setNumRanks(c->size());
    amr::CommCache::instance().noteCommSize(c->size());
    if (!useBuddy) return false;

    const resilience::BuddyCheckpoint& snap = *opts.buddy;
    time_ = static_cast<Real>(snap.time());
    step_ = snap.step();
    // Levels above the snapshot's finest (possible when a regrid between
    // the snapshot and the death added a level) still hold pre-shrink
    // mappings; drop them before they can be touched.
    for (int lev = snap.finestLevel() + 1; lev <= finestLevel(); ++lev)
        clearLevel(lev);
    for (int lev = 0; lev <= snap.finestLevel(); ++lev) {
        const amr::MultiFab& s = snap.level(lev);
        const BoxArray ba = s.boxArray();
        // Survivors keep their boxes; the dead rank's boxes are poured onto
        // the least-loaded survivors — only that data crosses the network.
        const DistributionMapping dm =
            s.distributionMap().excludeRank(deadRank, ba);
        setLevel(lev, ba, dm);
        setFinestLevel(lev);
        defineLevelData(lev, ba, dm);
        for (int f = 0; f < s.numFabs(); ++f) {
            U_[lev].fab(f).copyFrom(s.fab(f), ba[f], 0, 0, NCONS);
            if (s.distributionMap()[f] != deadRank) continue;
            // This box's owner died: its replica streams from the buddy
            // partner to the new owner (both in post-shrink numbering).
            const int partnerOld = resilience::BuddyCheckpoint::partnerOf(
                deadRank, snap.nranks());
            const int partnerNew =
                partnerOld > deadRank ? partnerOld - 1 : partnerOld;
            const std::int64_t bytes =
                ba[f].numPts() * NCONS *
                static_cast<std::int64_t>(sizeof(Real));
            c->recordP2P(partnerNew, dm[f], bytes, "RankRecovery");
        }
    }
    // The snapshot's rank numbering predates the shrink; it has served its
    // purpose. evolve() re-seeds a fresh snapshot at the next interval, and
    // a second death before then falls back to disk.
    opts.buddy->invalidate();
    return true;
}

bool CroccoAmr::restoreFromBuddySnapshot(const EvolveOptions& opts) {
    if (!opts.buddy || !opts.buddy->valid()) return false;
    // Same policy as the rank-death path: no mirror byte overwrites live
    // state before the whole mirror passes its CRC check.
    if (!opts.buddy->verifyMirror()) {
        ladder_.log().record(step_, resilience::FaultClass::CheckpointCorrupt,
                             resilience::Rung::BuddyRestore, false,
                             "buddy mirror failed CRC verification");
        return false;
    }
    const resilience::BuddyCheckpoint& snap = *opts.buddy;
    // The snapshot's DistributionMappings are only meaningful under the
    // communicator size they were taken with.
    if (comm() && snap.nranks() != comm()->size()) return false;
    time_ = static_cast<Real>(snap.time());
    step_ = snap.step();
    for (int lev = snap.finestLevel() + 1; lev <= finestLevel(); ++lev)
        clearLevel(lev);
    for (int lev = 0; lev <= snap.finestLevel(); ++lev) {
        const amr::MultiFab& s = snap.level(lev);
        const BoxArray ba = s.boxArray();
        const DistributionMapping dm = s.distributionMap();
        setLevel(lev, ba, dm);
        setFinestLevel(lev);
        defineLevelData(lev, ba, dm);
        for (int f = 0; f < s.numFabs(); ++f)
            U_[lev].fab(f).copyFrom(s.fab(f), ba[f], 0, 0, NCONS);
    }
    // Unlike a rank-death recovery the communicator did not shrink, so the
    // mirror's numbering is still current — keep it for the next fault.
    return true;
}

void CroccoAmr::sdcVerifyAndRepair(const char* context) {
    if (!cfg_.sdc.guard || !sdcGuard_.stamped()) return;
    if (!sdcGuard_.layoutMatches(U_, finestLevel())) return;
    perf::TinyProfiler::Scope scope(prof_, "SdcVerify");
    // Cheap ABFT screen first (stats only — the CRC scan stays
    // authoritative, because a low-bit flip on a small addend can vanish
    // into the conserved sum's rounding).
    sdcGuard_.digestClean(U_, finestLevel());
    const auto findings = sdcGuard_.verify(U_, finestLevel());
    for (const auto& gf : findings) {
        const std::string where = std::string(context) + ": level " +
                                  std::to_string(gf.level) + " fab " +
                                  std::to_string(gf.fab);
        if (sdcGuard_.restoreFab(U_, gf.level, gf.fab)) {
            ++fabRestoreCount_;
            ladder_.log().record(step_, resilience::FaultClass::ColdSdc,
                                 resilience::Rung::FabRestore, true, where);
        } else {
            // The retained restore source is itself corrupt — a double
            // fault. StepRollback is skipped for cold SDC (the in-step
            // snapshot would replay the corruption); evolve() climbs to
            // the buddy mirror and disk rungs.
            ladder_.log().record(step_, resilience::FaultClass::ColdSdc,
                                 resilience::Rung::FabRestore, false,
                                 where + " (retained copy corrupt)");
            throw resilience::SdcFault(
                step_, resilience::FaultClass::ColdSdc,
                "cold SDC at " + where +
                    " and the retained guard copy is also corrupt");
        }
    }
}

std::array<Real, NCONS> CroccoAmr::conservedTotals() const {
    std::array<Real, NCONS> total{};
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        const auto dxi = geom(lev).cellSizeArray();
        const Real dV = dxi[0] * dxi[1] * dxi[2];
        // Coarse cells covered by a finer level are counted there.
        std::vector<Box> fineCover;
        if (lev < finestLevel()) {
            for (const Box& b : boxArray(lev + 1).boxes())
                fineCover.push_back(b.coarsen(refRatio()));
        }
        for (int f = 0; f < U_[lev].numFabs(); ++f) {
            auto u = U_[lev].const_array(f);
            auto m = metrics_[lev].const_array(f);
            for (const Box& piece : amr::boxDiff(U_[lev].validBox(f), fineCover)) {
                amr::forEachCell(piece, [&](int i, int j, int k) {
                    const Real w = mesh::jacobian(m, i, j, k) * dV;
                    for (int n = 0; n < NCONS; ++n)
                        total[static_cast<std::size_t>(n)] += w * u(i, j, k, n);
                });
            }
        }
    }
    return total;
}

void CroccoAmr::writeCheckpoint(const std::string& dir) const {
    namespace fs = std::filesystem;
    // Stage into a sibling tmp directory and rename into place: a crash or
    // job kill mid-write leaves only the tmp dir behind, never a plausible-
    // looking half-checkpoint at `dir`.
    const fs::path target(dir);
    const fs::path tmp(dir + ".writing");
    std::error_code ec;
    fs::remove_all(tmp, ec);
    fs::create_directories(tmp);

    std::vector<std::uint32_t> crcs;
    std::vector<std::uint64_t> sizes;
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        std::vector<Real> vals;
        vals.reserve(static_cast<std::size_t>(U_[lev].numPts()) * NCONS);
        for (int f = 0; f < U_[lev].numFabs(); ++f) {
            auto a = U_[lev].const_array(f);
            amr::forEachCell(U_[lev].validBox(f), [&](int i, int j, int k) {
                for (int n = 0; n < NCONS; ++n) vals.push_back(a(i, j, k, n));
            });
        }
        const auto nbytes = vals.size() * sizeof(Real);
        crcs.push_back(resilience::crc32(vals.data(), nbytes));
        sizes.push_back(nbytes);
        const fs::path binPath = tmp / ("level" + std::to_string(lev) + ".bin");
        std::ofstream bin(binPath, std::ios::binary);
        bin.write(reinterpret_cast<const char*>(vals.data()),
                  static_cast<std::streamsize>(nbytes));
        bin.flush();
        if (!bin)
            throw std::runtime_error("failed writing checkpoint level file " +
                                     binPath.string());
    }

    std::ofstream hdr(tmp / "header.txt");
    hdr.precision(17); // bit-exact double round-trip
    hdr << "crocco-checkpoint 2\n";
    hdr << time_ << ' ' << step_ << ' ' << finestLevel() << '\n';
    for (int lev = 0; lev <= finestLevel(); ++lev) {
        const auto& ba = boxArray(lev);
        hdr << ba.size() << ' ' << crcs[static_cast<std::size_t>(lev)] << ' '
            << sizes[static_cast<std::size_t>(lev)] << '\n';
        for (int i = 0; i < ba.size(); ++i) {
            const Box& b = ba[i];
            hdr << b.smallEnd(0) << ' ' << b.smallEnd(1) << ' ' << b.smallEnd(2)
                << ' ' << b.bigEnd(0) << ' ' << b.bigEnd(1) << ' ' << b.bigEnd(2)
                << ' ' << dmap(lev)[i] << '\n';
        }
    }
    hdr.flush();
    if (!hdr)
        throw std::runtime_error("failed writing checkpoint header in " +
                                 tmp.string());
    hdr.close();
    fs::remove_all(target, ec);
    fs::rename(tmp, target);
}

void CroccoAmr::readCheckpoint(const std::string& dir, InitFunct ic,
                               amr::PhysBCFunct bc) {
    std::ifstream hdr(dir + "/header.txt");
    if (!hdr) throw std::runtime_error("cannot open checkpoint " + dir);
    std::string magic;
    int version = 0;
    hdr >> magic >> version;
    if (magic != "crocco-checkpoint" || version < 1 || version > 2)
        throw std::runtime_error("bad checkpoint header in " + dir);
    Real ckTime = 0.0;
    int ckStep = 0, finest = 0;
    hdr >> ckTime >> ckStep >> finest;
    if (!hdr) throw std::runtime_error("bad checkpoint header in " + dir);
    if (finest > maxLevel())
        throw std::runtime_error("checkpoint has more levels than maxLevel");

    // Phase 1: parse all metadata and read + verify every level payload.
    // Nothing of the solver state is touched until the whole checkpoint has
    // proven sound, so a corrupt checkpoint leaves this solver unchanged
    // and RestartManager can fall back to an older one.
    struct LevelIn {
        std::vector<Box> boxes;
        std::vector<int> owners;
        std::vector<Real> vals;
    };
    std::vector<LevelIn> input(static_cast<std::size_t>(finest) + 1);
    for (int lev = 0; lev <= finest; ++lev) {
        LevelIn& in = input[static_cast<std::size_t>(lev)];
        int nboxes = 0;
        std::uint32_t wantCrc = 0;
        std::uint64_t wantBytes = 0;
        hdr >> nboxes;
        if (version >= 2) hdr >> wantCrc >> wantBytes;
        if (!hdr || nboxes <= 0)
            throw resilience::CheckpointCorruption(
                "malformed level " + std::to_string(lev) + " record in " + dir +
                "/header.txt");
        in.boxes.reserve(static_cast<std::size_t>(nboxes));
        for (int i = 0; i < nboxes; ++i) {
            amr::IntVect lo, hi;
            int owner = 0;
            hdr >> lo[0] >> lo[1] >> lo[2] >> hi[0] >> hi[1] >> hi[2] >> owner;
            in.boxes.emplace_back(lo, hi);
            in.owners.push_back(owner);
        }
        if (!hdr)
            throw resilience::CheckpointCorruption(
                "truncated box list for level " + std::to_string(lev) + " in " +
                dir + "/header.txt");

        std::int64_t npts = 0;
        for (const Box& b : in.boxes) npts += b.numPts();
        const auto expectBytes =
            static_cast<std::uint64_t>(npts) * NCONS * sizeof(Real);
        const std::string path = dir + "/level" + std::to_string(lev) + ".bin";
        std::ifstream bin(path, std::ios::binary);
        if (!bin) throw std::runtime_error("missing checkpoint level data: " + path);
        bin.seekg(0, std::ios::end);
        const auto actualBytes = static_cast<std::uint64_t>(bin.tellg());
        bin.seekg(0, std::ios::beg);
        if (actualBytes < expectBytes ||
            (version >= 2 && actualBytes != wantBytes))
            throw resilience::CheckpointCorruption(
                "checkpoint level file " + path + " truncated: expected " +
                std::to_string(version >= 2 ? wantBytes : expectBytes) +
                " bytes, found " + std::to_string(actualBytes));
        in.vals.resize(expectBytes / sizeof(Real));
        bin.read(reinterpret_cast<char*>(in.vals.data()),
                 static_cast<std::streamsize>(expectBytes));
        if (bin.gcount() != static_cast<std::streamsize>(expectBytes))
            throw resilience::CheckpointCorruption(
                "short read in checkpoint level file " + path + ": got " +
                std::to_string(bin.gcount()) + " of " +
                std::to_string(expectBytes) + " bytes");
        if (version >= 2 &&
            resilience::crc32(in.vals.data(), expectBytes) != wantCrc)
            throw resilience::CheckpointCorruption(
                "CRC32 mismatch in checkpoint level file " + path);
    }

    // Phase 2: the checkpoint is sound — apply it.
    init_ = std::move(ic);
    physBC_ = std::move(bc);
    time_ = ckTime;
    step_ = ckStep;
    for (int lev = 0; lev <= finest; ++lev) {
        LevelIn& in = input[static_cast<std::size_t>(lev)];
        const BoxArray ba(std::move(in.boxes));
        // Stored ownership can reference ranks the communicator no longer
        // has (the checkpoint predates a rank death + shrink); rebuild the
        // mapping from scratch over the survivors in that case. The data
        // layout in the level file is box-ordered, not rank-ordered, so
        // re-owning boxes does not disturb the payload decoding below.
        const bool ownersFit = std::all_of(
            in.owners.begin(), in.owners.end(),
            [this](int o) { return o >= 0 && o < numRanks(); });
        const DistributionMapping dm =
            ownersFit ? DistributionMapping(std::move(in.owners), numRanks())
                      : DistributionMapping(ba, numRanks(),
                                            cfg_.amrInfo.strategy);
        setLevel(lev, ba, dm);
        setFinestLevel(lev);
        defineLevelData(lev, ba, dm);
        std::size_t idx = 0;
        for (int f = 0; f < U_[lev].numFabs(); ++f) {
            auto a = U_[lev].array(f);
            amr::forEachCell(U_[lev].validBox(f), [&](int i, int j, int k) {
                for (int n = 0; n < NCONS; ++n) a(i, j, k, n) = in.vals[idx++];
            });
        }
    }
}

int CroccoAmr::estimateRegridFreq() const {
    // Information convects one cell per step at CFL 1; regrid before a
    // feature can cross from a patch center to its fine/coarse interface.
    int minHalfWidth = std::numeric_limits<int>::max();
    for (int lev = 1; lev <= finestLevel(); ++lev) {
        for (const Box& b : boxArray(lev).boxes())
            minHalfWidth = std::min(minHalfWidth, b.size().min() / 2);
    }
    if (minHalfWidth == std::numeric_limits<int>::max()) return 1;
    return std::max(1, static_cast<int>(minHalfWidth / std::max(cfg_.cfl, 0.01)));
}

} // namespace crocco::core
