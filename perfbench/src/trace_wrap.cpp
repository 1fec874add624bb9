// Link-time interposers of the traced runner. The linker is passed
// `--wrap=<sym>` for every symbol in wrap_symbols.txt, so each call the
// solver makes to one of these public entry points lands here first, opens
// a trace::Scope and forwards to the real function (`__real_<sym>`).
//
// The `__real_` references are weak: a signature change or a removed entry
// point leaves the program linking, with the wrapper simply never called;
// unresolvedEntryPoints() then names it so the traced run reports it.
#include "trace.hpp"
#include "wrap_symbols.h" // generated from wrap_symbols.txt

#include "amr/AmrCore.hpp"
#include "amr/FillPatch.hpp"
#include "amr/Interpolater.hpp"
#include "amr/MultiFab.hpp"
#include "core/State.hpp"
#include "core/Viscous.hpp"
#include "core/Weno.hpp"
#include "gpu/ThreadPool.hpp"
#include "mesh/CoordStore.hpp"
#include "parallel/SimComm.hpp"
#include "resilience/Health.hpp"

#include <array>
#include <functional>
#include <string>
#include <vector>

using namespace crocco;
using perfbench::trace::Kind;
using perfbench::trace::Scope;
using amr::Box;
using amr::Geometry;
using amr::IntVect;
using amr::Interpolater;
using amr::MultiFab;
using amr::PhysBCFunct;
using amr::Real;
using CArr = amr::Array4<const Real>;
using Arr = amr::Array4<Real>;
using Dxi = std::array<Real, 3>;
using Reqs = std::vector<std::uint64_t>;

#define PB_REAL(name) __asm__("__real_" PB_SYM_##name) __attribute__((weak))
#define PB_WRAP(name) __asm__("__wrap_" PB_SYM_##name)

namespace {

std::int64_t levelCells(const MultiFab& mf) {
    std::int64_t n = 0;
    for (int f = 0; f < mf.numFabs(); ++f) n += mf.validBox(f).numPts();
    return n;
}

} // namespace

// ---------------------------------------------------------------- core
void realWenoFlux(int, const CArr&, const CArr&, const Box&, const Arr&, Real,
                  const core::GasModel&, core::WenoScheme, core::KernelVariant,
                  core::Reconstruction) PB_REAL(WENO_FLUX);
void wrapWenoFlux(int, const CArr&, const CArr&, const Box&, const Arr&, Real,
                  const core::GasModel&, core::WenoScheme, core::KernelVariant,
                  core::Reconstruction) PB_WRAP(WENO_FLUX);
void wrapWenoFlux(int dir, const CArr& S, const CArr& m, const Box& vb,
                  const Arr& dU, Real dxi, const core::GasModel& gas,
                  core::WenoScheme scheme, core::KernelVariant variant,
                  core::Reconstruction recon) {
    Scope s(Kind::Weno, vb.numPts());
    realWenoFlux(dir, S, m, vb, dU, dxi, gas, scheme, variant, recon);
}

void realWenoFluxFused(int, const CArr&, const CArr&, const CArr&, const Box&,
                       const Arr&, Real, const core::GasModel&, core::WenoScheme,
                       core::Reconstruction, bool) PB_REAL(WENO_FLUX_FUSED);
void wrapWenoFluxFused(int, const CArr&, const CArr&, const CArr&, const Box&,
                       const Arr&, Real, const core::GasModel&, core::WenoScheme,
                       core::Reconstruction, bool) PB_WRAP(WENO_FLUX_FUSED);
void wrapWenoFluxFused(int dir, const CArr& S, const CArr& cache, const CArr& m,
                       const Box& vb, const Arr& dU, Real dxi,
                       const core::GasModel& gas, core::WenoScheme scheme,
                       core::Reconstruction recon, bool first) {
    Scope s(Kind::WenoFused, vb.numPts());
    realWenoFluxFused(dir, S, cache, m, vb, dU, dxi, gas, scheme, recon, first);
}

void realViscousFlux(const CArr&, const CArr&, const Box&, const Arr&, const Dxi&,
                     const core::GasModel&, core::KernelVariant,
                     const core::SgsModel&) PB_REAL(VISCOUS_FLUX);
void wrapViscousFlux(const CArr&, const CArr&, const Box&, const Arr&, const Dxi&,
                     const core::GasModel&, core::KernelVariant,
                     const core::SgsModel&) PB_WRAP(VISCOUS_FLUX);
void wrapViscousFlux(const CArr& S, const CArr& m, const Box& vb, const Arr& dU,
                     const Dxi& dxi, const core::GasModel& gas,
                     core::KernelVariant variant, const core::SgsModel& sgs) {
    Scope s(Kind::Viscous, vb.numPts());
    realViscousFlux(S, m, vb, dU, dxi, gas, variant, sgs);
}

void realViscousFluxFused(const CArr&, const CArr&, const Box&, const Arr&,
                          const Dxi&, const core::GasModel&,
                          const core::SgsModel&) PB_REAL(VISCOUS_FLUX_FUSED);
void wrapViscousFluxFused(const CArr&, const CArr&, const Box&, const Arr&,
                          const Dxi&, const core::GasModel&,
                          const core::SgsModel&) PB_WRAP(VISCOUS_FLUX_FUSED);
void wrapViscousFluxFused(const CArr& cache, const CArr& m, const Box& vb,
                          const Arr& dU, const Dxi& dxi, const core::GasModel& gas,
                          const core::SgsModel& sgs) {
    Scope s(Kind::ViscousFused, vb.numPts());
    realViscousFluxFused(cache, m, vb, dU, dxi, gas, sgs);
}

void realPrimCache(const CArr&, const CArr&, const Box&, const Arr&,
                   const core::GasModel&) PB_REAL(PRIM_CACHE);
void wrapPrimCache(const CArr&, const CArr&, const Box&, const Arr&,
                   const core::GasModel&) PB_WRAP(PRIM_CACHE);
void wrapPrimCache(const CArr& S, const CArr& m, const Box& region,
                   const Arr& cache, const core::GasModel& gas) {
    Scope s(Kind::PrimCache, region.numPts());
    realPrimCache(S, m, region, cache, gas);
}

void realRk3StageUpdate(MultiFab&, MultiFab&, const MultiFab&, Real, Real, Real,
                        bool) PB_REAL(RK3_STAGE_UPDATE);
void wrapRk3StageUpdate(MultiFab&, MultiFab&, const MultiFab&, Real, Real, Real,
                        bool) PB_WRAP(RK3_STAGE_UPDATE);
void wrapRk3StageUpdate(MultiFab& G, MultiFab& U, const MultiFab& dU, Real A,
                        Real B, Real dt, bool fused) {
    Scope s(Kind::Update, levelCells(dU));
    realRk3StageUpdate(G, U, dU, A, B, dt, fused);
}

Real realComputeDt(const MultiFab&, const MultiFab&, const Geometry&,
                   const core::GasModel&, Real) PB_REAL(COMPUTE_DT);
Real wrapComputeDt(const MultiFab&, const MultiFab&, const Geometry&,
                   const core::GasModel&, Real) PB_WRAP(COMPUTE_DT);
Real wrapComputeDt(const MultiFab& U, const MultiFab& m, const Geometry& geom,
                   const core::GasModel& gas, Real cfl) {
    Scope s(Kind::ComputeDt, levelCells(U));
    return realComputeDt(U, m, geom, gas, cfl);
}

// ----------------------------------------------------------------- amr
void realFillSingle(MultiFab&, const MultiFab&, const Geometry&,
                    const PhysBCFunct&, Real) PB_REAL(FILL_SINGLE);
void wrapFillSingle(MultiFab&, const MultiFab&, const Geometry&,
                    const PhysBCFunct&, Real) PB_WRAP(FILL_SINGLE);
void wrapFillSingle(MultiFab& dst, const MultiFab& src, const Geometry& geom,
                    const PhysBCFunct& bc, Real time) {
    Scope s(Kind::FillSingle, levelCells(dst));
    realFillSingle(dst, src, geom, bc, time);
}

void realFillSingleBegin(MultiFab&, const MultiFab&, const Geometry&)
    PB_REAL(FILL_SINGLE_BEGIN);
void wrapFillSingleBegin(MultiFab&, const MultiFab&, const Geometry&)
    PB_WRAP(FILL_SINGLE_BEGIN);
void wrapFillSingleBegin(MultiFab& dst, const MultiFab& src, const Geometry& geom) {
    Scope s(Kind::FillSingleBegin, levelCells(dst));
    realFillSingleBegin(dst, src, geom);
}

void realFillSingleEnd(MultiFab&, const Geometry&, const PhysBCFunct&, Real)
    PB_REAL(FILL_SINGLE_END);
void wrapFillSingleEnd(MultiFab&, const Geometry&, const PhysBCFunct&, Real)
    PB_WRAP(FILL_SINGLE_END);
void wrapFillSingleEnd(MultiFab& dst, const Geometry& geom, const PhysBCFunct& bc,
                       Real time) {
    Scope s(Kind::FillSingleEnd, levelCells(dst));
    realFillSingleEnd(dst, geom, bc, time);
}

void realFillTwo(MultiFab&, const MultiFab&, const MultiFab&, const Geometry&,
                 const Geometry&, const IntVect&, const Interpolater&,
                 const PhysBCFunct&, const PhysBCFunct&, Real, const MultiFab*,
                 const MultiFab*) PB_REAL(FILL_TWO);
void wrapFillTwo(MultiFab&, const MultiFab&, const MultiFab&, const Geometry&,
                 const Geometry&, const IntVect&, const Interpolater&,
                 const PhysBCFunct&, const PhysBCFunct&, Real, const MultiFab*,
                 const MultiFab*) PB_WRAP(FILL_TWO);
void wrapFillTwo(MultiFab& dst, const MultiFab& fine, const MultiFab& crse,
                 const Geometry& fgeom, const Geometry& cgeom, const IntVect& ratio,
                 const Interpolater& interp, const PhysBCFunct& fbc,
                 const PhysBCFunct& cbc, Real time, const MultiFab* fcoords,
                 const MultiFab* ccoords) {
    Scope s(Kind::FillTwoLevel, levelCells(dst));
    realFillTwo(dst, fine, crse, fgeom, cgeom, ratio, interp, fbc, cbc, time,
                fcoords, ccoords);
}

void realFillTwoBegin(MultiFab&, const MultiFab&, const Geometry&)
    PB_REAL(FILL_TWO_BEGIN);
void wrapFillTwoBegin(MultiFab&, const MultiFab&, const Geometry&)
    PB_WRAP(FILL_TWO_BEGIN);
void wrapFillTwoBegin(MultiFab& dst, const MultiFab& fine, const Geometry& geom) {
    Scope s(Kind::FillTwoLevelBegin, levelCells(dst));
    realFillTwoBegin(dst, fine, geom);
}

void realFillTwoEnd(MultiFab&, const MultiFab&, const Geometry&, const Geometry&,
                    const IntVect&, const Interpolater&, const PhysBCFunct&,
                    const PhysBCFunct&, Real, const MultiFab*, const MultiFab*)
    PB_REAL(FILL_TWO_END);
void wrapFillTwoEnd(MultiFab&, const MultiFab&, const Geometry&, const Geometry&,
                    const IntVect&, const Interpolater&, const PhysBCFunct&,
                    const PhysBCFunct&, Real, const MultiFab*, const MultiFab*)
    PB_WRAP(FILL_TWO_END);
void wrapFillTwoEnd(MultiFab& dst, const MultiFab& crse, const Geometry& fgeom,
                    const Geometry& cgeom, const IntVect& ratio,
                    const Interpolater& interp, const PhysBCFunct& fbc,
                    const PhysBCFunct& cbc, Real time, const MultiFab* fcoords,
                    const MultiFab* ccoords) {
    Scope s(Kind::FillTwoLevelEnd, levelCells(dst));
    realFillTwoEnd(dst, crse, fgeom, cgeom, ratio, interp, fbc, cbc, time, fcoords,
                   ccoords);
}

void realAverageDown(const MultiFab&, MultiFab&, const IntVect&, int, int, int)
    PB_REAL(AVERAGE_DOWN);
void wrapAverageDown(const MultiFab&, MultiFab&, const IntVect&, int, int, int)
    PB_WRAP(AVERAGE_DOWN);
void wrapAverageDown(const MultiFab& fine, MultiFab& crse, const IntVect& ratio,
                     int scomp, int dcomp, int ncomp) {
    Scope s(Kind::AverageDown, levelCells(fine));
    realAverageDown(fine, crse, ratio, scomp, dcomp, ncomp);
}

void realRegrid(amr::AmrCore*, int, Real) PB_REAL(REGRID);
void wrapRegrid(amr::AmrCore*, int, Real) PB_WRAP(REGRID);
void wrapRegrid(amr::AmrCore* self, int lbase, Real time) {
    Scope s(Kind::Regrid);
    realRegrid(self, lbase, time);
}

void realFillBoundary(MultiFab*, const Geometry&) PB_REAL(FILL_BOUNDARY);
void wrapFillBoundary(MultiFab*, const Geometry&) PB_WRAP(FILL_BOUNDARY);
void wrapFillBoundary(MultiFab* self, const Geometry& geom) {
    Scope s(Kind::FillBoundary, levelCells(*self));
    realFillBoundary(self, geom);
}

void realParallelCopy(MultiFab*, const MultiFab&, int, int, int, int, int,
                      const std::string&, const Geometry*) PB_REAL(PARALLEL_COPY);
void wrapParallelCopy(MultiFab*, const MultiFab&, int, int, int, int, int,
                      const std::string&, const Geometry*) PB_WRAP(PARALLEL_COPY);
void wrapParallelCopy(MultiFab* self, const MultiFab& src, int scomp, int dcomp,
                      int ncomp, int sgrow, int dgrow, const std::string& tag,
                      const Geometry* geom) {
    Scope s(Kind::ParallelCopy, levelCells(*self));
    realParallelCopy(self, src, scomp, dcomp, ncomp, sgrow, dgrow, tag, geom);
}

void realInterpFromCoarse(MultiFab&, const MultiFab&, const Geometry&,
                          const Geometry&, const IntVect&, const Interpolater&,
                          const PhysBCFunct&, const PhysBCFunct&, Real,
                          const MultiFab*, const MultiFab*)
    PB_REAL(INTERP_FROM_COARSE);
void wrapInterpFromCoarse(MultiFab&, const MultiFab&, const Geometry&,
                          const Geometry&, const IntVect&, const Interpolater&,
                          const PhysBCFunct&, const PhysBCFunct&, Real,
                          const MultiFab*, const MultiFab*)
    PB_WRAP(INTERP_FROM_COARSE);
void wrapInterpFromCoarse(MultiFab& dst, const MultiFab& crse,
                          const Geometry& fgeom, const Geometry& cgeom,
                          const IntVect& ratio, const Interpolater& interp,
                          const PhysBCFunct& fbc, const PhysBCFunct& cbc,
                          Real time, const MultiFab* fcoords,
                          const MultiFab* ccoords) {
    Scope s(Kind::InterpFromCoarse, levelCells(dst));
    realInterpFromCoarse(dst, crse, fgeom, cgeom, ratio, interp, fbc, cbc, time,
                         fcoords, ccoords);
}

// ---------------------------------------------------------------- mesh
void realComputeMetrics(const MultiFab&, MultiFab&, const Geometry&)
    PB_REAL(COMPUTE_METRICS);
void wrapComputeMetrics(const MultiFab&, MultiFab&, const Geometry&)
    PB_WRAP(COMPUTE_METRICS);
void wrapComputeMetrics(const MultiFab& coords, MultiFab& metrics,
                        const Geometry& geom) {
    Scope s(Kind::Metrics, levelCells(metrics));
    realComputeMetrics(coords, metrics, geom);
}

void realGetCoords(const mesh::CoordStore*, MultiFab&, int) PB_REAL(GET_COORDS);
void wrapGetCoords(const mesh::CoordStore*, MultiFab&, int) PB_WRAP(GET_COORDS);
void wrapGetCoords(const mesh::CoordStore* self, MultiFab& coords, int lev) {
    Scope s(Kind::Coords, levelCells(coords));
    realGetCoords(self, coords, lev);
}

// ---------------------------------------------------------- resilience
resilience::HealthReport realValidateHierarchy(const std::vector<MultiFab>&, int,
                                               const core::GasModel&, int)
    PB_REAL(VALIDATE_HIERARCHY);
resilience::HealthReport wrapValidateHierarchy(const std::vector<MultiFab>&, int,
                                               const core::GasModel&, int)
    PB_WRAP(VALIDATE_HIERARCHY);
resilience::HealthReport wrapValidateHierarchy(const std::vector<MultiFab>& U,
                                               int finest,
                                               const core::GasModel& gas,
                                               int maxReported) {
    std::int64_t cells = 0;
    for (int lev = 0; lev <= finest; ++lev)
        cells += levelCells(U[static_cast<std::size_t>(lev)]);
    Scope s(Kind::HealthCheck, cells);
    return realValidateHierarchy(U, finest, gas, maxReported);
}

// ----------------------------------------------------------------- gpu
void realPoolRun(gpu::ThreadPool*, int, const std::function<void(int)>&)
    PB_REAL(POOL_RUN);
void wrapPoolRun(gpu::ThreadPool*, int, const std::function<void(int)>&)
    PB_WRAP(POOL_RUN);
void wrapPoolRun(gpu::ThreadPool* self, int ntasks,
                 const std::function<void(int)>& f) {
    // Launches nested inside a pool task run serially on that task; only
    // the top-level fan-out is a span.
    if (gpu::ThreadPool::inParallelRegion()) return realPoolRun(self, ntasks, f);
    Scope s(Kind::Launch, ntasks);
    realPoolRun(self, ntasks, f);
}

// ------------------------------------------------------------ parallel
Real realReduceMin(parallel::SimComm*, const std::vector<Real>&, const std::string&)
    PB_REAL(REDUCE_MIN);
Real wrapReduceMin(parallel::SimComm*, const std::vector<Real>&, const std::string&)
    PB_WRAP(REDUCE_MIN);
Real wrapReduceMin(parallel::SimComm* self, const std::vector<Real>& v,
                   const std::string& tag) {
    Scope s(Kind::Reduce);
    return realReduceMin(self, v, tag);
}

Real realReduceMax(parallel::SimComm*, const std::vector<Real>&, const std::string&)
    PB_REAL(REDUCE_MAX);
Real wrapReduceMax(parallel::SimComm*, const std::vector<Real>&, const std::string&)
    PB_WRAP(REDUCE_MAX);
Real wrapReduceMax(parallel::SimComm* self, const std::vector<Real>& v,
                   const std::string& tag) {
    Scope s(Kind::Reduce);
    return realReduceMax(self, v, tag);
}

Real realReduceSum(parallel::SimComm*, const std::vector<Real>&, const std::string&)
    PB_REAL(REDUCE_SUM);
Real wrapReduceSum(parallel::SimComm*, const std::vector<Real>&, const std::string&)
    PB_WRAP(REDUCE_SUM);
Real wrapReduceSum(parallel::SimComm* self, const std::vector<Real>& v,
                   const std::string& tag) {
    Scope s(Kind::Reduce);
    return realReduceSum(self, v, tag);
}

void realWaitall(parallel::SimComm*, const Reqs&) PB_REAL(WAITALL);
void wrapWaitall(parallel::SimComm*, const Reqs&) PB_WRAP(WAITALL);
void wrapWaitall(parallel::SimComm* self, const Reqs& reqs) {
    Scope s(Kind::Waitall, static_cast<std::int64_t>(reqs.size()));
    realWaitall(self, reqs);
}

namespace perfbench::trace {

std::vector<std::string> unresolvedEntryPoints() {
    std::vector<std::string> out;
    auto check = [&](auto* fn, const char* name) {
        if (fn == nullptr) out.emplace_back(name);
    };
    check(&realWenoFlux, "core::wenoFlux");
    check(&realWenoFluxFused, "core::wenoFluxFused");
    check(&realViscousFlux, "core::viscousFlux");
    check(&realViscousFluxFused, "core::viscousFluxFused");
    check(&realPrimCache, "core::fused::computePrimCache");
    check(&realRk3StageUpdate, "core::rk3StageUpdate");
    check(&realComputeDt, "core::computeDt");
    check(&realFillSingle, "amr::FillPatchSingleLevel");
    check(&realFillSingleBegin, "amr::FillPatchSingleLevelBegin");
    check(&realFillSingleEnd, "amr::FillPatchSingleLevelEnd");
    check(&realFillTwo, "amr::FillPatchTwoLevels");
    check(&realFillTwoBegin, "amr::FillPatchTwoLevelsBegin");
    check(&realFillTwoEnd, "amr::FillPatchTwoLevelsEnd");
    check(&realAverageDown, "amr::AverageDown");
    check(&realRegrid, "amr::AmrCore::regrid");
    check(&realFillBoundary, "amr::MultiFab::fillBoundary");
    check(&realParallelCopy, "amr::MultiFab::parallelCopy");
    check(&realInterpFromCoarse, "amr::InterpFromCoarseLevel");
    check(&realComputeMetrics, "mesh::computeMetrics");
    check(&realGetCoords, "mesh::CoordStore::getCoords");
    check(&realValidateHierarchy, "resilience::validateHierarchy");
    check(&realPoolRun, "gpu::ThreadPool::run");
    check(&realReduceMin, "parallel::SimComm::reduceRealMin");
    check(&realReduceMax, "parallel::SimComm::reduceRealMax");
    check(&realReduceSum, "parallel::SimComm::reduceRealSum");
    check(&realWaitall, "parallel::SimComm::waitall");
    return out;
}

} // namespace perfbench::trace
