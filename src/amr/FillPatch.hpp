#pragma once

#include "amr/Geometry.hpp"
#include "amr/Interpolater.hpp"
#include "amr/MultiFab.hpp"

#include <functional>

namespace crocco::amr {

/// Callback that applies physical boundary conditions: fills the ghost cells
/// of `mf` that lie outside the (non-periodic faces of the) domain. This is
/// CRoCCo's custom BC_Fill kernel (Algorithm 2); the AMR machinery treats it
/// as opaque.
using PhysBCFunct = std::function<void(MultiFab& mf, const Geometry& geom, Real time)>;

/// Fill `dst` (valid + ghost cells) from same-level data only: copy valid
/// cells from `src`, exchange ghost cells between patches (point-to-point
/// MPI in a distributed run), and apply physical BCs. Used for the coarsest
/// level, mirroring amrex::FillPatchSingleLevel.
///
/// `dst` and `src` must share a BoxArray ("src" is typically the level's
/// state and "dst" a scratch copy with ghost cells).
void FillPatchSingleLevel(MultiFab& dst, const MultiFab& src, const Geometry& geom,
                          const PhysBCFunct& bc, Real time);

/// Fill `dst` on a fine level from fine data where available and from
/// interpolated coarse data elsewhere, mirroring amrex::FillPatchTwoLevels:
///
///  1. valid cells copied from `fineSrc`;
///  2. ghost cells covered by fine patches exchanged point-to-point;
///  3. remaining in-domain ghost cells interpolated from `crseSrc` via
///     `interp` (coarse data is gathered into a scratch MultiFab with a
///     ParallelCopy);
///  4. physical BCs applied by `fineBC`.
///
/// When `interp.needsCoordinates()` (the curvilinear scheme), `fineCoords` /
/// `crseCoords` must be the 3-component physical-coordinate MultiFabs of the
/// two levels. Gathering the coarse coordinates requires the *additional
/// global ParallelCopy* the paper identifies as CRoCCo 2.0's scaling
/// bottleneck; it is logged under the tag "ParallelCopy_interp".
void FillPatchTwoLevels(MultiFab& dst, const MultiFab& fineSrc,
                        const MultiFab& crseSrc, const Geometry& fineGeom,
                        const Geometry& crseGeom, const IntVect& ratio,
                        const Interpolater& interp, const PhysBCFunct& fineBC,
                        const PhysBCFunct& crseBC, Real time,
                        const MultiFab* fineCoords = nullptr,
                        const MultiFab* crseCoords = nullptr);

/// Fill `dst` (valid + in-domain ghost cells) *entirely* by interpolation
/// from the coarser level, then apply physical BCs — used when regridding
/// creates or extends a fine level (mirrors amrex::InterpFromCoarseLevel).
/// Coordinate MultiFabs are required iff interp.needsCoordinates().
void InterpFromCoarseLevel(MultiFab& dst, const MultiFab& crseSrc,
                           const Geometry& fineGeom, const Geometry& crseGeom,
                           const IntVect& ratio, const Interpolater& interp,
                           const PhysBCFunct& fineBC, const PhysBCFunct& crseBC,
                           Real time, const MultiFab* fineCoords = nullptr,
                           const MultiFab* crseCoords = nullptr);

/// Replace each coarse cell covered by fine patches with the average of the
/// covering fine cells (Algorithm 2's AverageDown, restriction).
void AverageDown(const MultiFab& fine, MultiFab& crse, const IntVect& ratio,
                 int srcComp, int destComp, int numComp);

/// Regions of `region` NOT covered by `ba` or any of its periodic images.
std::vector<Box> uncoveredBy(const Box& region, const BoxArray& ba,
                             const Geometry& geom);

/// Fill every cell of `fab` outside `interior` by dimension-by-dimension
/// linear extrapolation from the two nearest interior cells. Used to extend
/// stored physical coordinates past physical domain faces, where no data
/// exists to copy (coordinates vary smoothly, so linear extension is exact
/// for affine mappings and 2nd-order accurate otherwise). `interior` must be
/// at least 2 cells thick in each dimension it is extrapolated along.
void linearExtrapolateGhost(FArrayBox& fab, const Box& interior, int srcComp,
                            int numComp);

} // namespace crocco::amr
