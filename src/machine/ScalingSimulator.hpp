#pragma once

#include "amr/AmrCore.hpp"
#include "core/CroccoAmr.hpp"
#include "machine/FailureModel.hpp"
#include "machine/NetworkModel.hpp"
#include "machine/SummitMachine.hpp"

#include <map>
#include <string>

namespace crocco::machine {

/// Grid metadata of one AMR level at paper scale — boxes and ownership
/// only, no field allocation (4.19e10 points is just ~10^5 boxes of
/// metadata).
struct LevelMeta {
    amr::BoxArray ba;
    amr::DistributionMapping dm;
    amr::Geometry geom;
};

/// Metadata of a full hierarchy for one scaling configuration.
struct HierarchyMeta {
    std::vector<LevelMeta> levels;
    amr::IntVect refRatio{2, 2, 2};

    std::int64_t activePoints() const;
    int finestLevel() const { return static_cast<int>(levels.size()) - 1; }
};

/// Per-iteration modeled time broken into the regions the paper profiles
/// with TinyProfiler (Figs. 6-7). The advance is split into an interior
/// pass over ghost-independent shrunk boxes, which could run while the
/// ghost exchange is in flight, and a halo-strip pass that cannot. The
/// split only feeds the modeled overlapped schedule (totalOverlapped): the
/// solver itself runs one blocking FillPatch per stage and level, because
/// an executed overlap measured slower on host hardware and was retired
/// (docs/performance.md §4).
struct RegionTimes {
    /// α-β decomposition of one communication region: the busiest rank's
    /// message count and byte volume (summed over RK stages and levels)
    /// and the latency (α) vs bandwidth (β) shares of the modeled time.
    /// Rank-pair aggregation (Params::aggregateComm) shrinks messages and
    /// alpha while bytes and beta stay put — this is the observable the
    /// optimization targets.
    struct CommDecomp {
        std::int64_t messages = 0;
        std::int64_t bytes = 0;
        double alpha = 0;
        double beta = 0;
    };

    double fillBoundary = 0;      ///< p2p ghost exchange inside FillPatch
    double parallelCopy = 0;      ///< FillPatch's coarse-data gather
    double parallelCopyInterp = 0;///< the curvilinear interpolator's extra
                                  ///< global coordinate gather (v2.0 only)
    double interpCompute = 0;
    double advanceInterior = 0;   ///< WENOx/y/z + Viscous over fab interiors
    double advanceHalo = 0;       ///< same kernels over the halo strips
    double commPosted = 0;        ///< non-overlappable cost of *posting* the
                                  ///< async exchange (descriptor dispatch +
                                  ///< device pack/unpack; 0 on CPU runs)
    double update = 0;            ///< RK accumulation
    double computeDt = 0;
    double averageDown = 0;
    double regrid = 0;            ///< amortized per iteration
    double resilience = 0;        ///< modeled checkpoint + rework overhead,
                                  ///< amortized per iteration (0 unless
                                  ///< Params::modelFailures)
    double retransmit = 0;        ///< modeled CRC/NACK retransmit traffic on
                                  ///< the verified exchange path (0 unless
                                  ///< Params::modelCommFaults)
    CommDecomp fbDecomp;          ///< fillBoundary message/α-β breakdown
    CommDecomp pcDecomp;          ///< parallelCopy breakdown
    CommDecomp pcInterpDecomp;    ///< parallelCopyInterp breakdown

    /// Full WENO/viscous sweep (both passes).
    double advance() const { return advanceInterior + advanceHalo; }
    /// Communication the serial path waits on (and the modeled overlapped
    /// schedule hides behind the interior pass).
    double commWait() const {
        return fillBoundary + parallelCopy + parallelCopyInterp;
    }
    double fillPatch() const { return commWait() + interpCompute; }

    /// Iteration time with the serial (non-overlapped) schedule: every
    /// region back to back. This is the pre-overlap total() plus the
    /// posting cost, which the serial path pays inline as part of its
    /// blocking exchange.
    double totalSerial() const {
        return commPosted + fillPatch() + advance() + update + computeDt +
               averageDown + regrid + resilience + retransmit;
    }
    /// Iteration time with the overlapped schedule: the interior pass runs
    /// concurrently with the in-flight exchange, so only the slower of the
    /// two is on the critical path; the halo pass (and everything that
    /// needs fresh ghosts) still serializes after both.
    double totalOverlapped() const {
        const double overlapped =
            commWait() > advanceInterior ? commWait() : advanceInterior;
        return commPosted + overlapped + advanceHalo + interpCompute + update +
               computeDt + averageDown + regrid + resilience + retransmit;
    }
    /// Communication time the overlap actually hides, as a fraction of the
    /// communication the serial path waits on (1.0 == fully hidden).
    double overlapEfficiency() const {
        const double w = commWait();
        if (w <= 0.0) return 1.0;
        const double hidden = advanceInterior < w ? advanceInterior : w;
        return hidden / w;
    }
};

/// Failure-aware checkpointing economics of one scaling case (Daly model).
struct ResilienceStats {
    std::int64_t checkpointBytes = 0; ///< conserved-state bytes per dump
    double writeTime = 0;             ///< delta: one dump, seconds
    double systemMtbf = 0;            ///< M at this node count, seconds
    double optimalInterval = 0;       ///< tau: Daly-optimal compute interval
    double overheadFraction = 0;      ///< wall-clock fraction lost
};

/// Disk-vs-buddy recovery economics of one scaling case: the same Daly
/// machinery priced twice, once with filesystem checkpoints + job-relaunch
/// restore and once with interconnect buddy mirroring + in-memory shrink
/// recovery (what CroccoAmr::recoverFromRankDeath implements).
struct RecoveryComparison {
    ResilienceStats disk;    ///< filesystem dumps, relaunch + re-read restore
    ResilienceStats buddy;   ///< partner mirroring, in-memory redistribution
    double detectionLatency = 0;   ///< waitall timeout -> shrink consensus, s
    double diskRestoreTime = 0;    ///< per-failure restore cost, disk path
    double buddyRestoreTime = 0;   ///< per-failure restore cost, buddy path
    double retransmitOverheadFraction = 0; ///< verified-exchange retransmit
                                           ///< surcharge / iteration time
};

/// Silent-data-corruption economics of one scaling case: the cost of the
/// FabGuard sweep every `interval` steps vs the recompute waste of letting
/// upsets ride undetected to the next checkpoint validation
/// (docs/resilience.md §6). This is the detection-overhead-vs-silent-waste
/// trade the resilience.sdc_interval deck key tunes.
struct SdcComparison {
    std::int64_t residentBytes = 0; ///< guarded state across the machine
    double upsetMtbf = 0;           ///< mean seconds between silent upsets
    double scanTime = 0;            ///< one CRC+digest sweep, seconds
    double detectionOverheadFraction = 0; ///< guard scan cost / wall time
    double guardedWasteFraction = 0;   ///< scan overhead + fab-repair rework
    double unguardedWasteFraction = 0; ///< silent upsets, disk-restore rework
};

/// One point of the paper's scaling studies (Table I rows, Fig. 5 axes).
struct ScalingCase {
    core::CodeVersion version = core::CodeVersion::V20;
    int nodes = 4;
    std::int64_t equivalentPoints = 0; ///< uniform-finest-resolution count
};

/// Replays one CRoCCo iteration against the Summit machine model using
/// exact AMR communication metadata (real BoxArray/DistributionMapping
/// machinery, no field data). See DESIGN.md §1 for why this substitution
/// preserves the paper's scaling behaviour.
class ScalingSimulator {
public:
    struct Params {
        SummitMachine machine;
        NetworkModel network;
        /// Fraction of the domain covered by each refined level (the DMR
        /// shock/turbulence band); defaults give the paper's 89-94% active
        /// point reduction.
        double level1Fraction = 0.20;
        double level2Fraction = 0.055;
        int blockingFactor = 8;
        int maxGridSize = 128;    ///< paper's hand-tuned value (GPU runs)
        /// Granularity of the synthesized refined-level boxes: Berger-
        /// Rigoutsos clustering of a shock band yields boxes well below
        /// max_grid_size.
        int bandTileSize = 64;
        int boxesPerCpuRank = 4;  ///< target decomposition for CPU runs
        int regridFreq = 10;
        /// Fraction of a level's bytes that move when regridding.
        double regridMoveFraction = 0.3;
        /// Node-failure + checkpoint-cost model; only charged against
        /// iterationTime when modelFailures is set.
        FailureModel failure;
        bool modelFailures = false;
        /// Charge the verified-exchange retransmit surcharge against the
        /// communication regions: each faulted message is re-sent after a
        /// NACK, so expected comm time grows by ~commFaultRate.
        bool modelCommFaults = false;
        /// Per-message fault probability on the wire (drop + corrupt rates
        /// of the injection campaign being modeled).
        double commFaultRate = 0.0;
        /// Model the fused RHS pipeline (`core.fused`): per-stage kernel
        /// costs switch to the fused KernelProfiles (shared primitive
        /// cache, two-kernel WENO sweeps, fused update), and per-fab launch
        /// overhead is replaced by a flat per-phase charge — each phase's
        /// fab sub-kernels batch into one launch, so overhead scales with
        /// kernels-per-phase, not fab count. Off = the seed's model,
        /// byte-identical results.
        bool fusedPipeline = false;
        /// Model rank-pair aggregated exchanges (`comm.aggregate`): all
        /// box-to-box copies between one (src, dst) rank pair collapse into
        /// a single packed message, so the α (latency) term scales with
        /// communicating neighbor pairs instead of intersecting box pairs.
        /// β is unchanged (same bytes), and the posting cost pays two extra
        /// device staging passes for the pack/unpack kernels.
        bool aggregateComm = false;
    };

    ScalingSimulator();
    explicit ScalingSimulator(const Params& params);
    const Params& params() const { return params_; }

    /// Build the grid hierarchy metadata for one case.
    HierarchyMeta buildHierarchy(const ScalingCase& c) const;

    /// Modeled wall time of one iteration, by region. With
    /// Params::modelFailures, RegionTimes::resilience carries the Daly
    /// checkpoint + rework overhead amortized per iteration, such that
    /// resilience / total() equals the modeled waste fraction.
    RegionTimes iterationTime(const ScalingCase& c) const;

    /// Checkpoint-interval economics for one case: dump size from the
    /// hierarchy's active points, write time from the filesystem model,
    /// MTBF from the node count, and the Daly-optimal interval + waste.
    ResilienceStats resilienceStats(const ScalingCase& c) const;

    /// Price the same case under both recovery schemes (disk restart vs
    /// in-memory buddy recovery) and report the per-failure restore costs
    /// plus the retransmit overhead of the verified exchange path.
    RecoveryComparison recoveryComparison(const ScalingCase& c) const;

    /// GPU memory demand per V100 for one case (bytes); compared against
    /// the 16 GB arena to reproduce the paper's problem-size ceiling.
    std::int64_t gpuBytesPerRank(const ScalingCase& c) const;

    /// Price the SDC guard at one verify cadence against running unguarded:
    /// scan overhead + fab-granular repair vs silent upsets discovered half
    /// a checkpoint cycle late and repaired by a disk restore + replay.
    SdcComparison sdcComparison(const ScalingCase& c, int interval) const;

    static bool isGpuVersion(core::CodeVersion v) {
        return v == core::CodeVersion::V20 || v == core::CodeVersion::V21;
    }
    static bool isAmrVersion(core::CodeVersion v) {
        return v != core::CodeVersion::V10 && v != core::CodeVersion::V11;
    }

    int ranksFor(const ScalingCase& c) const;

private:
    Params params_;
};

} // namespace crocco::machine
