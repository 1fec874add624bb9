#pragma once

#include "resilience/FaultRng.hpp"

#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace crocco::parallel {

/// Kinds of message-level faults the injector can apply to one in-flight
/// point-to-point transfer. These are the dominant failure modes of a
/// Summit-scale interconnect campaign: packets lost under congestion,
/// duplicated by link-level retry, delivered out of order, silently
/// bit-flipped (NIC/DRAM soft errors), and whole ranks disappearing when a
/// node dies.
enum class MessageFault {
    Drop,      ///< the payload never arrives; the receiver times out
    Duplicate, ///< the payload arrives twice; sequence numbers discard one
    Delay,     ///< the payload arrives after the receiver's timeout fired
    Corrupt,   ///< one payload bit flips in flight; CRC32 catches it
};

/// Thrown when a communication operation touches a rank that has died
/// (the in-process analogue of MPI_ERR_PROC_FAILED under ULFM). Recovery
/// is the caller's job: shrink the communicator and restore the dead
/// rank's data from a buddy checkpoint or a disk restart.
class RankFailure : public std::runtime_error {
public:
    RankFailure(int deadRank, const std::string& what)
        : std::runtime_error(what), deadRank_(deadRank) {}
    int deadRank() const { return deadRank_; }

private:
    int deadRank_;
};

/// Seeded, deterministic message-fault injector for the hardened SimComm
/// exchange path. Follows the resilience/FaultInjector conventions: faults
/// are either *armed* one-shot events (the Nth verified message, a rank
/// death at a given step) or rate-driven (a per-message probability per
/// kind), and a given (seed, schedule, message sequence) reproduces the
/// same faults every run.
///
/// The injector only decides; SimComm::sendVerified applies the decision
/// to the actual payload copy and runs the detect/NACK/retransmit
/// machinery.
class CommFaults {
public:
    /// Per-message fault probabilities, in [0, 1]; applied in the fixed
    /// order drop, duplicate, delay, corrupt (cumulative thresholds).
    struct Rates {
        double drop = 0.0;
        double duplicate = 0.0;
        double delay = 0.0;
        double corrupt = 0.0;
    };

    struct Stats {
        std::int64_t decisions = 0; ///< messages consulted
        std::int64_t drops = 0;
        std::int64_t duplicates = 0;
        std::int64_t delays = 0;
        std::int64_t corruptions = 0;
        std::int64_t rankDeaths = 0;
        std::int64_t fired() const {
            return drops + duplicates + delays + corruptions + rankDeaths;
        }
    };

    explicit CommFaults(std::uint64_t seed = 0xFA17C033ull);
    /// Substream constructor: draws this injector's seed from the unified
    /// fault RNG (resilience/FaultRng), keeping its decision stream
    /// independent of the cell-fault and SDC injectors sharing the master
    /// seed. The legacy direct-seed constructor above is untouched, so the
    /// PR 6 soak digests pin byte-identical fault schedules.
    explicit CommFaults(const resilience::FaultRng& rng)
        : CommFaults(rng.seedFor(resilience::FaultRng::kCommStream)) {}

    void setRates(const Rates& r);
    const Rates& rates() const { return rates_; }

    /// Master switch: a disabled injector never faults (decide() returns
    /// nullopt without consuming randomness, so enabling mid-run does not
    /// shift the decision stream of later messages relative to a run that
    /// was enabled from the same point).
    void setEnabled(bool e) { enabled_ = e; }
    bool enabled() const { return enabled_; }

    /// Persistent mode: retransmitted payloads are faulted again through
    /// the same decision stream (models a broken link rather than a
    /// transient glitch). Default off — retransmits run clean, which is how
    /// soft errors behave and what lets every fault be recovered.
    void setPersistent(bool p) { persistent_ = p; }
    bool persistent() const { return persistent_; }

    /// Arm a one-shot fault against the Nth verified off-rank message
    /// (0-based, counted across the injector's lifetime). Precise-targeting
    /// hook for tests; rate faults still apply to other messages.
    void armMessageFault(MessageFault kind, std::int64_t nthMessage);

    /// Schedule rank `rank` to die at the start of step `step`. The solver
    /// driver polls takeRankDeath() once per step and kills the rank in the
    /// communicator; the next exchange touching it raises RankFailure.
    void armRankDeath(int step, int rank);

    /// Consume a scheduled rank death for `step`, if any.
    std::optional<int> takeRankDeath(int step);

    /// Decide the fate of one off-rank message. Consumes one uniform draw
    /// when enabled and any rate is set; armed one-shot faults take
    /// precedence over rate faults.
    std::optional<MessageFault> decide(int src, int dst, std::int64_t bytes,
                                       const std::string& tag);

    /// Pseudo-random 64-bit word used to pick which payload bit a Corrupt
    /// fault flips; deterministic continuation of the seeded stream.
    std::uint64_t corruptionWord();

    const Stats& stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

private:
    struct MessageArm {
        MessageFault kind;
        std::int64_t nth;
        bool spent;
    };
    struct DeathArm {
        int step;
        int rank;
        bool spent;
    };

    std::mt19937_64 rng_;
    Rates rates_;
    bool enabled_ = true;
    bool persistent_ = false;
    bool anyRate_ = false;
    std::int64_t messageCounter_ = 0;
    std::vector<MessageArm> messageArms_;
    std::vector<DeathArm> deathArms_;
    Stats stats_;
};

} // namespace crocco::parallel
