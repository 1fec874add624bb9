#include "parallel/SimComm.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace crocco::parallel {

void CommLog::record(Message m) {
    if (enabled_) messages_.push_back(std::move(m));
}

std::size_t CommLog::count(MessageKind k) const {
    return static_cast<std::size_t>(
        std::count_if(messages_.begin(), messages_.end(),
                      [k](const Message& m) { return m.kind == k; }));
}

std::int64_t CommLog::totalBytes() const {
    std::int64_t b = 0;
    for (const Message& m : messages_) b += m.bytes;
    return b;
}

std::int64_t CommLog::totalBytes(MessageKind k) const {
    std::int64_t b = 0;
    for (const Message& m : messages_)
        if (m.kind == k) b += m.bytes;
    return b;
}

std::vector<std::int64_t> CommLog::bytesPerRank(int nranks) const {
    std::vector<std::int64_t> per(nranks, 0);
    for (const Message& m : messages_) {
        assert(m.src < nranks && m.dst < nranks);
        per[m.src] += m.bytes;
        per[m.dst] += m.bytes;
    }
    return per;
}

namespace {
bool endsWith(const std::string& s, const char* suffix) {
    const std::size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}
} // namespace

CommLog::Summary CommLog::summarize(std::size_t fromIndex) const {
    Summary s;
    for (std::size_t i = fromIndex; i < messages_.size(); ++i) {
        const Message& m = messages_[i];
        ++s.messages;
        s.bytes += m.bytes;
        switch (m.kind) {
        case MessageKind::PointToPoint: ++s.p2p; break;
        case MessageKind::ParallelCopy: ++s.parallelCopy; break;
        case MessageKind::Reduction: ++s.reductions; break;
        }
        if (m.tag.find("/rtx") != std::string::npos) ++s.retransmits;
        if (endsWith(m.tag, "/nack")) ++s.nacks;
        if (endsWith(m.tag, "/dup")) ++s.duplicates;
    }
    return s;
}

std::string CommLog::formatSummary(const Summary& s) {
    std::ostringstream os;
    os << "comm: msgs=" << s.messages << " bytes=" << s.bytes
       << " p2p=" << s.p2p << " pc=" << s.parallelCopy
       << " red=" << s.reductions << " rtx=" << s.retransmits
       << " nack=" << s.nacks << " dup=" << s.duplicates;
    return os.str();
}

SimComm::SimComm(int nranks)
    : nranks_(nranks), alive_(static_cast<std::size_t>(nranks), true) {
    assert(nranks >= 1);
}

void SimComm::checkAlive(int rank, const char* what) const {
    if (rank >= 0 && rank < nranks_ && !alive_[rank]) {
        throw RankFailure(rank, std::string("SimComm::") + what + ": rank " +
                                    std::to_string(rank) +
                                    " is dead (process failure detected)");
    }
}

void SimComm::recordP2P(int src, int dst, std::int64_t bytes, const std::string& tag) {
    if (src == dst) return; // on-rank copies never hit the network
    recordMessage(src, dst, bytes, MessageKind::PointToPoint, tag);
}

void SimComm::recordMessage(int src, int dst, std::int64_t bytes, MessageKind kind,
                            const std::string& tag) {
    assert(src >= 0 && src < nranks_ && dst >= 0 && dst < nranks_);
    if (anyDead_) {
        checkAlive(src, "recordMessage");
        checkAlive(dst, "recordMessage");
    }
    log_.record(Message{src, dst, bytes, kind, tag});
}

namespace {
// A reduction over P ranks moves one value up and down a binomial tree:
// log2(P) rounds, each rank sending one payload per round it participates
// in. We log it as (P - 1) tree-edge messages, matching MPI_Allreduce's
// minimal traffic.
void logReduction(CommLog& log, int nranks, const std::string& tag,
                  std::int64_t payloadBytes) {
    for (int stride = 1; stride < nranks; stride *= 2) {
        for (int r = 0; r + stride < nranks; r += 2 * stride) {
            log.record(Message{r + stride, r, payloadBytes,
                               MessageKind::Reduction, tag});
        }
    }
}
} // namespace

namespace {
// A reduction collects exactly one contribution per rank; anything else is
// the in-process analogue of an MPI rank-count mismatch. With only an
// assert this was UB in release builds (*min_element of an empty range) or
// silently wrong answers.
void checkPerRank(const std::vector<double>& perRank, int nranks,
                  const char* fn, const std::string& tag) {
    if (static_cast<int>(perRank.size()) != nranks) {
        throw std::invalid_argument(
            std::string("SimComm::") + fn + " ('" + tag + "'): perRank has " +
            std::to_string(perRank.size()) + " entries but the communicator " +
            "has " + std::to_string(nranks) + " ranks");
    }
}
} // namespace

double SimComm::reduceRealMin(const std::vector<double>& perRank, const std::string& tag) {
    checkPerRank(perRank, nranks_, "reduceRealMin", tag);
    // A collective touches every rank; a dead one hangs it (ULFM raises
    // MPI_ERR_PROC_FAILED). Detect before any message is logged.
    if (anyDead_) {
        for (int r = 0; r < nranks_; ++r) checkAlive(r, "reduceRealMin");
    }
    logReduction(log_, nranks_, tag, static_cast<std::int64_t>(sizeof(double)));
    return *std::min_element(perRank.begin(), perRank.end());
}

double SimComm::reduceRealMax(const std::vector<double>& perRank, const std::string& tag) {
    checkPerRank(perRank, nranks_, "reduceRealMax", tag);
    if (anyDead_) {
        for (int r = 0; r < nranks_; ++r) checkAlive(r, "reduceRealMax");
    }
    logReduction(log_, nranks_, tag, static_cast<std::int64_t>(sizeof(double)));
    return *std::max_element(perRank.begin(), perRank.end());
}

double SimComm::reduceRealSum(const std::vector<double>& perRank, const std::string& tag) {
    checkPerRank(perRank, nranks_, "reduceRealSum", tag);
    if (anyDead_) {
        for (int r = 0; r < nranks_; ++r) checkAlive(r, "reduceRealSum");
    }
    logReduction(log_, nranks_, tag, static_cast<std::int64_t>(sizeof(double)));
    return std::accumulate(perRank.begin(), perRank.end(), 0.0);
}

namespace {
std::string sendKey(int src, int dst, const std::string& tag) {
    return std::to_string(src) + ">" + std::to_string(dst) + ":" + tag;
}

const char* kindName(MessageKind k) {
    switch (k) {
        case MessageKind::PointToPoint: return "P2P";
        case MessageKind::ParallelCopy: return "ParallelCopy";
        case MessageKind::Reduction: return "Reduction";
    }
    return "?";
}
} // namespace

SimComm::Request SimComm::isend(int src, int dst, std::int64_t bytes,
                                MessageKind kind, const std::string& tag,
                                std::uint32_t payloadCrc) {
    assert(src >= 0 && src < nranks_ && dst >= 0 && dst < nranks_);
    if (anyDead_) {
        checkAlive(src, "isend");
        checkAlive(dst, "isend");
    }
    const Request id = nextRequest_++;
    pending_.push_back(
        PendingOp{id, false, Message{src, dst, bytes, kind, tag, payloadCrc}});
    ++sendBalance_[sendKey(src, dst, tag)];
    return id;
}

SimComm::Request SimComm::irecv(int src, int dst, const std::string& tag) {
    assert(src >= 0 && src < nranks_ && dst >= 0 && dst < nranks_);
    if (anyDead_) {
        checkAlive(src, "irecv");
        checkAlive(dst, "irecv");
    }
    const Request id = nextRequest_++;
    pending_.push_back(PendingOp{id, true, Message{src, dst, 0,
                                                   MessageKind::PointToPoint, tag}});
    return id;
}

std::string SimComm::pendingDump() const {
    std::ostringstream os;
    os << pending_.size() << " pending op(s):";
    for (const PendingOp& p : pending_) {
        os << "\n  [" << p.id << "] " << (p.isRecv ? "irecv" : "isend") << " "
           << p.msg.src << " -> " << p.msg.dst << " '" << p.msg.tag << "' ("
           << kindName(p.msg.kind) << ", " << p.msg.bytes << " B)";
    }
    return os.str();
}

void SimComm::waitall(const std::vector<Request>& requests) {
    for (const Request r : requests) {
        const auto it = std::find_if(pending_.begin(), pending_.end(),
                                     [r](const PendingOp& p) { return p.id == r; });
        if (it == pending_.end()) {
            throw std::logic_error("SimComm::waitall: request " + std::to_string(r) +
                                   " is unknown or already completed");
        }
        // MPI_Waitall is where a run first blocks on a dead peer; surface
        // the failure here so the recovery path (shrink + redistribute)
        // takes over instead of an infinite wait.
        if (anyDead_) {
            checkAlive(it->msg.src, "waitall");
            checkAlive(it->msg.dst, "waitall");
        }
        if (it->isRecv) {
            auto bal = sendBalance_.find(sendKey(it->msg.src, it->msg.dst, it->msg.tag));
            if (bal == sendBalance_.end() || bal->second <= 0) {
                throw std::logic_error(
                    "SimComm::waitall: irecv (" + std::to_string(it->msg.src) + " -> " +
                    std::to_string(it->msg.dst) + ", '" + it->msg.tag +
                    "') has no matching isend — a real MPI_Waitall would hang here"
                    " (simulated receive timed out after " +
                    std::to_string(timeoutSeconds_) + " s, deck key comm.timeout); " +
                    pendingDump());
            }
            --bal->second;
        } else {
            log_.record(it->msg);
        }
        pending_.erase(it);
    }
}

// --- Fault-tolerant exchange -------------------------------------------

void SimComm::setTimeout(double seconds) {
    if (seconds <= 0.0)
        throw std::invalid_argument("SimComm::setTimeout: timeout must be > 0");
    timeoutSeconds_ = seconds;
}

void SimComm::setMaxRetransmits(int n) {
    if (n < 1)
        throw std::invalid_argument("SimComm::setMaxRetransmits: need >= 1");
    maxRetransmits_ = n;
}

void SimComm::recoverTransfer(const Transfer& t, std::uint32_t wantCrc,
                              bool delivered) {
    // Bounded retransmit with exponential backoff: attempt k waits
    // timeout * 2^k modeled seconds before the receiver NACKs/again
    // requests the payload. Retransmits run clean unless the injector is
    // in persistent (broken-link) mode, in which case the same decision
    // stream applies and an unlucky link exhausts the budget.
    double backoff = timeoutSeconds_;
    for (int attempt = 1; attempt <= maxRetransmits_; ++attempt) {
        fstats_.modeledDelaySeconds += backoff;
        backoff *= 2.0;
        ++fstats_.retransmits;
        log_.record(Message{t.src, t.dst, t.bytes, t.kind,
                            t.tag + "/rtx" + std::to_string(attempt), wantCrc});
        bool dropped = false;
        if (faults_ && faults_->persistent()) {
            if (auto f = faults_->decide(t.src, t.dst, t.bytes, t.tag)) {
                switch (*f) {
                    case MessageFault::Drop:
                    case MessageFault::Delay:
                        ++fstats_.timeouts;
                        dropped = true;
                        break;
                    case MessageFault::Corrupt:
                        t.deliver();
                        t.scramble(faults_->corruptionWord());
                        delivered = true;
                        break;
                    case MessageFault::Duplicate:
                        // second copy discarded by sequence number
                        t.deliver();
                        ++fstats_.duplicateDiscards;
                        delivered = true;
                        break;
                }
            } else {
                t.deliver();
                delivered = true;
            }
        } else {
            t.deliver();
            delivered = true;
        }
        if (!dropped && delivered && t.deliveredCrc() == wantCrc) {
            ++fstats_.delivered;
            return;
        }
        if (delivered) {
            ++fstats_.crcFailures;
            ++fstats_.nacks;
            log_.record(Message{t.dst, t.src, 8, t.kind, t.tag + "/nack",
                                wantCrc});
        }
    }
    throw std::runtime_error(
        "SimComm: transfer " + std::to_string(t.src) + " -> " +
        std::to_string(t.dst) + " '" + t.tag + "' (" +
        std::to_string(t.bytes) + " B) undeliverable after " +
        std::to_string(maxRetransmits_) +
        " retransmits — link is down (comm.max_retransmits)");
}

void SimComm::sendVerified(const Transfer& t) {
    assert(t.deliver && t.payloadCrc && t.deliveredCrc && t.scramble);
    if (t.src == t.dst) { // on-rank copy: no network, nothing to verify
        t.deliver();
        return;
    }
    if (anyDead_) {
        checkAlive(t.src, "sendVerified");
        checkAlive(t.dst, "sendVerified");
    }
    ++fstats_.verified;
    const std::uint32_t want = t.payloadCrc();
    // The original transmission is always recorded — the wire saw it even
    // if the payload is then lost or damaged in flight.
    log_.record(Message{t.src, t.dst, t.bytes, t.kind, t.tag, want});
    std::optional<MessageFault> fault;
    if (faults_) fault = faults_->decide(t.src, t.dst, t.bytes, t.tag);
    if (!fault) {
        t.deliver();
        if (t.deliveredCrc() == want) {
            ++fstats_.delivered;
            return;
        }
        // No injected fault but the CRC disagrees: real in-flight damage
        // (this is what comm.verify exists to catch). NACK and retransmit.
        ++fstats_.crcFailures;
        ++fstats_.nacks;
        log_.record(Message{t.dst, t.src, 8, t.kind, t.tag + "/nack", want});
        recoverTransfer(t, want, true);
        return;
    }
    switch (*fault) {
        case MessageFault::Drop:
            // Payload never arrives; the receive timeout fires and the
            // retransmit loop takes over.
            ++fstats_.dropped;
            ++fstats_.timeouts;
            recoverTransfer(t, want, false);
            return;
        case MessageFault::Delay:
            // Payload arrives after the timeout fired: the receiver has
            // already NACK'd, the retransmit wins, and the late original
            // is discarded by its stale sequence number.
            ++fstats_.delayed;
            ++fstats_.timeouts;
            recoverTransfer(t, want, false);
            t.deliver(); // late original lands afterwards...
            ++fstats_.duplicateDiscards; // ...and is discarded (idempotent)
            return;
        case MessageFault::Duplicate:
            // Link-level retry delivered two copies; sequence numbers keep
            // the first and discard the second. Both crossed the wire.
            ++fstats_.duplicated;
            t.deliver();
            log_.record(Message{t.src, t.dst, t.bytes, t.kind,
                                t.tag + "/dup", want});
            ++fstats_.duplicateDiscards;
            if (t.deliveredCrc() == want) {
                ++fstats_.delivered;
                return;
            }
            ++fstats_.crcFailures;
            ++fstats_.nacks;
            log_.record(Message{t.dst, t.src, 8, t.kind, t.tag + "/nack", want});
            recoverTransfer(t, want, true);
            return;
        case MessageFault::Corrupt:
            // Payload arrives with a flipped bit; CRC32 catches it, the
            // receiver NACKs, and the sender retransmits.
            ++fstats_.corrupted;
            t.deliver();
            t.scramble(faults_->corruptionWord());
            if (t.deliveredCrc() == want) {
                // scramble hit a bit outside the checksummed region (never
                // happens for full-payload CRC, but stay safe)
                ++fstats_.delivered;
                return;
            }
            ++fstats_.crcFailures;
            ++fstats_.nacks;
            log_.record(Message{t.dst, t.src, 8, t.kind, t.tag + "/nack", want});
            recoverTransfer(t, want, true);
            return;
    }
}

// --- Rank failure and recovery -----------------------------------------

void SimComm::killRank(int rank) {
    if (rank < 0 || rank >= nranks_)
        throw std::invalid_argument("SimComm::killRank: rank " +
                                    std::to_string(rank) + " out of range");
    if (!alive_[rank])
        throw std::invalid_argument("SimComm::killRank: rank " +
                                    std::to_string(rank) + " already dead");
    if (aliveCount() <= 1)
        throw std::logic_error("SimComm::killRank: no survivor would remain");
    alive_[rank] = false;
    anyDead_ = true;
}

bool SimComm::rankAlive(int rank) const {
    assert(rank >= 0 && rank < nranks_);
    return alive_[rank];
}

int SimComm::aliveCount() const {
    return static_cast<int>(std::count(alive_.begin(), alive_.end(), true));
}

std::vector<int> SimComm::shrink() {
    std::vector<int> map(static_cast<std::size_t>(nranks_), -1);
    int next = 0;
    for (int r = 0; r < nranks_; ++r) {
        if (alive_[r]) map[r] = next++;
    }
    nranks_ = next;
    alive_.assign(static_cast<std::size_t>(nranks_), true);
    anyDead_ = false;
    // The old communicator's epoch ends with the shrink: every pending
    // nonblocking op and send/recv balance belonged to it and is revoked
    // (ULFM revokes the communicator before shrinking it).
    pending_.clear();
    sendBalance_.clear();
    return map;
}

} // namespace crocco::parallel
