#pragma once

#include "amr/Box.hpp"
#include "amr/BoxList.hpp"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace crocco::amr {

/// An ordered collection of (disjoint) boxes describing one AMR level's
/// patches. Mirrors amrex::BoxArray.
///
/// Intersection queries are the hot path of ghost-cell exchange: they are
/// served by a spatial hash binning boxes into buckets the size of the
/// largest box, giving O(1) expected lookups independent of box count. The
/// hash is built lazily, exactly once (std::call_once), and shared between
/// copies, so concurrent const queries — e.g. from gpu::ThreadPool tasks —
/// are safe even when one of them is the first.
///
/// Every non-empty BoxArray carries a cheap identity id: copies share it,
/// coarsen/refine derive it deterministically from the parent's, and two
/// independently built arrays never share one. CommCache keys communication
/// patterns on these ids (AMReX keys its CommMetaData cache the same way),
/// so "same id" must imply "same boxes" — the converse may be false, which
/// only costs a cache miss.
class BoxArray {
public:
    BoxArray() = default;
    explicit BoxArray(std::vector<Box> boxes);
    explicit BoxArray(const Box& single);

    /// Identity for comm-pattern caching: 0 for a default-constructed
    /// (empty) array, unique per constructed array otherwise, preserved by
    /// copies and derived deterministically by coarsen()/refine().
    std::uint64_t id() const { return id_; }

    int size() const { return static_cast<int>(boxes_.size()); }
    bool empty() const { return boxes_.empty(); }
    const Box& operator[](int i) const { return boxes_[i]; }
    const std::vector<Box>& boxes() const { return boxes_; }

    std::int64_t numPts() const;
    Box minimalBox() const;

    /// All (boxIndex, overlap) pairs where overlap = boxes_[boxIndex] & b is
    /// non-empty.
    std::vector<std::pair<int, Box>> intersections(const Box& b) const;

    bool intersects(const Box& b) const;

    /// True if every cell of b lies inside some box of this array.
    bool contains(const Box& b) const;
    bool contains(const IntVect& p) const;

    /// The parts of b not covered by any box in this array.
    std::vector<Box> complementIn(const Box& b) const;

    /// Element-wise coarsened / refined copy (same number of boxes).
    BoxArray coarsen(const IntVect& ratio) const;
    BoxArray coarsen(int r) const { return coarsen(IntVect(r)); }
    BoxArray refine(const IntVect& ratio) const;
    BoxArray refine(int r) const { return refine(IntVect(r)); }

    /// True if every box can be coarsened by ratio exactly.
    bool coarsenable(const IntVect& ratio) const;

    bool operator==(const BoxArray& o) const { return boxes_ == o.boxes_; }
    bool operator!=(const BoxArray& o) const { return !(*this == o); }

private:
    struct Hash {
        IntVect bucketSize{1, 1, 1};
        std::unordered_map<IntVect, std::vector<int>> buckets;
        std::once_flag built;
    };
    const Hash& hash() const;
    static std::uint64_t nextId();
    static std::uint64_t deriveId(std::uint64_t parent, std::uint32_t op,
                                  const IntVect& ratio);

    std::vector<Box> boxes_;
    std::uint64_t id_ = 0;
    // Allocated with the boxes (nullptr when empty), filled by the first
    // query, shared by copies.
    std::shared_ptr<Hash> hash_;
};

} // namespace crocco::amr
