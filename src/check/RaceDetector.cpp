#include "check/RaceDetector.hpp"

#include <sstream>

namespace crocco::check {

thread_local TaskLog* tlTaskLog = nullptr;

namespace {

void fmtBox(std::ostream& os, const amr::Box& b) {
    os << "[(" << b.smallEnd(0) << "," << b.smallEnd(1) << "," << b.smallEnd(2)
       << ")-(" << b.bigEnd(0) << "," << b.bigEnd(1) << "," << b.bigEnd(2)
       << ")]";
}

} // namespace

RaceDetector& RaceDetector::instance() {
    static RaceDetector det;
    return det;
}

void RaceDetector::beginLaunch(int ntasks) {
    logs_.assign(static_cast<std::size_t>(ntasks), TaskLog{});
    active_ = true;
    ++launches_;
}

void RaceDetector::endLaunch() {
    active_ = false;
    const int n = static_cast<int>(logs_.size());
    for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
            for (const AccessRecord& ra : logs_[static_cast<std::size_t>(a)].records) {
                for (const AccessRecord& rb : logs_[static_cast<std::size_t>(b)].records) {
                    if (ra.fabId != rb.fabId) continue;
                    if (!ra.write && !rb.write) continue;
                    if ((ra.compMask & rb.compMask) == 0) continue;
                    if (!ra.bbox.intersects(rb.bbox)) continue;
                    std::ostringstream os;
                    os << (ra.write && rb.write ? "write-write"
                                                : "read-write")
                       << " overlap on fab#" << ra.fabId << " alloc=";
                    fmtBox(os, ra.allocBox);
                    os << " between task " << a << " (";
                    fmtBox(os, ra.bbox);
                    os << (ra.write ? " write" : " read") << ") and task " << b
                       << " (";
                    fmtBox(os, rb.bbox);
                    os << (rb.write ? " write" : " read") << "), overlap ";
                    fmtBox(os, ra.bbox & rb.bbox);
                    fail(Kind::Race, os.str());
                }
            }
        }
    }
    logs_.clear();
}

RaceDetector::TaskScope::TaskScope(int task) {
    tlTaskLog = instance().log(task);
}

RaceDetector::TaskScope::~TaskScope() {
    tlTaskLog = nullptr;
}

} // namespace crocco::check
