// Span recorder of the traced runner (see trace.hpp).
#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

namespace perfbench::trace {

namespace {

struct KindInfo {
    const char* span;   ///< entry point the span times
    const char* module; ///< Chrome trace category
    const char* layer;  ///< bucket of step wall time; "" = aux span
};

constexpr KindInfo kInfo[] = {
    {"step", "bench", ""},
    {"core::wenoFlux", "core", "core.weno"},
    {"core::viscousFlux", "core", "core.viscous"},
    {"core::wenoFluxFused", "core", "core.weno"},
    {"core::viscousFluxFused", "core", "core.viscous"},
    // The fused pipeline's primitive cache feeds both the WENO and the
    // viscous sweeps; it is charged to WENO, the larger consumer.
    {"core::fused::computePrimCache", "core", "core.weno"},
    {"core::rk3StageUpdate", "core", "core.update"},
    {"core::computeDt", "core", "core.compute_dt"},
    {"amr::FillPatchSingleLevel", "amr", "amr.fill_single"},
    {"amr::FillPatchSingleLevelBegin", "amr", "amr.fill_single"},
    {"amr::FillPatchSingleLevelEnd", "amr", "amr.fill_single"},
    {"amr::FillPatchTwoLevels", "amr", "amr.fill_two_level"},
    {"amr::FillPatchTwoLevelsBegin", "amr", "amr.fill_two_level"},
    {"amr::FillPatchTwoLevelsEnd", "amr", "amr.fill_two_level"},
    {"amr::AverageDown", "amr", "amr.average_down"},
    {"amr::AmrCore::regrid", "amr", "amr.regrid"},
    {"mesh::computeMetrics", "mesh", "mesh.metrics"},
    {"resilience::validateHierarchy", "resilience", "resilience.health_check"},
    {"gpu::ThreadPool::run", "gpu", ""},
    {"amr::MultiFab::fillBoundary", "amr", ""},
    {"amr::MultiFab::parallelCopy", "amr", ""},
    {"amr::InterpFromCoarseLevel", "amr", ""},
    {"mesh::CoordStore::getCoords", "mesh", ""},
    {"parallel::SimComm::reduceReal", "parallel", ""},
    {"parallel::SimComm::waitall", "parallel", ""},
};
static_assert(sizeof(kInfo) / sizeof(kInfo[0]) ==
              static_cast<std::size_t>(Kind::Count));

const KindInfo& info(Kind k) { return kInfo[static_cast<std::size_t>(k)]; }

struct Span {
    double t0 = 0.0;
    double t1 = 0.0;
    std::int64_t parent = -1;
    std::int64_t work = 0;
    std::int32_t step = -1;
    Kind kind = Kind::Step;
};

/// One per thread that ever recorded; owned globally so the spans of pool
/// workers outlive nothing they need.
struct Buffer {
    std::int64_t tid = 0;
    std::vector<Span> spans;
    std::vector<std::int64_t> stack;
};

constexpr int kIndexBits = 40;

std::mutex gMutex;
std::vector<std::unique_ptr<Buffer>> gBuffers;
thread_local Buffer* tlBuffer = nullptr;
std::atomic<bool> gRecording{false};
std::atomic<std::int32_t> gStep{-1};
/// The launch span currently fanning out to the pool: the parent of spans
/// that pool workers open with an empty stack.
std::atomic<std::int64_t> gLaunch{-1};
const auto gEpoch = std::chrono::steady_clock::now();
/// The main thread's root Step span, open between beginStep and endStep.
std::unique_ptr<Scope> gStepScope;

double now() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - gEpoch)
        .count();
}

Buffer& buffer() {
    if (!tlBuffer) {
        std::lock_guard<std::mutex> lk(gMutex);
        gBuffers.push_back(std::make_unique<Buffer>());
        tlBuffer = gBuffers.back().get();
        tlBuffer->tid = static_cast<std::int64_t>(gBuffers.size()) - 1;
    }
    return *tlBuffer;
}

std::int64_t tidOf(std::int64_t id) { return id >> kIndexBits; }
std::size_t indexOf(std::int64_t id) {
    return static_cast<std::size_t>(id & ((std::int64_t{1} << kIndexBits) - 1));
}

/// Read-only view over every buffer, for post-processing after the run.
struct View {
    std::vector<Buffer*> bufs;
    View() {
        std::lock_guard<std::mutex> lk(gMutex);
        for (auto& b : gBuffers) bufs.push_back(b.get());
    }
    const Span& at(std::int64_t id) const {
        return bufs[static_cast<std::size_t>(tidOf(id))]->spans[indexOf(id)];
    }
    template <typename F>
    void forEach(F&& f) const {
        for (const Buffer* b : bufs)
            for (std::size_t i = 0; i < b->spans.size(); ++i)
                f((b->tid << kIndexBits) | static_cast<std::int64_t>(i), b->spans[i]);
    }
};

/// Same-thread children duration per span: self time = duration - this.
std::unordered_map<std::int64_t, double> childSeconds(const View& v) {
    std::unordered_map<std::int64_t, double> out;
    v.forEach([&](std::int64_t id, const Span& s) {
        if (s.parent >= 0 && tidOf(s.parent) == tidOf(id))
            out[s.parent] += s.t1 - s.t0;
    });
    return out;
}

} // namespace

bool compiledIn() { return true; }

void setRecording(bool on) { gRecording.store(on); }

Scope::Scope(Kind kind, std::int64_t work) {
    if (!gRecording.load(std::memory_order_relaxed)) return;
    Buffer& b = buffer();
    Span s;
    s.parent = b.stack.empty() ? gLaunch.load() : b.stack.back();
    s.work = work;
    s.step = gStep.load(std::memory_order_relaxed);
    s.kind = kind;
    id_ = (b.tid << kIndexBits) | static_cast<std::int64_t>(b.spans.size());
    s.t0 = now();
    b.spans.push_back(s);
    b.stack.push_back(id_);
    if (kind == Kind::Launch) prevLaunch_ = gLaunch.exchange(id_);
}

Scope::~Scope() {
    if (id_ < 0) return;
    Buffer& b = buffer();
    Span& s = b.spans[indexOf(id_)];
    s.t1 = now();
    b.stack.pop_back();
    if (s.kind == Kind::Launch) gLaunch.store(prevLaunch_);
}

void beginStep(int stepId) {
    gStep.store(stepId);
    gStepScope = std::make_unique<Scope>(Kind::Step);
}

void endStep() {
    gStepScope.reset();
    gStep.store(-1);
}

Summary summarize(const std::vector<int>& timedSteps) {
    const std::set<int> timed(timedSteps.begin(), timedSteps.end());
    const View v;
    const auto children = childSeconds(v);

    // A launch takes the layer its kernels spent the most time in.
    std::unordered_map<std::int64_t, std::map<std::string, double>> launchWeights;
    v.forEach([&](std::int64_t, const Span& s) {
        if (s.parent < 0 || *info(s.kind).layer == '\0') return;
        if (v.at(s.parent).kind == Kind::Launch)
            launchWeights[s.parent][info(s.kind).layer] += s.t1 - s.t0;
    });
    std::unordered_map<std::int64_t, std::string> memo;
    auto bucket = [&](auto&& self, std::int64_t id) -> std::string {
        if (auto it = memo.find(id); it != memo.end()) return it->second;
        const Span& s = v.at(id);
        std::string b = info(s.kind).layer;
        if (b.empty() && s.kind == Kind::Launch) {
            if (auto it = launchWeights.find(id); it != launchWeights.end())
                b = std::max_element(it->second.begin(), it->second.end(),
                                     [](const auto& a, const auto& c) {
                                         return a.second < c.second;
                                     })->first;
        }
        if (b.empty() && s.kind != Kind::Step && s.parent >= 0)
            b = self(self, s.parent);
        memo[id] = b;
        return b;
    };

    Summary out;
    v.forEach([&](std::int64_t, const Span& s) {
        if (!timed.count(s.step)) return;
        ++out.spans;
        const char* own = info(s.kind).layer;
        if (*own) {
            out.layerWork[own] += static_cast<double>(s.work);
            ++out.layerCalls[own];
        }
        if (s.kind == Kind::Step) out.stepSeconds += s.t1 - s.t0;
    });
    // Wall-time accounting runs on the stepping thread only: its timeline
    // is partitioned by self times; pool-worker spans overlap it and are
    // covered by the launch span that waits for them.
    std::set<std::int64_t> steppingThreads;
    v.forEach([&](std::int64_t id, const Span& s) {
        if (s.kind == Kind::Step) steppingThreads.insert(tidOf(id));
    });
    v.forEach([&](std::int64_t id, const Span& s) {
        if (!timed.count(s.step) || !steppingThreads.count(tidOf(id))) return;
        const auto c = children.find(id);
        const double self = (s.t1 - s.t0) - (c == children.end() ? 0.0 : c->second);
        const std::string b = bucket(bucket, id);
        if (b.empty())
            out.unaccountedSeconds += self;
        else
            out.layerSeconds[b] += self;
    });
    out.missingEntryPoints = unresolvedEntryPoints();
    return out;
}

std::int64_t writeChrome(const std::string& path, std::int64_t maxEvents) {
    const View v;
    const auto children = childSeconds(v);
    // Whole steps, oldest first, until the event budget is spent.
    std::map<int, std::int64_t> perStep;
    v.forEach([&](std::int64_t, const Span& s) { ++perStep[s.step]; });
    std::set<int> keep;
    std::int64_t budget = maxEvents;
    for (const auto& [step, n] : perStep) {
        if (n > budget) break;
        budget -= n;
        keep.insert(step);
    }
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    std::int64_t written = 0;
    char line[512];
    v.forEach([&](std::int64_t id, const Span& s) {
        if (!keep.count(s.step)) return;
        const auto c = children.find(id);
        const double self = (s.t1 - s.t0) - (c == children.end() ? 0.0 : c->second);
        std::snprintf(line, sizeof(line),
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                      "\"parent\":%lld,\"step\":%d,\"self_us\":%.3f,\"cells\":%lld}}",
                      written ? ",\n" : "", info(s.kind).span, info(s.kind).module,
                      static_cast<long long>(tidOf(id)), s.t0 * 1e6,
                      (s.t1 - s.t0) * 1e6, static_cast<long long>(id),
                      static_cast<long long>(s.parent), s.step, self * 1e6,
                      static_cast<long long>(s.work));
        os << line;
        ++written;
    });
    os << "\n]}\n";
    return written;
}

void clear() {
    std::lock_guard<std::mutex> lk(gMutex);
    for (auto& b : gBuffers) {
        b->spans.clear();
        b->spans.shrink_to_fit();
    }
}

} // namespace perfbench::trace
