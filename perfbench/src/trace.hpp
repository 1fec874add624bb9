#pragma once
// Bench-side span recorder. The traced runner interposes the public entry
// points of each solver module (trace_wrap.cpp) and every interposed call
// records one span: name, start, end, parent, thread, and the id of the
// step it ran in. Spans stay in memory until the run ends; summarize()
// turns them into per-layer wall time per step and writeChrome() into a
// Chrome trace-event file (viewable in Perfetto).
//
// The untraced runner links trace_off.cpp instead, where every call below
// is a no-op, so the end-to-end figures carry no tracing cost at all.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// What a span timed. Layer kinds own a bucket of the step's wall time;
/// the others (aux spans) hand their self time to the nearest enclosing
/// layer, except Launch, which takes the layer of the kernels it ran.
enum class Kind : std::uint8_t {
    Step,
    Weno,
    Viscous,
    WenoFused,
    ViscousFused,
    PrimCache,
    Update,
    ComputeDt,
    FillSingle,
    FillSingleBegin,
    FillSingleEnd,
    FillTwoLevel,
    FillTwoLevelBegin,
    FillTwoLevelEnd,
    AverageDown,
    Regrid,
    Metrics,
    HealthCheck,
    Launch,
    FillBoundary,
    ParallelCopy,
    InterpFromCoarse,
    Coords,
    Reduce,
    Waitall,
    Count
};

/// True in the traced runner.
bool compiledIn();

/// Spans are recorded only while recording is on (off during calibration).
void setRecording(bool on);

/// RAII span on the calling thread. `work` is the number of cells the call
/// covers, when the entry point has one (kernels), else 0.
class Scope {
public:
    explicit Scope(Kind kind, std::int64_t work = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    std::int64_t id_ = -1;
    std::int64_t prevLaunch_ = -1;
};

/// Root span of one solver step; spans opened on any thread until endStep()
/// carry `stepId`.
void beginStep(int stepId);
void endStep();

/// Per-layer accounting over the steps whose ids are in `timedSteps`.
struct Summary {
    /// Layer name -> wall seconds (exclusive of nested layers), summed.
    std::map<std::string, double> layerSeconds;
    /// Layer name -> cells processed by the layer's kernel calls, summed.
    std::map<std::string, double> layerWork;
    /// Layer name -> calls, summed.
    std::map<std::string, std::int64_t> layerCalls;
    double stepSeconds = 0.0;       ///< summed root-span wall
    double unaccountedSeconds = 0.0;///< step wall no layer claims
    std::int64_t spans = 0;         ///< spans recorded in those steps
    /// Entry points whose symbol the program does not define (renamed or
    /// removed): nothing calls them, so their layers read zero.
    std::vector<std::string> missingEntryPoints;
};
Summary summarize(const std::vector<int>& timedSteps);

/// Write the recorded spans as Chrome trace events (complete "X" events;
/// args carry span id, parent id, step id and self time). At most
/// `maxEvents` spans are written, whole steps first; returns the count.
std::int64_t writeChrome(const std::string& path, std::int64_t maxEvents);

/// Release every recorded span.
void clear();

/// Interposed entry points the program does not define (trace_wrap.cpp).
std::vector<std::string> unresolvedEntryPoints();

} // namespace perfbench::trace
