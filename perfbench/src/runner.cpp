#include "runner.hpp"

#include "trace.hpp"
#include "workloads.hpp"

#include "amr/CommCache.hpp"
#include "core/KernelProfiles.hpp"
#include "gpu/Arena.hpp"
#include "gpu/DeviceModel.hpp"
#include "gpu/Gpu.hpp"
#include "gpu/LaunchStats.hpp"
#include "gpu/ThreadPool.hpp"
#include "machine/ScalingSimulator.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <thread>
#include <vector>

namespace perfbench {

namespace amr = crocco::amr;
namespace gpu = crocco::gpu;
namespace machine = crocco::machine;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPUs this process may run on (what `nproc` prints).
int hostThreads() {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
    return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- JSON
std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string str(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20) ch = ' ';
        out += ch;
    }
    return out + "\"";
}

std::string arr(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + num(v[i]);
    return out + "]";
}

std::string obj(const std::map<std::string, std::string>& kv) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : kv) {
        out += (first ? "" : ",") + str(k) + ":" + v;
        first = false;
    }
    return out + "}";
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// ------------------------------------------------------------ counters
/// The program's public counters, read around every timed step.
struct Counters {
    double cacheHits = 0, cacheMisses = 0;
    double launches = 0;
    double scratchHits = 0, scratchMisses = 0;
    double msgs = 0, msgBytes = 0;
    double boxes = 0;
};

struct Snapshot {
    amr::CommCache::Stats cache;
    std::uint64_t launches = 0;
    std::uint64_t scratchHits = 0, scratchMisses = 0;
    std::size_t logMark = 0;
};

Snapshot snapshot(Case& c) {
    Snapshot s;
    s.cache = amr::CommCache::instance().stats();
    s.launches = gpu::LaunchStats::count();
    s.scratchHits = gpu::ScratchPool::instance().hits();
    s.scratchMisses = gpu::ScratchPool::instance().misses();
    if (c.comm()) s.logMark = c.comm()->log().count();
    return s;
}

void accumulate(Counters& acc, Case& c, const Snapshot& before) {
    const Snapshot after = snapshot(c);
    acc.cacheHits += static_cast<double>(after.cache.hits - before.cache.hits);
    acc.cacheMisses += static_cast<double>(after.cache.misses - before.cache.misses);
    acc.launches += static_cast<double>(after.launches - before.launches);
    acc.scratchHits += static_cast<double>(after.scratchHits - before.scratchHits);
    acc.scratchMisses +=
        static_cast<double>(after.scratchMisses - before.scratchMisses);
    if (c.comm()) {
        const auto sum = c.comm()->log().summarize(before.logMark);
        acc.msgs += static_cast<double>(sum.messages);
        acc.msgBytes += static_cast<double>(sum.bytes);
    }
    const auto& s = c.solver();
    for (int lev = 0; lev <= s.finestLevel(); ++lev) acc.boxes += s.boxArray(lev).size();
}

/// Drop what an earlier episode left in the process-wide caches, so every
/// episode starts as a fresh process would.
void resetProcessCaches() {
    amr::CommCache::instance().clear();
    gpu::ScratchPool::instance().clear();
}

// ------------------------------------------------------- calibration
/// Times the RHS kernel calls of every level of the live hierarchy (WENO
/// in all three directions, plus Viscous when the gas is viscous) at the
/// current pool size; median of `reps`.
double timeRhsKernels(Case& c, int reps) {
    auto& s = c.solver();
    const auto& cfg = c.config();
    const bool viscous = cfg.gas.viscous() || cfg.sgs.active();
    std::vector<amr::MultiFab> sb, du;
    for (int lev = 0; lev <= s.finestLevel(); ++lev) {
        sb.emplace_back(s.boxArray(lev), s.dmap(lev), core::NCONS, core::NGHOST,
                        c.comm());
        s.fillPatch(lev, sb.back());
        du.emplace_back(s.boxArray(lev), s.dmap(lev), core::NCONS, 0, c.comm());
        du.back().setVal(0.0);
    }
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (int lev = 0; lev <= s.finestLevel(); ++lev) {
            const auto& S = sb[static_cast<std::size_t>(lev)];
            auto& dU = du[static_cast<std::size_t>(lev)];
            const auto& m = s.metrics(lev);
            const auto dxi = s.geom(lev).cellSizeArray();
            for (int dir = 0; dir < 3; ++dir)
                gpu::ParallelForIndex(dU.numFabs(), [&](int f) {
                    core::wenoFlux(dir, S.const_array(f), m.const_array(f),
                                   dU.validBox(f), dU.array(f),
                                   dxi[static_cast<std::size_t>(dir)], cfg.gas,
                                   cfg.scheme, cfg.variant, cfg.recon);
                });
            if (viscous)
                gpu::ParallelForIndex(dU.numFabs(), [&](int f) {
                    core::viscousFlux(S.const_array(f), m.const_array(f),
                                      dU.validBox(f), dU.array(f), dxi, cfg.gas,
                                      cfg.variant, cfg.sgs);
                });
        }
        times.push_back(since(t0));
    }
    return median(times);
}

/// Last-level cache size the CPU reports (cpuid, via sysconf); 0 if unknown.
double l3Bytes() {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    return l3 > 0 ? static_cast<double>(l3) : 0.0;
}

/// Triad arrays of 128 MiB each: four times the 32 MiB L3 of one EPYC core
/// complex, which is all the L3 any one core can use. (cpuid may report
/// the socket's total L3 instead; the rate this probe measures on such a
/// host equals that of 512 MiB arrays, so it is DRAM-bound either way.)
constexpr std::size_t kTriadElems = std::size_t{16} << 20;

/// STREAM triad a = b + q*c over `n` doubles per array with `nthreads`
/// threads; best of `reps` (STREAM's convention), counting 24 bytes per
/// element.
double triadGbps(std::size_t n, int nthreads, int reps) {
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double q = 3.0;
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        std::vector<std::thread> pool;
        for (int t = 0; t < nthreads; ++t)
            pool.emplace_back([&, t] {
                const std::size_t lo = n * static_cast<std::size_t>(t) /
                                       static_cast<std::size_t>(nthreads);
                const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                                       static_cast<std::size_t>(nthreads);
                for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + q * c[i];
            });
        for (auto& th : pool) th.join();
        best = std::max(best, 24.0 * static_cast<double>(n) / since(t0) / 1e9);
    }
    if (a[n / 2] != 7.0) throw std::runtime_error("triad probe computed wrong values");
    return best;
}

template <typename Map>
double valueOr0(const Map& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
}

std::string tracedReport(const Options& opts, Case& last,
                         const std::vector<int>& timedIds, int nthreads) {
    const double nsteps = static_cast<double>(timedIds.size());
    const trace::Summary sum = trace::summarize(timedIds);
    std::map<std::string, std::string> layers, modeled, out;
    for (const char* name :
         {"core.weno", "core.viscous", "core.update", "core.compute_dt",
          "amr.fill_single", "amr.fill_two_level", "amr.average_down",
          "amr.regrid", "mesh.metrics", "resilience.health_check"})
        layers[name] = num(valueOr0(sum.layerSeconds, name) / nsteps);

    // Modeled V100 time beside each kernel layer: KernelProfiles on the
    // cells each layer's calls covered (per call, as a GPU would launch).
    const auto& cfg = last.config();
    const gpu::V100Model v100;
    auto kernelModel = [&](const gpu::KernelProfile& p, const std::string& layer) {
        const double calls = valueOr0(sum.layerCalls, layer);
        if (calls == 0.0) return 0.0;
        const double cellsPerCall = valueOr0(sum.layerWork, layer) / calls;
        return calls * v100.kernelTime(p, std::llround(cellsPerCall)) / nsteps;
    };
    const auto& wenoProfile =
        cfg.fused ? core::fusedWenoKernelProfile() : core::wenoKernelProfile();
    modeled["core.weno"] = num(kernelModel(wenoProfile, "core.weno"));
    modeled["core.viscous"] = num(kernelModel(
        cfg.fused ? core::fusedViscousKernelProfile() : core::viscousKernelProfile(),
        "core.viscous"));
    modeled["core.update"] = num(kernelModel(
        cfg.fused ? core::fusedUpdateKernelProfile() : core::updateKernelProfile(),
        "core.update"));
    modeled["core.compute_dt"] =
        num(kernelModel(core::computeDtProfile(), "core.compute_dt"));
    // Exchange/regrid layers: the Summit model's per-iteration regions for
    // the paper's AMR case at this problem's equivalent resolution on one
    // node (6 V100s). Uniform one-level runs have no modeled counterpart.
    if (cfg.amrInfo.maxLevel > 0) {
        machine::ScalingSimulator sim;
        machine::ScalingCase sc;
        sc.version = core::CodeVersion::V20;
        sc.nodes = 1;
        sc.equivalentPoints = last.solver().equivalentPoints();
        const auto rt = sim.iterationTime(sc);
        modeled["amr.fill_single+amr.fill_two_level"] = num(rt.fillPatch());
        modeled["amr.average_down"] = num(rt.averageDown);
        modeled["amr.regrid+mesh.metrics"] = num(rt.regrid);
    }

    const double wenoSec = valueOr0(sum.layerSeconds, "core.weno");
    const double wenoBytes =
        valueOr0(sum.layerWork, "core.weno") * wenoProfile.dramBytesPerPoint;
    const double wenoGbps = wenoSec > 0.0 ? wenoBytes / wenoSec / 1e9 : 0.0;

    const std::string tracePath =
        opts.traceDir + "/" + opts.workload + "-seed" + std::to_string(opts.seed) +
        ".json";
    const std::int64_t written = trace::writeChrome(tracePath, 400000);
    trace::clear();

    // Host calibration: kernel thread scaling on the live hierarchy and the
    // STREAM-triad bandwidth.
    const double tN = timeRhsKernels(last, 3);
    gpu::setNumThreads(1);
    const double t1 = timeRhsKernels(last, 3);
    gpu::setNumThreads(nthreads);
    const double triad = triadGbps(kTriadElems, nthreads, 5);

    std::string unresolved = "[";
    for (std::size_t i = 0; i < sum.missingEntryPoints.size(); ++i)
        unresolved += (i ? "," : "") + str(sum.missingEntryPoints[i]);
    unresolved += "]";

    out["layers_s"] = obj(layers);
    out["modeled_v100_s"] = obj(modeled);
    out["step_mean_s"] = num(sum.stepSeconds / nsteps);
    out["unaccounted_frac"] =
        num(sum.stepSeconds > 0.0 ? sum.unaccountedSeconds / sum.stepSeconds : 0.0);
    out["weno_bytes_per_step_computed"] = num(wenoBytes / nsteps);
    out["weno_gbps_computed"] = num(wenoGbps);
    out["triad_gbps"] = num(triad);
    out["triad_array_mib"] = num(static_cast<double>(kTriadElems) * sizeof(double) /
                                 (1024.0 * 1024.0));
    out["l3_mib_cpuid"] = num(l3Bytes() / (1024.0 * 1024.0));
    out["working_set_mib"] =
        num(workingSetBytes(last.solver()) / (1024.0 * 1024.0));
    out["thread_speedup"] = num(tN > 0.0 ? t1 / tN : 0.0);
    out["rhs_kernels_1thread_s"] = num(t1);
    out["rhs_kernels_nthreads_s"] = num(tN);
    out["spans"] = num(static_cast<double>(sum.spans));
    out["trace_file"] = str(tracePath);
    out["trace_events_written"] = num(static_cast<double>(written));
    out["unresolved_entry_points"] = unresolved;
    return obj(out);
}

} // namespace

int run(const Options& opts) {
    const WorkloadSpec spec = workloadSpec(opts.workload);
    const int nthreads = hostThreads();
    const bool traced = trace::compiledIn();

    std::vector<double> setup, wall, cells, dts;
    std::vector<int> timedIds;
    std::vector<std::string> errors;
    Counters counters;
    int attempted = 0, failed = 0, episodes = 0, stepId = 0;
    std::unique_ptr<Case> last;

    // Episode 0 warms the process up (thread pool, allocator, page cache)
    // and is not measured; then a fixed number of whole episodes follows.
    const int minEpisodes = (11 + spec.episodeSteps - 1) / spec.episodeSteps;
    const int timedEpisodes = std::max(
        minEpisodes, static_cast<int>(std::lround(opts.seconds /
                                                  spec.nominalEpisodeSeconds)));
    const double giveUpSeconds = 120.0; // a much slower host still finishes
    const auto start = Clock::now();
    while (episodes <= timedEpisodes && since(start) < giveUpSeconds) {
        const bool timed = episodes > 0;
        last.reset();
        resetProcessCaches();
        const auto t0 = Clock::now();
        last = std::make_unique<Case>(opts.workload, opts.seed, nthreads);
        setup.push_back(since(t0));
        Case& c = *last;
        for (int s = 0; s < spec.episodeSteps; ++s) {
            const Snapshot before = snapshot(c);
            const int rollbacks = c.solver().rollbackCount();
            if (timed) {
                ++attempted;
                trace::setRecording(true);
                trace::beginStep(stepId);
            }
            const auto ts = Clock::now();
            bool threw = false;
            try {
                c.solver().step();
            } catch (const std::exception& e) {
                threw = true;
                errors.push_back(opts.workload + ": step threw: " + e.what());
            }
            const double w = since(ts);
            if (timed) {
                trace::endStep();
                trace::setRecording(false);
            }
            if (threw) {
                if (timed) ++failed;
                break; // the episode's solver state is no longer trusted
            }
            if (const std::string err = c.checkStep(); !err.empty())
                errors.push_back(err);
            if (!timed) continue;
            if (c.solver().rollbackCount() != rollbacks) ++failed;
            wall.push_back(w);
            cells.push_back(static_cast<double>(c.solver().totalPoints()));
            dts.push_back(c.solver().lastDt());
            timedIds.push_back(stepId++);
            accumulate(counters, c, before);
        }
        if (const std::string err = c.checkFinal(); !err.empty())
            errors.push_back(err);
        ++episodes;
        if (!errors.empty()) break;
    }
    const double rss = peakRssMb();

    std::map<std::string, std::string> out;
    if (traced && !timedIds.empty() && errors.empty())
        out["trace"] = tracedReport(opts, *last, timedIds, nthreads);
    last.reset();

    // Thread-count invariance: the same prefix of steps at the host's
    // thread count and at one thread must leave bitwise-equal states.
    std::map<std::string, std::string> inv;
    inv["checked"] = opts.checkThreads ? "true" : "false";
    if (opts.checkThreads && errors.empty()) {
        auto digestAt = [&](int threads) {
            resetProcessCaches();
            Case c(opts.workload, opts.seed, threads);
            for (int s = 0; s < spec.prefixSteps; ++s) c.solver().step();
            return stateDigest(c.solver());
        };
        const std::uint64_t dn = digestAt(nthreads);
        const std::uint64_t d1 = digestAt(1);
        gpu::setNumThreads(nthreads);
        inv["steps"] = std::to_string(spec.prefixSteps);
        inv["digest_threads"] = str(hex(dn));
        inv["digest_serial"] = str(hex(d1));
        if (dn != d1)
            errors.push_back(opts.workload + ": state after " +
                             std::to_string(spec.prefixSteps) + " steps differs at " +
                             std::to_string(nthreads) + " threads and at 1 thread");
    }

    std::string errs = "[";
    for (std::size_t i = 0; i < errors.size(); ++i) errs += (i ? "," : "") + str(errors[i]);
    errs += "]";
    std::map<std::string, std::string> cnt;
    cnt["commcache_hits"] = num(counters.cacheHits);
    cnt["commcache_misses"] = num(counters.cacheMisses);
    cnt["launches"] = num(counters.launches);
    cnt["scratch_hits"] = num(counters.scratchHits);
    cnt["scratch_misses"] = num(counters.scratchMisses);
    cnt["msgs"] = num(counters.msgs);
    cnt["msg_bytes"] = num(counters.msgBytes);
    cnt["boxes"] = num(counters.boxes);

    out["workload"] = str(opts.workload);
    out["seed"] = std::to_string(opts.seed);
    out["threads"] = std::to_string(nthreads);
    out["episodes"] = std::to_string(episodes);
    out["episode_steps"] = std::to_string(spec.episodeSteps);
    out["setup_s"] = arr(setup);
    out["step_wall_s"] = arr(wall);
    out["step_cells"] = arr(cells);
    out["step_dt"] = arr(dts);
    out["attempted"] = std::to_string(attempted);
    out["failed"] = std::to_string(failed);
    out["errors"] = errs;
    out["peak_rss_mb"] = num(rss);
    out["thread_invariance"] = obj(inv);
    out["counters"] = obj(cnt);
    std::cout << obj(out) << std::endl;
    return errors.empty() ? 0 : 1;
}

} // namespace perfbench
