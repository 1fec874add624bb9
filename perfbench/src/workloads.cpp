#include "workloads.hpp"

#include "mesh/GridMetrics.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

using crocco::amr::Real;
namespace amr = crocco::amr;

namespace {

const std::vector<WorkloadSpec>& specs() {
    // Episode lengths: dmr_amr regrids every 4th step, so 13 steps hold
    // four regrid steps (the one at step 0 finds the initial grids
    // unchanged and remakes nothing); dmr_ranks_regrid regrids every step;
    // tgv_uniform never regrids.
    static const std::vector<WorkloadSpec> s = {
        {"dmr_amr", 13, 2, 2.7},
        {"tgv_uniform", 6, 1, 1.45},
        {"dmr_ranks_regrid", 6, 2, 2.2},
    };
    return s;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    // FNV-1a over the 8 bytes of v.
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t bits(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/// Deterministic noise in [-1, 1] from the seed and a cell position.
double unitNoise(std::uint64_t seed, Real x, Real y, Real z) {
    std::uint64_t h = mix(mix(mix(mix(14695981039346656037ull, seed), bits(x)),
                              bits(y)),
                          bits(z));
    // splitmix64 finaliser spreads the FNV state over all 64 bits.
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<double>(h >> 11) * (2.0 / 9007199254740992.0) - 1.0;
}

core::InitFunct seeded(core::InitFunct ic, std::uint64_t seed) {
    return [ic = std::move(ic), seed](Real x, Real y, Real z) {
        auto s = ic(x, y, z);
        // Scaling every conserved component alike keeps velocity and
        // temperature, so the perturbation moves no shock and no tag.
        const Real f = 1.0 + 1e-10 * unitNoise(seed, x, y, z);
        for (auto& v : s) v *= f;
        return s;
    };
}

} // namespace

WorkloadSpec workloadSpec(const std::string& name) {
    for (const auto& s : specs())
        if (s.name == name) return s;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

Case::Case(const std::string& workload, std::uint64_t seed, int nthreads)
    : workload_(workload) {
    (void)workloadSpec(workload);
    if (workload == "tgv_uniform") {
        // Periodic 64^3 Taylor-Green vortex, one level of 32^3 boxes.
        tgv_ = std::make_unique<problems::TaylorGreen>(64);
        cfg_ = tgv_->solverConfig();
        cfg_.amrInfo.maxGridSize = 32;
        cfg_.gpuNumThreads = nthreads;
        solver_ = std::make_unique<core::CroccoAmr>(tgv_->geometry(), cfg_,
                                                    tgv_->mapping());
        solver_->init(seeded(tgv_->initialCondition(), seed), nullptr);
        mass0_ = solver_->conservedTotals()[core::URHO];
        lastKe_ = problems::TaylorGreen::kineticEnergy(*solver_);
        return;
    }
    // Double Mach reflection as examples/dmr.cpp sets it up: 96x24x8
    // curvilinear base grid, three levels.
    problems::Dmr::Options opts;
    opts.nx = 96;
    opts.ny = 24;
    opts.nz = 8;
    opts.maxLevel = 2;
    opts.curvilinear = true;
    dmr_ = std::make_unique<problems::Dmr>(opts);
    cfg_ = dmr_->solverConfig(core::CodeVersion::V20);
    cfg_.gpuNumThreads = nthreads;
    if (workload == "dmr_amr") {
        cfg_.regridFreq = 4;
    } else {
        // Eight simulated ranks, small boxes, a regrid every step: patterns
        // are rebuilt after every regrid and thousands of messages move.
        cfg_.regridFreq = 1;
        cfg_.amrInfo.maxGridSize = 16;
        cfg_.nranks = 8;
        comm_ = std::make_unique<parallel::SimComm>(8);
    }
    solver_ = std::make_unique<core::CroccoAmr>(dmr_->geometry(), cfg_,
                                                dmr_->mapping(), comm_.get());
    solver_->init(seeded(dmr_->initialCondition(), seed),
                  dmr_->boundaryConditions());
}

std::string Case::checkStep() {
    if (!tgv_) return "";
    const double ke = problems::TaylorGreen::kineticEnergy(*solver_);
    if (!(ke <= lastKe_))
        return "tgv_uniform: kinetic energy rose at step " +
               std::to_string(solver_->stepCount()) + " (" +
               std::to_string(lastKe_) + " -> " + std::to_string(ke) + ")";
    lastKe_ = ke;
    return "";
}

std::string Case::checkFinal() const {
    if (tgv_) {
        const double mass = solver_->conservedTotals()[core::URHO];
        const double drift = std::abs(mass - mass0_) / std::abs(mass0_);
        if (!(drift <= 1e-12))
            return "tgv_uniform: relative mass drift " + std::to_string(drift) +
                   " exceeds 1e-12";
        return "";
    }
    // DMR: finite state, positive density and pressure everywhere, and the
    // Mach-stem compression above the 8.0 post-shock density.
    double rhoMax = -1.0;
    for (int lev = 0; lev <= solver_->finestLevel(); ++lev) {
        const auto& U = solver_->state(lev);
        for (int f = 0; f < U.numFabs(); ++f) {
            auto u = U.const_array(f);
            std::string bad;
            amr::forEachCell(U.validBox(f), [&](int i, int j, int k) {
                const Real rho = u(i, j, k, core::URHO);
                for (int n = 0; n < core::NCONS; ++n)
                    if (!std::isfinite(u(i, j, k, n))) bad = "non-finite state";
                if (!(rho > 0.0)) bad = "non-positive density";
                const Real p = cfg_.gas.pressure(
                    rho, u(i, j, k, core::UMX) / rho, u(i, j, k, core::UMY) / rho,
                    u(i, j, k, core::UMZ) / rho, u(i, j, k, core::UEDEN));
                if (!(p > 0.0)) bad = "non-positive pressure";
                rhoMax = std::max(rhoMax, rho);
            });
            if (!bad.empty())
                return workload_ + ": " + bad + " on level " + std::to_string(lev);
        }
    }
    if (!(rhoMax > 8.0))
        return workload_ + ": maximum density " + std::to_string(rhoMax) +
               " not above the 8.0 post-shock value";
    return "";
}

std::uint64_t stateDigest(const core::CroccoAmr& solver) {
    std::uint64_t h = 14695981039346656037ull;
    h = mix(h, bits(solver.time()));
    h = mix(h, static_cast<std::uint64_t>(solver.stepCount()));
    for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
        const auto& U = solver.state(lev);
        for (int f = 0; f < U.numFabs(); ++f) {
            const amr::Box& b = U.validBox(f);
            for (int d = 0; d < 3; ++d) {
                h = mix(h, static_cast<std::uint64_t>(b.smallEnd(d)));
                h = mix(h, static_cast<std::uint64_t>(b.bigEnd(d)));
            }
            auto u = U.const_array(f);
            for (int n = 0; n < core::NCONS; ++n)
                amr::forEachCell(b, [&](int i, int j, int k) {
                    h = mix(h, bits(u(i, j, k, n)));
                });
        }
    }
    return h;
}

double workingSetBytes(const core::CroccoAmr& solver) {
    auto bytes = [](const amr::MultiFab& mf, int ngrow) {
        double n = 0.0;
        for (int f = 0; f < mf.numFabs(); ++f)
            n += static_cast<double>(mf.validBox(f).grow(ngrow).numPts());
        return n * mf.nComp() * sizeof(Real);
    };
    double total = 0.0;
    for (int lev = 0; lev <= solver.finestLevel(); ++lev) {
        const auto& U = solver.state(lev);
        total += bytes(U, U.nGrow()) + bytes(U, 0) +
                 bytes(solver.coords(lev), solver.coords(lev).nGrow()) +
                 bytes(solver.metrics(lev), solver.metrics(lev).nGrow());
    }
    return total;
}

} // namespace perfbench
