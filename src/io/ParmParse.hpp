#pragma once

#include "core/CroccoAmr.hpp"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace crocco::io {

/// AMReX-style input deck: `prefix.name = value` pairs from files and
/// command lines (§III-B: "How AMReX carries out this decomposition can be
/// controlled using various input deck parameters, including the number of
/// points in each direction and the blocking factor").
///
/// Grammar per line:   key = value [value...]   with `#` comments.
/// Later definitions override earlier ones (command line overrides file).
class ParmParse {
public:
    ParmParse() = default;

    /// Parse a deck file; throws std::runtime_error on malformed lines.
    void parseFile(const std::string& path);
    /// Parse argv-style "key=value" tokens (AMReX command-line overrides).
    void parseArgs(int argc, const char* const* argv);
    /// Parse deck text directly (used by tests).
    void parseText(const std::string& text);

    bool contains(const std::string& key) const;

    /// Typed lookups; the `query` forms leave `out` untouched when the key
    /// is absent, the `get` forms throw.
    bool query(const std::string& key, int& out) const;
    bool query(const std::string& key, double& out) const;
    bool query(const std::string& key, bool& out) const;
    bool query(const std::string& key, std::string& out) const;
    bool queryArr(const std::string& key, std::vector<double>& out) const;

    int getInt(const std::string& key) const;
    double getDouble(const std::string& key) const;
    std::string getString(const std::string& key) const;

    /// Keys that were never read — catches deck typos (AMReX's unused-
    /// parameter warning).
    std::vector<std::string> unusedKeys() const;

    /// Build a solver Config from the canonical CRoCCo deck keys:
    ///   amr.max_level, amr.blocking_factor, amr.max_grid_size,
    ///   amr.ref_ratio, amr.n_error_buf, amr.grid_eff, amr.regrid_int,
    ///   crocco.cfl, crocco.weno_scheme (js5|symbo),
    ///   crocco.reconstruction (component|characteristic),
    ///   crocco.kernel_variant (portable|fortran),
    ///   crocco.interp (curvilinear|trilinear|weno|conservative),
    ///   crocco.tagging (density|momentum|vorticity), crocco.tag_threshold,
    ///   crocco.les_cs, gas.gamma, gas.r, gas.mu_ref, gas.prandtl,
    ///   gpu.num_threads (0 = auto; the GPU_NUM_THREADS environment
    ///   variable overrides the deck), amr.comm_cache (on|off),
    ///   amr.comm_cache_size (LRU pattern bound, >= 0),
    ///   core.fused (fused RHS pipeline: shared primitive cache,
    ///   single-pass WENO flux+divergence, fused RK3 update, batched
    ///   launches; bitwise-identical to the unfused path, default off),
    ///   resilience.health_checks, resilience.max_retries (>= 0),
    ///   resilience.dt_backoff (in (0,1)), resilience.max_faults_reported.
    /// Unset keys keep the passed-in defaults. Keys not listed here,
    /// retired ones included, are not queried and stay in unusedKeys().
    core::CroccoAmr::Config makeConfig(core::CroccoAmr::Config defaults = {}) const;

private:
    const std::vector<std::string>* find(const std::string& key) const;

    std::map<std::string, std::vector<std::string>> table_;
    mutable std::map<std::string, bool> used_;
};

} // namespace crocco::io
