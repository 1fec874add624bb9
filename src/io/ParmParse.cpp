#include "io/ParmParse.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace crocco::io {

namespace {

std::string trim(const std::string& s) {
    const auto a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos) return "";
    const auto b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

} // namespace

void ParmParse::parseText(const std::string& text) {
    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line = line.substr(0, hash);
        line = trim(line);
        if (line.empty()) continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            throw std::runtime_error("deck line " + std::to_string(lineNo) +
                                     ": expected key = value");
        const std::string key = trim(line.substr(0, eq));
        const std::string rhs = trim(line.substr(eq + 1));
        if (key.empty() || rhs.empty())
            throw std::runtime_error("deck line " + std::to_string(lineNo) +
                                     ": empty key or value");
        std::istringstream vs(rhs);
        std::vector<std::string> values;
        std::string v;
        while (vs >> v) values.push_back(v);
        table_[key] = std::move(values);
        used_[key] = false;
    }
}

void ParmParse::parseFile(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot open input deck " + path);
    std::stringstream buf;
    buf << is.rdbuf();
    parseText(buf.str());
}

void ParmParse::parseArgs(int argc, const char* const* argv) {
    std::string text;
    for (int i = 0; i < argc; ++i) {
        text += argv[i];
        text += '\n';
    }
    parseText(text);
}

const std::vector<std::string>* ParmParse::find(const std::string& key) const {
    auto it = table_.find(key);
    if (it == table_.end()) return nullptr;
    used_[key] = true;
    return &it->second;
}

bool ParmParse::contains(const std::string& key) const {
    return table_.count(key) > 0;
}

bool ParmParse::query(const std::string& key, int& out) const {
    if (const auto* v = find(key)) {
        out = std::stoi(v->front());
        return true;
    }
    return false;
}

bool ParmParse::query(const std::string& key, double& out) const {
    if (const auto* v = find(key)) {
        out = std::stod(v->front());
        return true;
    }
    return false;
}

bool ParmParse::query(const std::string& key, bool& out) const {
    if (const auto* v = find(key)) {
        const std::string& s = v->front();
        out = (s == "1" || s == "true" || s == "yes" || s == "on");
        return true;
    }
    return false;
}

bool ParmParse::query(const std::string& key, std::string& out) const {
    if (const auto* v = find(key)) {
        out = v->front();
        return true;
    }
    return false;
}

bool ParmParse::queryArr(const std::string& key, std::vector<double>& out) const {
    if (const auto* v = find(key)) {
        out.clear();
        for (const auto& s : *v) out.push_back(std::stod(s));
        return true;
    }
    return false;
}

int ParmParse::getInt(const std::string& key) const {
    int v = 0;
    if (!query(key, v)) throw std::runtime_error("missing deck key " + key);
    return v;
}

double ParmParse::getDouble(const std::string& key) const {
    double v = 0;
    if (!query(key, v)) throw std::runtime_error("missing deck key " + key);
    return v;
}

std::string ParmParse::getString(const std::string& key) const {
    std::string v;
    if (!query(key, v)) throw std::runtime_error("missing deck key " + key);
    return v;
}

std::vector<std::string> ParmParse::unusedKeys() const {
    std::vector<std::string> out;
    for (const auto& [key, wasUsed] : used_)
        if (!wasUsed) out.push_back(key);
    return out;
}

core::CroccoAmr::Config ParmParse::makeConfig(core::CroccoAmr::Config cfg) const {
    query("amr.max_level", cfg.amrInfo.maxLevel);
    query("amr.blocking_factor", cfg.amrInfo.blockingFactor);
    query("amr.max_grid_size", cfg.amrInfo.maxGridSize);
    query("amr.n_error_buf", cfg.amrInfo.nErrorBuf);
    query("amr.grid_eff", cfg.amrInfo.gridEff);
    query("amr.regrid_int", cfg.regridFreq);
    int ratio = 0;
    if (query("amr.ref_ratio", ratio)) cfg.amrInfo.refRatio = amr::IntVect(ratio);

    query("crocco.cfl", cfg.cfl);
    std::string s;
    if (query("crocco.weno_scheme", s)) {
        if (s == "js5") cfg.scheme = core::WenoScheme::JS5;
        else if (s == "symbo") cfg.scheme = core::WenoScheme::Symbo;
        else throw std::runtime_error("crocco.weno_scheme: unknown '" + s + "'");
    }
    if (query("crocco.reconstruction", s)) {
        if (s == "component") cfg.recon = core::Reconstruction::ComponentWise;
        else if (s == "characteristic")
            cfg.recon = core::Reconstruction::CharacteristicWise;
        else throw std::runtime_error("crocco.reconstruction: unknown '" + s + "'");
    }
    if (query("crocco.kernel_variant", s)) {
        if (s == "portable") cfg.variant = core::KernelVariant::Portable;
        else if (s == "fortran") cfg.variant = core::KernelVariant::FortranStyle;
        else throw std::runtime_error("crocco.kernel_variant: unknown '" + s + "'");
    }
    if (query("crocco.interp", s)) {
        if (s == "curvilinear") cfg.interp = core::InterpChoice::Curvilinear;
        else if (s == "trilinear") cfg.interp = core::InterpChoice::Trilinear;
        else if (s == "weno") cfg.interp = core::InterpChoice::Weno;
        else if (s == "conservative")
            cfg.interp = core::InterpChoice::ConservativeLinear;
        else throw std::runtime_error("crocco.interp: unknown '" + s + "'");
    }
    if (query("crocco.tagging", s)) {
        if (s == "density") cfg.tagging.criterion = core::TagCriterion::DensityGradient;
        else if (s == "momentum")
            cfg.tagging.criterion = core::TagCriterion::MomentumGradient;
        else if (s == "vorticity")
            cfg.tagging.criterion = core::TagCriterion::Vorticity;
        else throw std::runtime_error("crocco.tagging: unknown '" + s + "'");
    }
    query("crocco.tag_threshold", cfg.tagging.threshold);
    query("crocco.les_cs", cfg.sgs.cs);

    query("gas.gamma", cfg.gas.gamma);
    query("gas.r", cfg.gas.Rgas);
    query("gas.mu_ref", cfg.gas.muRef);
    query("gas.prandtl", cfg.gas.prandtl);

    query("gpu.num_threads", cfg.gpuNumThreads);
    // The GPU_NUM_THREADS environment variable overrides the deck so a
    // test/bench sweep can rerun the same inputs at different thread counts
    // without editing them (ctest's *_mt instances rely on this).
    if (const char* env = std::getenv("GPU_NUM_THREADS")) {
        try {
            cfg.gpuNumThreads = std::stoi(env);
        } catch (const std::exception&) {
            throw std::runtime_error("GPU_NUM_THREADS: not an integer");
        }
    }
    if (cfg.gpuNumThreads < 0)
        throw std::runtime_error("gpu.num_threads: must be >= 0 (0 = auto)");
    query("amr.comm_cache", cfg.commCache);
    query("amr.comm_cache_size", cfg.commCacheCapacity);
    if (cfg.commCacheCapacity < 0)
        throw std::runtime_error("amr.comm_cache_size: must be >= 0");
    query("core.fused", cfg.fused);

    query("resilience.health_checks", cfg.guard.enabled);
    query("resilience.max_retries", cfg.guard.maxRetries);
    query("resilience.dt_backoff", cfg.guard.dtBackoff);
    query("resilience.max_faults_reported", cfg.guard.maxFaultsReported);
    if (cfg.guard.maxRetries < 0)
        throw std::runtime_error("resilience.max_retries: must be >= 0");
    if (cfg.guard.dtBackoff <= 0.0 || cfg.guard.dtBackoff >= 1.0)
        throw std::runtime_error("resilience.dt_backoff: must be in (0, 1)");
    query("resilience.sdc_guard", cfg.sdc.guard);
    query("resilience.sdc_interval", cfg.sdc.interval);
    query("resilience.sdc_sample", cfg.sdc.sample);
    if (cfg.sdc.interval < 1)
        throw std::runtime_error("resilience.sdc_interval: must be >= 1");
    if (cfg.sdc.sample < 0)
        throw std::runtime_error("resilience.sdc_sample: must be >= 0 (0 = off)");

    query("comm.timeout", cfg.commTimeout);
    query("comm.verify", cfg.commVerify);
    query("comm.max_retransmits", cfg.commMaxRetransmits);
    query("comm.aggregate", cfg.commAggregate);
    query("comm.log_summary", cfg.commLogSummary);
    if (cfg.commTimeout < 0.0)
        throw std::runtime_error("comm.timeout: must be >= 0 (0 = default)");
    if (cfg.commMaxRetransmits < 0)
        throw std::runtime_error(
            "comm.max_retransmits: must be >= 0 (0 = default)");
    return cfg;
}

} // namespace crocco::io
