// perfbench runner: one workload, one raw JSON record on stdout.
//
//   perfbench_run    --workload dmr_amr --seed 1 --seconds 10
//   perfbench_traced --workload dmr_amr --seed 1 --seconds 10 --trace-dir out
//
// perfbench/run.py builds both, runs them and turns the records into the
// benchmark's metrics.
#include "runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

int main(int argc, char** argv) {
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            opts.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            opts.seconds = std::atof(argv[++i]);
        } else if (a == "--trace-dir" && hasValue) {
            opts.traceDir = argv[++i];
        } else if (a == "--no-thread-check") {
            opts.checkThreads = false;
        } else {
            std::fprintf(stderr, "perfbench: unknown argument '%s'\n", a.c_str());
            return 2;
        }
    }
    try {
        return perfbench::run(opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
