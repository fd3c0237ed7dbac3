// neurobench — the repository benchmark (see neurobench/README.md).
//
//   neurobench --workload <train_paper|train_sharded|serve_wire|
//                          learn_while_serve>
//              --seed <n> --seconds <s> --trace <0|1>
//
// Prints provenance and one line per measurement ("# ..."), then, as the
// last line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}: every end-to-end metric with --trace 0, every per-layer
// metric with --trace 1. Exits 1 when an output check fails, 2 on a usage
// error.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

using namespace neurobench;

namespace {

int usage(const char* why) {
    std::fprintf(stderr,
                 "neurobench: %s\nusage: neurobench --workload "
                 "<train_paper|train_sharded|serve_wire|learn_while_serve> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    RunConfig cfg;
    if (argc % 2 == 0) return usage("options come in --key value pairs");
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                cfg.workload = val;
            else if (key == "--seed")
                cfg.seed = std::stoull(val);
            else if (key == "--seconds")
                cfg.seconds = std::stod(val);
            else if (key == "--trace")
                cfg.trace = std::stoi(val) != 0;
            else
                return usage(("unknown option " + key).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + key).c_str());
        }
    }
    if (!(cfg.seconds > 0)) return usage("--seconds must be positive");

    Report rep;
    // Every catalogued metric of the run's kind appears in the output; a
    // layer the workload does not exercise keeps 0 (no work).
    if (cfg.trace)
        for (const auto& m : kPerLayer) rep.set(m.name, 0.0, m.unit);

    try {
        if (cfg.workload == "train_paper")
            run_train(cfg, rep, false);
        else if (cfg.workload == "train_sharded")
            run_train(cfg, rep, true);
        else if (cfg.workload == "serve_wire")
            run_serve_wire(cfg, rep);
        else if (cfg.workload == "learn_while_serve")
            run_learn_while_serve(cfg, rep);
        else
            return usage(("unknown workload '" + cfg.workload + "'").c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "neurobench: %s failed: %s\n", cfg.workload.c_str(),
                     e.what());
        return 1;
    }

    for (const auto& f : rep.check_failures()) note("CHECK FAILED: %s", f.c_str());
    note("attempted = %llu, failed = %llu (failed_frac = %.6f)",
         static_cast<unsigned long long>(rep.outcomes.attempted),
         static_cast<unsigned long long>(rep.outcomes.failed()),
         rep.outcomes.failed_frac());
    for (const auto& m : rep.metrics())
        note("%-34s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n", rep.json().c_str());
    return rep.correct() ? 0 : 1;
}
