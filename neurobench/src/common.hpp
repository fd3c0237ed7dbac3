#pragma once
// Shared plumbing of the neurobench workloads: the run configuration, the
// steady clock, process probes (peak RSS, provenance) and the report
// lines every workload prints before its final JSON line.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace neuro::runtime {
class Session;
}

namespace neurobench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

using Clock = std::chrono::steady_clock;

/// Set-ups per timed run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/// The serving workloads split the CPUs: the load-generating client
/// thread spins on the last CPU, everything it measures runs on the rest.
/// A spinning client sharing a CPU with a daemon thread would hold it for
/// whole scheduler slices and charge them to the daemon. With fewer than
/// three CPUs nothing is pinned.
class CpuSplit {
public:
    CpuSplit();
    /// Pins the calling thread to the system CPUs; threads it creates
    /// afterwards (router workers, daemon loop, learner) inherit them.
    void enter_system() const;
    /// Pins the calling thread to the client CPU.
    void enter_client() const;
    /// "cpus 0-2 serve, cpu 3 drives load" or "unpinned".
    std::string describe() const;

private:
    std::vector<int> system_;
    int client_ = -1;
};

/// Pins the calling thread, and every thread it creates afterwards, to the
/// first CPU it may run on; returns that CPU (-1 when affinity is not
/// available).
int pin_to_one_cpu();

/// Same-run host-speed reference. A shared virtual machine's CPU speed
/// drifts by 10-20% over seconds to minutes; a throughput measured beside
/// a fixed CPU-bound probe can be corrected for that drift. Runs the probe
/// once and returns its wall time in milliseconds.
double reference_probe_ms();

/// Nominal probe time: a corrected rate is rate * probe_ms / this, i.e.
/// the rate the host would give if the probe ran at this speed.
inline constexpr double kReferenceProbeMs = 2.0;

/// Peak resident set of this process (VmHWM) in MiB; 0 if unreadable.
double peak_rss_mib();

/// "sparse" / "dense" sweep plus "vector" / "scalar" kernels, read from the
/// chip a session actually runs on ("n/a" for chip-less backends).
std::string sweep_mode(neuro::runtime::Session& session);

/// Prints nproc, compiler, build type, NEURO_KERNEL_ARCH, the workload
/// seed and the chip sweep mode in effect.
void print_provenance(const RunConfig& cfg, const std::string& sweep);

/// One human-readable result line: "# name = value unit  (detail)".
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Prints a timing summary line with its percentile rule and sample count.
void note_summary(const char* name, const Summary& s, const char* unit);

}  // namespace neurobench
