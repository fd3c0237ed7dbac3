#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstdarg>
#include <fstream>
#include <string>

#include "core/network.hpp"
#include "core/sharded_network.hpp"
#include "runtime/session.hpp"

#ifndef NEUROBENCH_BUILD_TYPE
#define NEUROBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NEUROBENCH_KERNEL_ARCH
#define NEUROBENCH_KERNEL_ARCH "unknown"
#endif

namespace neurobench {

CpuSplit::CpuSplit() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
    if (cpus.size() < 3) return;
    client_ = cpus.back();
    cpus.pop_back();
    system_ = cpus;
}

namespace {
void pin(const std::vector<int>& cpus) {
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}
}  // namespace

int pin_to_one_cpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) {
            pin({c});
            return c;
        }
    return -1;
}

void CpuSplit::enter_system() const { pin(system_); }
void CpuSplit::enter_client() const {
    if (client_ >= 0) pin({client_});
}

std::string CpuSplit::describe() const {
    if (client_ < 0) return "unpinned (fewer than 3 CPUs)";
    return std::to_string(system_.size()) + " CPUs serve, cpu " +
           std::to_string(client_) + " drives load";
}

double reference_probe_ms() {
    // Integer mixing over an L2-resident buffer: no allocation, no
    // syscalls, the same instruction stream on every call.
    static std::vector<std::uint32_t> buf = [] {
        std::vector<std::uint32_t> v(1u << 19);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<std::uint32_t>(i * 2654435761u);
        return v;
    }();
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int round = 0; round < 3; ++round)
        for (auto& x : buf) {
            acc += x ^ (acc >> 3);
            x += static_cast<std::uint32_t>(acc);
        }
    static volatile std::uint64_t sink;
    sink = sink + acc;
    return seconds_since(t0) * 1e3;
}

double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    return 0.0;
}

std::string sweep_mode(neuro::runtime::Session& session) {
    const neuro::loihi::Chip* chip = nullptr;
    if (auto* net = session.native_network())
        chip = &net->chip();
    else if (auto* sh = session.native_sharded_network())
        chip = &sh->chips().shard(0);
    if (!chip) return "n/a";
    return std::string(chip->sparse_sweep() ? "sparse" : "dense") + "/" +
           (chip->vector_sweep() ? "vector" : "scalar");
}

void print_provenance(const RunConfig& cfg, const std::string& sweep) {
    note("workload = %s  seed = %llu  seconds = %g  trace = %d",
         cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
         cfg.seconds, cfg.trace ? 1 : 0);
    note("nproc = %ld  compiler = %s  build_type = %s  NEURO_KERNEL_ARCH = %s  "
         "chip sweep = %s",
         ::sysconf(_SC_NPROCESSORS_ONLN),
#if defined(__clang__)
         "clang " __clang_version__,
#elif defined(__GNUC__)
         "gcc " __VERSION__,
#else
         "unknown",
#endif
         NEUROBENCH_BUILD_TYPE, NEUROBENCH_KERNEL_ARCH, sweep.c_str());
}

void note(const char* fmt, ...) {
    std::fputs("# ", stdout);
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

void note_summary(const char* name, const Summary& s, const char* unit) {
    note("%s: p50 = %.1f %s, p%g = %.1f %s (n = %zu, %zu beyond%s; highest "
         "supported p%g)",
         name, s.p50, unit, s.tail_q, s.tail, unit, s.n,
         samples_beyond(s.n, s.tail_q),
         s.tail_supported ? "" : " -- TOO FEW for this percentile",
         s.max_supported_q);
}

}  // namespace neurobench
