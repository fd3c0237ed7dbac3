#pragma once
// neuro::obs::Registry — Prometheus text exposition of the serving stats
// (docs/ARCHITECTURE.md §14).
//
// The stats structs (ServerStats / ModelEntryStats / DaemonStats) are the
// one metrics source; the registry owns no instruments of its own. A
// collector is a scrape-time callback that appends already-formatted
// exposition text (use append_help_type()/append_sample()) — the netd
// daemon registers one that snapshots those structs into metric families
// on every scrape ("aggregated on scrape").
//
// expose() concatenates the collectors' output and terminates it with a
// literal "# EOF" line — the control-socket framing for the multi-line
// `metrics` reply (netd/daemon.cpp).

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace neuro::obs {

/// Formatting helpers shared by Registry::expose() and collectors.
void append_help_type(std::string& out, const std::string& name,
                      const char* type, const std::string& help);
void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double value);
void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, std::uint64_t value);

class Registry {
public:
    using Collector = std::function<void(std::string&)>;

    /// Scrape-time bridge for pull-style stats; called under the registry
    /// mutex during expose(), so collectors must not re-enter the
    /// registry. Collectors run in registration order.
    void add_collector(Collector c);

    /// Every collector's exposition text, terminated by a "# EOF" line.
    std::string expose() const;

private:
    mutable std::mutex m_;
    std::vector<Collector> collectors_;
};

/// Process-wide registry: what neurod scrapes. Tests build their own
/// Registry instances for isolation.
Registry& default_registry();

}  // namespace neuro::obs
