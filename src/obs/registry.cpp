#include "obs/registry.hpp"

#include <cinttypes>
#include <cstdio>

namespace neuro::obs {

void append_help_type(std::string& out, const std::string& name,
                      const char* type, const std::string& help) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += name;
    out += labels;
    out += ' ';
    out += buf;
    out += '\n';
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out += name;
    out += labels;
    out += ' ';
    out += buf;
    out += '\n';
}

void Registry::add_collector(Collector c) {
    std::lock_guard<std::mutex> lock(m_);
    collectors_.push_back(std::move(c));
}

std::string Registry::expose() const {
    std::lock_guard<std::mutex> lock(m_);
    std::string out;
    for (const Collector& c : collectors_) c(out);
    out += "# EOF\n";
    return out;
}

Registry& default_registry() {
    static Registry registry;
    return registry;
}

}  // namespace neuro::obs
