#pragma once
// Pure measurement logic of the neurobench harness: percentile summaries
// with the ten-beyond rule, the open-loop rate ladder behind
// max_rps_at_slo (with in-flight backlog detection), failure accounting,
// and the metric report that ends every run with one JSON line. No
// clocks, sockets or library calls live here, so tests/harness_test.cpp
// pins all of it deterministically.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace neurobench {

// ---- percentiles -------------------------------------------------------------

/// 1-based nearest rank of the q-th percentile of n >= 1 samples: the
/// smallest rank with at least q% of the samples at or below it. The
/// epsilon keeps exact products (95% of 200) from rounding up a rank.
inline std::size_t nearest_rank(std::size_t n, double q) {
    const double r = std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                   1, n);
}

/// Nearest-rank percentile of `sorted` (ascending); 0 for an empty input.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    return sorted[nearest_rank(sorted.size(), q) - 1];
}

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
    return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; a tail estimated from fewer is noise.
inline constexpr std::size_t kMinBeyond = 10;

inline bool percentile_supported(std::size_t n, double q) {
    return samples_beyond(n, q) >= kMinBeyond;
}

/// The highest percentile of `candidates` that n samples support; 0 when
/// none does.
inline double highest_supported_percentile(
    std::size_t n, const std::vector<double>& candidates = {99.9, 99, 98, 95,
                                                            90, 75, 50}) {
    double best = 0.0;
    for (double q : candidates)
        if (percentile_supported(n, q)) best = std::max(best, q);
    return best;
}

/// Median and a fixed tail percentile of one timing, with its sample
/// count. `tail_supported` is false when fewer than kMinBeyond samples lie
/// beyond the tail — the run then says so instead of silently reporting a
/// lower percentile under the same name.
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    double tail_q = 0.0;
    double tail = 0.0;
    bool tail_supported = false;
    /// Highest percentile these samples support (for the report line).
    double max_supported_q = 0.0;
};

inline Summary summarize(std::vector<double> v, double tail_q) {
    Summary s;
    std::sort(v.begin(), v.end());
    s.n = v.size();
    s.p50 = percentile_sorted(v, 50);
    s.tail_q = tail_q;
    s.tail = percentile_sorted(v, tail_q);
    s.tail_supported = percentile_supported(v.size(), tail_q);
    s.max_supported_q = highest_supported_percentile(v.size());
    return s;
}

/// Nearest-rank percentile of unsorted samples.
inline double percentile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, q);
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// A throughput robust to stalls: the median over blocks of the work each
/// block completed per second. `blocks` holds (work done, seconds taken);
/// blocks that took no time are skipped.
inline double median_block_rate(
    const std::vector<std::pair<double, double>>& blocks) {
    std::vector<double> rates;
    for (const auto& [work, secs] : blocks)
        if (secs > 0) rates.push_back(work / secs);
    return median(rates);
}

/// Cuts a cumulative counter sampled at (time s, count) points into
/// blocks of at least `block_s` seconds for median_block_rate.
inline std::vector<std::pair<double, double>> blocks_of(
    const std::vector<std::pair<double, double>>& samples, double block_s) {
    std::vector<std::pair<double, double>> out;
    if (samples.empty()) return out;
    auto start = samples.front();
    for (const auto& s : samples)
        if (s.first - start.first >= block_s) {
            out.push_back({s.second - start.second, s.first - start.first});
            start = s;
        }
    return out;
}

// ---- failure accounting --------------------------------------------------------

/// Dispositions of every operation a phase attempted. Everything that is
/// not `ok` is a failure: a shed or dropped request misses every latency
/// limit, a wrong output is worse than none.
struct Outcomes {
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;      ///< refused at intake (queue full)
    std::uint64_t dropped = 0;   ///< accepted, then dropped (CoDel/deadline)
    std::uint64_t errors = 0;    ///< backend error / unexpected status
    std::uint64_t timeouts = 0;  ///< no response before the phase deadline
    std::uint64_t wrong = 0;     ///< Ok, but the output failed its check
    std::uint64_t feedback_dropped = 0;  ///< labelled sample refused

    std::uint64_t failed() const {
        return shed + dropped + errors + timeouts + wrong + feedback_dropped;
    }
    double failed_frac() const {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed()) /
                                    static_cast<double>(attempted);
    }
    /// Sanity of the books: every attempt resolved exactly one way.
    bool balanced() const { return ok + failed() == attempted; }

    Outcomes& operator+=(const Outcomes& o) {
        attempted += o.attempted;
        ok += o.ok;
        shed += o.shed;
        dropped += o.dropped;
        errors += o.errors;
        timeouts += o.timeouts;
        wrong += o.wrong;
        feedback_dropped += o.feedback_dropped;
        return *this;
    }
};

// ---- rate ladder ---------------------------------------------------------------

/// In-flight (sent, not yet answered) counts sampled at a fixed period
/// during one open-loop step. The backlog grows when the last quarter of
/// the step holds clearly more requests in flight than the first: a system
/// at capacity keeps a bounded queue, one beyond it accumulates.
inline bool backlog_growing(const std::vector<double>& inflight,
                            double min_growth = 8.0) {
    if (inflight.size() < 8) return false;
    const std::size_t q = inflight.size() / 4;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
        first += inflight[i];
        last += inflight[inflight.size() - q + i];
    }
    first /= static_cast<double>(q);
    last /= static_cast<double>(q);
    return last - first > std::max(min_growth, first);
}

/// One step of the ladder: a fixed offered rate held for a fixed number
/// of requests.
struct LadderStep {
    double rate = 0.0;
    Outcomes outcomes;
    Summary latency;  ///< microseconds from each request's due time
    bool backlog = false;
};

/// A step meets the latency limit when it failed nothing, its tail
/// percentile is supported by the sample count and within the limit, and
/// the in-flight backlog did not grow.
inline bool step_passes(const LadderStep& s, double limit_us) {
    return s.outcomes.attempted > 0 && s.outcomes.failed() == 0 &&
           s.latency.tail_supported && s.latency.tail <= limit_us &&
           !s.backlog;
}

/// The highest rate of an ascending ladder whose step passed, scanning
/// only up to the first failing step (a pass above a failure is luck, not
/// capacity). 0 when the first step already fails.
inline double max_rate_at_slo(const std::vector<LadderStep>& steps,
                              double limit_us) {
    double best = 0.0;
    for (const auto& s : steps) {
        if (!step_passes(s, limit_us)) break;
        best = s.rate;
    }
    return best;
}

/// Geometric ladder: `from`, from*ratio, ... up to and including `to`.
inline std::vector<double> ladder_rates(double from, double to, double ratio) {
    std::vector<double> out;
    if (from <= 0.0 || ratio <= 1.0) return out;
    for (double r = from; r <= to * (1.0 + 1e-9); r *= ratio)
        out.push_back(std::round(r));
    return out;
}

// ---- the report ----------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Collects metrics, output-check failures and outcome counts; renders the
/// final JSON line.
class Report {
public:
    void set(const std::string& name, double value, const std::string& unit) {
        for (auto& m : metrics_)
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        metrics_.push_back({name, value, unit});
    }
    const std::vector<Metric>& metrics() const { return metrics_; }

    /// A failed output check: recorded, printed, and it makes the run
    /// incorrect (the command then exits non-zero).
    void fail_check(const std::string& what) { failures_.push_back(what); }
    const std::vector<std::string>& check_failures() const { return failures_; }

    Outcomes outcomes;

    bool correct() const {
        return failures_.empty() && outcomes.wrong == 0 && outcomes.balanced();
    }

    /// The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
    std::string json() const {
        std::string out = "{\"correct\": ";
        out += correct() ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(outcomes.attempted);
        out += ", \"failed\": " + std::to_string(outcomes.failed());
        out += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            if (i) out += ", ";
            out += "\"" + metrics_[i].name + "\": {\"value\": " +
                   number(metrics_[i].value) + ", \"unit\": \"" +
                   metrics_[i].unit + "\"}";
        }
        out += "}}";
        return out;
    }

    /// Full-precision rendering; JSON has no NaN/inf, so those become 0.
    static std::string number(double v) {
        if (!std::isfinite(v)) return "0";
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

private:
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
};

}  // namespace neurobench
