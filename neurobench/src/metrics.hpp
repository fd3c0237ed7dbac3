#pragma once
// The metric catalogue. Every run prints every end-to-end metric (trace 0)
// or every per-layer metric (trace 1), on every workload; a per-layer
// metric of a layer the workload does not run reads 0 (no work). The
// names and units here must match BENCHMARK.json — run.py checks that.

#include <array>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace neurobench {

struct MetricDef {
    const char* name;
    const char* unit;
};

inline constexpr std::array<MetricDef, 3> kEndToEnd{{
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
}};

inline constexpr std::array<MetricDef, 56> kPerLayer{{
    {"setup.prepare_s", "s"},
    {"runtime.compile_ms", "ms"},
    {"runtime.open_session_ms", "ms"},
    {"loihi.sweep_ms_per_sample", "ms"},
    {"loihi.accum_ms_per_sample", "ms"},
    {"loihi.ns_per_update", "ns"},
    {"loihi.ns_per_synop", "ns"},
    {"loihi.steps_per_sample", "count"},
    {"loihi.updates_per_sample", "count"},
    {"loihi.synops_per_sample", "count"},
    {"loihi.spikes_per_sample", "count"},
    {"loihi.learn_visits_per_sample", "count"},
    {"loihi.host_io_per_sample", "count"},
    {"loihi.sim_fps", "1/s"},
    {"loihi.sim_power_w", "W"},
    {"loihi.sim_energy_uj_per_sample", "uJ"},
    {"core.phase1_ms", "ms"},
    {"core.other_ms_per_sample", "ms"},
    {"core.accuracy", "fraction"},
    {"core.train_ms_p50", "ms"},
    {"core.train_ms_p95", "ms"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.peak_queue_depth", "count"},
    {"serve.batch_us_p50", "us"},
    {"serve.resolve_us_p50", "us"},
    {"serve.mean_batch", "count"},
    {"serve.compute_us_p50", "us"},
    {"serve.compute_us_p99", "us"},
    {"serve.shed", "count"},
    {"serve.codel_dropped", "count"},
    {"serve.deadline_dropped", "count"},
    {"serve.weight_refreshes", "count"},
    {"netd.encode_us", "us"},
    {"netd.decode_us", "us"},
    {"netd.wire_us_p50", "us"},
    {"netd.wire_us_p99", "us"},
    {"netd.bytes_per_request", "bytes"},
    {"netd.backpressure_pauses", "count"},
    {"online.trained", "count"},
    {"online.candidates", "count"},
    {"online.published", "count"},
    {"online.rollbacks", "count"},
    {"online.feedback_dropped", "count"},
    {"online.prequential_accuracy", "fraction"},
    {"online.holdout_accuracy", "fraction"},
    {"obs.trace_tax", "ratio"},
    {"obs.span_cover", "ratio"},
    {"loadgen.late_us_p99", "us"},
    {"loadgen.light_latency_p50_us", "us"},
    {"loadgen.light_latency_p99_us", "us"},
    {"loadgen.busy_latency_p50_us", "us"},
    {"loadgen.busy_latency_p99_us", "us"},
    {"loadgen.failed_frac", "fraction"},
    {"loadgen.max_rps_at_slo", "1/s"},
    {"loadgen.requests", "count"},
}};

/// Unit of a catalogued metric ("" when unknown).
inline const char* unit_of(std::string_view name) {
    for (const auto& m : kEndToEnd)
        if (name == m.name) return m.unit;
    for (const auto& m : kPerLayer)
        if (name == m.name) return m.unit;
    return "";
}

/// Records a catalogued metric under its catalogue unit.
inline void put(Report& r, const std::string& name, double value) {
    r.set(name, value, unit_of(name));
}

}  // namespace neurobench
