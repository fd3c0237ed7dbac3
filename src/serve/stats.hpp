#pragma once
// Serving observability: log-bucketed latency + sojourn histograms plus
// the thread-safe metrics sink workers record into. ModelRouter::stats()
// snapshots the sink — merged with the admission queues' disposition
// counters — into a plain ServerStats struct that benches export through
// bench_util::JsonWriter (see bench/serving_load.cpp for the schema).

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "serve/admission.hpp"

namespace neuro::serve {

/// Point-in-time snapshot of a ModelRouter's counters. Plain data — safe to
/// copy out of the lock and print/serialize at leisure.
///
/// Top-level accepted/rejected/completed count INFERENCE requests only
/// (back-compat with the pre-admission schema). The per-class arrays span
/// the whole admission layer: inference classes on the request queue plus
/// the Feedback class on the feedback queue, indexed by Priority.
struct ServerStats {
    std::uint64_t accepted = 0;   ///< entered the request queue
    std::uint64_t rejected = 0;   ///< refused at intake (shed / shutdown)
    std::uint64_t completed = 0;  ///< resolved Ok
    std::uint64_t errors = 0;     ///< resolved Error (backend threw)
    std::uint64_t batches = 0;    ///< dispatch units executed

    // ---- admission layer (docs/ARCHITECTURE.md §10) ----
    // Drop-counter naming matches AdmissionCounters verbatim — the one
    // schema every surface (this struct, stats_to_json, the per-model
    // entry JSON) uses: codel_dropped / deadline_dropped, class arrays
    // prefixed class_.
    /// Accepted per class, across request + feedback queues.
    std::array<std::uint64_t, kPriorityClasses> class_accepted{};
    /// CoDel head drops per class (accepted, then shed as Overload).
    std::array<std::uint64_t, kPriorityClasses> class_codel_dropped{};
    /// Deadline-expired drops per class (never dispatched).
    std::array<std::uint64_t, kPriorityClasses> class_deadline_dropped{};
    std::uint64_t codel_dropped = 0;     ///< sum of class_codel_dropped
    std::uint64_t deadline_dropped = 0;  ///< sum of class_deadline_dropped
    /// Times the CoDel state machines entered the drop state.
    std::uint64_t drop_state_entries = 0;
    /// Queue-wait (sojourn) percentiles over everything that left a head —
    /// dispatched AND dropped — the signal CoDel regulates.
    double sojourn_p50_us = 0.0;
    double sojourn_p95_us = 0.0;
    double sojourn_p99_us = 0.0;
    double sojourn_max_us = 0.0;

    /// Times a worker session loaded a newly published weight image at a
    /// batch boundary (learning-while-serving; 0 on a frozen model).
    std::uint64_t weight_refreshes = 0;
    /// Labeled feedback samples refused at the intake (queue full,
    /// disabled, or closing — feedback is best-effort by design).
    std::uint64_t feedback_dropped = 0;
    double mean_batch = 0.0;
    std::size_t max_batch = 0;
    std::size_t peak_queue_depth = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double mean_us = 0.0;
    double max_us = 0.0;
    double elapsed_s = 0.0;        ///< since ModelRouter::start()
    double throughput_rps = 0.0;   ///< completed / elapsed_s
};

/// The canonical JSON rendering of a ServerStats snapshot (one flat object,
/// per-class counters as three-element arrays). This is the single schema
/// shared by the neurod control socket's `stats` command and the bench
/// binaries' stats dumps — escaping and number formatting come from
/// common/json.hpp, the same rules bench_util::JsonWriter uses.
std::string stats_to_json(const ServerStats& s);

/// The mutable, mutex-guarded sink behind ModelRouter::stats(). One mutex is
/// plenty: inference dominates each request by orders of magnitude.
/// Per-class accept/drop accounting lives in the AdmissionQueues
/// themselves (AdmissionCounters) — snapshot() merges them in.
class ServerMetrics {
public:
    void on_accept(std::size_t queue_depth_after);
    void on_reject();
    /// An accepted request was shed at the queue head; its sojourn still
    /// feeds the histogram (head drops are the longest waits, hiding them
    /// would flatter the tail).
    void on_admission_drop(double sojourn_us);
    /// One dispatched micro-batch: its size, per-request outcomes, and
    /// per-request queue waits.
    void on_batch(std::size_t batch_size,
                  const std::vector<double>& ok_latencies_us,
                  const std::vector<double>& sojourns_us,
                  std::size_t error_count);
    /// A worker session picked up a newly published weight image.
    void on_weight_refresh();
    /// A feedback sample was shed at the intake (full/disabled/closing).
    void on_feedback_drop();

    /// `queue` / `feedback` are the admission counters of the request and
    /// feedback queues (pass {} when absent); their per-class dispositions
    /// are merged into the class arrays and totals.
    ServerStats snapshot(double elapsed_s, const AdmissionCounters& queue,
                         const AdmissionCounters& feedback) const;

private:
    mutable std::mutex m_;
    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t weight_refreshes_ = 0;
    std::uint64_t feedback_dropped_ = 0;
    std::uint64_t batched_requests_ = 0;
    std::size_t max_batch_ = 0;
    std::size_t peak_queue_depth_ = 0;
    common::LatencyHistogram latency_;
    common::LatencyHistogram sojourn_;
};

}  // namespace neuro::serve
