#pragma once
// neuro::serve::ModelRouter — multi-model, multi-tenant serving over one
// admission layer (docs/ARCHITECTURE.md §12).
//
//   submit{model:"a"} ──┐
//   submit{model:"b"} ──┼─► ONE AdmissionQueue ─► worker ─► entry "a" pool
//   submit{model:""}  ──┘    (global CoDel /        │        entry "b" pool
//                             priority / deadline)  └──────► default pool
//
// One router fronts a *fleet* of named model entries behind the single
// AdmissionQueue the engine already had, so priority classes, CoDel head
// drops, and SLO deadlines stay global properties of the service while
// dispatch routes each admitted request to its model's per-worker Session
// pool. Entry lifecycle:
//
//   * Lazy load — the first request (or an explicit `load`) addressed to a
//     name materializes it from an online::ModelRegistry directory at
//     RouterOptions::fleet_dir/<name>: the last good version's snapshot is
//     compiled onto the default model's topology (the fleet shares one
//     network shape; per-tenant entries differ in weights, which is the
//     paper's per-task EMSTDP deployment story).
//   * LRU eviction — resident plastic-weight bytes are accounted per arm;
//     when they exceed RouterOptions::resident_budget_bytes the
//     least-recently-dispatched entry is dropped. Pinned entries and
//     entries with requests in flight are NEVER evicted (the budget is a
//     soft ceiling), and eviction only frees memory: a queued request for
//     an evicted entry simply reloads it at dispatch — an accepted request
//     is never dropped by eviction.
//   * Pin / unload — `pin(name, ver)` publishes registry version `ver` as
//     the entry's base weights (the pool adopts it at batch boundaries via
//     the PR 5 COW channel) and makes the entry eviction-immune; `unload`
//     drops residency and the pin. The default entry ("") is permanently
//     pinned.
//   * Canary — `set_canary(name, ver, pct)` loads version `ver` as a
//     second session pool and routes a deterministic hash(request_id)-based
//     pct% of the entry's traffic to it, with per-arm dispatch/ok/error
//     counters. Promotion is `pin(name, ver)` + clearing the canary;
//     rollback is just clearing it — candidate weights never touch the
//     base arm, composing with the online engine's shadow-eval gate.
//
// Threading: one mutex guards the entry table, LRU state, and byte
// accounting. Workers take it only to resolve an entry and bump its
// inflight count; inference runs outside the lock, and the inflight count
// is what makes that safe against eviction (an entry's sessions are only
// dropped at inflight == 0, under the same mutex). Lazy loads compile
// under the lock — rare, bounded, and it keeps every load/evict/dispatch
// interleaving trivially race-free (tests/router_test.cpp hammers this
// under TSan).
//
// This is the one serving API. Without RouterOptions::fleet_dir it is a
// fleet of one — the single-model engine — and admission, micro-batching,
// refresh-at-batch-boundary, stats, and the accepted-implies-completed
// guarantee behave identically whether or not a fleet is configured.
// Contracts (tests/serve_test.cpp, tests/router_test.cpp):
//
//   * Workers own one Session each per resident arm (Sessions are not
//     thread-safe, models are; docs/ARCHITECTURE.md §5).
//   * Every ACCEPTED request resolves: dispatched requests complete
//     Ok/Error, head-dropped requests complete Rejected{Overload|
//     DeadlineExceeded}; shutdown() closes the intake, drains the queue,
//     and joins the workers.
//   * Backpressure acts at the intake: Block parks the submitter until
//     space frees; Shed returns an already-completed Rejected{QueueFull}.
//   * Determinism: results are bit-identical to sequential Session calls
//     no matter the batch size, worker count, or arrival order.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/tensor.hpp"
#include "obs/flight_recorder.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"
#include "serve/feedback.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"

namespace neuro::serve {

enum class Backpressure { Block, Shed };

struct RouterOptions {
    std::size_t workers = 2;         ///< worker threads == sessions per pool
    std::size_t queue_capacity = 64; ///< bounded intake; the backpressure knob
    BatchPolicy batch;               ///< micro-batch coalescing policy
    Backpressure backpressure = Backpressure::Block;
    /// Head-of-queue admission control — global across the whole fleet.
    AdmissionConfig admission;
    /// Time source for admission decisions and latency accounting; null
    /// (default) uses the shared monotonic SteadyClock.
    std::shared_ptr<Clock> clock;
    /// Root directory holding one online::ModelRegistry subdirectory per
    /// model name — the lazy-load source. "" disables fleet loading (the
    /// router then serves only its default model: a fleet of one).
    std::string fleet_dir;
    /// Registry directory for the DEFAULT entry's pin/canary weights
    /// (typically the same registry the online engine records into). ""
    /// means the default entry cannot canary.
    std::string default_registry_dir;
    /// Resident plastic-weight budget in bytes, summed over every loaded
    /// arm fleet-wide (the always-pinned default entry counts too). 0 =
    /// unlimited. Soft ceiling: pinned/inflight entries are never evicted.
    std::size_t resident_budget_bytes = 0;
    /// Flight recorder for control-plane events (admission drops, LRU
    /// evictions, model loads, canary changes, slow requests —
    /// docs/ARCHITECTURE.md §14). Non-owning; must outlive the router.
    /// Null disables recording. neurod wires obs::default_recorder().
    obs::FlightRecorder* recorder = nullptr;
    /// Slow-request log threshold: a dispatched request whose wall latency
    /// exceeds this many microseconds is recorded as a SlowRequest event
    /// with its full span breakdown (phase stamps are taken for every
    /// request while this is nonzero, traced or not). 0 disables.
    std::uint64_t slow_request_us = 0;
};

/// Point-in-time view of one fleet entry (the control plane's `models` /
/// per-model `stats` JSON). Plain data, safe to copy around.
struct ModelEntryStats {
    std::string name;                  ///< "" = the default entry
    bool resident = false;             ///< sessions are loaded right now
    bool pinned = false;               ///< eviction-immune
    std::uint64_t base_version = 0;    ///< registry version of the base arm
                                       ///< (0 = the compiled-in weights)
    std::uint64_t canary_version = 0;  ///< 0 = no canary arm
    std::uint32_t canary_pct = 0;      ///< % of traffic on the canary arm
    std::uint64_t base_dispatched = 0; ///< requests run on the base arm
    std::uint64_t base_ok = 0;
    std::uint64_t base_errors = 0;
    std::uint64_t canary_dispatched = 0;
    std::uint64_t canary_ok = 0;
    std::uint64_t canary_errors = 0;
    std::uint64_t loads = 0;           ///< times this entry became resident
    std::uint64_t evictions = 0;       ///< times the LRU evictor dropped it
    std::size_t weight_bytes = 0;      ///< resident bytes (both arms)
    std::uint64_t last_used = 0;       ///< LRU sequence (higher = hotter)
    std::uint64_t inflight = 0;        ///< requests executing right now
    /// Admission drops attributed to this entry (same names as the global
    /// ServerStats schema; the global totals also count requests for the
    /// default entry "", which these per-model rows break out).
    std::uint64_t codel_dropped = 0;
    std::uint64_t deadline_dropped = 0;
    /// Per-model dispatch latency (accept → complete, Ok outcomes only),
    /// from the entry's own log-bucketed histogram.
    std::uint64_t latency_count = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double mean_us = 0.0;
    double max_us = 0.0;
};

class ModelRouter {
public:
    /// Validates options, installs `default_model` as the permanently
    /// pinned entry "" and opens its session pool. Workers do not run
    /// until start(); submissions before start() queue up (or shed once
    /// the queue fills). Throws std::invalid_argument on a null model or
    /// degenerate options.
    ModelRouter(std::shared_ptr<const runtime::CompiledModel> default_model,
                RouterOptions options = {});
    /// Drains and joins (shutdown()).
    ~ModelRouter();

    ModelRouter(const ModelRouter&) = delete;
    ModelRouter& operator=(const ModelRouter&) = delete;

    /// Spawns the worker threads. Idempotent; harmless after shutdown().
    void start();

    /// Graceful shutdown: refuses new submissions, resolves every accepted
    /// request (dispatch or admission drop), then joins the workers.
    /// Idempotent; starts first if never started so queued work drains.
    void shutdown();

    bool running() const { return started_.load() && !joined_.load(); }

    // ---- the model-addressed submit API ------------------------------------
    // One options struct for every verb; opt.model picks the fleet entry.

    /// Async argmax inference, bit-identical to a dedicated Session on the
    /// addressed model. When opt.on_complete is set the request resolves
    /// through the callback instead and the returned handle is invalid.
    InferenceHandle submit(const common::Tensor& image, SubmitOptions opt = {});

    /// Async phase-1 spike counts (Session::output_counts semantics).
    InferenceHandle submit_counts(const common::Tensor& image,
                                  SubmitOptions opt = {});

    /// Push-style submit: requires opt.on_complete (throws
    /// std::invalid_argument otherwise). See CompletionFn for the contract.
    void submit_async(const common::Tensor& image, SubmitOptions opt);
    void submit_counts_async(const common::Tensor& image, SubmitOptions opt);

    /// Hands a labeled observation to the Feedback class, tagged with
    /// opt.model. Best-effort: returns false — dropping the sample — when
    /// feedback is disabled, the queue is full, the label is out of range,
    /// the model name is unknown, or the router is shutting down.
    bool submit_feedback(const common::Tensor& image, std::size_t label,
                         const SubmitOptions& opt = {});

    /// The feedback stream the online learner drains (null when
    /// admission.feedback_capacity == 0). Closed by shutdown().
    const std::shared_ptr<FeedbackQueue>& feedback_queue() const {
        return feedback_;
    }

    // ---- fleet control plane (thread-safe; throws on failure) --------------

    /// Makes `name` resident (lazy-load path, forced), returning the base
    /// registry version it serves. Throws when the name is unknown or its
    /// registry is empty/corrupt.
    std::uint64_t load(const std::string& name);

    /// Drops residency, pin, and canary of `name`. Throws for the default
    /// entry, an unknown name, or when in-flight requests keep the entry
    /// busy past a short grace period. Queued requests for the entry are
    /// NOT dropped — they reload it at dispatch.
    void unload(const std::string& name);

    /// Publishes registry version `version` as the entry's base weights
    /// (resident pools adopt at their next batch boundary) and pins the
    /// entry against eviction. version == 0 pins the current weights.
    /// Returns the base version now serving.
    std::uint64_t pin(const std::string& name, std::uint64_t version);

    /// Routes `pct`% (0..100) of the entry's traffic to registry version
    /// `version` on a second session pool. pct == 0 clears the canary.
    /// The split is deterministic in SubmitOptions::request_id.
    void set_canary(const std::string& name, std::uint64_t version,
                    std::uint32_t pct);

    /// Deterministic canary-arm decision: splitmix64(request_id) % 100 <
    /// pct. Exposed so tests and operators can predict the split.
    static bool canary_arm(std::uint64_t request_id, std::uint32_t pct);

    // ---- observability -----------------------------------------------------

    /// Every known entry, default first, then fleet entries by name.
    std::vector<ModelEntryStats> model_stats() const;
    /// One entry's view; throws when `name` was never registered.
    ModelEntryStats model_stats(const std::string& name) const;
    /// Resident plastic-weight bytes across all arms right now.
    std::size_t resident_bytes() const;

    /// Global counters + latency percentiles (the ServerStats schema —
    /// admission is fleet-wide, so these aggregate across models).
    ServerStats stats() const;

    const RouterOptions& options() const { return options_; }
    const std::shared_ptr<Clock>& clock() const { return clock_; }
    const std::shared_ptr<const runtime::CompiledModel>& default_model()
        const {
        return default_model_;
    }

private:
    /// One named fleet member. All fields are guarded by entries_m_ except
    /// the Sessions' *contents*, which a worker may only touch while it
    /// holds a nonzero share of `inflight` (taken under the mutex).
    struct Entry {
        std::string name;
        // Base arm. `model` doubles as the residency flag (null = cold).
        std::shared_ptr<const runtime::CompiledModel> model;
        std::vector<std::unique_ptr<runtime::Session>> sessions;
        // Canary arm: its own compiled model so candidate weights never
        // touch the base pool.
        std::shared_ptr<const runtime::CompiledModel> canary_model;
        std::vector<std::unique_ptr<runtime::Session>> canary_sessions;
        bool pinned = false;
        std::uint64_t base_version = 0;
        std::uint64_t canary_version = 0;
        std::uint32_t canary_pct = 0;
        std::size_t base_bytes = 0;
        std::size_t canary_bytes = 0;
        std::uint64_t lru_seq = 0;
        /// Per-arm so a canary can be torn down under live base traffic:
        /// once canary_pct drops to 0 the canary arm drains on its own.
        std::uint64_t base_inflight = 0;
        std::uint64_t canary_inflight = 0;
        std::uint64_t loads = 0;
        std::uint64_t evictions = 0;
        std::uint64_t base_dispatched = 0, base_ok = 0, base_errors = 0;
        std::uint64_t canary_dispatched = 0, canary_ok = 0,
                      canary_errors = 0;
        /// Head drops attributed to this entry by the reject path.
        std::uint64_t codel_dropped = 0, deadline_dropped = 0;
        /// Per-model accept→complete latency (Ok outcomes; both arms).
        common::LatencyHistogram latency;
        /// Per-worker ordinal of the last batch whose boundary refreshed
        /// the base session — refresh runs once per (entry, worker, batch).
        std::vector<std::uint64_t> refreshed_batch;
    };

    /// What acquire_slot hands a worker: a session it may use lock-free
    /// (inflight was bumped) or an error explaining why dispatch failed.
    struct DispatchSlot {
        Entry* entry = nullptr;
        runtime::Session* session = nullptr;
        bool canary = false;
        bool do_refresh = false;
        std::string error;
    };

    InferenceHandle enqueue(Request::Kind kind, const common::Tensor& image,
                            SubmitOptions opt);
    void enqueue_request(Request req, const SubmitOptions& opt);
    void start_locked();
    void worker_loop(std::size_t worker_index);
    double elapsed_seconds() const;

    /// Looks `name` up, registering a cold entry when fleet_dir has a
    /// registry directory for it. Throws std::invalid_argument for names
    /// the fleet cannot serve. Requires entries_m_.
    Entry& find_or_register_locked(const std::string& name);
    /// Makes `e` resident at `version` (0 = the registry's last good),
    /// restoring a configured canary arm, charging the budget, and running
    /// the evictor. Requires entries_m_.
    void load_locked(Entry& e, std::uint64_t version);
    /// Evicts LRU entries (never pinned / inflight / `keep`) until the
    /// budget holds or nothing is evictable. Requires entries_m_.
    void evict_locked(const Entry* keep);
    /// Frees both arms of `e` (caller guarantees inflight == 0). An LRU
    /// evict keeps the canary configuration so a reload restores the arm;
    /// an explicit unload clears everything. Requires entries_m_.
    void drop_arms_locked(Entry& e, bool keep_canary_config);
    void drop_canary_arm_locked(Entry& e);
    /// The registry directory serving `e` ("" when it has none).
    std::string registry_dir_locked(const Entry& e) const;
    DispatchSlot acquire_slot(const Request& r, std::size_t worker,
                              std::uint64_t batch_ordinal);
    /// `latency_us` < 0 skips the per-model histogram (error outcomes).
    void release_slot(const DispatchSlot& slot, bool ok, double latency_us);
    /// Attributes an admission head drop to its entry's counters and the
    /// flight recorder (called outside the queue lock).
    void on_head_drop(const Dropped<Request>& d);
    ModelEntryStats entry_stats_locked(const Entry& e) const;

    std::mutex lifecycle_m_;  // serializes start()/shutdown()
    std::shared_ptr<const runtime::CompiledModel> default_model_;
    RouterOptions options_;
    std::shared_ptr<Clock> clock_;
    AdmissionQueue<Request> queue_;
    std::shared_ptr<FeedbackQueue> feedback_;
    std::vector<std::thread> workers_;
    ServerMetrics metrics_;

    mutable std::mutex entries_m_;
    /// Ordered so model_stats() lists deterministically; "" sorts first.
    std::map<std::string, std::unique_ptr<Entry>> entries_;
    std::uint64_t lru_clock_ = 0;
    std::size_t resident_bytes_ = 0;

    std::atomic<bool> started_{false};
    std::atomic<bool> closing_{false};
    std::atomic<bool> joined_{false};
    std::chrono::steady_clock::time_point start_time_{};
    std::atomic<double> frozen_elapsed_s_{-1.0};
};

}  // namespace neuro::serve
