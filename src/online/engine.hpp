#pragma once
// neuro::online::OnlineEngine — in-hardware-style learning while serving
// (docs/ARCHITECTURE.md §9). The paper's headline capability is EMSTDP
// updates running *on the chip that serves*; this engine is the production
// shape of that: a background learner Session trains on live labeled
// feedback next to an unpaused serve::ModelRouter pool, and hands the pool new
// weights through the runtime's versioned COW publication channel.
//
//   serve::ModelRouter ──feedback───► learner Session (EMSTDP + replay)
//        ▲                                    │ every publish_interval samples
//        │ Session::refresh()                 ▼ candidate snapshot
//        │ at batch boundaries        shadow-eval Session (held-out set)
//        │                                    │
//   published weight image ◄── pass ── gate: acc >= last_good - max_regression
//        (COW, versioned)              │
//        + registry record             └ fail: ROLLBACK — candidate is never
//                                        published; learner reloads the last
//                                        good weights and keeps consuming
//
// Lifecycle and guarantees:
//   * The serving pool is never paused. Publication swaps an immutable
//     weight image; worker sessions adopt it at their next batch boundary
//     and in-flight requests finish on the version they started with.
//   * A candidate that fails the shadow-eval gate is never visible to
//     traffic — rollback is the *default* state of the world (nothing was
//     published), not an emergency procedure.
//   * Every accepted version is persisted to the on-disk registry (when
//     configured) before the engine moves on; a restarted engine
//     republishes the registry's last good version before consuming any
//     feedback, so a crash never serves older weights than it accepted.
//   * Determinism: given the seed and the feedback arrival order, the
//     whole learning trajectory — updates, replay draws, publish points,
//     eval accuracies, rollbacks — is bit-reproducible on the integer
//     chip simulator, independent of serving traffic and thread timing.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "data/dataset.hpp"
#include "online/options.hpp"
#include "online/registry.hpp"
#include "online/replay_pool.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/feedback.hpp"

namespace neuro::online {

/// Point-in-time counters; plain data, safe to copy around.
struct OnlineStats {
    std::uint64_t feedback_seen = 0;   ///< samples drained from the queue
    std::uint64_t trained = 0;         ///< training steps incl. replay
    std::uint64_t candidates = 0;      ///< shadow evals run
    std::uint64_t published = 0;       ///< candidates that passed the gate
    std::uint64_t rollbacks = 0;       ///< candidates rejected at the gate
    /// Samples (or candidate evaluations) skipped because the backend or
    /// registry threw — the learner survives and keeps consuming.
    std::uint64_t errors = 0;
    std::uint64_t current_version = 0; ///< latest published channel version
    /// Prequential accuracy of the feedback stream: fraction of feedback
    /// samples the learner predicted correctly *before* updating on them —
    /// the online-learning quality signal that needs no held-out set.
    std::uint64_t prequential_hits = 0;
    double baseline_accuracy = 0.0;    ///< held-out accuracy at start()
    double last_eval_accuracy = 0.0;   ///< most recent candidate's accuracy
    double last_good_accuracy = 0.0;   ///< accuracy of what is serving now
};

class OnlineEngine {
public:
    /// `model` is the same CompiledModel the serve::ModelRouter pool runs
    /// on — publication reaches the pool through the model's weight
    /// channel. `feedback` is typically ModelRouter::feedback_queue().
    /// `holdout` is the shadow-eval set (never trained on). Throws
    /// std::invalid_argument on a null model/queue or an empty holdout.
    OnlineEngine(std::shared_ptr<const runtime::CompiledModel> model,
                 std::shared_ptr<serve::FeedbackQueue> feedback,
                 data::Dataset holdout, OnlineOptions opt = {});
    /// stop()s if still running.
    ~OnlineEngine();

    OnlineEngine(const OnlineEngine&) = delete;
    OnlineEngine& operator=(const OnlineEngine&) = delete;

    /// Opens the learner and shadow-eval sessions, republishes the
    /// registry's last good version when the model has nothing published
    /// yet (restart path), measures the baseline accuracy, and spawns the
    /// learner thread. Idempotent.
    void start();

    /// Graceful shutdown: closes the feedback queue (ending intake),
    /// drains what was already accepted, and joins the learner. Idempotent;
    /// also triggered by ModelRouter::shutdown() closing the shared queue, in
    /// which case stop() just joins.
    void stop();

    bool running() const;

    OnlineStats stats() const;
    const OnlineOptions& options() const { return opt_; }
    /// Null when OnlineOptions::registry_dir is empty.
    const ModelRegistry* registry() const { return registry_.get(); }

private:
    void learner_loop();
    void evaluate_candidate();

    std::shared_ptr<const runtime::CompiledModel> model_;
    std::shared_ptr<serve::FeedbackQueue> feedback_;
    data::Dataset holdout_;
    OnlineOptions opt_;

    std::unique_ptr<ModelRegistry> registry_;
    std::unique_ptr<runtime::Session> learner_;
    std::unique_ptr<runtime::Session> eval_;
    std::unique_ptr<ReplayPool> replay_;
    std::thread thread_;
    bool started_ = false;
    bool joined_ = false;

    // Learner-thread state (no lock needed: single writer, read only there).
    runtime::WeightSnapshot last_good_;
    double last_good_acc_ = 0.0;
    /// Registry ids are acceptance-order ordinals that keep counting across
    /// restarts; channel version ids restart with the process. Both appear
    /// in stats/registry so operators can correlate them.
    std::uint64_t registry_next_ = 0;
    std::size_t since_candidate_ = 0;

    mutable std::mutex stats_m_;
    OnlineStats stats_;
};

}  // namespace neuro::online
