#pragma once
// CompiledModel: the immutable, shareable artifact between a ModelSpec and
// its Sessions. Compiling does all the expensive, once-per-topology work —
// building the network, core mapping, fan-out tables, weight initialization
// — and freezes the result. Threads then open cheap per-thread Sessions
// against the one shared model; the compiled structure never mutates, so no
// synchronization is needed around it.
//
// The one sanctioned mutable slot is the *published weight image*
// (publish_weights / Session::refresh): a thread-safe, versioned,
// atomically-swappable COW channel that lets a background learner hand new
// weights to a live serving pool without pausing it (learning-while-
// serving, docs/ARCHITECTURE.md §9). Models that never publish behave
// exactly as before — refresh() is a version check that always says no.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/model_spec.hpp"
#include "runtime/session.hpp"
#include "runtime/weight_channel.hpp"
#include "runtime/weights.hpp"

namespace neuro::runtime {

class CompiledModel {
public:
    virtual ~CompiledModel() = default;

    CompiledModel(const CompiledModel&) = delete;
    CompiledModel& operator=(const CompiledModel&) = delete;

    /// Validates `spec` and compiles it on the chosen backend. The returned
    /// model is immutable; hold it by shared_ptr and share it freely.
    static std::shared_ptr<const CompiledModel> compile(
        const ModelSpec& spec, BackendKind kind = BackendKind::LoihiSim);

    const ModelSpec& spec() const { return spec_; }
    virtual BackendKind backend() const = 0;

    /// Opens a fresh Session holding only dynamic state. Every session
    /// starts from this model's (frozen) initial weights and RNG state, so
    /// two sessions opened at any time behave identically; a session joins
    /// the published-weights stream only when it calls refresh().
    std::unique_ptr<Session> open_session() const {
        auto session = do_open_session();
        session->attach_weight_channel(channel_);
        return session;
    }

    /// Session-pool hook: opens `n` independent sessions in one call — the
    /// worker-pool pattern (serve::ModelRouter, ParallelTrainer) without N
    /// open loops at every call site. Sessions are mutually independent.
    std::vector<std::unique_ptr<Session>> open_sessions(std::size_t n) const {
        std::vector<std::unique_ptr<Session>> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i) out.push_back(open_session());
        return out;
    }

    /// A new model identical to this one but starting from `snap` — the
    /// deploy path: train somewhere, snapshot, compile-with-weights, then
    /// open read-only inference sessions everywhere. This model is unchanged.
    virtual std::shared_ptr<const CompiledModel> with_weights(
        const WeightSnapshot& snap) const = 0;

    /// The frozen initial plastic weights sessions start from.
    virtual WeightSnapshot initial_weights() const = 0;

    // ---- versioned weight publication (learning-while-serving, §9) ---------
    /// Publishes `snap` as the model's next weight version and returns its
    /// id (monotonic, starting at 1). Thread-safe; const because the channel
    /// — not the compiled structure — is what mutates. Sessions pick the new
    /// image up at their next refresh(); in-flight work is untouched.
    std::uint64_t publish_weights(WeightSnapshot snap) const {
        return channel_->publish(std::move(snap));
    }

    /// Id of the latest published version; 0 when nothing was published.
    std::uint64_t published_version() const { return channel_->version(); }

    /// The latest published image (the version-0 sentinel with an empty
    /// snapshot when nothing was published). Never null.
    std::shared_ptr<const WeightVersion> published_weights() const {
        return channel_->current();
    }

protected:
    explicit CompiledModel(ModelSpec spec) : spec_(std::move(spec)) {}

    /// Backend hook behind open_session(); the base wires the session to
    /// this model's weight channel after the backend builds it.
    virtual std::unique_ptr<Session> do_open_session() const = 0;

    ModelSpec spec_;

private:
    std::shared_ptr<WeightChannel> channel_ = std::make_shared<WeightChannel>();
};

}  // namespace neuro::runtime
