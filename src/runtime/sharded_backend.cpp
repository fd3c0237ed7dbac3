#include "runtime/sharded_backend.hpp"

#include "core/sharded_network.hpp"
#include "runtime/loihi_backend.hpp"

namespace neuro::runtime {

namespace {

class ShardedSession final : public Session {
public:
    explicit ShardedSession(core::ShardedEmstdpNetwork net)
        : net_(std::move(net)) {}

    BackendKind backend() const override {
        return BackendKind::ShardedLoihiSim;
    }

    void train(const common::Tensor& image, std::size_t label) override {
        net_.train_sample(image, label);
    }
    std::size_t predict(const common::Tensor& image) override {
        return net_.predict(image);
    }
    std::vector<std::int32_t> output_counts(const common::Tensor& image) override {
        return net_.output_counts(image);
    }

    WeightSnapshot weights() const override { return {net_.plastic_weights()}; }
    void load_weights(const WeightSnapshot& snap) override {
        net_.set_plastic_weights(snap.layers);
    }

    void set_class_mask(const std::vector<bool>& mask) override {
        net_.set_class_mask(mask);
    }
    void set_learning_shift_offset(int offset) override {
        net_.set_learning_shift_offset(offset);
    }
    void seed_noise(std::uint64_t seed) override {
        net_.seed_learning_noise(seed);
    }

    const loihi::ActivityTotals* activity() const override {
        activity_ = net_.activity();
        return &activity_;
    }
    const loihi::KernelPhaseTimes* kernel_phases() const override {
        phases_ = {};
        const auto& chips = net_.chips();
        for (std::size_t i = 0; i < chips.num_shards(); ++i) {
            phases_.sweep_ns += chips.shard(i).kernel_phase_times().sweep_ns;
            phases_.accum_ns += chips.shard(i).kernel_phase_times().accum_ns;
        }
        return &phases_;
    }
    core::ShardedEmstdpNetwork* native_sharded_network() override {
        return &net_;
    }

private:
    core::ShardedEmstdpNetwork net_;
    /// Aggregated-on-read snapshots (activity() and kernel_phases() must
    /// hand out stable pointers; the per-shard counters live in the shard
    /// chips).
    mutable loihi::ActivityTotals activity_{};
    mutable loihi::KernelPhaseTimes phases_{};
};

/// Immutable artifact: a fully-built sharded prototype. Sessions replicate
/// it — shard chips share structure and copy-on-write weight images.
class ShardedCompiledModel final : public CompiledModel {
public:
    ShardedCompiledModel(ModelSpec spec, core::ShardedEmstdpNetwork proto)
        : CompiledModel(std::move(spec)), proto_(std::move(proto)) {}

    BackendKind backend() const override {
        return BackendKind::ShardedLoihiSim;
    }

    std::unique_ptr<Session> do_open_session() const override {
        return std::make_unique<ShardedSession>(proto_.replicate());
    }

    std::shared_ptr<const CompiledModel> with_weights(
        const WeightSnapshot& snap) const override {
        auto net = proto_.replicate();
        net.set_plastic_weights(snap.layers);
        return std::make_shared<ShardedCompiledModel>(spec_, std::move(net));
    }

    WeightSnapshot initial_weights() const override {
        return {proto_.plastic_weights()};
    }

private:
    core::ShardedEmstdpNetwork proto_;
};

/// The 1-shard degenerate: today's single-chip compiled model, wrapped so
/// the model still reports the backend it was compiled on. Sessions are
/// plain LoihiSim sessions — bit-identical to BackendKind::LoihiSim.
class DegenerateShardedModel final : public CompiledModel {
public:
    DegenerateShardedModel(ModelSpec spec,
                           std::shared_ptr<const CompiledModel> inner)
        : CompiledModel(std::move(spec)), inner_(std::move(inner)) {}

    BackendKind backend() const override {
        return BackendKind::ShardedLoihiSim;
    }
    std::unique_ptr<Session> do_open_session() const override {
        return inner_->open_session();
    }
    std::shared_ptr<const CompiledModel> with_weights(
        const WeightSnapshot& snap) const override {
        return std::make_shared<DegenerateShardedModel>(
            spec_, inner_->with_weights(snap));
    }
    WeightSnapshot initial_weights() const override {
        return inner_->initial_weights();
    }

private:
    std::shared_ptr<const CompiledModel> inner_;
};

}  // namespace

std::shared_ptr<const CompiledModel> make_sharded_model(
    const ModelSpec& spec, const core::EmstdpNetwork& proto,
    std::size_t num_shards) {
    // Throws when the network cannot shard at all (population > one chip).
    auto plan = core::plan_network_shards(proto.chip(), num_shards);
    if (plan.single())
        return std::make_shared<DegenerateShardedModel>(
            spec, make_single_chip_model(spec, proto.replicate()));
    return std::make_shared<ShardedCompiledModel>(
        spec, core::ShardedEmstdpNetwork(proto, std::move(plan)));
}

std::shared_ptr<const CompiledModel> ShardedLoihiBackend::compile(
    const ModelSpec& spec) const {
    spec.validate();
    core::EmstdpNetwork proto(spec.options, spec.in_c, spec.in_h, spec.in_w,
                              spec.conv.get(), spec.hidden, spec.classes);
    return make_sharded_model(spec, proto, spec.shards);
}

}  // namespace neuro::runtime
