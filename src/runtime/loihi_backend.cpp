#include "runtime/loihi_backend.hpp"

#include <stdexcept>

#include "core/network.hpp"

namespace neuro::runtime {

namespace {

class LoihiSession final : public Session {
public:
    explicit LoihiSession(core::EmstdpNetwork net) : net_(std::move(net)) {}

    BackendKind backend() const override { return BackendKind::LoihiSim; }

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
        phases_ = net_.kernel_phase_times();
        return &phases_;
    }
    core::EmstdpNetwork* native_network() override {
        return net_.num_shards() == 1 ? &net_ : nullptr;
    }
    core::EmstdpNetwork* native_sharded_network() override {
        return net_.num_shards() > 1 ? &net_ : nullptr;
    }

private:
    core::EmstdpNetwork net_;
    /// Snapshots behind activity() and kernel_phases(), which hand out
    /// stable pointers while a mesh sums its shard counters on read.
    mutable loihi::ActivityTotals activity_{};
    mutable loihi::KernelPhaseTimes phases_{};
};

/// Immutable artifact: a fully-built, finalized prototype network on its
/// substrate (one chip or a mesh). Sessions replicate it — which shares the
/// chip structure and weight image — so the expensive construction happens
/// exactly once, at compile().
class LoihiCompiledModel final : public CompiledModel {
public:
    LoihiCompiledModel(ModelSpec spec, core::EmstdpNetwork proto)
        : CompiledModel(std::move(spec)), proto_(std::move(proto)) {}

    BackendKind backend() const override { return BackendKind::LoihiSim; }

    std::unique_ptr<Session> do_open_session() const override {
        return std::make_unique<LoihiSession>(proto_.replicate());
    }

    std::shared_ptr<const CompiledModel> with_weights(
        const WeightSnapshot& snap) const override {
        auto net = proto_.replicate();
        net.set_plastic_weights(snap.layers);
        return std::make_shared<LoihiCompiledModel>(spec_, std::move(net));
    }

    WeightSnapshot initial_weights() const override {
        return {proto_.plastic_weights()};
    }

private:
    core::EmstdpNetwork proto_;
};

}  // namespace

std::shared_ptr<const CompiledModel> LoihiSimBackend::compile(
    const ModelSpec& spec) const {
    spec.validate();
    core::EmstdpNetwork proto(spec.options, spec.in_c, spec.in_h, spec.in_w,
                              spec.conv.get(), spec.hidden, spec.classes);
    // shards >= 2 splits into exactly that many chips (or throws). shards
    // == 0 spills a model whose mapping exceeds one chip's core budget onto
    // the minimum chips that fit — same Session API, several chips
    // underneath — provided every population fits a chip (otherwise keep
    // the historical permissive single-chip simulation). shards == 1 pins
    // the single-chip path even over budget.
    if (spec.shards >= 2) {
        proto = proto.split(core::plan_network_shards(proto.chip(), spec.shards));
    } else if (spec.shards == 0 && !proto.chip().mapping().feasible) {
        try {
            proto = proto.split(core::plan_network_shards(proto.chip(), 0));
        } catch (const std::invalid_argument&) {
            // e.g. one population alone exceeds the chip: not shardable.
        }
    }
    return std::make_shared<LoihiCompiledModel>(spec, std::move(proto));
}

std::shared_ptr<const CompiledModel> adopt(const core::EmstdpNetwork& net) {
    ModelSpec spec;
    spec.options = net.options();
    const auto& chip = net.chip();
    spec.input(1, 1, chip.population_size(net.input_pop()));
    std::vector<std::size_t> hidden;
    hidden.reserve(net.hidden_pops().size());
    for (auto p : net.hidden_pops()) hidden.push_back(chip.population_size(p));
    spec.hidden_layers(std::move(hidden));
    spec.output_classes(chip.population_size(net.output_pop()));
    return std::make_shared<LoihiCompiledModel>(std::move(spec), net.replicate());
}

}  // namespace neuro::runtime
