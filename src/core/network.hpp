#pragma once
// EMSTDP network on the chip (paper Sec. III, Fig. 1b).
//
// Layout built by this class:
//
//   input (bias-driven IF)                                [pixels]
//     -> conv1 -> conv2 (frozen, pretrained, quantized)   [optional]
//       -> dense hidden ... -> output                     [plastic]
//
//   label (bias-driven, phase 2 only)
//   out_err+/- : two-channel output error neurons
//   FA:  hid_err+/- per hidden layer (soma+aux, AND-gated by forward
//        activity), chained with fixed random weights per eq. (10)
//   DFA: out_err broadcast to hidden somata's aux compartments through
//        fixed random weights; GatedAdd join implements the h' gate
//
// Per training sample (Operation Flow 1): program input & label biases,
// run phase 1 (T steps), reset membranes, run phase 2 (T steps), apply the
// sum-of-products learning rule, reset network state.
//
// Substrate: the network is built on one loihi::Chip. split() re-homes a
// replica onto a loihi::ShardedChip — N chips stepping in lockstep with
// inter-chip spike routing (loihi/router.hpp) — and the protocol above runs
// unchanged against whichever substrate the network holds; one chip is the
// one-shard case, where no router exists at all. The forward pass stays
// bit-identical across shard counts (spiking consumes no RNG in the default
// configuration) and training is deterministic for any shard and thread
// count, with per-shard / per-cut-projection stochastic-rounding streams
// replacing the single chip-wide stream.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/tensor.hpp"
#include "core/options.hpp"
#include "loihi/chip.hpp"
#include "loihi/energy.hpp"
#include "loihi/router.hpp"
#include "loihi/shard.hpp"
#include "snn/convert.hpp"

namespace neuro::core {

/// Structural cost summary (ablation C / Fig. 3 inputs).
struct StructuralCosts {
    std::size_t compartments = 0;
    std::size_t synapses = 0;
    std::size_t cores = 0;
    std::size_t feedback_synapses = 0;   ///< error-path synapses only
    std::size_t feedback_compartments = 0;
};

class EmstdpNetwork {
public:
    /// Builds the network. `conv` may be null: the dense stack then trains
    /// directly on the (flattened) input — used by unit tests and toy tasks.
    /// `hidden` holds the dense hidden sizes (the paper uses {100}).
    EmstdpNetwork(const EmstdpOptions& opt, std::size_t in_c, std::size_t in_h,
                  std::size_t in_w, const snn::ConvertedStack* conv,
                  std::vector<std::size_t> hidden, std::size_t classes);

    /// One online training step (phase 1 + phase 2 + weight update).
    void train_sample(const common::Tensor& image, std::size_t label);

    /// Phase-1 inference; argmax of output counts, membrane breaks ties.
    std::size_t predict(const common::Tensor& image);

    /// Phase-1 output spike counts.
    std::vector<std::int32_t> output_counts(const common::Tensor& image);

    // ---- incremental online learning hooks (paper Sec. IV-B) --------------
    /// Classes with mask=false are disabled: their label neurons stay silent
    /// and their output neurons are clamped off, which freezes their weight
    /// rows (the update needs postsynaptic activity).
    void set_class_mask(const std::vector<bool>& mask);
    /// Adds `offset` to the learning shift (halving eta per unit) — the
    /// reduced learning rate of IOL step 1. Negative offsets are rejected.
    void set_learning_shift_offset(int offset);

    // ---- replication & weight sync (parallel trainer support) --------------
    /// Explicit replication: the replica behaves exactly like an independent
    /// deep copy (device faults, class masks, RNG streams and all dynamic
    /// state are captured as of this call), but the finalized chip structure
    /// is shared and the synaptic weight image is shared copy-on-write, so a
    /// replica costs only its dynamic state until it first trains. This is
    /// how ParallelTrainer and runtime::Session build per-thread instances.
    /// Implicit copying is deliberately inaccessible — a silent full-network
    /// copy can't happen by accident. A mesh replica shares each shard
    /// chip's structure and weight image the same way.
    EmstdpNetwork replicate() const { return EmstdpNetwork(*this); }

    /// A replica split across the chips of `plan` (see plan_network_shards;
    /// it must cover this network's populations). Captures the current
    /// weights, biases, device state, live learning rules and class mask
    /// (recovered from the output-neuron clamps); the stochastic-rounding
    /// streams are re-seeded from the options seed exactly as the
    /// constructor seeds them, so a split of a fresh network consumes the
    /// same streams. A one-shard plan yields a replica on one Chip.
    /// `step_threads` bounds the concurrent-shard worker pool (0 = one
    /// thread per shard; the count is never observable in results). Throws
    /// std::invalid_argument for InputMode::SpikeInsertion (host spike
    /// insertion is not routed across chips) and std::logic_error on a
    /// network that already spans several chips.
    EmstdpNetwork split(loihi::ShardPlan plan, std::size_t step_threads = 0) const;

    EmstdpNetwork(EmstdpNetwork&&) = default;
    EmstdpNetwork& operator=(EmstdpNetwork&&) = default;
    EmstdpNetwork& operator=(const EmstdpNetwork&) = delete;

    /// Current weights of every plastic projection, in plastic_projections()
    /// order (frozen conv weights are excluded — they never change).
    std::vector<std::vector<std::int32_t>> plastic_weights() const;

    /// Reprograms every plastic projection (sizes must match
    /// plastic_weights(); values must fit the weight precision). Works on a
    /// finalized chip — the host-side equivalent of rewriting synaptic
    /// memory — and leaves stuck-at faulted cells untouched.
    void set_plastic_weights(const std::vector<std::vector<std::int32_t>>& w);

    /// Reseeds the stochastic-rounding streams (per shard on a mesh).
    void seed_learning_noise(std::uint64_t seed);

    // ---- deployment (one chip only; std::logic_error on a mesh) -------------
    /// Checkpoints every synaptic weight (trained dense + frozen conv) to a
    /// file; load() restores it into an identically-built network. This is
    /// the host-side equivalent of reading back / reprogramming the chip's
    /// synaptic memory.
    void save(const std::string& path) const;
    void load(const std::string& path);

    // ---- probing ------------------------------------------------------------
    std::size_t num_shards() const;
    /// The chip of a one-chip network; std::logic_error on a mesh.
    loihi::Chip& chip();
    const loihi::Chip& chip() const;
    /// The chips of a mesh (two or more); std::logic_error on one chip.
    loihi::ShardedChip& chips();
    const loihi::ShardedChip& chips() const;
    /// Activity totals, system-wide on a mesh (see ShardedChip::activity).
    loihi::ActivityTotals activity() const;
    void reset_activity();
    /// Kernel phase-timer sinks, summed over shards on a mesh.
    loihi::KernelPhaseTimes kernel_phase_times() const;
    /// One chip only; std::logic_error on a mesh.
    StructuralCosts costs() const;
    const EmstdpOptions& options() const { return opt_; }

    loihi::PopulationId input_pop() const { return input_; }
    /// The population feeding the first plastic layer (conv2 or input).
    loihi::PopulationId feature_pop() const { return feature_; }
    const std::vector<loihi::PopulationId>& hidden_pops() const { return hidden_pops_; }
    loihi::PopulationId output_pop() const { return output_; }
    /// The label population (nullopt for inference-only builds).
    std::optional<loihi::PopulationId> label_pop() const { return label_; }
    const std::vector<loihi::ProjectionId>& plastic_projections() const {
        return plastic_;
    }

private:
    /// Reachable only through replicate() and split().
    EmstdpNetwork(const EmstdpNetwork&) = default;

    /// Runs `f` on the substrate: the Chip, or the ShardedChip of a mesh.
    /// Both expose the same Chip-shaped methods under logical (prototype)
    /// ids, so the protocol is written once as a generic lambda.
    template <typename F>
    decltype(auto) visit(F&& f) {
        return std::visit(std::forward<F>(f), substrate_);
    }
    template <typename F>
    decltype(auto) visit(F&& f) const {
        return std::visit(std::forward<F>(f), substrate_);
    }

    EmstdpOptions opt_;
    std::variant<loihi::Chip, loihi::ShardedChip> substrate_;

    std::size_t classes_;
    std::size_t input_size_;
    std::int32_t label_bias_value_;

    loihi::PopulationId input_ = 0;
    std::optional<loihi::PopulationId> conv1_, conv2_;
    loihi::PopulationId feature_ = 0;
    std::vector<loihi::PopulationId> hidden_pops_;
    loihi::PopulationId output_ = 0;
    std::optional<loihi::PopulationId> label_;
    std::optional<loihi::PopulationId> out_err_pos_, out_err_neg_;
    std::vector<loihi::PopulationId> hid_err_pos_, hid_err_neg_;  // FA only

    std::vector<loihi::ProjectionId> plastic_;
    std::vector<loihi::ProjectionId> feedback_projections_;

    std::vector<bool> class_mask_;
    int shift_offset_ = 0;

    /// Spike-insertion rasters for the current sample (SpikeInsertion mode).
    std::vector<std::vector<bool>> rasters_;

    template <typename Substrate>
    void program_input(Substrate& chip, const common::Tensor& image);
    template <typename Substrate>
    void run_phase(Substrate& chip, loihi::Phase phase);
};

/// Derives the shard-planner inputs (per-population core demand, pairwise
/// synapse affinity) from a finalized chip's mapping and topology.
/// `num_shards` 0 plans automatically (the minimum chips that fit; 1 when
/// the model fits one chip). Throws std::invalid_argument when a single
/// population exceeds one chip's core budget.
loihi::ShardPlan plan_network_shards(const loihi::Chip& chip,
                                     std::size_t num_shards);

}  // namespace neuro::core
