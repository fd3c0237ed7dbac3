#include "core/network.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "data/encode.hpp"
#include "snn/topology.hpp"

namespace neuro::core {

using loihi::CompartmentConfig;
using loihi::JoinOp;
using loihi::Phase;
using loihi::PopulationConfig;
using loihi::Port;
using loihi::ProjectionConfig;
using loihi::Synapse;
using loihi::TraceConfig;
using loihi::TraceWindow;

int EmstdpOptions::learning_shift() const {
    const double t2 = static_cast<double>(phase_length) * phase_length;
    const double raw = std::log2(t2 / (static_cast<double>(eta) * theta_dense));
    const int shift = static_cast<int>(std::lround(raw));
    return shift < 0 ? 0 : shift;
}

namespace {

/// IF configuration of a forward-path population (paper Sec. III-A: maximum
/// membrane time constant = no voltage leak; current decays immediately).
CompartmentConfig forward_cfg(std::int32_t vth, const EmstdpOptions& opt,
                              JoinOp join) {
    CompartmentConfig c;
    c.decay_u = 4096;
    c.decay_v = 0;
    c.vth = vth;
    c.soft_reset = true;
    c.floor_at_zero = true;
    c.join = join;
    c.pre_trace = TraceConfig{1, 0, opt.pre_window, 7};
    // Decay-trace variant (ablation D): y1 becomes a plain decaying trace
    // whose equilibrium (impulse 2 / decay 128 over T = 64) estimates the
    // recent rate, ~0.87*h_hat + 0.13*h at the end of phase 2 — workable at
    // dense rates, biased toward depression at sparse ones (the ablation
    // shows the collapse; this is why the paper uses trace *counters*). The
    // tag stays an accumulator in both modes — on silicon it is a synaptic
    // *variable* driven by the dt = y0 microcode rule, not a decaying
    // trace; letting it decay would erase the phase-1 count h and destroy
    // the sign of 2*y1 - tag.
    c.post_trace = opt.hw_trace_approx
                       ? TraceConfig{2, 128, TraceWindow::Both, 7}
                       : TraceConfig{1, 0, TraceWindow::Phase2Only, 7};
    c.tag_trace = TraceConfig{1, 0, TraceWindow::Both, 8};
    return c;
}

/// Error-path neurons: signed membranes (two-channel rectification), frozen
/// outside phase 2, optional AND gate against forward activity.
CompartmentConfig error_cfg(std::int32_t vth, bool gated) {
    CompartmentConfig c;
    c.decay_u = 4096;
    c.decay_v = 0;
    c.vth = vth;
    c.soft_reset = true;
    c.floor_at_zero = false;
    c.active_in_phase1 = false;
    c.join = gated ? JoinOp::AndAuxActive : JoinOp::None;
    return c;
}

/// Fixed random feedback matrix, quantized to the weight grid. `limit_f` is
/// the float magnitude bound; `scale` maps float feedback values into the
/// integer domain of the destination (theta_err for error neurons,
/// theta_dense for direct injection). Returns row-major {rows, cols} weights
/// plus the shared power-of-two exponent.
struct IntMatrix {
    std::vector<std::int32_t> w;
    int exponent = 0;
};
IntMatrix random_feedback(std::size_t rows, std::size_t cols, float limit_f,
                          std::int32_t scale, int weight_bits, common::Rng& rng) {
    IntMatrix m;
    const std::int64_t wmax = (std::int64_t{1} << (weight_bits - 1)) - 1;
    std::int64_t limit =
        static_cast<std::int64_t>(std::lround(static_cast<double>(limit_f) * scale));
    while (limit > wmax) {
        limit = (limit + 1) / 2;
        ++m.exponent;
    }
    if (limit < 1) limit = 1;
    m.w.resize(rows * cols);
    for (auto& v : m.w)
        v = static_cast<std::int32_t>(rng.uniform_int(-limit, limit));
    return m;
}

}  // namespace

EmstdpNetwork::EmstdpNetwork(const EmstdpOptions& opt, std::size_t in_c,
                             std::size_t in_h, std::size_t in_w,
                             const snn::ConvertedStack* conv,
                             std::vector<std::size_t> hidden, std::size_t classes)
    : opt_(opt),
      substrate_(std::in_place_type<loihi::Chip>, [&] {
          loihi::ChipLimits limits;
          limits.weight_bits = opt.weight_bits;
          return limits;
      }()),
      classes_(classes) {
    if (classes_ == 0) throw std::invalid_argument("EmstdpNetwork: zero classes");
    loihi::Chip& chip = std::get<loihi::Chip>(substrate_);
    const std::int32_t T = opt_.phase_length;
    const std::size_t pixels = in_c * in_h * in_w;
    input_size_ = pixels;
    label_bias_value_ = static_cast<std::int32_t>(
        std::lround(opt_.target_rate * static_cast<float>(T)));
    class_mask_.assign(classes_, true);
    common::Rng rng(opt_.seed);
    chip.seed_learning_noise(rng.next_u64() | 1);

    // ---- forward path -------------------------------------------------------
    {
        PopulationConfig pc;
        pc.name = "input";
        pc.size = pixels;
        pc.compartment = forward_cfg(T, opt_, JoinOp::None);
        input_ = chip.add_population(pc);
    }

    std::size_t feature_size = pixels;
    feature_ = input_;
    if (conv != nullptr) {
        if (conv->conv1.spec.in_c != in_c || conv->conv1.spec.in_h != in_h ||
            conv->conv1.spec.in_w != in_w)
            throw std::invalid_argument("EmstdpNetwork: conv stack geometry mismatch");
        PopulationConfig c1;
        c1.name = "conv1";
        c1.size = conv->conv1.spec.out_size();
        c1.compartment = forward_cfg(conv->conv1.vth, opt_, JoinOp::None);
        conv1_ = chip.add_population(c1);

        PopulationConfig c2;
        c2.name = "conv2";
        c2.size = conv->conv2.spec.out_size();
        c2.compartment = forward_cfg(conv->conv2.vth, opt_, JoinOp::None);
        conv2_ = chip.add_population(c2);

        feature_ = *conv2_;
        feature_size = c2.size;
    }

    // Hidden layers; with DFA they carry the aux compartment that receives
    // the broadcast error (GatedAdd join = the h' gate at the destination).
    const bool dfa = opt_.feedback == FeedbackMode::DFA && !opt_.inference_only;
    std::vector<std::size_t> dense_sizes = hidden;
    for (std::size_t l = 0; l < dense_sizes.size(); ++l) {
        PopulationConfig pc;
        pc.name = "dense" + std::to_string(l + 1);
        pc.size = dense_sizes[l];
        pc.compartment = forward_cfg(
            opt_.theta_dense, opt_,
            dfa && opt_.derivative_gating ? JoinOp::GatedAdd : JoinOp::None);
        pc.neurons_per_core = opt_.neurons_per_core;
        hidden_pops_.push_back(chip.add_population(pc));
    }
    {
        PopulationConfig pc;
        pc.name = "output";
        pc.size = classes_;
        pc.compartment = forward_cfg(opt_.theta_dense, opt_, JoinOp::None);
        pc.neurons_per_core = opt_.neurons_per_core;
        output_ = chip.add_population(pc);
    }

    // ---- plastic dense projections -------------------------------------------
    const std::int64_t wmax = (std::int64_t{1} << (opt_.weight_bits - 1)) - 1;
    std::vector<std::size_t> stack_sizes;
    stack_sizes.push_back(feature_size);
    for (std::size_t s : dense_sizes) stack_sizes.push_back(s);
    stack_sizes.push_back(classes_);

    std::vector<loihi::PopulationId> stack_pops;
    stack_pops.push_back(feature_);
    for (auto p : hidden_pops_) stack_pops.push_back(p);
    stack_pops.push_back(output_);

    // With a both-phase pre counter the pre factor is h + h_hat ~ 2h, so
    // the shift grows by one to keep the effective learning rate equal to
    // the phase-gated configuration.
    const int rule_shift = opt_.learning_shift() +
                           (opt_.pre_window == TraceWindow::Both ? 1 : 0);
    const loihi::LearningRule rule = loihi::emstdp_rule(rule_shift);
    for (std::size_t l = 0; l + 1 < stack_pops.size(); ++l) {
        const std::size_t in = stack_sizes[l];
        const std::size_t out = stack_sizes[l + 1];
        const float limit_f = std::sqrt(6.0f / static_cast<float>(in + out));
        std::int64_t limit =
            static_cast<std::int64_t>(std::lround(limit_f * opt_.theta_dense));
        if (limit > wmax) limit = wmax;
        if (limit < 1) limit = 1;
        std::vector<std::int32_t> w(in * out);
        for (auto& v : w)
            v = static_cast<std::int32_t>(rng.uniform_int(-limit, limit));

        ProjectionConfig prc;
        prc.name = "plastic" + std::to_string(l + 1);
        prc.src = stack_pops[l];
        prc.dst = stack_pops[l + 1];
        prc.plastic = true;
        prc.rule = rule;
        prc.stochastic_rounding = opt_.stochastic_rounding;
        plastic_.push_back(
            chip.add_projection(prc, snn::dense_synapses(in, out, w)));
    }

    // ---- frozen conv projections ---------------------------------------------
    if (conv != nullptr) {
        ProjectionConfig p1;
        p1.name = "conv1";
        p1.src = input_;
        p1.dst = *conv1_;
        chip.add_projection(p1, snn::conv_synapses(conv->conv1.spec,
                                                    conv->conv1.weights));
        ProjectionConfig p2;
        p2.name = "conv2";
        p2.src = *conv1_;
        p2.dst = *conv2_;
        chip.add_projection(p2, snn::conv_synapses(conv->conv2.spec,
                                                    conv->conv2.weights));
    }

    // ---- error path ------------------------------------------------------------
    if (!opt_.inference_only) {
        {
            PopulationConfig pc;
            pc.name = "label";
            pc.size = classes_;
            pc.compartment = forward_cfg(T, opt_, JoinOp::None);
            pc.compartment.active_in_phase1 = false;
            label_ = chip.add_population(pc);
        }
        {
            PopulationConfig pc;
            pc.name = "out_err+";
            pc.size = classes_;
            pc.compartment = error_cfg(opt_.theta_err, /*gated=*/false);
            pc.neurons_per_core = opt_.neurons_per_core;
            out_err_pos_ = chip.add_population(pc);
            pc.name = "out_err-";
            out_err_neg_ = chip.add_population(pc);
        }

        const auto unit = loihi::encode_weight(opt_.theta_err, opt_.weight_bits);
        auto one_to_one = [&](loihi::PopulationId src, loihi::PopulationId dst,
                              std::int32_t w, int exp, Port port,
                              const std::string& name) {
            ProjectionConfig pc;
            pc.name = name;
            pc.src = src;
            pc.dst = dst;
            pc.port = port;
            pc.weight_exp = exp;
            feedback_projections_.push_back(chip.add_projection(
                pc, snn::identity_synapses(chip.population_size(src), w)));
        };

        // Output error: epsilon_L accumulates theta_err * (label - output)
        // in the + channel and the negation in the - channel (paper eq. 6).
        one_to_one(*label_, *out_err_pos_, unit.weight, unit.exponent, Port::Soma,
                   "label->oe+");
        one_to_one(output_, *out_err_pos_, -unit.weight, unit.exponent, Port::Soma,
                   "out->oe+");
        one_to_one(*label_, *out_err_neg_, -unit.weight, unit.exponent, Port::Soma,
                   "label->oe-");
        one_to_one(output_, *out_err_neg_, unit.weight, unit.exponent, Port::Soma,
                   "out->oe-");

        // Correction injection into the output layer: one error spike = one
        // output spike (weight +-theta_dense).
        const auto inj = loihi::encode_weight(opt_.theta_dense, opt_.weight_bits);
        one_to_one(*out_err_pos_, output_, inj.weight, inj.exponent, Port::Soma,
                   "oe+->out");
        one_to_one(*out_err_neg_, output_, -inj.weight, inj.exponent, Port::Soma,
                   "oe-->out");

        if (opt_.feedback == FeedbackMode::FA) {
            // Mirrored error populations per hidden layer, chained top-down
            // with cross-connected fixed random weights (paper eq. 10).
            for (std::size_t l = 0; l < hidden_pops_.size(); ++l) {
                PopulationConfig pc;
                pc.name = "hid_err" + std::to_string(l + 1) + "+";
                pc.size = dense_sizes[l];
                pc.compartment = error_cfg(opt_.theta_err, opt_.derivative_gating);
                pc.neurons_per_core = opt_.neurons_per_core;
                hid_err_pos_.push_back(chip.add_population(pc));
                pc.name = "hid_err" + std::to_string(l + 1) + "-";
                hid_err_neg_.push_back(chip.add_population(pc));
            }
            for (std::size_t l = hidden_pops_.size(); l-- > 0;) {
                const bool top = l + 1 == hidden_pops_.size();
                const loihi::PopulationId up_pos =
                    top ? *out_err_pos_ : hid_err_pos_[l + 1];
                const loihi::PopulationId up_neg =
                    top ? *out_err_neg_ : hid_err_neg_[l + 1];
                const std::size_t rows = dense_sizes[l];
                const std::size_t cols = chip.population_size(up_pos);
                const float limit_f =
                    opt_.feedback_gain / std::sqrt(static_cast<float>(cols));
                const IntMatrix B = random_feedback(rows, cols, limit_f,
                                                    opt_.theta_err,
                                                    opt_.weight_bits, rng);
                auto cross = [&](loihi::PopulationId src, loihi::PopulationId dst,
                                 int sign, const std::string& name) {
                    std::vector<Synapse> syns;
                    syns.reserve(rows * cols);
                    for (std::size_t r = 0; r < rows; ++r)
                        for (std::size_t c = 0; c < cols; ++c)
                            syns.push_back(
                                {static_cast<std::uint32_t>(c),
                                 static_cast<std::uint32_t>(r),
                                 sign * B.w[r * cols + c]});
                    ProjectionConfig pc;
                    pc.name = name;
                    pc.src = src;
                    pc.dst = dst;
                    pc.weight_exp = B.exponent;
                    feedback_projections_.push_back(
                        chip.add_projection(pc, std::move(syns)));
                };
                const std::string tag = "fa" + std::to_string(l + 1);
                cross(up_pos, hid_err_pos_[l], +1, tag + ":+->+");
                cross(up_neg, hid_err_pos_[l], -1, tag + ":-->+");
                cross(up_pos, hid_err_neg_[l], -1, tag + ":+->-");
                cross(up_neg, hid_err_neg_[l], +1, tag + ":-->-");

                // h' gate: forward activity opens the error somata via aux.
                if (opt_.derivative_gating) {
                    one_to_one(hidden_pops_[l], hid_err_pos_[l], 1, 0, Port::Aux,
                               tag + ":gate+");
                    one_to_one(hidden_pops_[l], hid_err_neg_[l], 1, 0, Port::Aux,
                               tag + ":gate-");
                }
                // Correction injection into the forward layer.
                one_to_one(hid_err_pos_[l], hidden_pops_[l], inj.weight,
                           inj.exponent, Port::Soma, tag + ":inject+");
                one_to_one(hid_err_neg_[l], hidden_pops_[l], -inj.weight,
                           inj.exponent, Port::Soma, tag + ":inject-");
            }
        } else {
            // DFA: broadcast the output error to every hidden layer through
            // fixed random weights. With gating the broadcast lands on the
            // aux compartment (GatedAdd); without gating, on the soma.
            for (std::size_t l = 0; l < hidden_pops_.size(); ++l) {
                const std::size_t rows = dense_sizes[l];
                const float limit_f =
                    opt_.feedback_gain / std::sqrt(static_cast<float>(classes_));
                const IntMatrix B = random_feedback(rows, classes_, limit_f,
                                                    opt_.theta_dense,
                                                    opt_.weight_bits, rng);
                const Port port =
                    opt_.derivative_gating ? Port::Aux : Port::Soma;
                auto broadcast = [&](loihi::PopulationId src, int sign,
                                     const std::string& name) {
                    std::vector<Synapse> syns;
                    syns.reserve(rows * classes_);
                    for (std::size_t r = 0; r < rows; ++r)
                        for (std::size_t c = 0; c < classes_; ++c)
                            syns.push_back({static_cast<std::uint32_t>(c),
                                            static_cast<std::uint32_t>(r),
                                            sign * B.w[r * classes_ + c]});
                    ProjectionConfig pc;
                    pc.name = name;
                    pc.src = src;
                    pc.dst = hidden_pops_[l];
                    pc.port = port;
                    pc.weight_exp = B.exponent;
                    feedback_projections_.push_back(
                        chip.add_projection(pc, std::move(syns)));
                };
                const std::string tag = "dfa" + std::to_string(l + 1);
                broadcast(*out_err_pos_, +1, tag + ":+");
                broadcast(*out_err_neg_, -1, tag + ":-");
            }
        }
    }

    // ---- conv parameters & finalize -------------------------------------------
    if (conv != nullptr) {
        chip.set_bias(*conv1_, conv->conv1.bias);
        chip.set_bias(*conv2_, conv->conv2.bias);
    }
    chip.finalize();
    chip.reset_activity();  // construction-time bias writes are not runtime I/O
}

template <typename Substrate>
void EmstdpNetwork::program_input(Substrate& chip, const common::Tensor& image) {
    if (image.size() != input_size_)
        throw std::invalid_argument("EmstdpNetwork: image size mismatch");
    if (opt_.input_mode == InputMode::BiasProgramming) {
        chip.set_bias(input_, data::quantize_to_bias(image, opt_.phase_length));
        rasters_.clear();
    } else {
        chip.clear_bias(input_);
        rasters_ = data::rate_code_spikes(image, opt_.phase_length);
    }
}

template <typename Substrate>
void EmstdpNetwork::run_phase(Substrate& chip, Phase phase) {
    chip.set_phase(phase);
    const auto T = static_cast<std::size_t>(opt_.phase_length);
    if (opt_.input_mode == InputMode::BiasProgramming) {
        chip.run(T);
        return;
    }
    // split() rejects SpikeInsertion, so only a single chip gets here.
    if constexpr (std::is_same_v<Substrate, loihi::Chip>) {
        for (std::size_t t = 0; t < T; ++t) {
            // Step first, insert after: a bias-driven input neuron firing at
            // step t is delivered downstream at t+1, and host insertion must
            // keep the same one-step alignment (verified by the
            // InputEncoding.BiasAndInsertionProduceIdenticalActivity test).
            chip.step();
            for (std::size_t i = 0; i < rasters_.size(); ++i)
                if (rasters_[i][t]) chip.insert_spike(input_, i);
        }
    }
}

void EmstdpNetwork::train_sample(const common::Tensor& image, std::size_t label) {
    if (opt_.inference_only)
        throw std::logic_error("EmstdpNetwork: inference-only network cannot train");
    if (label >= classes_) throw std::out_of_range("EmstdpNetwork: bad label");

    visit([&](auto& chip) {
        chip.reset_dynamic_state();
        program_input(chip, image);
        std::vector<std::int32_t> lb(classes_, 0);
        if (class_mask_[label]) lb[label] = label_bias_value_;
        chip.set_bias(*label_, lb);

        run_phase(chip, Phase::One);
        // Phase boundary: clear membranes so phase 2 replays phase 1 exactly
        // when no correction arrives (see Chip::reset_membranes).
        chip.reset_membranes();
        run_phase(chip, Phase::Two);
        chip.apply_learning();
    });
}

std::vector<std::int32_t> EmstdpNetwork::output_counts(const common::Tensor& image) {
    return visit([&](auto& chip) {
        chip.reset_dynamic_state();
        program_input(chip, image);
        if (label_) chip.clear_bias(*label_);
        run_phase(chip, Phase::One);
        return chip.spike_counts(output_, Phase::One);
    });
}

std::size_t EmstdpNetwork::predict(const common::Tensor& image) {
    const auto counts = output_counts(image);
    return visit([&](const auto& chip) {
        std::size_t best = 0;
        std::int64_t best_v = chip.membrane(output_, 0);
        for (std::size_t j = 1; j < counts.size(); ++j) {
            const std::int64_t vj = chip.membrane(output_, j);
            if (counts[j] > counts[best] ||
                (counts[j] == counts[best] && vj > best_v)) {
                best = j;
                best_v = vj;
            }
        }
        return best;
    });
}

void EmstdpNetwork::set_class_mask(const std::vector<bool>& mask) {
    if (mask.size() != classes_)
        throw std::invalid_argument("set_class_mask: size mismatch");
    class_mask_ = mask;
    // Clamp disabled output neurons off: a strongly negative bias plus the
    // zero floor keeps them at v = 0, so they never spike in either phase
    // and their weight rows receive no update (y1 = tag = 0).
    std::vector<std::int32_t> bias(classes_, 0);
    for (std::size_t j = 0; j < classes_; ++j)
        if (!mask[j]) bias[j] = -4 * opt_.theta_dense;
    visit([&](auto& chip) { chip.set_bias(output_, bias); });
}

void EmstdpNetwork::set_learning_shift_offset(int offset) {
    if (offset < 0)
        throw std::invalid_argument("set_learning_shift_offset: negative offset");
    shift_offset_ = offset;
    const int base = opt_.learning_shift() +
                     (opt_.pre_window == loihi::TraceWindow::Both ? 1 : 0);
    const loihi::LearningRule rule = loihi::emstdp_rule(base + shift_offset_);
    visit([&](auto& chip) {
        for (auto proj : plastic_) chip.set_learning_rule(proj, rule);
    });
}

std::vector<std::vector<std::int32_t>> EmstdpNetwork::plastic_weights() const {
    std::vector<std::vector<std::int32_t>> out;
    out.reserve(plastic_.size());
    visit([&](const auto& chip) {
        for (auto proj : plastic_) out.push_back(chip.weights(proj));
    });
    return out;
}

void EmstdpNetwork::set_plastic_weights(
    const std::vector<std::vector<std::int32_t>>& w) {
    if (w.size() != plastic_.size())
        throw std::invalid_argument("set_plastic_weights: layer count mismatch");
    visit([&](auto& chip) {
        for (std::size_t p = 0; p < plastic_.size(); ++p)
            chip.program_weights(plastic_[p], w[p]);
    });
}

void EmstdpNetwork::seed_learning_noise(std::uint64_t seed) {
    visit([&](auto& chip) { chip.seed_learning_noise(seed); });
}

EmstdpNetwork EmstdpNetwork::split(loihi::ShardPlan plan,
                                   std::size_t step_threads) const {
    if (opt_.input_mode == InputMode::SpikeInsertion)
        throw std::invalid_argument(
            "EmstdpNetwork::split: InputMode::SpikeInsertion is not supported "
            "across chips (host spike insertion is not routed; use "
            "BiasProgramming)");
    const loihi::Chip& proto = chip();
    EmstdpNetwork out(*this);
    if (!plan.single())
        out.substrate_.emplace<loihi::ShardedChip>(proto, std::move(plan),
                                                   step_threads);
    // Recover the class mask from the output clamps (a masked class holds a
    // strongly negative bias — see set_class_mask), so the bookkeeping
    // agrees with the captured bias registers.
    const auto out_bias = proto.biases(output_);
    for (std::size_t j = 0; j < classes_; ++j) out.class_mask_[j] = out_bias[j] >= 0;
    // Re-seed exactly the way the constructor does.
    common::Rng rng(opt_.seed);
    out.seed_learning_noise(rng.next_u64() | 1);
    out.reset_activity();
    return out;
}

void EmstdpNetwork::save(const std::string& path) const {
    const loihi::Chip& c = chip();
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("EmstdpNetwork::save: cannot open " + path);
    c.save_weights(out);
}

void EmstdpNetwork::load(const std::string& path) {
    loihi::Chip& c = chip();
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("EmstdpNetwork::load: cannot open " + path);
    c.load_weights(in);
}

std::size_t EmstdpNetwork::num_shards() const {
    const auto* mesh = std::get_if<loihi::ShardedChip>(&substrate_);
    return mesh ? mesh->num_shards() : 1;
}

loihi::Chip& EmstdpNetwork::chip() {
    return const_cast<loihi::Chip&>(std::as_const(*this).chip());
}

const loihi::Chip& EmstdpNetwork::chip() const {
    if (const auto* c = std::get_if<loihi::Chip>(&substrate_)) return *c;
    throw std::logic_error("EmstdpNetwork: the network spans " +
                           std::to_string(num_shards()) +
                           " chips; chip() is single-chip only (use chips())");
}

loihi::ShardedChip& EmstdpNetwork::chips() {
    return const_cast<loihi::ShardedChip&>(std::as_const(*this).chips());
}

const loihi::ShardedChip& EmstdpNetwork::chips() const {
    if (const auto* mesh = std::get_if<loihi::ShardedChip>(&substrate_))
        return *mesh;
    throw std::logic_error("EmstdpNetwork: chips() needs a network split "
                           "across two or more chips (use chip())");
}

loihi::ActivityTotals EmstdpNetwork::activity() const {
    return visit([](const auto& chip) -> loihi::ActivityTotals {
        return chip.activity();
    });
}

void EmstdpNetwork::reset_activity() {
    visit([](auto& chip) { chip.reset_activity(); });
}

loihi::KernelPhaseTimes EmstdpNetwork::kernel_phase_times() const {
    return visit([](const auto& chip) -> loihi::KernelPhaseTimes {
        return chip.kernel_phase_times();
    });
}

StructuralCosts EmstdpNetwork::costs() const {
    const loihi::Chip& chip = this->chip();
    StructuralCosts c;
    c.compartments = chip.total_compartments();
    c.synapses = chip.total_synapses();
    c.cores = chip.mapping().total_cores;
    for (auto proj : feedback_projections_)
        c.feedback_synapses += chip.synapse_count(proj);
    auto pop_compartments = [&](loihi::PopulationId p, bool aux) {
        return chip.population_size(p) * (aux ? 2 : 1);
    };
    if (out_err_pos_) {
        c.feedback_compartments += pop_compartments(*out_err_pos_, false);
        c.feedback_compartments += pop_compartments(*out_err_neg_, false);
    }
    if (label_) c.feedback_compartments += pop_compartments(*label_, false);
    for (std::size_t l = 0; l < hid_err_pos_.size(); ++l) {
        c.feedback_compartments +=
            pop_compartments(hid_err_pos_[l], opt_.derivative_gating);
        c.feedback_compartments +=
            pop_compartments(hid_err_neg_[l], opt_.derivative_gating);
    }
    return c;
}

loihi::ShardPlan plan_network_shards(const loihi::Chip& chip,
                                     std::size_t num_shards) {
    const auto& mapping = chip.mapping();
    std::vector<loihi::PopulationDemand> demands;
    demands.reserve(chip.num_populations());
    for (loihi::PopulationId p = 0; p < chip.num_populations(); ++p)
        demands.push_back({chip.population_config(p).name,
                           mapping.layers.at(p).num_cores});
    std::vector<loihi::PopulationAffinity> edges;
    edges.reserve(chip.num_projections());
    for (loihi::ProjectionId q = 0; q < chip.num_projections(); ++q) {
        const auto& cfg = chip.projection_config(q);
        edges.push_back({cfg.src, cfg.dst, chip.synapse_count(q)});
    }
    return loihi::plan_shards(demands, edges, chip.limits(), num_shards);
}

}  // namespace neuro::core
