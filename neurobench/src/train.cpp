// train_paper / train_sharded: the paper's in-hardware learning loop
// (Operation Flow 1) through runtime::Session — online EMSTDP training of
// the paper topology (frozen converted conv stack, dense 100, 10 outputs,
// default DFA options, default sweep mode) on the digits set, then a
// held-out evaluation. train_sharded runs the same spec forced onto two
// chips (ModelSpec::with_shards(2)), the only path through loihi::router,
// ShardedChip and core::ShardedEmstdpNetwork.
//
// The pretrained conv stack is part of the model and uses a fixed seed;
// --seed generates the online stream and the test set.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/sharded_network.hpp"
#include "core/trainer.hpp"
#include "loihi/energy.hpp"
#include "metrics.hpp"
#include "obs/timer.hpp"
#include "runtime/compiled_model.hpp"
#include "workloads.hpp"

namespace neurobench {

using namespace neuro;

namespace {

constexpr std::uint64_t kModelSeed = 1;
constexpr double kTailQ = 95.0;
constexpr std::size_t kBlock = 20;  ///< training samples per throughput block

struct Shape {
    std::size_t checkpoint;  ///< samples trained before the accuracy snapshot
    std::size_t test;        ///< held-out images evaluated on the snapshot
    std::size_t replay;      ///< samples replayed for the activity check
};
constexpr Shape kPaperShape{200, 200, 8};
constexpr Shape kShardedShape{150, 60, 4};

struct Built {
    core::Prepared prep;
    std::shared_ptr<const runtime::CompiledModel> model;
    std::unique_ptr<runtime::Session> session;
    double prepare_s = 0.0;
    double compile_ms = 0.0;
    double open_ms = 0.0;
    double total_s = 0.0;
};

runtime::ModelSpec paper_spec(const core::Prepared& prep, std::size_t shards) {
    runtime::ModelSpec spec;
    spec.input(prep.topo.in_c, prep.topo.in_h, prep.topo.in_w)
        .hidden_layers({prep.topo.hidden})
        .output_classes(prep.topo.classes)
        .with_conv(prep.stack)
        .with_shards(shards);
    return spec;
}

/// data -> ann -> snn conversion -> runtime compile -> open session.
Built build(bool sharded) {
    Built b;
    const auto t0 = Clock::now();
    core::ExperimentSpec es;
    es.dataset = "digits";
    es.train_count = 600;
    es.test_count = 100;
    es.ann_epochs = 3;
    es.seed = kModelSeed;
    b.prep = core::prepare(es);
    b.prepare_s = seconds_since(t0);
    const auto t1 = Clock::now();
    b.model = runtime::CompiledModel::compile(paper_spec(b.prep, sharded ? 2 : 1),
                                              runtime::BackendKind::LoihiSim);
    b.compile_ms = seconds_since(t1) * 1e3;
    const auto t2 = Clock::now();
    b.session = b.model->open_session();
    b.open_ms = seconds_since(t2) * 1e3;
    b.total_s = seconds_since(t0);
    return b;
}

loihi::ActivityTotals activity(const runtime::Session& s) { return *s.activity(); }

loihi::ActivityTotals minus(const loihi::ActivityTotals& a,
                            const loihi::ActivityTotals& b) {
    return {a.steps - b.steps,
            a.compartment_updates - b.compartment_updates,
            a.synaptic_ops - b.synaptic_ops,
            a.spikes - b.spikes,
            a.learning_synapse_visits - b.learning_synapse_visits,
            a.host_io_writes - b.host_io_writes};
}

bool same(const loihi::ActivityTotals& a, const loihi::ActivityTotals& b) {
    return a.steps == b.steps && a.compartment_updates == b.compartment_updates &&
           a.synaptic_ops == b.synaptic_ops && a.spikes == b.spikes &&
           a.learning_synapse_visits == b.learning_synapse_visits &&
           a.host_io_writes == b.host_io_writes;
}

/// Kernel phase time of a session, summed over shards for a sharded one.
loihi::KernelPhaseTimes kernel_times(runtime::Session& s) {
    if (const auto* k = s.kernel_phases()) return *k;
    loihi::KernelPhaseTimes t;
    if (auto* sh = s.native_sharded_network())
        for (std::size_t i = 0; i < sh->chips().num_shards(); ++i) {
            t.sweep_ns += sh->chips().shard(i).kernel_phase_times().sweep_ns;
            t.accum_ns += sh->chips().shard(i).kernel_phase_times().accum_ns;
        }
    return t;
}

/// Per-shard activity of a sharded session (empty for a single chip).
std::vector<loihi::ActivityTotals> shard_activity(runtime::Session& s) {
    std::vector<loihi::ActivityTotals> out;
    if (auto* sh = s.native_sharded_network())
        for (std::size_t i = 0; i < sh->chips().num_shards(); ++i)
            out.push_back(sh->chips().shard_activity(i));
    return out;
}

/// Modelled Loihi operating point of `samples` training samples whose
/// activity was `act` (per shard in `shards` for a sharded session).
loihi::EnergyReport energy(runtime::Session& s, const loihi::ActivityTotals& act,
                           const std::vector<loihi::ActivityTotals>& shards,
                           std::uint64_t samples) {
    const loihi::EnergyModelParams params;
    if (auto* net = s.native_network())
        return loihi::estimate_energy(params, net->chip(), act, samples);
    // One barrier-synchronised package (core::measure_energy's rule): step
    // time of the slowest shard, power summed across chips.
    auto* sh = s.native_sharded_network();
    loihi::EnergyReport total{};
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const auto r = loihi::estimate_energy(params, sh->chips().shard(i),
                                              shards[i], samples);
        total.step_seconds = std::max(total.step_seconds, r.step_seconds);
        total.power_w += r.power_w;
        total.steps_per_sample = std::max(total.steps_per_sample, r.steps_per_sample);
    }
    total.sample_seconds =
        total.step_seconds * static_cast<double>(total.steps_per_sample);
    total.fps = total.sample_seconds > 0 ? 1.0 / total.sample_seconds : 0.0;
    total.energy_per_sample_j = total.power_w * total.sample_seconds;
    return total;
}

/// What one timed training loop saw.
struct Loop {
    std::vector<double> train_us;  ///< per Session::train call
    double wall_s = 0.0;           ///< loop wall, snapshot/twin time excluded
    double in_calls_s = 0.0;       ///< sum of train_us
    std::size_t n = 0;
    loihi::ActivityTotals act{};   ///< activity of the whole loop
    loihi::KernelPhaseTimes kern{};
    std::vector<loihi::ActivityTotals> first;  ///< per-sample, first K
    std::uint64_t bad_steps = 0;   ///< samples not taking exactly 2T steps
    std::vector<double> phase1_ms; ///< twin-session predict of the image
    std::vector<double> probe_ms;  ///< reference probe after each block
    // Checkpoint (first loop only): weights and activity after `checkpoint`.
    std::optional<runtime::WeightSnapshot> snap;
    loihi::ActivityTotals checkpoint_act{};
    std::vector<loihi::ActivityTotals> checkpoint_shards;
};

struct LoopArgs {
    double seconds = 0.0;
    std::size_t min_samples = 0;
    std::size_t checkpoint = 0;   ///< 0 = no snapshot
    std::size_t record_first = 0;
    runtime::Session* twin = nullptr;  ///< phase-1 probe every 4th sample
};

Loop train_loop(runtime::Session& s, const data::Dataset& stream,
                std::size_t& cursor, const LoopArgs& a, std::int32_t two_t) {
    Loop L;
    const auto act0 = activity(s);
    const auto k0 = kernel_times(s);
    const auto shards0 = shard_activity(s);
    auto prev = act0;
    double excluded = 0.0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) - excluded < a.seconds || L.n < a.min_samples) {
        const auto& smp = stream.samples[cursor++ % stream.size()];
        const auto c0 = Clock::now();
        s.train(smp.image, smp.label);
        const double us = seconds_since(c0) * 1e6;
        L.train_us.push_back(us);
        L.in_calls_s += us * 1e-6;
        ++L.n;
        const auto now = activity(s);
        const auto d = minus(now, prev);
        prev = now;
        if (d.steps != static_cast<std::uint64_t>(two_t)) ++L.bad_steps;
        if (L.first.size() < a.record_first) L.first.push_back(d);
        if (a.checkpoint && L.n == a.checkpoint) {
            const auto x0 = Clock::now();
            L.snap = s.weights();
            L.checkpoint_act = minus(now, act0);
            L.checkpoint_shards = shard_activity(s);
            for (std::size_t i = 0; i < shards0.size(); ++i)
                L.checkpoint_shards[i] = minus(L.checkpoint_shards[i], shards0[i]);
            excluded += seconds_since(x0);
        }
        if (L.n % kBlock == 0) {
            const auto x0 = Clock::now();
            L.probe_ms.push_back(reference_probe_ms());
            excluded += seconds_since(x0);
        }
        if (a.twin && L.n % 4 == 0) {
            const auto x0 = Clock::now();
            (void)a.twin->predict(smp.image);
            const double ms = seconds_since(x0) * 1e3;
            L.phase1_ms.push_back(ms);
            excluded += ms * 1e-3;
        }
    }
    L.wall_s = seconds_since(t0) - excluded;
    L.act = minus(activity(s), act0);
    const auto k1 = kernel_times(s);
    L.kern = {k1.sweep_ns - k0.sweep_ns, k1.accum_ns - k0.accum_ns};
    return L;
}

/// Samples per second, as the median over blocks of kBlock consecutive
/// Session::train calls — robust to a stall of the host. With `corrected`
/// each block's rate is scaled by the reference probe that followed it.
double block_rate(const Loop& L, bool corrected) {
    std::vector<std::pair<double, double>> blocks;
    for (std::size_t i = 0; i + kBlock <= L.train_us.size(); i += kBlock) {
        double us = 0.0;
        for (std::size_t j = i; j < i + kBlock; ++j) us += L.train_us[j];
        const double scale =
            corrected ? L.probe_ms[i / kBlock] / kReferenceProbeMs : 1.0;
        blocks.push_back({static_cast<double>(kBlock) * scale, us * 1e-6});
    }
    return median_block_rate(blocks);
}

std::vector<std::size_t> predictions(runtime::Session& s, const data::Dataset& d) {
    std::vector<std::size_t> out;
    out.reserve(d.size());
    for (const auto& smp : d.samples) out.push_back(s.predict(smp.image));
    return out;
}

double accuracy_of(const std::vector<std::size_t>& pred, const data::Dataset& d) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < pred.size(); ++i)
        hits += pred[i] == d.samples[i].label;
    return pred.empty() ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(pred.size());
}

}  // namespace

void run_train(const RunConfig& cfg, Report& rep, bool sharded) {
    const Shape shape = sharded ? kShardedShape : kPaperShape;
    // One CPU for the whole run, the sharded session's shard threads
    // included: they meet at a barrier every simulation step, and on a
    // virtual machine a cross-CPU wake-up there costs anywhere from tens of
    // microseconds to milliseconds, which swung the 2-shard rate between
    // 23 and 52 samples/s run to run. On one CPU they hand over by context
    // switch; every shard, router and barrier step still runs.
    const int cpu = pin_to_one_cpu();

    // ---- set-up (repeated; the median is setup_s) ---------------------------
    std::vector<double> setups;
    Built b;
    for (int i = 0; i < (cfg.trace ? 1 : kSetupRepeats); ++i) {
        b = build(sharded);
        setups.push_back(b.total_s);
    }
    const std::int32_t two_t = 2 * b.model->spec().options.phase_length;
    print_provenance(cfg, sweep_mode(*b.session));
    note("pinned to cpu %d", cpu);
    note("model: paper topology %zux%zux%zu -> conv stack -> %zu -> %zu, %s",
         b.prep.topo.in_c, b.prep.topo.in_h, b.prep.topo.in_w, b.prep.topo.hidden,
         b.prep.topo.classes, sharded ? "2 shards" : "1 chip");

    // ---- inputs from the seed -----------------------------------------------
    data::GenOptions gen;
    gen.count = 600 + shape.test;
    gen.seed = cfg.seed;
    auto [stream, test] = data::split(data::make_digits(gen), 600);

    // ---- timed loop(s) -------------------------------------------------------
    std::size_t cursor = 0;
    LoopArgs first;
    first.seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    first.min_samples = shape.checkpoint;
    first.checkpoint = shape.checkpoint;
    first.record_first = shape.replay;
    const Loop L = train_loop(*b.session, stream, cursor, first, two_t);
    const double thr = block_rate(L, true);

    Loop T;  // traced loop (trace mode only)
    std::unique_ptr<runtime::Session> twin;
    if (cfg.trace) {
        twin = b.model->open_session();
        neuro::obs::set_timing(true);
        LoopArgs traced;
        traced.seconds = cfg.seconds / 2;
        traced.min_samples = 8;
        traced.twin = twin.get();
        T = train_loop(*b.session, stream, cursor, traced, two_t);
        neuro::obs::set_timing(false);
    }

    // ---- output checks -------------------------------------------------------
    rep.outcomes.attempted += L.n + T.n;
    rep.outcomes.ok += L.n + T.n;
    if (L.bad_steps + T.bad_steps)
        rep.fail_check(std::to_string(L.bad_steps + T.bad_steps) +
                       " training samples did not take exactly 2T steps");

    // Per-sample ActivityTotals repeat bit-exactly on a fresh session.
    {
        auto replay = b.model->open_session();
        std::size_t mismatch = 0;
        for (std::size_t i = 0; i < L.first.size(); ++i) {
            const auto before = activity(*replay);
            replay->train(stream.samples[i].image, stream.samples[i].label);
            mismatch += !same(minus(activity(*replay), before), L.first[i]);
        }
        rep.outcomes.attempted += L.first.size();
        rep.outcomes.ok += L.first.size() - mismatch;
        rep.outcomes.wrong += mismatch;
        if (mismatch)
            rep.fail_check(std::to_string(mismatch) +
                           " replayed samples changed their ActivityTotals");
    }

    // Held-out accuracy of the checkpoint weights (deterministic per seed).
    // The same weights reach a fresh session two ways — compiled in with
    // with_weights, and loaded into an opened session — and both must
    // predict every image identically.
    auto eval = b.model->with_weights(*L.snap)->open_session();
    const auto pred = predictions(*eval, test);
    const double acc = accuracy_of(pred, test);
    {
        auto loaded = b.model->open_session();
        loaded->load_weights(*L.snap);
        const auto again = predictions(*loaded, test);
        std::uint64_t diff = 0;
        for (std::size_t i = 0; i < pred.size(); ++i) diff += again[i] != pred[i];
        rep.outcomes.attempted += pred.size();
        rep.outcomes.ok += pred.size() - diff;
        rep.outcomes.wrong += diff;
        if (diff)
            rep.fail_check(std::to_string(diff) +
                           " predictions differ between with_weights and "
                           "load_weights of the same snapshot");
    }
    note("accuracy after %zu online samples = %.4f on %zu held-out images",
         shape.checkpoint, acc, test.size());

    if (sharded) {
        // Forward predictions of the 2-shard model == the single-chip path.
        auto single = runtime::CompiledModel::compile(paper_spec(b.prep, 1),
                                                      runtime::BackendKind::LoihiSim)
                          ->with_weights(*L.snap)
                          ->open_session();
        const auto ref = predictions(*single, test);
        std::uint64_t diff = 0;
        for (std::size_t i = 0; i < ref.size(); ++i) diff += ref[i] != pred[i];
        rep.outcomes.attempted += ref.size();
        rep.outcomes.ok += ref.size() - diff;
        rep.outcomes.wrong += diff;
        if (diff)
            rep.fail_check(std::to_string(diff) +
                           " sharded predictions differ from the single-chip path");
    }

    // ---- report --------------------------------------------------------------
    const Summary lat = summarize(L.train_us, kTailQ);
    note_summary("Session::train", lat, "us");
    note("train_samples_per_s = %.2f corrected to the reference host speed "
         "(%.2f raw; median of %zu-sample blocks; %zu samples in %.2f s = %.2f/s "
         "overall; reference probe p50 %.3f ms)",
         thr, block_rate(L, false), kBlock, L.n, L.wall_s,
         static_cast<double>(L.n) / L.wall_s, median(L.probe_ms));
    const auto n_ck = static_cast<double>(shape.checkpoint);
    const auto& ck = L.checkpoint_act;
    const auto er = energy(*b.session, ck, L.checkpoint_shards, shape.checkpoint);
    note("modelled Loihi (calibrated to Table II, not validated on held-out "
         "data): %.1f FPS, %.3f W, %.1f uJ/sample  [paper Table II training: "
         "50 FPS, 0.42 W, 8400 uJ]",
         er.fps, er.power_w, er.energy_per_sample_j * 1e6);

    if (!cfg.trace) {
        put(rep, "setup_s", median(setups));
        put(rep, "peak_rss_mb", peak_rss_mib());
        put(rep, "throughput_per_s", thr);
        return;
    }

    put(rep, "setup.prepare_s", b.prepare_s);
    put(rep, "runtime.compile_ms", b.compile_ms);
    put(rep, "runtime.open_session_ms", b.open_ms);
    const auto nt = static_cast<double>(T.n);
    const double sweep_ms = static_cast<double>(T.kern.sweep_ns) * 1e-6 / nt;
    const double accum_ms = static_cast<double>(T.kern.accum_ns) * 1e-6 / nt;
    const double train_ms = T.in_calls_s * 1e3 / nt;
    put(rep, "loihi.sweep_ms_per_sample", sweep_ms);
    put(rep, "loihi.accum_ms_per_sample", accum_ms);
    put(rep, "loihi.ns_per_update",
        static_cast<double>(T.kern.sweep_ns) /
            static_cast<double>(std::max<std::uint64_t>(1, T.act.compartment_updates)));
    put(rep, "loihi.ns_per_synop",
        static_cast<double>(T.kern.accum_ns) /
            static_cast<double>(std::max<std::uint64_t>(1, T.act.synaptic_ops)));
    put(rep, "loihi.steps_per_sample", static_cast<double>(ck.steps) / n_ck);
    put(rep, "loihi.updates_per_sample",
        static_cast<double>(ck.compartment_updates) / n_ck);
    put(rep, "loihi.synops_per_sample", static_cast<double>(ck.synaptic_ops) / n_ck);
    put(rep, "loihi.spikes_per_sample", static_cast<double>(ck.spikes) / n_ck);
    put(rep, "loihi.learn_visits_per_sample",
        static_cast<double>(ck.learning_synapse_visits) / n_ck);
    put(rep, "loihi.host_io_per_sample", static_cast<double>(ck.host_io_writes) / n_ck);
    put(rep, "loihi.sim_fps", er.fps);
    put(rep, "loihi.sim_power_w", er.power_w);
    put(rep, "loihi.sim_energy_uj_per_sample", er.energy_per_sample_j * 1e6);
    put(rep, "core.phase1_ms", median(T.phase1_ms));
    // On the one pinned CPU the shards step in turn, so the summed kernel
    // times are wall time and "other" is the remainder on both workloads
    // (on train_sharded it includes the router and the shard hand-offs).
    put(rep, "core.other_ms_per_sample", std::max(0.0, train_ms - sweep_ms - accum_ms));
    put(rep, "core.accuracy", acc);
    put(rep, "core.train_ms_p50", lat.p50 * 1e-3);
    put(rep, "core.train_ms_p95", lat.tail * 1e-3);
    const double thr_traced = block_rate(T, true);
    put(rep, "obs.trace_tax", thr_traced / thr);
    put(rep, "obs.span_cover", T.in_calls_s / T.wall_s);
    note("traced: %zu samples, train %.3f ms = sweep %.3f + accum %.3f + other "
         "%.3f; phase1 (twin predict) %.3f ms; trace tax %.3f",
         T.n, train_ms, sweep_ms, accum_ms, train_ms - sweep_ms - accum_ms,
         median(T.phase1_ms), thr_traced / thr);
}

}  // namespace neurobench
