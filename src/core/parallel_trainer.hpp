#pragma once
// Data-parallel batched training engine (see docs/ARCHITECTURE.md §4).
//
// The paper's Operation Flow 1 is strictly online: one sample occupies the
// whole chip for 2T timesteps, so training throughput is capped at
// 1 / (2T * step_time) samples per second no matter how large the host is.
// ParallelTrainer lifts that cap the same way Loihi itself would — by
// replicating the network: N independent runtime::Session workers (one per
// thread, all over one shared CompiledModel snapshot of the master) each
// train a disjoint shard of every mini-batch, and the integer
// plastic-weight deltas are merged at the batch boundary.
//
// This is *inter-model* parallelism (N one-chip replicas). Its complement,
// *intra-model* parallelism for networks bigger than one chip, is the
// multi-chip split of core::EmstdpNetwork::split (ARCHITECTURE §6); the
// two compose conceptually but this trainer's master/replica weight-sync
// path assumes single-chip models.
//
// Determinism contract:
//   * batch == 1 reproduces the serial core::train_epoch bit-for-bit
//     (same shuffle, same RNG streams, same weights after every sample).
//   * batch > 1: every sample trains against the *batch-start* weights
//     with a stochastic-rounding stream that is a pure function of
//     (seed, epoch, position in the shuffled stream). A sample's delta
//     therefore never depends on which worker ran it or on how many
//     workers exist, and the merged result is bit-identical for every
//     `threads` value — replicas only buy wall-clock time.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/network.hpp"
#include "core/options.hpp"
#include "data/dataset.hpp"
#include "runtime/compiled_model.hpp"

namespace neuro::core {

class ParallelTrainer {
public:
    /// Compiles `master`'s current state into an immutable
    /// runtime::CompiledModel and opens one runtime::Session per worker
    /// thread over it (device faults and class masks are captured as of
    /// this call; use the forwarding setters below for later changes).
    /// Sessions share the compiled chip structure — no per-worker chip
    /// deep-copy happens. `master` is borrowed, not owned — it always holds
    /// the authoritative weights, and the caller keeps using it for
    /// inference, checkpointing and probing.
    ParallelTrainer(EmstdpNetwork& master, ParallelOptions opt);
    ~ParallelTrainer();

    ParallelTrainer(const ParallelTrainer&) = delete;
    ParallelTrainer& operator=(const ParallelTrainer&) = delete;

    /// One pass over the (shuffled) stream in mini-batches of `opt.batch`.
    /// Returns the prequential accuracy (fraction of samples predicted
    /// correctly *before* their weight update — against the batch-start
    /// weights in the batched path) when `measure_prequential` is set,
    /// otherwise 0. The shuffle consumes `rng` exactly like the serial
    /// core::train_epoch, so seeded comparisons line up.
    double train_epoch(const data::Dataset& stream, common::Rng& rng,
                       bool measure_prequential = false);

    /// Top-1 accuracy over `test`, evaluated data-parallel across the
    /// replicas (bit-identical to the serial core::evaluate).
    double evaluate(const data::Dataset& test);

    /// Forward EmstdpNetwork::set_class_mask to the master and every replica.
    void set_class_mask(const std::vector<bool>& mask);
    /// Forward EmstdpNetwork::set_learning_shift_offset likewise.
    void set_learning_shift_offset(int offset);

    /// The master network (authoritative weights).
    EmstdpNetwork& network() { return master_; }
    const EmstdpNetwork& network() const { return master_; }

    /// The compiled model the worker sessions were opened from (the
    /// master's state at construction time).
    const runtime::CompiledModel& model() const { return *model_; }

    /// Number of worker threads == number of replicas actually built.
    std::size_t threads() const;

    const ParallelOptions& options() const { return opt_; }

private:
    /// Learning-noise seed of the sample at shuffled-stream position `pos`
    /// of the current epoch — a pure function of (base seed, epoch, pos).
    std::uint64_t sample_seed(std::uint64_t pos) const;

    void train_batch(const data::Dataset& stream,
                     const std::vector<std::size_t>& order, std::size_t begin,
                     std::size_t end, bool measure_prequential);

    /// Extra learning-shift applied to replicas (the compensate_rate knob);
    /// 0 when disabled or not applicable.
    int rate_shift() const;

    EmstdpNetwork& master_;
    ParallelOptions opt_;
    std::uint64_t seed_base_;
    std::uint64_t epoch_ = 0;

    std::unique_ptr<common::ThreadPool> pool_;
    /// Immutable snapshot of the master at construction; all worker
    /// sessions read its shared structure and copy-on-write weight image.
    std::shared_ptr<const runtime::CompiledModel> model_;
    /// Training sessions: one per worker when batch > 1 (the master never
    /// trains in the batched path, so its learning rule stays untouched by
    /// rate compensation); only workers >= 1 when batch == 1 (evaluate-only,
    /// worker 0 reuses the master).
    std::vector<std::unique_ptr<runtime::Session>> replicas_;

    /// Per-worker delta accumulators: deltas_[w][layer][synapse], int64 so a
    /// whole batch can never overflow before the merge clips once.
    std::vector<std::vector<std::vector<std::int64_t>>> deltas_;
    /// Per-worker prequential hit counts for the current epoch.
    std::vector<std::size_t> hits_;
};

}  // namespace neuro::core
