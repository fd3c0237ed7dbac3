#pragma once
// Dataset-level training/evaluation loops for the on-chip network, plus the
// energy bookkeeping used by Table II and Fig. 3. Training is strictly
// online: batch size 1, one pass over the stream per epoch, updates applied
// at the end of every sample's 2T window (paper Sec. IV-A: "the training
// data is received as a stream, and training must be carried out in
// real-time ... Techniques such as batch learning, data augmentation are
// not feasible").
//
// For throughput-oriented (non-real-time) training across replicated chips,
// see core/parallel_trainer.hpp — its batch == 1 configuration reproduces
// these loops bit-for-bit.

#include <cstdint>

#include "common/rng.hpp"
#include "core/network.hpp"
#include "data/dataset.hpp"
#include "loihi/energy.hpp"
#include "runtime/session.hpp"

namespace neuro::core {

/// One shuffled online pass; returns the training-stream accuracy measured
/// *before* each update (prequential accuracy, the online-learning metric).
double train_epoch(EmstdpNetwork& net, const data::Dataset& stream,
                   common::Rng& rng, bool measure_prequential = false);

/// Top-1 accuracy over a dataset (phase-1 inference only).
double evaluate(EmstdpNetwork& net, const data::Dataset& test);

/// Runs `samples` training (or evaluation) samples while capturing activity,
/// then derives the Table-II operating point from the energy model. A
/// network split across chips reports the package operating point:
/// barrier-synchronised step time of the slowest shard, power and cores
/// summed across chips.
loihi::EnergyReport measure_energy(EmstdpNetwork& net, const data::Dataset& ds,
                                   std::size_t samples, bool training,
                                   const loihi::EnergyModelParams& params);

// ---- runtime-session equivalents -----------------------------------------
// Backend-agnostic versions of the loops above for code on the runtime API
// (spec -> CompiledModel -> Session). On a LoihiSim session they consume
// `rng` and drive the chip exactly like the EmstdpNetwork overloads, so
// seeded comparisons line up bit-for-bit.

double train_epoch(runtime::Session& session, const data::Dataset& stream,
                   common::Rng& rng, bool measure_prequential = false);

double evaluate(runtime::Session& session, const data::Dataset& test);

/// One prequential step for open-ended streams (the learning-while-serving
/// engine's inner loop): predicts *before* updating and returns whether the
/// pre-update prediction was correct, then trains on the sample. The
/// running hit rate is the prequential accuracy train_epoch reports, but
/// usable sample-by-sample where there is no epoch.
bool train_prequential(runtime::Session& session, const common::Tensor& image,
                       std::size_t label);

/// Session version of measure_energy: forwards to the session's network.
/// Throws std::invalid_argument when the session's backend has no
/// activity/energy model (e.g. Reference).
loihi::EnergyReport measure_energy(runtime::Session& session,
                                   const data::Dataset& ds, std::size_t samples,
                                   bool training,
                                   const loihi::EnergyModelParams& params);

}  // namespace neuro::core
