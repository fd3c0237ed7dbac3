#pragma once
// The four workloads. Each fills `rep` with every end-to-end metric
// (cfg.trace == false) or its per-layer metrics (cfg.trace == true), runs
// its output checks, and records failures in rep.outcomes / rep.fail_check.

#include "common.hpp"
#include "harness.hpp"

namespace neurobench {

/// train_paper (sharded == false) and train_sharded (sharded == true).
void run_train(const RunConfig& cfg, Report& rep, bool sharded);

/// Inference-only neurod frames over a Unix socket: light / busy open-loop
/// rates and the rate ladder behind the throughput metric.
void run_serve_wire(const RunConfig& cfg, Report& rep);

/// The same daemon plus an online::OnlineEngine fed labelled Feedback
/// frames beside light open-loop inference.
void run_learn_while_serve(const RunConfig& cfg, Report& rep);

}  // namespace neurobench
