#pragma once
// LoihiSimBackend: the chip-simulator backend. Sessions wrap a replicated
// core::EmstdpNetwork and are bit-identical to driving an EmstdpNetwork
// directly (weights, spike counts, ActivityTotals) — asserted by
// tests/runtime_test.cpp. ModelSpec::shards picks the substrate at
// compile(): one chip, or a split across several (core::EmstdpNetwork::
// split); sessions look the same either way. Session opening shares the
// compiled chip structure and the copy-on-write weight image (see
// loihi::Chip), so no per-session chip deep-copy happens.

#include <memory>

#include "runtime/backend.hpp"

namespace neuro::core {
class EmstdpNetwork;
}

namespace neuro::runtime {

class LoihiSimBackend final : public Backend {
public:
    BackendKind kind() const override { return BackendKind::LoihiSim; }
    const char* name() const override { return "loihi-sim"; }
    std::shared_ptr<const CompiledModel> compile(
        const ModelSpec& spec) const override;
};

/// Wraps an already-built network (current weights, device faults, class
/// masks, RNG state as of this call) as an immutable CompiledModel on the
/// LoihiSim backend — the bridge for code that constructs EmstdpNetwork
/// directly (e.g. core::ParallelTrainer's master; one chip only, a mesh
/// throws std::logic_error). The spec records the
/// observable topology; a conv stack inside `net` stays frozen in the
/// compiled chip but is not re-described in the spec.
std::shared_ptr<const CompiledModel> adopt(const core::EmstdpNetwork& net);

}  // namespace neuro::runtime
