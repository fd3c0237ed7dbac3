#include "runtime/backend.hpp"

#include <stdexcept>

#include "runtime/loihi_backend.hpp"
#include "runtime/reference_backend.hpp"
#include "runtime/session.hpp"
#include "runtime/weight_channel.hpp"

namespace neuro::runtime {

const Backend& backend_for(BackendKind kind) {
    static const LoihiSimBackend loihi_sim;
    static const ReferenceBackend reference;
    switch (kind) {
        case BackendKind::LoihiSim: return loihi_sim;
        case BackendKind::Reference: return reference;
    }
    throw std::invalid_argument("backend_for: unknown backend kind");
}

std::vector<const Backend*> backends() {
    return {&backend_for(BackendKind::LoihiSim),
            &backend_for(BackendKind::Reference)};
}

std::shared_ptr<const CompiledModel> CompiledModel::compile(
    const ModelSpec& spec, BackendKind kind) {
    return backend_for(kind).compile(spec);
}

void Session::save(const std::string& path) const {
    save_snapshot(path, weights());
}

bool Session::refresh() {
    if (!channel_) return false;
    // Fast path: one locked 64-bit read when nothing new was published —
    // the per-batch cost on a serving pool that never sees a publish.
    if (channel_->version() == seen_version_) return false;
    const auto image = channel_->current();
    if (image->version == seen_version_) return false;
    load_weights(image->snapshot);
    seen_version_ = image->version;
    return true;
}

}  // namespace neuro::runtime
