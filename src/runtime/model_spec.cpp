#include "runtime/model_spec.hpp"

#include <stdexcept>

namespace neuro::runtime {

const char* to_string(BackendKind kind) {
    switch (kind) {
        case BackendKind::LoihiSim: return "loihi-sim";
        case BackendKind::Reference: return "reference";
    }
    return "?";
}

ModelSpec& ModelSpec::input(std::size_t c, std::size_t h, std::size_t w) {
    in_c = c;
    in_h = h;
    in_w = w;
    return *this;
}

ModelSpec& ModelSpec::hidden_layers(std::vector<std::size_t> sizes) {
    hidden = std::move(sizes);
    return *this;
}

ModelSpec& ModelSpec::output_classes(std::size_t n) {
    classes = n;
    return *this;
}

ModelSpec& ModelSpec::with_options(const core::EmstdpOptions& opt) {
    options = opt;
    return *this;
}

ModelSpec& ModelSpec::with_conv(const snn::ConvertedStack& stack) {
    conv = std::make_shared<const snn::ConvertedStack>(stack);
    return *this;
}

ModelSpec& ModelSpec::with_shards(std::size_t n) {
    shards = n;
    return *this;
}

void ModelSpec::validate() const {
    if (input_size() == 0)
        throw std::invalid_argument("ModelSpec: input geometry is empty");
    if (classes == 0) throw std::invalid_argument("ModelSpec: zero classes");
    for (std::size_t h : hidden)
        if (h == 0)
            throw std::invalid_argument("ModelSpec: zero-sized hidden layer");
    if (conv && (conv->conv1.spec.in_c != in_c || conv->conv1.spec.in_h != in_h ||
                 conv->conv1.spec.in_w != in_w))
        throw std::invalid_argument("ModelSpec: conv stack geometry mismatch");
}

}  // namespace neuro::runtime
