#pragma once
// Labeled-feedback intake for learning-while-serving (neuro::online,
// docs/ARCHITECTURE.md §9). Clients that learn the true label after (or
// alongside) an inference hand it back through ModelRouter::submit_feedback;
// the samples flow through the Feedback class of the admission layer —
// an AdmissionQueue running the same CoDel discipline as the request
// queue — which the background learner (online::OnlineEngine) drains with
// the same micro-batch coalescing the serving workers use.
//
// Feedback is advisory by contract: the serving path never blocks on it,
// a full queue sheds at the intake, and under standing delay CoDel sheds
// stale samples at the head — a label that sat in the queue through a
// whole overload episode describes a model state the learner has already
// moved past, so training on it is wasted energy. Capacity and discipline
// come from RouterOptions::admission (AdmissionConfig::feedback_capacity),
// not a standalone knob: feedback is just the lowest-priority class.

#include <cstddef>
#include <string>

#include "common/tensor.hpp"
#include "serve/admission.hpp"

namespace neuro::serve {

/// One labeled observation — the raw material of the online learner.
struct FeedbackSample {
    common::Tensor image;
    std::size_t label = 0;
    /// Fleet entry the label belongs to ("" = default model). The online
    /// engine trains the default model and skips addressed samples; a
    /// per-model learner can filter on it.
    std::string model;
};

/// The hand-off between ModelRouter::submit_feedback and the online learner.
using FeedbackQueue = AdmissionQueue<FeedbackSample>;

}  // namespace neuro::serve
