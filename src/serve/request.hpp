#pragma once
// The request/response vocabulary of neuro::serve. A client submits an
// image (optionally with a priority class and an SLO deadline) and gets
// back an InferenceHandle — a one-shot future that resolves to an
// InferenceResult once a worker session has run the phase-1 inference, or
// immediately when admission control rejects the request (shed at intake,
// CoDel head drop, missed deadline, shutdown).

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/tensor.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"

namespace neuro::serve {

enum class Status {
    Ok,        ///< inference ran; label (and counts, if requested) are valid
    Rejected,  ///< never dispatched — see InferenceResult::reject for why
    Error,     ///< the backend threw (e.g. image size mismatch); see `error`
};

const char* to_string(Status s);

/// Why a request resolved Rejected. QueueFull rejects happen at the intake
/// (Shed backpressure); Overload and DeadlineExceeded rejects happen at
/// the queue head — the request WAS accepted, but admission control chose
/// not to spend a session slot on it (docs/ARCHITECTURE.md §10).
enum class RejectReason : std::uint8_t {
    None,              ///< not rejected
    QueueFull,         ///< shed at intake by the Shed backpressure policy
    Shutdown,          ///< submitted after (or refused during) shutdown
    Overload,          ///< CoDel drop state shed it from the queue head
    DeadlineExceeded,  ///< its SLO deadline passed while it queued
    UnknownModel,      ///< SubmitOptions::model names no fleet entry
};

const char* to_string(RejectReason r);

struct InferenceResult;

/// Completion callback for the push-style submit path (SubmitOptions::
/// on_complete / ModelRouter::submit_async). Invoked exactly once per request
/// with the final result — on a worker thread for dispatched/head-dropped
/// requests, inline on the submitter's thread for intake rejects. Must not
/// throw and must not block: the serving workers (and, in neurod, the
/// epoll loop) run it.
using CompletionFn = std::function<void(InferenceResult&&)>;

/// Per-request submission parameters — the single options struct every
/// submit verb (submit / submit_counts / submit_async / submit_feedback)
/// takes on ModelRouter. One struct instead of parallel
/// overload ladders: a new knob lands in every path at once.
struct SubmitOptions {
    Priority priority = Priority::Interactive;
    /// SLO deadline relative to acceptance, in microseconds; 0 = none.
    /// A request whose deadline passes while it queues is never
    /// dispatched — it resolves Rejected{DeadlineExceeded} instead.
    std::uint64_t deadline_us = 0;
    /// Which fleet entry serves this request; "" = the default model, so
    /// every pre-router call site keeps its meaning unchanged. On a fleet
    /// of one (no RouterOptions::fleet_dir) a non-empty name resolves
    /// Rejected{UnknownModel}.
    std::string model;
    /// Stable client-supplied id (netd passes the wire request_id). The
    /// router hashes it to pick the canary arm, so a retry of the same
    /// logical request deterministically lands on the same weights.
    std::uint64_t request_id = 0;
    /// When set, the request resolves through this callback instead of a
    /// future (the push-style submit_async path).
    CompletionFn on_complete;
    /// Request tracing: when true the router stamps every phase boundary
    /// (intake, admission dequeue, batch collect, compute, resolve) into
    /// InferenceResult::trace so the caller can attribute latency
    /// (docs/ARCHITECTURE.md §14). Untraced requests skip every stamp.
    bool trace = false;
};

struct InferenceResult {
    Status status = Status::Rejected;
    RejectReason reject = RejectReason::None;
    /// The class the request was submitted under.
    Priority priority = Priority::Interactive;
    /// argmax prediction. For count requests ties break on the raw counts
    /// (first maximum) rather than the backend's membrane tie-break.
    std::size_t label = 0;
    /// Phase-1 output spike counts; filled only for ModelRouter::submit_counts.
    std::vector<std::int32_t> counts;
    /// Accept-to-completion latency (queueing + batching + inference).
    double latency_us = 0.0;
    /// Time spent queued before dispatch or head drop (0 for intake
    /// rejects, which never queued).
    double sojourn_us = 0.0;
    /// Size of the micro-batch this request was dispatched in (>= 1).
    std::size_t batch_size = 0;
    /// Exception text when status == Error.
    std::string error;
    /// Span breakdown; trace.enabled iff the request was submitted with
    /// SubmitOptions::trace and reached the queue. The four phase spans
    /// telescope to total_us(), which equals latency_us to clock
    /// resolution for dispatched requests.
    obs::TraceContext trace;
};

/// One-shot handle to an in-flight request. Move-only, like the future it
/// wraps; get() blocks until a worker (or the reject path) completes it.
class InferenceHandle {
public:
    InferenceHandle() = default;
    explicit InferenceHandle(std::future<InferenceResult> f)
        : future_(std::move(f)) {}

    /// A handle that is already complete — the shed/shutdown fast path.
    static InferenceHandle immediate(InferenceResult r) {
        std::promise<InferenceResult> p;
        p.set_value(std::move(r));
        return InferenceHandle(p.get_future());
    }

    bool valid() const { return future_.valid(); }
    /// True once the result can be get() without blocking.
    bool ready() const {
        return future_.valid() &&
               future_.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
    }
    void wait() const { future_.wait(); }
    InferenceResult get() { return future_.get(); }

private:
    std::future<InferenceResult> future_;
};

/// The internal wire format between submit and the worker loops — what
/// actually travels through the AdmissionQueue. Enqueue time, class and
/// deadline live in the queue's entry metadata (the queue stamps them via
/// its Clock); the Request itself carries only what the worker needs to
/// route, run, and resolve the inference.
struct Request {
    enum class Kind { Predict, Counts };
    Kind kind = Kind::Predict;
    common::Tensor image;
    /// Fleet entry this request is addressed to ("" = default model); the
    /// router resolves it to a session pool at dispatch time.
    std::string model;
    /// Client id the router hashes for the canary split (0 when unset).
    std::uint64_t request_id = 0;
    std::promise<InferenceResult> promise;
    /// When set, the request resolves through the callback and the promise
    /// is never touched (the future-less submit_async path — one fewer
    /// allocation and no blocking get() anywhere).
    CompletionFn on_complete;
    /// Phase stamps accumulated as the request moves through the engine;
    /// enabled iff SubmitOptions::trace was set. Copied into the result.
    obs::TraceContext trace;

    /// Routes the result to whichever completion mechanism this request
    /// uses. Every accepted request is resolved exactly once.
    void resolve(InferenceResult&& r) {
        if (on_complete)
            on_complete(std::move(r));
        else
            promise.set_value(std::move(r));
    }
};

}  // namespace neuro::serve
