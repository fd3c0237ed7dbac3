#include "serve/router.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "online/registry.hpp"
#include "runtime/session.hpp"

namespace neuro::serve {

namespace {

InferenceResult rejected_result(RejectReason reason, Priority cls) {
    InferenceResult r;
    r.status = Status::Rejected;
    r.reject = reason;
    r.priority = cls;
    return r;
}

std::size_t snapshot_bytes(const runtime::WeightSnapshot& snap) {
    std::size_t n = 0;
    for (const auto& layer : snap.layers) n += layer.size() * sizeof(std::int32_t);
    return n;
}

// Names share the control-socket line grammar with bare version numbers
// and the keyword "latest", so they must start with a letter; the rest is
// the usual filesystem-safe set (the name doubles as a registry directory).
bool valid_model_name(const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    if (!std::isalpha(static_cast<unsigned char>(name.front()))) return false;
    for (const char c : name) {
        const auto u = static_cast<unsigned char>(c);
        if (!std::isalnum(u) && c != '.' && c != '_' && c != '-') return false;
    }
    return true;
}

}  // namespace

const char* to_string(Status s) {
    switch (s) {
        case Status::Ok: return "ok";
        case Status::Rejected: return "rejected";
        case Status::Error: return "error";
    }
    return "?";
}

const char* to_string(RejectReason r) {
    switch (r) {
        case RejectReason::None: return "none";
        case RejectReason::QueueFull: return "queue-full";
        case RejectReason::Shutdown: return "shutdown";
        case RejectReason::Overload: return "overload";
        case RejectReason::DeadlineExceeded: return "deadline-exceeded";
        case RejectReason::UnknownModel: return "unknown-model";
    }
    return "?";
}

bool ModelRouter::canary_arm(std::uint64_t request_id, std::uint32_t pct) {
    if (pct == 0) return false;
    if (pct >= 100) return true;
    // splitmix64: a fixed, platform-independent mix so the same request_id
    // lands on the same arm on every run of every build.
    std::uint64_t z = request_id + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z % 100 < pct;
}

ModelRouter::ModelRouter(
    std::shared_ptr<const runtime::CompiledModel> default_model,
    RouterOptions options)
    : default_model_(std::move(default_model)),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock : default_clock()),
      queue_(options_.queue_capacity, options_.admission, clock_) {
    if (!default_model_) throw std::invalid_argument("ModelRouter: null model");
    if (options_.workers == 0)
        throw std::invalid_argument("ModelRouter: zero workers");
    if (options_.batch.max_batch == 0)
        throw std::invalid_argument("ModelRouter: zero max_batch");
    if (options_.admission.feedback_capacity > 0)
        feedback_ = std::make_shared<FeedbackQueue>(
            options_.admission.feedback_capacity, options_.admission, clock_);
    // The default entry is resident from birth and permanently pinned: the
    // fleet's topology donor must never be evicted out from under it.
    auto def = std::make_unique<Entry>();
    def->name = "";
    def->model = default_model_;
    def->sessions = default_model_->open_sessions(options_.workers);
    def->pinned = true;
    def->base_bytes = snapshot_bytes(default_model_->initial_weights());
    def->refreshed_batch.assign(options_.workers, 0);
    def->loads = 1;
    resident_bytes_ = def->base_bytes;
    entries_.emplace("", std::move(def));
}

ModelRouter::~ModelRouter() { shutdown(); }

void ModelRouter::start() {
    std::lock_guard<std::mutex> lock(lifecycle_m_);
    start_locked();
}

void ModelRouter::start_locked() {
    if (started_.load()) return;  // lifecycle_m_ is held: no concurrent start
    // start_time_ is written before started_ flips so the unsynchronized
    // read in elapsed_seconds() (gated on started_) sees a complete value.
    start_time_ = std::chrono::steady_clock::now();
    workers_.reserve(options_.workers);
    for (std::size_t w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this, w] { worker_loop(w); });
    started_.store(true);
}

void ModelRouter::shutdown() {
    std::lock_guard<std::mutex> lock(lifecycle_m_);
    // Start-before-drain so requests queued against a never-started router
    // still run to completion (the accepted-implies-completed guarantee).
    start_locked();
    closing_.store(true);
    queue_.close();
    // Closing the feedback stream is the learner's end-of-input signal.
    if (feedback_) feedback_->close();
    if (joined_.exchange(true)) return;
    for (auto& w : workers_)
        if (w.joinable()) w.join();
    frozen_elapsed_s_.store(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time_)
            .count());
}

InferenceHandle ModelRouter::submit(const common::Tensor& image,
                                    SubmitOptions opt) {
    return enqueue(Request::Kind::Predict, image, std::move(opt));
}

InferenceHandle ModelRouter::submit_counts(const common::Tensor& image,
                                           SubmitOptions opt) {
    return enqueue(Request::Kind::Counts, image, std::move(opt));
}

void ModelRouter::submit_async(const common::Tensor& image, SubmitOptions opt) {
    if (!opt.on_complete)
        throw std::invalid_argument("ModelRouter: submit_async needs "
                                    "SubmitOptions::on_complete");
    (void)enqueue(Request::Kind::Predict, image, std::move(opt));
}

void ModelRouter::submit_counts_async(const common::Tensor& image,
                                      SubmitOptions opt) {
    if (!opt.on_complete)
        throw std::invalid_argument("ModelRouter: submit_counts_async needs "
                                    "SubmitOptions::on_complete");
    (void)enqueue(Request::Kind::Counts, image, std::move(opt));
}

InferenceHandle ModelRouter::enqueue(Request::Kind kind,
                                     const common::Tensor& image,
                                     SubmitOptions opt) {
    Request req;
    req.kind = kind;
    req.image = image;
    req.model = opt.model;
    req.request_id = opt.request_id;
    InferenceHandle handle;
    if (opt.on_complete)
        req.on_complete = std::move(opt.on_complete);
    else
        handle = InferenceHandle(req.promise.get_future());
    enqueue_request(std::move(req), opt);
    return handle;
}

void ModelRouter::enqueue_request(Request req, const SubmitOptions& opt) {
    if (closing_.load()) {
        metrics_.on_reject();
        req.resolve(rejected_result(RejectReason::Shutdown, opt.priority));
        return;
    }
    // Addressability check at the intake: an unknown name must reject
    // immediately (never block, never occupy queue space). Loading the
    // model itself stays lazy — it happens on a worker at dispatch.
    if (!req.model.empty()) {
        std::lock_guard<std::mutex> lk(entries_m_);
        try {
            (void)find_or_register_locked(req.model);
        } catch (const std::exception&) {
            metrics_.on_reject();
            req.resolve(
                rejected_result(RejectReason::UnknownModel, opt.priority));
            return;
        }
    }
    // Intake stamp: taken for traced requests, and for every request while
    // the slow-request log is armed (its span breakdown needs the stamps
    // whether or not the client asked for a trace echo).
    req.trace.enabled = opt.trace;
    if (opt.trace || options_.slow_request_us > 0)
        req.trace.t_intake_us = clock_->now_us();
    // A relative SLO becomes an absolute Clock deadline at the intake; the
    // queue compares against the same clock at the head.
    const std::uint64_t deadline_us =
        opt.deadline_us == 0 ? 0 : clock_->now_us() + opt.deadline_us;

    bool accepted = false;
    RejectReason refusal = RejectReason::Shutdown;
    if (options_.backpressure == Backpressure::Block) {
        // push() returns false only if the queue closed while waiting.
        accepted = queue_.push(req, opt.priority, deadline_us);
    } else {
        switch (queue_.try_push(req, opt.priority, deadline_us)) {
            case AdmissionQueue<Request>::Push::Ok: accepted = true; break;
            case AdmissionQueue<Request>::Push::Full:
                refusal = RejectReason::QueueFull;
                break;
            case AdmissionQueue<Request>::Push::Closed: break;
        }
    }
    if (!accepted) {
        metrics_.on_reject();
        req.resolve(rejected_result(refusal, opt.priority));
    } else {
        metrics_.on_accept(queue_.size());
    }
}

bool ModelRouter::submit_feedback(const common::Tensor& image,
                                  std::size_t label, const SubmitOptions& opt) {
    // Label validation happens at the intake, not on the learner thread; the
    // fleet shares the default model's topology, so one class count covers
    // every entry.
    if (!feedback_ || closing_.load() ||
        label >= default_model_->spec().classes) {
        metrics_.on_feedback_drop();
        return false;
    }
    if (!opt.model.empty()) {
        std::lock_guard<std::mutex> lk(entries_m_);
        try {
            (void)find_or_register_locked(opt.model);
        } catch (const std::exception&) {
            metrics_.on_feedback_drop();
            return false;
        }
    }
    FeedbackSample sample{image, label, opt.model};
    if (feedback_->try_push(sample, Priority::Feedback) !=
        FeedbackQueue::Push::Ok) {
        metrics_.on_feedback_drop();
        return false;
    }
    return true;
}

ModelRouter::Entry& ModelRouter::find_or_register_locked(
    const std::string& name) {
    auto it = entries_.find(name);
    if (it != entries_.end()) return *it->second;
    if (!valid_model_name(name))
        throw std::invalid_argument("ModelRouter: invalid model name '" +
                                    name + "'");
    if (options_.fleet_dir.empty() ||
        !std::filesystem::is_directory(
            std::filesystem::path(options_.fleet_dir) / name))
        throw std::invalid_argument("ModelRouter: unknown model '" + name +
                                    "'");
    auto e = std::make_unique<Entry>();
    e->name = name;
    e->refreshed_batch.assign(options_.workers, 0);
    Entry& ref = *e;
    entries_.emplace(name, std::move(e));
    return ref;
}

std::string ModelRouter::registry_dir_locked(const Entry& e) const {
    if (e.name.empty()) return options_.default_registry_dir;
    if (options_.fleet_dir.empty()) return "";
    return (std::filesystem::path(options_.fleet_dir) / e.name).string();
}

void ModelRouter::load_locked(Entry& e, std::uint64_t version) {
    const std::string dir = registry_dir_locked(e);
    if (dir.empty())
        throw std::runtime_error("ModelRouter: model '" + e.name +
                                 "' has no registry");
    online::ModelRegistry reg(dir);
    if (version == 0) {
        const auto last = reg.last_good();
        if (!last)
            throw std::runtime_error("ModelRouter: registry for '" + e.name +
                                     "' is empty");
        version = last->version;
    }
    const auto snap = reg.load(version);  // throws on unknown/corrupt
    e.model = default_model_->with_weights(snap);
    e.sessions = e.model->open_sessions(options_.workers);
    e.base_version = version;
    e.base_bytes = snapshot_bytes(snap);
    resident_bytes_ += e.base_bytes;
    std::fill(e.refreshed_batch.begin(), e.refreshed_batch.end(), 0);
    ++e.loads;
    if (options_.recorder)
        options_.recorder->record(obs::EventKind::ModelLoad, clock_->now_us(),
                                  e.name, e.base_bytes, version);
    // A surviving canary configuration (e.g. after an LRU evict) comes
    // back with the entry, so the split an operator set keeps holding.
    if (e.canary_version != 0 && e.canary_pct != 0) {
        const auto csnap = reg.load(e.canary_version);
        e.canary_model = default_model_->with_weights(csnap);
        e.canary_sessions = e.canary_model->open_sessions(options_.workers);
        e.canary_bytes = snapshot_bytes(csnap);
        resident_bytes_ += e.canary_bytes;
    }
    evict_locked(&e);
}

void ModelRouter::drop_canary_arm_locked(Entry& e) {
    resident_bytes_ -= e.canary_bytes;
    e.canary_bytes = 0;
    e.canary_sessions.clear();
    e.canary_model.reset();
}

void ModelRouter::drop_arms_locked(Entry& e, bool keep_canary_config) {
    resident_bytes_ -= e.base_bytes;
    e.base_bytes = 0;
    e.sessions.clear();
    e.model.reset();
    e.base_version = 0;
    drop_canary_arm_locked(e);
    if (!keep_canary_config) {
        e.canary_version = 0;
        e.canary_pct = 0;
    }
}

void ModelRouter::evict_locked(const Entry* keep) {
    if (options_.resident_budget_bytes == 0) return;
    while (resident_bytes_ > options_.resident_budget_bytes) {
        Entry* victim = nullptr;
        for (auto& [name, ep] : entries_) {
            Entry& e = *ep;
            if (!e.model || e.pinned || &e == keep) continue;
            if (e.base_inflight + e.canary_inflight > 0) continue;
            if (!victim || e.lru_seq < victim->lru_seq) victim = &e;
        }
        if (!victim) return;  // soft ceiling: nothing is evictable
        ++victim->evictions;
        if (options_.recorder)
            options_.recorder->record(obs::EventKind::Eviction,
                                      clock_->now_us(), victim->name,
                                      victim->base_bytes + victim->canary_bytes,
                                      victim->base_version);
        drop_arms_locked(*victim, /*keep_canary_config=*/true);
    }
}

ModelRouter::DispatchSlot ModelRouter::acquire_slot(
    const Request& r, std::size_t worker, std::uint64_t batch_ordinal) {
    DispatchSlot slot;
    std::lock_guard<std::mutex> lk(entries_m_);
    Entry* e = nullptr;
    try {
        e = &find_or_register_locked(r.model);
        if (!e->model) load_locked(*e, 0);
    } catch (const std::exception& ex) {
        slot.error = ex.what();
        return slot;
    }
    e->lru_seq = ++lru_clock_;
    slot.entry = e;
    slot.canary = e->canary_pct > 0 && !e->canary_sessions.empty() &&
                  canary_arm(r.request_id, e->canary_pct);
    if (slot.canary) {
        slot.session = e->canary_sessions[worker].get();
        ++e->canary_dispatched;
        ++e->canary_inflight;
    } else {
        slot.session = e->sessions[worker].get();
        ++e->base_dispatched;
        ++e->base_inflight;
        // Batch boundary: the base arm adopts a newly published weight
        // image once per (entry, worker, batch). The canary arm never
        // refreshes — its whole point is serving a fixed candidate version.
        if (e->refreshed_batch[worker] != batch_ordinal) {
            e->refreshed_batch[worker] = batch_ordinal;
            slot.do_refresh = true;
        }
    }
    return slot;
}

void ModelRouter::release_slot(const DispatchSlot& slot, bool ok,
                               double latency_us) {
    std::lock_guard<std::mutex> lk(entries_m_);
    Entry& e = *slot.entry;
    if (slot.canary) {
        --e.canary_inflight;
        ok ? ++e.canary_ok : ++e.canary_errors;
    } else {
        --e.base_inflight;
        ok ? ++e.base_ok : ++e.base_errors;
    }
    // Per-model latency is arm-agnostic (the canary split is a routing
    // detail, not a separate service) and excludes error outcomes, which
    // pass latency_us < 0.
    if (latency_us >= 0.0) e.latency.record(latency_us);
}

void ModelRouter::on_head_drop(const Dropped<Request>& d) {
    // collect_admitted invokes its on_drop callback OUTSIDE the queue lock
    // (admission.hpp pins that), so taking entries_m_ here cannot deadlock.
    // The entry exists: intake registers every addressable name before the
    // request may enter the queue — but an empty fleet_dir race is cheap to
    // tolerate, so a miss just skips per-model attribution.
    std::lock_guard<std::mutex> lk(entries_m_);
    const auto it = entries_.find(d.value.model);
    if (it != entries_.end()) {
        if (d.cause == DropCause::DeadlineExceeded)
            ++it->second->deadline_dropped;
        else
            ++it->second->codel_dropped;
    }
    if (options_.recorder)
        options_.recorder->record(
            d.cause == DropCause::DeadlineExceeded
                ? obs::EventKind::DeadlineDrop
                : obs::EventKind::CoDelDrop,
            clock_->now_us(), d.value.model, d.sojourn_us,
            static_cast<std::uint64_t>(d.cls));
}

void ModelRouter::worker_loop(std::size_t worker_index) {
    std::vector<Admitted<Request>> batch;
    std::vector<double> ok_latencies_us;
    std::vector<double> sojourns_us;
    std::uint64_t batch_ordinal = 0;
    // Head drops resolve here, on the worker thread: the request WAS
    // accepted, so its future must complete — as an explicit rejection.
    const auto reject_drop = [this](Dropped<Request>&& d) {
        on_head_drop(d);
        InferenceResult res = rejected_result(
            d.cause == DropCause::DeadlineExceeded
                ? RejectReason::DeadlineExceeded
                : RejectReason::Overload,
            d.cls);
        res.sojourn_us = static_cast<double>(d.sojourn_us);
        metrics_.on_admission_drop(res.sojourn_us);
        d.value.resolve(std::move(res));
    };
    while (collect_admitted(queue_, options_.batch, batch, reject_drop)) {
        ++batch_ordinal;
        ok_latencies_us.clear();
        sojourns_us.clear();
        std::size_t error_count = 0;
        for (Admitted<Request>& a : batch) {
            Request& r = a.value;
            // Stamps are taken whenever the request is traced or the
            // slow-request log is armed; a disabled trace costs one branch.
            const bool stamping =
                r.trace.enabled || options_.slow_request_us > 0;
            if (stamping) {
                // Dequeue time is derived from the sojourn the queue
                // already measured — no extra clock read at the head.
                r.trace.t_dequeue_us = a.enqueued_at_us + a.sojourn_us;
                r.trace.t_dispatch_us = clock_->now_us();
            }
            InferenceResult res;
            res.batch_size = batch.size();
            res.priority = a.cls;
            res.sojourn_us = static_cast<double>(a.sojourn_us);
            DispatchSlot slot = acquire_slot(r, worker_index, batch_ordinal);
            if (slot.session == nullptr) {
                // Routing failed (lazy load threw) — accepted requests
                // still complete, as an explicit Error.
                res.status = Status::Error;
                res.error = slot.error;
                // Keep the span chain telescoping: no compute happened.
                if (stamping) r.trace.t_compute_done_us = clock_->now_us();
            } else {
                // Inference runs outside entries_m_; the inflight share
                // taken in acquire_slot keeps the sessions alive.
                if (slot.do_refresh && slot.session->refresh())
                    metrics_.on_weight_refresh();
                // Kernel phase attribution: the session's cumulative
                // sweep/accumulate sinks are deltaed around the compute
                // call, re-read after it (a sharded session snapshots its
                // shard sum on each read). Same-thread reads — a session
                // is owned by this worker — so plain loads are safe.
                const loihi::KernelPhaseTimes* phases =
                    stamping ? slot.session->kernel_phases() : nullptr;
                const loihi::KernelPhaseTimes before =
                    phases ? *phases : loihi::KernelPhaseTimes{};
                try {
                    if (r.kind == Request::Kind::Predict) {
                        res.label = slot.session->predict(r.image);
                    } else {
                        res.counts = slot.session->output_counts(r.image);
                        std::size_t best = 0;
                        for (std::size_t j = 1; j < res.counts.size(); ++j)
                            if (res.counts[j] > res.counts[best]) best = j;
                        res.label = best;
                    }
                    res.status = Status::Ok;
                } catch (const std::exception& e) {
                    res.status = Status::Error;
                    res.error = e.what();
                }
                if (phases) {
                    const loihi::KernelPhaseTimes after =
                        *slot.session->kernel_phases();
                    r.trace.kernel_sweep_ns = after.sweep_ns - before.sweep_ns;
                    r.trace.kernel_accum_ns = after.accum_ns - before.accum_ns;
                }
                if (stamping) r.trace.t_compute_done_us = clock_->now_us();
                const std::uint64_t now = clock_->now_us();
                const double latency = static_cast<double>(
                    now >= a.enqueued_at_us ? now - a.enqueued_at_us : 0);
                release_slot(slot, res.status == Status::Ok,
                             res.status == Status::Ok ? latency : -1.0);
            }
            // t_complete shares the clock read that defines latency_us, so
            // a trace's span sum telescopes to the reported wall latency
            // exactly (ISSUE acceptance: within 5% by construction).
            const std::uint64_t now = clock_->now_us();
            if (stamping) r.trace.t_complete_us = now;
            res.latency_us = static_cast<double>(
                now >= a.enqueued_at_us ? now - a.enqueued_at_us : 0);
            if (r.trace.enabled) res.trace = r.trace;
            if (options_.recorder && options_.slow_request_us > 0 &&
                res.latency_us >
                    static_cast<double>(options_.slow_request_us)) {
                obs::Event ev;
                ev.t_us = now;
                ev.kind = obs::EventKind::SlowRequest;
                ev.a = r.request_id;
                ev.b = static_cast<std::uint64_t>(res.latency_us);
                ev.spans[0] = r.trace.queue_us();
                ev.spans[1] = r.trace.batch_us();
                ev.spans[2] = r.trace.compute_us();
                ev.spans[3] = r.trace.resolve_us();
                ev.spans[4] = r.trace.kernel_sweep_ns;
                ev.spans[5] = r.trace.kernel_accum_ns;
                ev.spans[6] = r.trace.total_us();
                ev.set_detail(r.model);
                options_.recorder->record(ev);
            }
            sojourns_us.push_back(res.sojourn_us);
            if (res.status == Status::Ok)
                ok_latencies_us.push_back(res.latency_us);
            else
                ++error_count;
            r.resolve(std::move(res));
        }
        metrics_.on_batch(batch.size(), ok_latencies_us, sojourns_us,
                          error_count);
    }
}

std::uint64_t ModelRouter::load(const std::string& name) {
    std::lock_guard<std::mutex> lk(entries_m_);
    Entry& e = find_or_register_locked(name);
    if (!e.model) load_locked(e, 0);
    return e.base_version;
}

void ModelRouter::unload(const std::string& name) {
    if (name.empty())
        throw std::invalid_argument(
            "ModelRouter: cannot unload the default model");
    for (int i = 0;; ++i) {
        {
            std::lock_guard<std::mutex> lk(entries_m_);
            auto it = entries_.find(name);
            if (it == entries_.end())
                throw std::invalid_argument("ModelRouter: unknown model '" +
                                            name + "'");
            Entry& e = *it->second;
            if (e.base_inflight + e.canary_inflight == 0) {
                e.pinned = false;
                drop_arms_locked(e, /*keep_canary_config=*/false);
                return;
            }
        }
        // Requests already dispatched finish on their session; queued ones
        // will reload the entry — unload never drops accepted work.
        if (i >= 250)
            throw std::runtime_error("ModelRouter: model '" + name +
                                     "' has requests in flight");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

std::uint64_t ModelRouter::pin(const std::string& name,
                               std::uint64_t version) {
    std::lock_guard<std::mutex> lk(entries_m_);
    Entry& e = find_or_register_locked(name);
    if (version == 0) {
        if (!e.model) load_locked(e, 0);
    } else if (e.model) {
        // Resident: hand the pool the pinned weights through the COW
        // publication channel — sessions adopt at their next batch
        // boundary, in-flight requests finish on the version they started.
        const std::string dir = registry_dir_locked(e);
        if (dir.empty())
            throw std::runtime_error("ModelRouter: model '" + e.name +
                                     "' has no registry");
        online::ModelRegistry reg(dir);
        e.model->publish_weights(reg.load(version));
        e.base_version = version;
        if (options_.recorder)
            options_.recorder->record(obs::EventKind::WeightPublish,
                                      clock_->now_us(), e.name, version, 0);
    } else {
        load_locked(e, version);
    }
    e.pinned = true;
    return e.base_version;
}

void ModelRouter::set_canary(const std::string& name, std::uint64_t version,
                             std::uint32_t pct) {
    if (pct > 100)
        throw std::invalid_argument("ModelRouter: canary pct must be 0..100");
    const bool clearing = pct == 0 || version == 0;
    for (int i = 0;; ++i) {
        {
            std::lock_guard<std::mutex> lk(entries_m_);
            Entry& e = find_or_register_locked(name);
            if (!clearing && e.canary_model && e.canary_version == version) {
                e.canary_pct = pct;  // same arm, new split — no rebuild
                if (options_.recorder)
                    options_.recorder->record(obs::EventKind::CanaryChange,
                                              clock_->now_us(), e.name, pct,
                                              version);
                return;
            }
            // Stop routing new work to the old arm first; it then drains
            // on its own even under live base traffic.
            e.canary_pct = 0;
            if (e.canary_inflight == 0) {
                drop_canary_arm_locked(e);
                e.canary_version = 0;
                if (clearing) {
                    if (options_.recorder)
                        options_.recorder->record(
                            obs::EventKind::CanaryChange, clock_->now_us(),
                            e.name, 0, 0);
                    return;
                }
                if (!e.model) load_locked(e, 0);
                const std::string dir = registry_dir_locked(e);
                if (dir.empty())
                    throw std::runtime_error("ModelRouter: model '" + e.name +
                                             "' has no registry");
                online::ModelRegistry reg(dir);
                const auto snap = reg.load(version);
                e.canary_model = default_model_->with_weights(snap);
                e.canary_sessions =
                    e.canary_model->open_sessions(options_.workers);
                e.canary_bytes = snapshot_bytes(snap);
                resident_bytes_ += e.canary_bytes;
                e.canary_version = version;
                e.canary_pct = pct;
                evict_locked(&e);
                if (options_.recorder)
                    options_.recorder->record(obs::EventKind::CanaryChange,
                                              clock_->now_us(), e.name, pct,
                                              version);
                return;
            }
        }
        if (i >= 250)
            throw std::runtime_error(
                "ModelRouter: canary arm of '" + name +
                "' still has requests in flight");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

ModelEntryStats ModelRouter::entry_stats_locked(const Entry& e) const {
    ModelEntryStats s;
    s.name = e.name;
    s.resident = e.model != nullptr;
    s.pinned = e.pinned;
    s.base_version = e.base_version;
    s.canary_version = e.canary_version;
    s.canary_pct = e.canary_pct;
    s.base_dispatched = e.base_dispatched;
    s.base_ok = e.base_ok;
    s.base_errors = e.base_errors;
    s.canary_dispatched = e.canary_dispatched;
    s.canary_ok = e.canary_ok;
    s.canary_errors = e.canary_errors;
    s.loads = e.loads;
    s.evictions = e.evictions;
    s.weight_bytes = e.base_bytes + e.canary_bytes;
    s.last_used = e.lru_seq;
    s.inflight = e.base_inflight + e.canary_inflight;
    s.codel_dropped = e.codel_dropped;
    s.deadline_dropped = e.deadline_dropped;
    s.latency_count = e.latency.count();
    if (s.latency_count > 0) {
        s.p50_us = e.latency.percentile(0.50);
        s.p95_us = e.latency.percentile(0.95);
        s.p99_us = e.latency.percentile(0.99);
        s.mean_us = e.latency.mean_us();
        s.max_us = e.latency.max_us();
    }
    return s;
}

std::vector<ModelEntryStats> ModelRouter::model_stats() const {
    std::lock_guard<std::mutex> lk(entries_m_);
    std::vector<ModelEntryStats> out;
    out.reserve(entries_.size());
    for (const auto& [name, e] : entries_) out.push_back(entry_stats_locked(*e));
    // Discovery: fleet entries nobody has addressed yet still exist as far
    // as operators are concerned — list them as non-resident rows so the
    // control plane can see what `load <name>` would accept.
    if (!options_.fleet_dir.empty()) {
        std::error_code ec;
        for (const auto& d : std::filesystem::directory_iterator(
                 options_.fleet_dir, ec)) {
            if (!d.is_directory()) continue;
            const std::string name = d.path().filename().string();
            if (!valid_model_name(name) || entries_.count(name)) continue;
            ModelEntryStats s;
            s.name = name;
            out.push_back(std::move(s));
        }
    }
    return out;
}

ModelEntryStats ModelRouter::model_stats(const std::string& name) const {
    std::lock_guard<std::mutex> lk(entries_m_);
    const auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::invalid_argument("ModelRouter: unknown model '" + name +
                                    "'");
    return entry_stats_locked(*it->second);
}

std::size_t ModelRouter::resident_bytes() const {
    std::lock_guard<std::mutex> lk(entries_m_);
    return resident_bytes_;
}

double ModelRouter::elapsed_seconds() const {
    const double frozen = frozen_elapsed_s_.load();
    if (frozen >= 0.0) return frozen;
    if (!started_.load()) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_time_)
        .count();
}

ServerStats ModelRouter::stats() const {
    return metrics_.snapshot(elapsed_seconds(), queue_.counters(),
                             feedback_ ? feedback_->counters()
                                       : AdmissionCounters{});
}

}  // namespace neuro::serve
