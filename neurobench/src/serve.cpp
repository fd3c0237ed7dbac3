// serve_wire / learn_while_serve: neurod frames over a Unix socket.
//
// The daemon is an in-process netd::Daemon over a serve::ModelRouter with
// neurod's defaults (2 workers, micro-batch 8 / 200 us, queue 256, CoDel,
// Shed backpressure) serving the neurod default model, 16x16 -> 100 -> 10.
// The load generator is one client thread in this process that spins on
// the clock: it sends each frame of an open-loop Poisson schedule when it
// falls due and polls responses without blocking (a sleeping thread on a
// virtual machine can wake milliseconds late, which would be charged to
// the system under test). Frames go through netd::encode / netd::Decoder,
// the protocol layer every client shares, timed from here. Latency runs
// from each request's due time to its response's receipt, so a late send
// charges its lateness to the request.
//
// learn_while_serve adds an online::OnlineEngine on the router's feedback
// queue, fed labelled Feedback frames in a fixed order on a second
// connection, beside light-rate inference.

#include <sched.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"
#include "metrics.hpp"
#include "netd/daemon.hpp"
#include "netd/protocol.hpp"
#include "obs/timer.hpp"
#include "online/engine.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/router.hpp"
#include "workloads.hpp"

namespace neurobench {

using namespace neuro;

namespace {

// ---- workload constants -----------------------------------------------------

constexpr std::size_t kSide = 16;
constexpr std::size_t kImages = 256;   ///< distinct request images
constexpr double kLightRps = 300;      ///< uncontended operating point
constexpr double kBusyRps = 600;       ///< below capacity, queueing visible
/// Requests kept in flight by the saturation phase behind serve_wire's
/// throughput: one micro-batch per worker, so the standing queue delay
/// stays under CoDel's 5 ms target (no sheds). 12 ran ~15% faster but no
/// steadier, and split the peak RSS between two levels 10% apart.
constexpr std::size_t kSaturationWindow = 8;
/// The latency limit of the rate ladder (loadgen.max_rps_at_slo): a step
/// passes when its p99 from due time is within this, nothing failed and
/// the in-flight backlog did not grow.
constexpr double kSloP99Us = 25'000;
constexpr double kLadderFrom = 600, kLadderTo = 8000, kLadderRatio = 1.1;
constexpr std::size_t kLadderStepRequests = 1000;  ///< p99 has 10 beyond
constexpr double kTailQ = 99.0;
constexpr double kResponseTimeoutS = 5.0;
constexpr std::size_t kWarmupRequests = 64;
// learn_while_serve
constexpr std::size_t kFeedbackStream = 4000;
constexpr std::size_t kHoldout = 100;
constexpr std::size_t kFeedbackWindow = 4;  ///< Feedback frames not yet trained
constexpr std::size_t kFeedbackCapacity = 64;
constexpr std::size_t kWarmupFeedback = 8;

std::uint64_t splitmix(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double uniform01(std::uint64_t& s) {
    return static_cast<double>(splitmix(s) >> 11) * 0x1.0p-53;
}

runtime::ModelSpec neurod_spec() {
    return runtime::ModelSpec{}
        .input(1, kSide, kSide)
        .hidden_layers({100})
        .output_classes(10);
}

serve::RouterOptions neurod_router_options(std::size_t feedback_capacity) {
    serve::RouterOptions o;
    o.workers = 2;
    o.queue_capacity = 256;
    o.batch.max_batch = 8;
    o.batch.max_delay_us = 200;
    o.backpressure = serve::Backpressure::Shed;
    o.admission.codel.enabled = true;
    o.admission.codel.target_us = 5'000;
    o.admission.codel.interval_us = 100'000;
    o.admission.feedback_capacity = feedback_capacity;
    return o;
}

// ---- the daemon under test ---------------------------------------------------

/// neurod in-process: compile, router, daemon loop thread on a socket
/// under .bench_run/ in the working directory (a relative path keeps the
/// sun_path limit out of reach wherever the checkout lives).
class Neurod {
public:
    explicit Neurod(std::size_t feedback_capacity, int instance) {
        ::mkdir(".bench_run", 0755);
        path_ = ".bench_run/nb-" + std::to_string(::getpid()) + "-" +
                std::to_string(instance) + ".sock";
        const auto t0 = Clock::now();
        model = runtime::CompiledModel::compile(neurod_spec(),
                                                runtime::BackendKind::LoihiSim);
        compile_ms = seconds_since(t0) * 1e3;
        router = std::make_shared<serve::ModelRouter>(
            model, neurod_router_options(feedback_capacity));
        router->start();
        netd::DaemonOptions dopt;
        dopt.data_path = path_;
        daemon_ = std::make_unique<netd::Daemon>(router, dopt);
        loop_ = std::thread([this] {
            try {
                daemon_->run();
            } catch (const std::exception& e) {
                error_ = e.what();
                failed_.store(true);
            }
        });
    }
    ~Neurod() {
        daemon_->request_shutdown();
        loop_.join();
        router->shutdown();
        ::unlink(path_.c_str());
        ::rmdir(".bench_run");  // only succeeds once empty
    }
    Neurod(const Neurod&) = delete;
    Neurod& operator=(const Neurod&) = delete;

    const std::string& path() const { return path_; }
    netd::DaemonStats daemon_stats() const { return daemon_->stats(); }
    void check() const {
        if (failed_.load()) throw std::runtime_error("daemon: " + error_);
    }

    std::shared_ptr<const runtime::CompiledModel> model;
    std::shared_ptr<serve::ModelRouter> router;
    double compile_ms = 0.0;

private:
    std::string path_;
    std::unique_ptr<netd::Daemon> daemon_;
    std::thread loop_;
    std::atomic<bool> failed_{false};
    std::string error_;
};

/// A client connection: blocking writes, poll()-bounded reads.
class Conn {
public:
    /// Connects, retrying while the daemon is still binding.
    Conn(const std::string& path, const Neurod& d) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        const auto t0 = Clock::now();
        for (;;) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if (fd_ < 0) throw std::runtime_error("socket failed");
            if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof addr) == 0)
                return;
            ::close(fd_);
            fd_ = -1;
            d.check();
            if (seconds_since(t0) > 10)
                throw std::runtime_error("daemon did not come up at " + path);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    ~Conn() {
        if (fd_ >= 0) ::close(fd_);
    }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    void write_all(const std::vector<std::uint8_t>& b) {
        std::size_t off = 0;
        while (off < b.size()) {
            const ssize_t w = ::send(fd_, b.data() + off, b.size() - off, MSG_NOSIGNAL);
            if (w < 0) {
                if (errno == EINTR) continue;
                throw std::runtime_error(std::string("send: ") + std::strerror(errno));
            }
            off += static_cast<std::size_t>(w);
        }
    }
    /// Reads what is available now; 0 when nothing is.
    std::size_t read_now(std::uint8_t* buf, std::size_t n) {
        const ssize_t got = ::recv(fd_, buf, n, MSG_DONTWAIT);
        if (got > 0) return static_cast<std::size_t>(got);
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
            return 0;
        throw std::runtime_error("daemon closed the connection");
    }

private:
    int fd_ = -1;
};

// ---- inputs ----------------------------------------------------------------------

struct Inputs {
    data::Dataset images;                ///< kImages request images
    std::vector<std::size_t> expected;   ///< Session::predict of each (serve_wire)
    std::uint64_t rng;                   ///< schedule stream, seeded
};

netd::RequestFrame predict_frame(const common::Tensor& img, std::uint64_t id,
                                 bool trace) {
    netd::RequestFrame f;
    f.version = trace ? netd::kProtocolVersionV3 : netd::kProtocolVersion;
    f.kind = netd::MsgKind::Predict;
    f.request_id = id;
    f.flags = trace ? netd::kFlagTrace : 0;
    f.shape.assign(img.shape().begin(), img.shape().end());
    f.data.assign(img.data(), img.data() + img.size());
    return f;
}

struct Arrival {
    std::uint64_t offset_ns;
    std::uint32_t image;
};

/// Poisson arrivals at `rate`, `count` of them, images drawn uniformly.
std::vector<Arrival> poisson(double rate, std::size_t count, std::uint64_t& rng) {
    std::vector<Arrival> out;
    out.reserve(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        t += -std::log(1.0 - uniform01(rng)) / rate;
        out.push_back({static_cast<std::uint64_t>(t * 1e9),
                       static_cast<std::uint32_t>(splitmix(rng) % kImages)});
    }
    return out;
}

// ---- one open-loop phase ------------------------------------------------------------

struct Phase {
    Outcomes out;
    std::vector<double> latency_us;  ///< due -> receipt, Ok responses
    std::vector<double> late_us;     ///< due -> send start
    std::vector<double> inflight;    ///< sampled every 5 ms
    std::vector<std::pair<double, double>> done;  ///< (s since start, Ok so far)
    double wall_s = 0.0;
    // Traced spans (trace flag set), one entry per Ok response.
    std::vector<double> queue_us, batch_us, compute_us, resolve_us, wire_us;
    std::vector<double> encode_us, decode_us;
    double kernel_sweep_ns = 0.0, kernel_accum_ns = 0.0;
    double covered_us = 0.0, client_us = 0.0;  ///< span_cover numerator/denominator
    double bytes = 0.0;
};

struct SendLog {
    std::uint64_t due_ns = 0, begin_ns = 0, sent_ns = 0, encode_ns = 0;
    std::uint32_t image = 0;
    std::size_t bytes = 0;
};

std::uint64_t span(const netd::ResponseFrame& r, obs::SpanId id) {
    for (const auto& s : r.trace)
        if (s.id == static_cast<std::uint8_t>(id)) return s.value;
    return 0;
}

/// The fixed-order labelled stream of learn_while_serve, sent as Feedback
/// frames on its own connection, at most kFeedbackWindow ahead of the
/// learner so the best-effort feedback queue never sheds (a shed sample
/// would change the learning trajectory). Driven by the same client
/// thread as the inference schedule.
class FeedbackFeed {
public:
    FeedbackFeed(Conn& conn, const data::Dataset& stream,
                 const online::OnlineEngine& engine)
        : conn_(conn), stream_(stream), engine_(engine) {}

    /// One non-blocking step: collect acks, send the next sample when the
    /// learner has room. Polls the learner's counters at most every 100 us.
    void pump(std::uint64_t now, bool may_send) {
        std::uint8_t buf[4096];
        for (std::size_t n; (n = conn_.read_now(buf, sizeof buf)) > 0;) {
            dec_.feed(buf, n);
            netd::ResponseFrame r;
            for (netd::Decoder::Result res; (res = dec_.next_response(r)) !=
                                            netd::Decoder::Result::NeedMore;) {
                if (res == netd::Decoder::Result::Error)
                    throw std::runtime_error("feedback ack did not decode");
                ++acked_;
                if (r.status != netd::WireStatus::Ok) ++refused_;
            }
        }
        if (!may_send || acked_ < sent_) return;
        if (now - polled_ns_ > 100'000) {
            seen_ = engine_.stats().feedback_seen;
            polled_ns_ = now;
            if (now - logged_ns_ > 50'000'000) {
                learned_.push_back({static_cast<double>(now) * 1e-9,
                                    static_cast<double>(seen_)});
                logged_ns_ = now;
            }
        }
        if (sent_ - seen_ >= kFeedbackWindow) return;
        const auto& s = stream_.samples[sent_ % stream_.size()];
        netd::RequestFrame f;
        f.kind = netd::MsgKind::Feedback;
        f.priority = static_cast<std::uint8_t>(serve::Priority::Feedback);
        f.request_id = sent_ + 1;
        f.label = static_cast<std::uint32_t>(s.label);
        f.shape.assign(s.image.shape().begin(), s.image.shape().end());
        f.data.assign(s.image.data(), s.image.data() + s.image.size());
        conn_.write_all(netd::encode(f));
        ++sent_;
    }
    /// Sends until `n` samples went out and were acknowledged.
    void send_until(std::size_t n) {
        while (sent_ < n || acked_ < sent_) pump(now_ns(), sent_ < n);
    }
    /// Collects the outstanding ack without sending more.
    void settle() {
        while (acked_ < sent_) pump(now_ns(), false);
    }
    std::size_t sent() const { return sent_; }
    std::size_t refused() const { return refused_; }
    /// (time s, samples trained), logged every ~50 ms while pumped; taking
    /// the log clears it.
    std::vector<std::pair<double, double>> take_learned() {
        return std::exchange(learned_, {});
    }

private:
    Conn& conn_;
    const data::Dataset& stream_;
    const online::OnlineEngine& engine_;
    netd::Decoder dec_;
    std::size_t sent_ = 0, acked_ = 0, refused_ = 0;
    std::uint64_t seen_ = 0, polled_ns_ = 0, logged_ns_ = 0;
    std::vector<std::pair<double, double>> learned_;
};

/// How a phase sends: open-loop on the plan's schedule, or closed-loop
/// with `window` requests in flight for `seconds` (the plan then only
/// picks images; a request is due when it is sent).
struct Pacing {
    std::size_t window = 0;  ///< 0 = open loop
    double seconds = 0.0;
};

/// Runs `plan` on `conn` (ids next_id, next_id+1, ...) and collects every
/// response, giving up kResponseTimeoutS after the last send. With
/// `check_labels`, an Ok label must equal Session::predict of the same
/// image (served == Session). `feed`, when given, is pumped beside the
/// schedule.
Phase open_loop(Conn& conn, const Inputs& in, const std::vector<Arrival>& plan,
                bool trace, std::uint64_t& next_id, bool check_labels,
                FeedbackFeed* feed = nullptr, Pacing pacing = {}) {
    const std::uint64_t id0 = next_id;
    next_id += plan.size();
    std::vector<SendLog> sent(plan.size());
    std::vector<bool> seen(plan.size(), false);
    std::size_t n_sent = 0, n_got = 0;
    netd::Decoder dec;
    std::vector<std::uint8_t> buf(64 * 1024);
    Phase ph;
    const std::uint64_t t0 = now_ns() + 1'000'000;  // schedule starts in 1 ms

    auto account = [&](const netd::ResponseFrame& r, std::uint64_t recv_ns,
                       std::uint64_t decode_ns, std::size_t bytes) {
        if (r.request_id < id0 || r.request_id >= id0 + plan.size() ||
            seen[r.request_id - id0])
            throw std::runtime_error("response to a request id never sent");
        const std::size_t i = r.request_id - id0;
        seen[i] = true;
        ++n_got;
        const SendLog& s = sent[i];
        if (r.status == netd::WireStatus::Rejected) {
            if (r.reject_reason ==
                static_cast<std::uint8_t>(serve::RejectReason::QueueFull))
                ++ph.out.shed;
            else
                ++ph.out.dropped;
            return;
        }
        if (r.status != netd::WireStatus::Ok) {
            ++ph.out.errors;
            return;
        }
        if (check_labels && r.label != in.expected[s.image]) {
            ++ph.out.wrong;
            return;
        }
        ++ph.out.ok;
        ph.done.push_back({static_cast<double>(recv_ns - t0) * 1e-9,
                           static_cast<double>(ph.out.ok)});
        ph.latency_us.push_back(static_cast<double>(recv_ns - s.due_ns) * 1e-3);
        ph.bytes += static_cast<double>(s.bytes + bytes);
        if (!trace) return;
        const double rtt = static_cast<double>(recv_ns - s.sent_ns) * 1e-3;
        const double total = static_cast<double>(span(r, obs::SpanId::TotalUs));
        const double enc = static_cast<double>(s.encode_ns) * 1e-3;
        const double dc = static_cast<double>(decode_ns) * 1e-3;
        ph.queue_us.push_back(static_cast<double>(span(r, obs::SpanId::QueueUs)));
        ph.batch_us.push_back(static_cast<double>(span(r, obs::SpanId::BatchUs)));
        ph.compute_us.push_back(static_cast<double>(span(r, obs::SpanId::ComputeUs)));
        ph.resolve_us.push_back(static_cast<double>(span(r, obs::SpanId::ResolveUs)));
        ph.wire_us.push_back(std::max(0.0, rtt - total));
        ph.encode_us.push_back(enc);
        ph.decode_us.push_back(dc);
        ph.kernel_sweep_ns += static_cast<double>(span(r, obs::SpanId::KernelSweepNs));
        ph.kernel_accum_ns += static_cast<double>(span(r, obs::SpanId::KernelAccumNs));
        ph.covered_us += enc + total + dc;
        ph.client_us += enc + rtt + dc;
    };

    const std::uint64_t stop_at =
        t0 + static_cast<std::uint64_t>(pacing.seconds * 1e9);
    std::uint64_t next_sample = t0, last_send = t0;
    bool sending = true;
    for (;;) {
        const std::uint64_t t = now_ns();
        sending = sending && n_sent < plan.size() &&
                  (pacing.window == 0 || t < stop_at);
        if (sending && (pacing.window ? t >= t0 && n_sent - n_got < pacing.window
                                      : t >= t0 + plan[n_sent].offset_ns)) {
            SendLog& s = sent[n_sent];
            s.due_ns = pacing.window ? t : t0 + plan[n_sent].offset_ns;
            s.image = plan[n_sent].image;
            s.begin_ns = t;
            ph.late_us.push_back(static_cast<double>(t - s.due_ns) * 1e-3);
            const auto frame = netd::encode(predict_frame(
                in.images.samples[s.image].image, id0 + n_sent, trace));
            s.sent_ns = now_ns();
            s.encode_ns = s.sent_ns - s.begin_ns;
            s.bytes = frame.size();
            conn.write_all(frame);
            last_send = now_ns();
            ++n_sent;
            continue;
        }
        if (const std::size_t n = conn.read_now(buf.data(), buf.size())) {
            const std::uint64_t recv_ns = now_ns();
            dec.feed(buf.data(), n);
            for (;;) {
                netd::ResponseFrame r;
                const std::size_t buffered = dec.buffered();
                const std::uint64_t d0 = now_ns();
                const auto res = dec.next_response(r);
                if (res == netd::Decoder::Result::NeedMore) break;
                if (res == netd::Decoder::Result::Error)
                    throw std::runtime_error(std::string("decode: ") +
                                             netd::to_string(dec.error()));
                account(r, recv_ns, now_ns() - d0, buffered - dec.buffered());
            }
        }
        if (t >= next_sample) {
            ph.inflight.push_back(static_cast<double>(n_sent - n_got));
            next_sample += 5'000'000;
        }
        if (feed) feed->pump(t, sending);
        if (!sending &&
            (n_got == n_sent ||
             t - last_send > static_cast<std::uint64_t>(kResponseTimeoutS * 1e9)))
            break;
    }
    ph.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    ph.out.attempted = n_sent;
    ph.out.timeouts = n_sent - n_got;
    return ph;
}

std::vector<Arrival> plan_for(double rate, double seconds, std::uint64_t& rng) {
    return poisson(rate, static_cast<std::size_t>(std::ceil(rate * seconds)), rng);
}

Inputs make_inputs(std::uint64_t seed) {
    Inputs in;
    data::GenOptions gen;
    gen.count = kImages;
    gen.seed = seed;
    gen.height = kSide;
    gen.width = kSide;
    in.images = data::make_digits(gen);
    in.rng = seed * 0x2545F4914F6CDD1DULL + 1;
    return in;
}

double mean(const std::vector<double>& v) {
    double t = 0.0;
    for (double x : v) t += x;
    return v.empty() ? 0.0 : t / static_cast<double>(v.size());
}

void note_phase(const char* name, double rate, const Phase& ph) {
    const auto s = summarize(ph.latency_us, kTailQ);
    note("%s @ %.0f req/s: %llu sent, %llu ok, %llu failed", name, rate,
         static_cast<unsigned long long>(ph.out.attempted),
         static_cast<unsigned long long>(ph.out.ok),
         static_cast<unsigned long long>(ph.out.failed()));
    note_summary("  latency from due time", s, "us");
    note("  loadgen late: p99 = %.1f us (n = %zu)", percentile(ph.late_us, 99),
         ph.late_us.size());
}

/// Per-layer serve / netd / kernel metrics of one traced phase.
void put_traced(Report& rep, const Phase& ph, const serve::ServerStats& st,
                const netd::DaemonStats& ds) {
    const double n = static_cast<double>(std::max<std::size_t>(1, ph.queue_us.size()));
    put(rep, "serve.queue_us_p50", percentile(ph.queue_us, 50));
    put(rep, "serve.queue_us_p99", percentile(ph.queue_us, 99));
    put(rep, "serve.peak_queue_depth", static_cast<double>(st.peak_queue_depth));
    put(rep, "serve.batch_us_p50", percentile(ph.batch_us, 50));
    put(rep, "serve.resolve_us_p50", percentile(ph.resolve_us, 50));
    put(rep, "serve.mean_batch", st.mean_batch);
    put(rep, "serve.compute_us_p50", percentile(ph.compute_us, 50));
    put(rep, "serve.compute_us_p99", percentile(ph.compute_us, 99));
    put(rep, "serve.shed", static_cast<double>(st.rejected));
    put(rep, "serve.codel_dropped", static_cast<double>(st.codel_dropped));
    put(rep, "serve.deadline_dropped", static_cast<double>(st.deadline_dropped));
    put(rep, "serve.weight_refreshes", static_cast<double>(st.weight_refreshes));
    put(rep, "netd.encode_us", mean(ph.encode_us));
    put(rep, "netd.decode_us", mean(ph.decode_us));
    put(rep, "netd.wire_us_p50", percentile(ph.wire_us, 50));
    put(rep, "netd.wire_us_p99", percentile(ph.wire_us, 99));
    put(rep, "netd.bytes_per_request", ph.bytes / n);
    put(rep, "netd.backpressure_pauses", static_cast<double>(ds.backpressure_pauses));
    put(rep, "loihi.sweep_ms_per_sample", ph.kernel_sweep_ns * 1e-6 / n);
    put(rep, "loihi.accum_ms_per_sample", ph.kernel_accum_ns * 1e-6 / n);
    put(rep, "obs.span_cover", ph.client_us > 0 ? ph.covered_us / ph.client_us : 0.0);
    note("traced spans (p50 us): queue %.0f + batch %.0f + compute %.0f + resolve "
         "%.0f | wire %.0f, encode %.1f, decode %.1f; kernel sweep %.3f ms + "
         "accum %.3f ms per request",
         percentile(ph.queue_us, 50), percentile(ph.batch_us, 50), percentile(ph.compute_us, 50),
         percentile(ph.resolve_us, 50), percentile(ph.wire_us, 50), mean(ph.encode_us),
         mean(ph.decode_us), ph.kernel_sweep_ns * 1e-6 / n,
         ph.kernel_accum_ns * 1e-6 / n);
}

/// Modelled per-inference activity of the served model, measured on the
/// verification session (the same compiled model, the same images).
void put_inference_counts(Report& rep, const loihi::ActivityTotals& a,
                          std::size_t n) {
    const double d = static_cast<double>(std::max<std::size_t>(1, n));
    put(rep, "loihi.steps_per_sample", static_cast<double>(a.steps) / d);
    put(rep, "loihi.updates_per_sample", static_cast<double>(a.compartment_updates) / d);
    put(rep, "loihi.synops_per_sample", static_cast<double>(a.synaptic_ops) / d);
    put(rep, "loihi.spikes_per_sample", static_cast<double>(a.spikes) / d);
    put(rep, "loihi.learn_visits_per_sample",
        static_cast<double>(a.learning_synapse_visits) / d);
    put(rep, "loihi.host_io_per_sample", static_cast<double>(a.host_io_writes) / d);
}

}  // namespace

// ---- serve_wire -------------------------------------------------------------------------

void run_serve_wire(const RunConfig& cfg, Report& rep) {
    Inputs in = make_inputs(cfg.seed);
    const CpuSplit cpus;
    cpus.enter_system();

    // Set-up: compile, router up, daemon bound, client connected.
    std::vector<double> setups;
    std::unique_ptr<Neurod> d;
    std::unique_ptr<Conn> conn;
    double open_ms = 0.0;
    for (int i = 0; i < (cfg.trace ? 1 : kSetupRepeats); ++i) {
        conn.reset();
        d.reset();
        const auto t0 = Clock::now();
        d = std::make_unique<Neurod>(0, i);
        conn = std::make_unique<Conn>(d->path(), *d);
        setups.push_back(seconds_since(t0));
    }

    cpus.enter_client();
    note("cpu split: %s", cpus.describe().c_str());
    // served == Session: the label every image must come back with.
    auto ref = d->model->open_session();
    {
        const auto t0 = Clock::now();
        auto probe = d->model->open_session();
        open_ms = seconds_since(t0) * 1e3;
    }
    const auto act0 = *ref->activity();
    for (const auto& s : in.images.samples) in.expected.push_back(ref->predict(s.image));
    const auto act = *ref->activity();
    print_provenance(cfg, sweep_mode(*ref));

    std::uint64_t next_id = 1;
    // Warm-up: first session use on every worker, first batches.
    (void)open_loop(*conn, in, poisson(kLightRps, kWarmupRequests, in.rng), false,
                    next_id, true);

    std::vector<double> late;
    auto run = [&](const char* name, double rate, double secs, bool trace) {
        if (trace) neuro::obs::set_timing(true);
        Phase ph = open_loop(*conn, in, plan_for(rate, secs, in.rng), trace, next_id, true);
        neuro::obs::set_timing(false);
        rep.outcomes += ph.out;
        late.insert(late.end(), ph.late_us.begin(), ph.late_us.end());
        note_phase(name, rate, ph);
        return ph;
    };

    if (!cfg.trace) {
        run("light", kLightRps, cfg.seconds * 0.25, false);
        run("busy", kBusyRps, cfg.seconds * 0.15, false);
        // Saturation: kSaturationWindow requests always in flight.
        const Phase sat = open_loop(*conn, in, poisson(kLightRps, 1u << 16, in.rng),
                                    false, next_id, true, nullptr,
                                    {kSaturationWindow, cfg.seconds * 0.6});
        rep.outcomes += sat.out;
        const double thr = median_block_rate(blocks_of(sat.done, 0.25));
        note("saturation (%zu in flight): %.1f req/s (median of 0.25 s blocks; "
             "%.1f overall) over %.2f s, %llu failed",
             kSaturationWindow, thr, static_cast<double>(sat.out.ok) / sat.wall_s,
             sat.wall_s,
             static_cast<unsigned long long>(sat.out.failed()));
        note("loadgen.late_us_p99 = %.1f us over %zu open-loop requests", percentile(late, 99),
             late.size());
        put(rep, "setup_s", median(setups));
        put(rep, "peak_rss_mb", peak_rss_mib());
        put(rep, "throughput_per_s", thr);
        return;
    }

    const Phase plain = run("light (untraced)", kLightRps, cfg.seconds * 0.2, false);
    const Phase light = run("light (traced)", kLightRps, cfg.seconds * 0.2, true);
    const Phase busy = run("busy (traced)", kBusyRps, cfg.seconds * 0.3, true);
    put_traced(rep, busy, d->router->stats(), d->daemon_stats());
    put(rep, "runtime.compile_ms", d->compile_ms);
    put(rep, "runtime.open_session_ms", open_ms);
    put_inference_counts(rep, {act.steps - act0.steps,
                               act.compartment_updates - act0.compartment_updates,
                               act.synaptic_ops - act0.synaptic_ops,
                               act.spikes - act0.spikes,
                               act.learning_synapse_visits - act0.learning_synapse_visits,
                               act.host_io_writes - act0.host_io_writes},
                         in.images.size());
    const auto ls = summarize(plain.latency_us, kTailQ);
    const double p50_traced = summarize(light.latency_us, kTailQ).p50;
    put(rep, "obs.trace_tax", p50_traced > 0 ? ls.p50 / p50_traced : 0.0);
    put(rep, "loadgen.late_us_p99", percentile(late, 99));
    put(rep, "loadgen.light_latency_p50_us", ls.p50);
    put(rep, "loadgen.light_latency_p99_us", ls.tail);
    const auto bs = summarize(busy.latency_us, kTailQ);
    put(rep, "loadgen.busy_latency_p50_us", bs.p50);
    put(rep, "loadgen.busy_latency_p99_us", bs.tail);
    put(rep, "loadgen.failed_frac", rep.outcomes.failed_frac());

    // The rate ladder: the highest offered rate meeting the latency limit.
    // Its refusals are its measurement, reported per step rather than as
    // failed operations; a wrong label still fails the run.
    std::vector<LadderStep> steps;
    for (double rate : ladder_rates(kLadderFrom, kLadderTo, kLadderRatio)) {
        const Phase ph = open_loop(*conn, in, poisson(rate, kLadderStepRequests, in.rng),
                                   false, next_id, true);
        LadderStep st;
        st.rate = rate;
        st.outcomes = ph.out;
        st.latency = summarize(ph.latency_us, kTailQ);
        st.backlog = backlog_growing(ph.inflight);
        steps.push_back(st);
        rep.outcomes.attempted += ph.out.attempted;
        rep.outcomes.ok += ph.out.attempted - ph.out.wrong;
        rep.outcomes.wrong += ph.out.wrong;
        note("ladder %.0f req/s: p99 %.0f us (n = %zu), failed %llu, backlog %s -> %s",
             rate, st.latency.tail, st.latency.n,
             static_cast<unsigned long long>(ph.out.failed()),
             st.backlog ? "growing" : "bounded",
             step_passes(st, kSloP99Us) ? "pass" : "FAIL");
        if (!step_passes(st, kSloP99Us)) break;
    }
    const double max_rps = max_rate_at_slo(steps, kSloP99Us);
    note("max_rps_at_slo = %.0f req/s (p99 <= %.0f us, no failures, no growing backlog)",
         max_rps, kSloP99Us);
    put(rep, "loadgen.max_rps_at_slo", max_rps);
    put(rep, "loadgen.requests", static_cast<double>(rep.outcomes.attempted));
}

// ---- learn_while_serve -----------------------------------------------------------------

namespace {

online::OnlineOptions engine_options() {
    online::OnlineOptions o;  // in-memory registry; default interval/replay/gate
    return o;
}

std::string describe(const online::OnlineStats& s) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "seen %llu trained %llu candidates %llu published %llu "
                  "rollbacks %llu errors %llu hits %llu acc %.4f/%.4f/%.4f",
                  static_cast<unsigned long long>(s.feedback_seen),
                  static_cast<unsigned long long>(s.trained),
                  static_cast<unsigned long long>(s.candidates),
                  static_cast<unsigned long long>(s.published),
                  static_cast<unsigned long long>(s.rollbacks),
                  static_cast<unsigned long long>(s.errors),
                  static_cast<unsigned long long>(s.prequential_hits),
                  s.baseline_accuracy, s.last_eval_accuracy, s.last_good_accuracy);
    return buf;
}

bool same_trajectory(const online::OnlineStats& a, const online::OnlineStats& b) {
    return a.feedback_seen == b.feedback_seen && a.trained == b.trained &&
           a.candidates == b.candidates && a.published == b.published &&
           a.rollbacks == b.rollbacks && a.errors == b.errors &&
           a.prequential_hits == b.prequential_hits &&
           a.baseline_accuracy == b.baseline_accuracy &&
           a.last_eval_accuracy == b.last_eval_accuracy &&
           a.last_good_accuracy == b.last_good_accuracy;
}

void wait_trained(const online::OnlineEngine& e, std::size_t n) {
    const auto t0 = Clock::now();
    while (e.stats().feedback_seen < n && seconds_since(t0) < 60)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

}  // namespace

void run_learn_while_serve(const RunConfig& cfg, Report& rep) {
    Inputs in = make_inputs(cfg.seed);
    data::GenOptions gen;
    gen.count = kFeedbackStream + kHoldout;
    gen.seed = cfg.seed ^ 0xFEEDULL;
    gen.height = kSide;
    gen.width = kSide;
    auto [stream, holdout] = data::split(data::make_digits(gen), kFeedbackStream);
    const CpuSplit cpus;
    cpus.enter_system();

    // Set-up: daemon + engine started (baseline shadow eval included).
    std::vector<double> setups;
    std::unique_ptr<online::OnlineEngine> engine;
    std::unique_ptr<Conn> infer, fb;
    std::unique_ptr<Neurod> d;
    for (int i = 0; i < (cfg.trace ? 1 : kSetupRepeats); ++i) {
        infer.reset();
        fb.reset();
        if (engine) engine->stop();
        engine.reset();
        d.reset();
        const auto t0 = Clock::now();
        d = std::make_unique<Neurod>(kFeedbackCapacity, i);
        engine = std::make_unique<online::OnlineEngine>(
            d->model, d->router->feedback_queue(), holdout, engine_options());
        engine->start();
        infer = std::make_unique<Conn>(d->path(), *d);
        fb = std::make_unique<Conn>(d->path(), *d);
        setups.push_back(seconds_since(t0));
    }
    cpus.enter_client();
    {
        auto probe = d->model->open_session();
        print_provenance(cfg, sweep_mode(*probe));
    }
    note("cpu split: %s", cpus.describe().c_str());

    FeedbackFeed feed(*fb, stream, *engine);
    std::uint64_t next_id = 1;
    // Warm-up: the learner's first updates (its first COW weight detach)
    // and the workers' first requests happen before the window opens.
    feed.send_until(kWarmupFeedback);
    wait_trained(*engine, kWarmupFeedback);
    (void)open_loop(*infer, in, poisson(kLightRps, kWarmupRequests, in.rng), false,
                    next_id, false);

    // The measured window(s): light inference beside a busy learner.
    struct Window {
        Phase ph;
        double learned_per_s = 0.0;
    };
    auto window = [&](double secs, bool trace) {
        Window w;
        const auto seen0 = engine->stats().feedback_seen;
        (void)feed.take_learned();
        if (trace) neuro::obs::set_timing(true);
        w.ph = open_loop(*infer, in, plan_for(kLightRps, secs, in.rng), trace, next_id,
                         false, &feed);
        const auto seen1 = engine->stats().feedback_seen;
        neuro::obs::set_timing(false);
        feed.settle();
        w.learned_per_s = median_block_rate(blocks_of(feed.take_learned(), 0.5));
        rep.outcomes += w.ph.out;
        note_phase(trace ? "light + learner (traced)" : "light + learner", kLightRps,
                   w.ph);
        note("learner: %.2f feedback samples/s (median of 0.5 s blocks; %.2f "
             "overall) over %.2f s",
             w.learned_per_s, static_cast<double>(seen1 - seen0) / w.ph.wall_s,
             w.ph.wall_s);
        return w;
    };

    const Window plain = window(cfg.trace ? cfg.seconds / 2 : cfg.seconds, false);
    Window traced;
    if (cfg.trace) traced = window(cfg.seconds / 2, true);
    const std::size_t total_sent = feed.sent();
    const std::size_t refused = feed.refused();
    const auto st = d->router->stats();
    const auto ds = d->daemon_stats();
    // stop() drains every accepted sample and joins the learner, so the
    // shadow eval a final sample may trigger has finished too.
    engine->stop();
    const auto es = engine->stats();

    rep.outcomes.attempted += total_sent;
    rep.outcomes.ok += total_sent - refused;
    rep.outcomes.feedback_dropped += refused;

    // The trajectory repeats: a second engine, no serving traffic, the same
    // samples in the same order must land on identical OnlineStats.
    {
        auto model = runtime::CompiledModel::compile(neurod_spec(),
                                                     runtime::BackendKind::LoihiSim);
        auto q = std::make_shared<serve::FeedbackQueue>(total_sent + 1);
        online::OnlineEngine twin(model, q, holdout, engine_options());
        twin.start();
        for (std::size_t i = 0; i < total_sent; ++i) {
            serve::FeedbackSample f{stream.samples[i % stream.size()].image,
                                    stream.samples[i % stream.size()].label, {}};
            q->push(f, serve::Priority::Feedback);
        }
        twin.stop();
        const auto ts = twin.stats();
        rep.outcomes.attempted += 1;
        if (same_trajectory(es, ts)) {
            rep.outcomes.ok += 1;
        } else {
            rep.outcomes.wrong += 1;
            rep.fail_check("OnlineStats trajectory did not repeat: served run " +
                           describe(es) + "; replay " + describe(ts));
        }
    }
    const double preq = es.feedback_seen ? static_cast<double>(es.prequential_hits) /
                                               static_cast<double>(es.feedback_seen)
                                         : 0.0;
    note("online: %llu feedback, %llu trained, %llu candidates, %llu published, %llu "
         "rollbacks; prequential %.4f; holdout accuracy of the last published "
         "version %.4f (baseline %.4f); %llu worker weight refreshes",
         static_cast<unsigned long long>(es.feedback_seen),
         static_cast<unsigned long long>(es.trained),
         static_cast<unsigned long long>(es.candidates),
         static_cast<unsigned long long>(es.published),
         static_cast<unsigned long long>(es.rollbacks), preq, es.last_good_accuracy,
         es.baseline_accuracy, static_cast<unsigned long long>(st.weight_refreshes));

    if (!cfg.trace) {
        put(rep, "setup_s", median(setups));
        put(rep, "peak_rss_mb", peak_rss_mib());
        put(rep, "throughput_per_s", plain.learned_per_s);
        return;
    }
    const auto ls = summarize(plain.ph.latency_us, kTailQ);
    std::vector<double> late = plain.ph.late_us;
    late.insert(late.end(), traced.ph.late_us.begin(), traced.ph.late_us.end());
    put(rep, "loadgen.late_us_p99", percentile(late, 99));
    put(rep, "loadgen.light_latency_p50_us", ls.p50);
    put(rep, "loadgen.light_latency_p99_us", ls.tail);
    put_traced(rep, traced.ph, st, ds);
    put(rep, "runtime.compile_ms", d->compile_ms);
    put(rep, "online.trained", static_cast<double>(es.trained));
    put(rep, "online.candidates", static_cast<double>(es.candidates));
    put(rep, "online.published", static_cast<double>(es.published));
    put(rep, "online.rollbacks", static_cast<double>(es.rollbacks));
    put(rep, "online.feedback_dropped", static_cast<double>(refused));
    put(rep, "online.prequential_accuracy", preq);
    put(rep, "online.holdout_accuracy", es.last_good_accuracy);
    put(rep, "obs.trace_tax", traced.learned_per_s > 0 && plain.learned_per_s > 0
                                  ? traced.learned_per_s / plain.learned_per_s
                                  : 0.0);
    put(rep, "loadgen.failed_frac", rep.outcomes.failed_frac());
    put(rep, "loadgen.requests", static_cast<double>(rep.outcomes.attempted));
}

}  // namespace neurobench

