#include "netd/daemon.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"

namespace neuro::netd {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error("netd: " + what + ": " + std::strerror(errno));
}

std::uint64_t us_u64(double us) {
    return us <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(us));
}

/// InferenceResult → wire response. The echoed version / model / request
/// id / priority come from the request frame; everything else is the
/// server's disposition. A v1 request gets a v1 response (no model field —
/// byte-identical to the pre-router daemon); a v2 request's response
/// echoes its model so one connection can demux across the fleet; a v3
/// request that asked to trace gets its span breakdown back.
ResponseFrame to_response(std::uint8_t version, const std::string& model,
                          std::uint64_t request_id,
                          const serve::InferenceResult& r) {
    ResponseFrame out;
    out.version = version;
    if (version >= kProtocolVersionV2) out.model = model;
    if (version >= kProtocolVersionV3 && r.trace.enabled) {
        const obs::TraceContext& t = r.trace;
        out.trace = {
            {static_cast<std::uint8_t>(obs::SpanId::QueueUs), t.queue_us()},
            {static_cast<std::uint8_t>(obs::SpanId::BatchUs), t.batch_us()},
            {static_cast<std::uint8_t>(obs::SpanId::ComputeUs),
             t.compute_us()},
            {static_cast<std::uint8_t>(obs::SpanId::ResolveUs),
             t.resolve_us()},
            {static_cast<std::uint8_t>(obs::SpanId::KernelSweepNs),
             t.kernel_sweep_ns},
            {static_cast<std::uint8_t>(obs::SpanId::KernelAccumNs),
             t.kernel_accum_ns},
            {static_cast<std::uint8_t>(obs::SpanId::TotalUs), t.total_us()},
        };
    }
    switch (r.status) {
        case serve::Status::Ok: out.status = WireStatus::Ok; break;
        case serve::Status::Rejected: out.status = WireStatus::Rejected; break;
        case serve::Status::Error: out.status = WireStatus::Error; break;
    }
    out.reject_reason = static_cast<std::uint8_t>(r.reject);
    out.priority = static_cast<std::uint8_t>(r.priority);
    out.request_id = request_id;
    out.label = static_cast<std::uint32_t>(r.label);
    out.latency_us = us_u64(r.latency_us);
    out.sojourn_us = us_u64(r.sojourn_us);
    out.batch_size = static_cast<std::uint32_t>(r.batch_size);
    out.counts = r.counts;
    out.error = r.error;
    return out;
}

/// One fleet entry as the control plane's JSON (the `models` array and the
/// per-model `stats <name>` reply share this schema).
std::string entry_json(const serve::ModelEntryStats& s) {
    return common::JsonObject()
        .add("name", s.name)
        .add("resident", s.resident)
        .add("pinned", s.pinned)
        .add("base_version", s.base_version)
        .add("canary_version", s.canary_version)
        .add("canary_pct", static_cast<std::uint64_t>(s.canary_pct))
        .add("base_dispatched", s.base_dispatched)
        .add("base_ok", s.base_ok)
        .add("base_errors", s.base_errors)
        .add("canary_dispatched", s.canary_dispatched)
        .add("canary_ok", s.canary_ok)
        .add("canary_errors", s.canary_errors)
        .add("loads", s.loads)
        .add("evictions", s.evictions)
        .add("weight_bytes", static_cast<std::uint64_t>(s.weight_bytes))
        .add("last_used", s.last_used)
        .add("inflight", s.inflight)
        .add("codel_dropped", s.codel_dropped)
        .add("deadline_dropped", s.deadline_dropped)
        .add("latency_count", s.latency_count)
        .add("p50_us", s.p50_us)
        .add("p95_us", s.p95_us)
        .add("p99_us", s.p99_us)
        .add("mean_us", s.mean_us)
        .add("max_us", s.max_us)
        .str();
}

/// True when `tok` belongs to the legacy default-model grammar (`load
/// <version>|latest`): model names must start with a letter and "latest"
/// is reserved, so the two command forms never collide.
bool is_version_token(const std::string& tok) {
    if (tok == "latest") return true;
    if (tok.empty()) return false;
    for (const char c : tok)
        if (c < '0' || c > '9') return false;
    return true;
}

}  // namespace

Daemon::Daemon(std::shared_ptr<serve::ModelRouter> router,
               DaemonOptions options,
               std::shared_ptr<online::ModelRegistry> registry)
    : router_(std::move(router)),
      options_(std::move(options)),
      registry_(std::move(registry)) {
    if (!router_) throw std::invalid_argument("netd: null router");
    if (router_->options().backpressure != serve::Backpressure::Shed)
        throw std::invalid_argument(
            "netd: the daemon requires Backpressure::Shed — Block would "
            "park the event loop on a full queue");
    if (options_.data_path.empty() && options_.tcp_port == 0)
        throw std::invalid_argument("netd: no data listener configured");
    model_ = router_->default_model();
    if (options_.metrics)
        options_.metrics->add_collector(
            [this](std::string& out) { collect_metrics(out); });
}

Daemon::~Daemon() {
    // Worker completion callbacks hold ConnPtrs plus `this` (dirty list,
    // eventfd). The serving engine guarantees every accepted request
    // resolves, so this wait is bounded by the router's own drain.
    while (inflight_.load() != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (const auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lk(conn->m);
        conn->closed = true;
        ::close(fd);
    }
    for (const auto& [fd, control] : listeners_) ::close(fd);
    if (!options_.data_path.empty()) ::unlink(options_.data_path.c_str());
    if (!options_.control_path.empty())
        ::unlink(options_.control_path.c_str());
}

// ---- listeners -------------------------------------------------------------

int Daemon::listen_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::invalid_argument("netd: socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket(unix)");
    ::unlink(path.c_str());  // replace a stale socket file from a prior run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        throw_errno("bind " + path);
    }
    if (::listen(fd, 128) != 0) {
        ::close(fd);
        throw_errno("listen " + path);
    }
    return fd;
}

int Daemon::listen_tcp(std::uint16_t port) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket(tcp)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        throw_errno("bind 127.0.0.1:" + std::to_string(port));
    }
    if (::listen(fd, 128) != 0) {
        ::close(fd);
        throw_errno("listen tcp");
    }
    return fd;
}

void Daemon::setup_listeners() {
    // Control first: a client that sees the data socket may talk to the
    // control socket at once, so the control listener must already be up.
    if (!options_.control_path.empty())
        listeners_.emplace_back(listen_unix(options_.control_path), true);
    if (!options_.data_path.empty())
        listeners_.emplace_back(listen_unix(options_.data_path), false);
    if (options_.tcp_port != 0)
        listeners_.emplace_back(listen_tcp(options_.tcp_port), false);
    for (const auto& [fd, control] : listeners_) {
        const bool is_control = control;
        const int lfd = fd;
        loop_.add(lfd, EPOLLIN,
                  [this, lfd, is_control](std::uint32_t) {
                      on_accept(lfd, is_control);
                  });
    }
}

void Daemon::on_accept(int listen_fd, bool control) {
    for (;;) {
        const int fd =
            ::accept4(listen_fd, nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR || errno == ECONNABORTED) continue;
            return;  // EMFILE and friends: drop this readiness round
        }
        auto conn = std::make_shared<Connection>(options_.max_frame_bytes);
        conn->fd = fd;
        conn->control = control;
        conns_[fd] = conn;
        totals_.connections_accepted.fetch_add(1);
        totals_.connections_open.fetch_add(1);
        loop_.add(fd, EPOLLIN, [this, conn](std::uint32_t events) {
            on_conn_event(conn, events);
        });
    }
}

// ---- connection event plumbing ---------------------------------------------

void Daemon::on_conn_event(const ConnPtr& conn, std::uint32_t events) {
    if (events & (EPOLLHUP | EPOLLERR)) {
        close_connection(conn);
        return;
    }
    if (events & EPOLLIN) on_readable(conn);
    if ((events & EPOLLOUT) && conn->fd >= 0) on_writable(conn);
}

void Daemon::on_readable(const ConnPtr& conn) {
    std::uint8_t buf[64 * 1024];
    // Level-triggered: read a bounded amount per round and let epoll call
    // us again, so one firehose client cannot starve the other fds.
    for (int round = 0; round < 4; ++round) {
        const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
        if (n == 0) {  // peer closed; in-flight responses are discarded
            close_connection(conn);
            return;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            close_connection(conn);
            return;
        }
        conn->counters.bytes_in += static_cast<std::uint64_t>(n);
        totals_.bytes_in.fetch_add(static_cast<std::uint64_t>(n));

        if (conn->control) {
            conn->line_buf.append(reinterpret_cast<const char*>(buf),
                                  static_cast<std::size_t>(n));
            // An unterminated flood has no frame ceiling to bound it — cap
            // the line buffer like a frame.
            if (conn->line_buf.size() > options_.max_frame_bytes) {
                totals_.malformed_closed.fetch_add(1);
                record_conn_error(conn->fd, "control-flood");
                close_connection(conn);
                return;
            }
            std::size_t nl;
            while ((nl = conn->line_buf.find('\n')) != std::string::npos) {
                std::string line = conn->line_buf.substr(0, nl);
                conn->line_buf.erase(0, nl + 1);
                if (!line.empty() && line.back() == '\r') line.pop_back();
                handle_control_line(conn, line);
                if (conn->fd < 0) return;  // command closed the connection
            }
        } else {
            conn->decoder.feed(buf, static_cast<std::size_t>(n));
            RequestFrame f;
            for (;;) {
                const Decoder::Result r = conn->decoder.next_request(f);
                if (r == Decoder::Result::NeedMore) break;
                if (r == Decoder::Result::Error) {
                    // Framing is lost; no reply is possible on a stream we
                    // can no longer delimit. Count it and sever.
                    totals_.malformed_closed.fetch_add(1);
                    record_conn_error(conn->fd,
                                      to_string(conn->decoder.error()));
                    close_connection(conn);
                    return;
                }
                conn->counters.frames_in++;
                totals_.frames_in.fetch_add(1);
                handle_request(conn, std::move(f));
                if (conn->fd < 0) return;
            }
        }
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    }
    update_read_interest(conn);
}

void Daemon::on_writable(const ConnPtr& conn) {
    flush_conn(conn);
    if (conn->fd >= 0) update_read_interest(conn);
}

void Daemon::on_wake() {
    std::vector<ConnPtr> dirty;
    {
        std::lock_guard<std::mutex> lk(dirty_m_);
        dirty.swap(dirty_);
    }
    for (const ConnPtr& conn : dirty) {
        if (conn->fd < 0) continue;
        flush_conn(conn);
        if (conn->fd >= 0) update_read_interest(conn);
    }
    on_tick();  // a wake is also the drain-progress signal
}

void Daemon::on_tick() {
    if ((drain_requested_.load() || shutdown_requested_.load()) && !draining_)
        begin_drain();
    if (draining_) check_drain_progress();
}

// ---- write path ------------------------------------------------------------

void Daemon::deliver(const ConnPtr& conn, std::vector<std::uint8_t> bytes) {
    // Worker-thread side of the writeback: queue the encoded response and
    // wake the loop. A closed connection still reaches here (mid-flight
    // disconnect) — the bytes are dropped but the in-flight accounting and
    // the wakeup still happen, so a drain never stalls on a dead client.
    {
        std::lock_guard<std::mutex> lk(conn->m);
        if (!conn->closed) {
            conn->pending_bytes += bytes.size();
            conn->pending.push_back(std::move(bytes));
        }
    }
    conn->inflight.fetch_sub(1);
    inflight_.fetch_sub(1);
    {
        std::lock_guard<std::mutex> lk(dirty_m_);
        dirty_.push_back(conn);
    }
    loop_.wakeup();
}

void Daemon::append_out(const ConnPtr& conn, const std::uint8_t* data,
                        std::size_t n) {
    conn->outbuf.insert(conn->outbuf.end(), data, data + n);
    flush_conn(conn);
}

void Daemon::flush_conn(const ConnPtr& conn) {
    // Pull worker-delivered responses into the loop-owned buffer first.
    {
        std::lock_guard<std::mutex> lk(conn->m);
        while (!conn->pending.empty()) {
            auto& b = conn->pending.front();
            conn->outbuf.insert(conn->outbuf.end(), b.begin(), b.end());
            conn->counters.responses_out++;
            totals_.responses_out.fetch_add(1);
            conn->pending.pop_front();
        }
        conn->pending_bytes = 0;
    }
    while (conn->out_off < conn->outbuf.size()) {
        const ssize_t n =
            ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                   conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            close_connection(conn);  // EPIPE/ECONNRESET: peer is gone
            return;
        }
        conn->out_off += static_cast<std::size_t>(n);
        conn->counters.bytes_out += static_cast<std::uint64_t>(n);
        totals_.bytes_out.fetch_add(static_cast<std::uint64_t>(n));
    }
    const bool blocked = conn->out_off < conn->outbuf.size();
    if (!blocked) {
        conn->outbuf.clear();
        conn->out_off = 0;
    } else if (conn->out_off > (1u << 16)) {
        conn->outbuf.erase(
            conn->outbuf.begin(),
            conn->outbuf.begin() + static_cast<std::ptrdiff_t>(conn->out_off));
        conn->out_off = 0;
    }
    if (blocked != conn->want_write) {
        conn->want_write = blocked;
        update_read_interest(conn);
    }
}

std::size_t Daemon::unflushed_bytes(const ConnPtr& conn) {
    std::size_t pending;
    {
        std::lock_guard<std::mutex> lk(conn->m);
        pending = conn->pending_bytes;
    }
    return pending + (conn->outbuf.size() - conn->out_off);
}

void Daemon::update_read_interest(const ConnPtr& conn) {
    if (conn->fd < 0) return;
    bool pause = draining_ && !conn->control;
    if (!pause) {
        const std::size_t backlog = unflushed_bytes(conn);
        const std::size_t inflight = conn->inflight.load();
        if (conn->paused)
            // Hysteresis: resume only once both pressures halve, so a
            // client at the edge does not flap the interest mask.
            pause = backlog > options_.write_buffer_limit / 2 ||
                    inflight > options_.max_inflight_per_conn / 2;
        else
            pause = backlog > options_.write_buffer_limit ||
                    inflight >= options_.max_inflight_per_conn;
    }
    if (pause && !conn->paused) totals_.backpressure_pauses.fetch_add(1);
    conn->paused = pause;
    const std::uint32_t events = (pause ? 0u : static_cast<std::uint32_t>(
                                                   EPOLLIN)) |
                                 (conn->want_write ? EPOLLOUT : 0u);
    loop_.modify(conn->fd, events);
}

void Daemon::close_connection(ConnPtr conn) {  // NOLINT: by-value keeps it alive
    if (conn->fd < 0) return;
    {
        std::lock_guard<std::mutex> lk(conn->m);
        conn->closed = true;
        conn->pending.clear();
        conn->pending_bytes = 0;
    }
    loop_.remove(conn->fd);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    conn->fd = -1;
    totals_.connections_open.fetch_sub(1);
}

// ---- request handling ------------------------------------------------------

void Daemon::handle_request(const ConnPtr& conn, RequestFrame&& f) {
    common::Tensor image(std::vector<std::size_t>(f.shape.begin(),
                                                  f.shape.end()));
    std::memcpy(image.data(), f.data.data(), f.data.size() * sizeof(float));

    if (f.kind == MsgKind::Feedback) {
        // Feedback is fire-and-forget into the learner's queue; the reply
        // is immediate and local — it never touches a worker.
        conn->counters.feedback_frames++;
        totals_.feedback_frames.fetch_add(1);
        serve::SubmitOptions fopt;
        fopt.model = f.model;
        const bool ok = router_->submit_feedback(image, f.label, fopt);
        ResponseFrame resp;
        resp.version = f.version;
        if (f.version >= kProtocolVersionV2) resp.model = f.model;
        resp.status = ok ? WireStatus::Ok : WireStatus::Rejected;
        resp.reject_reason = static_cast<std::uint8_t>(
            ok ? serve::RejectReason::None : serve::RejectReason::QueueFull);
        resp.priority = static_cast<std::uint8_t>(serve::Priority::Feedback);
        resp.request_id = f.request_id;
        resp.label = f.label;
        const auto bytes = encode(resp);
        append_out(conn, bytes.data(), bytes.size());
        return;
    }

    serve::SubmitOptions opt;
    opt.priority = static_cast<serve::Priority>(f.priority);
    opt.deadline_us = f.deadline_us;
    opt.model = f.model;  // v1 frames decode with model == "" (the default)
    opt.request_id = f.request_id;
    opt.trace = (f.flags & kFlagTrace) != 0;  // v1/v2 decode with flags == 0
    const std::uint64_t request_id = f.request_id;
    const std::uint8_t version = f.version;

    conn->inflight.fetch_add(1);
    inflight_.fetch_add(1);
    // The callback runs on a worker thread (or inline right here for an
    // intake shed or an unknown model) — either way deliver() owns the
    // thread-safety.
    opt.on_complete = [this, conn, version, model = std::move(f.model),
                       request_id](serve::InferenceResult&& r) {
        deliver(conn, encode(to_response(version, model, request_id, r)));
    };
    if (f.kind == MsgKind::Predict)
        router_->submit_async(image, std::move(opt));
    else
        router_->submit_counts_async(image, std::move(opt));
}

// ---- control socket --------------------------------------------------------

void Daemon::handle_control_line(const ConnPtr& conn,
                                 const std::string& line) {
    if (line.empty()) return;
    totals_.control_commands.fetch_add(1);
    const std::string reply = run_control_command(line) + "\n";
    append_out(conn, reinterpret_cast<const std::uint8_t*>(reply.data()),
               reply.size());
}

std::string Daemon::run_control_command(const std::string& line) {
    std::istringstream in(line);
    std::string cmd, arg, arg2, arg3;
    in >> cmd >> arg >> arg2 >> arg3;

    try {
        if (cmd == "ping") return "ok pong";
        if (cmd == "stats") {
            // `stats <name>` narrows to one fleet entry's counters.
            if (!arg.empty())
                return "ok " + entry_json(router_->model_stats(arg));
            return "ok " + stats_json();
        }
        if (cmd == "version")
            return "ok " + std::to_string(model_->published_version());
        if (cmd == "models") return "ok " + models_json();
        if (cmd == "metrics") {
            // The one multi-line control reply: Prometheus text whose last
            // line is the "# EOF" terminator clients read up to (the
            // trailing newline comes from handle_control_line).
            if (!options_.metrics) return "err no metrics registry";
            std::string text = options_.metrics->expose();
            while (!text.empty() && text.back() == '\n') text.pop_back();
            return text;
        }
        if (cmd == "events") {
            const obs::FlightRecorder* rec = router_->options().recorder;
            if (!rec) return "err no recorder";
            std::size_t n = 0;  // 0 = everything the ring holds
            if (!arg.empty()) {
                try {
                    n = std::stoul(arg);
                } catch (const std::exception&) {
                    return "err bad event count: " + arg;
                }
            }
            return "ok " + obs::events_to_json(rec->snapshot(n));
        }
        if (cmd == "canary") {
            if (arg.empty() || arg2.empty() || arg3.empty())
                return "err usage: canary <name> <version> <pct>";
            std::uint64_t version = 0;
            std::uint32_t pct = 0;
            try {
                version = std::stoull(arg2);
                pct = static_cast<std::uint32_t>(std::stoul(arg3));
            } catch (const std::exception&) {
                return "err bad canary arguments: " + arg2 + " " + arg3;
            }
            router_->set_canary(arg, version, pct);
            return "ok canary " + arg + " version " + std::to_string(version) +
                   " pct " + std::to_string(pct);
        }
        if (cmd == "drain") {
            drain_requested_.store(true);
            return "ok draining";
        }
        if (cmd == "shutdown") {
            shutdown_requested_.store(true);
            drain_requested_.store(true);
            return "ok shutting-down";
        }
        if (cmd == "unload") {
            if (!arg.empty()) {
                // Fleet form: drop the entry's residency, pin, and canary.
                router_->unload(arg);
                return "ok unloaded " + arg;
            }
            // Legacy form: back to the compiled-in initial weights;
            // sessions pick the image up at their next refresh().
            model_->publish_weights(model_->initial_weights());
            pinned_version_ = 0;
            return "ok unloaded";
        }
        if (cmd == "versions") {
            if (!registry_) return "err no registry";
            registry_->reload();
            std::string out = "[";
            for (const auto& e : registry_->entries()) {
                if (out.size() > 1) out += ",";
                out += common::JsonObject()
                           .add("version", static_cast<std::uint64_t>(e.version))
                           .add("accuracy", e.accuracy)
                           .str();
            }
            return "ok " + out + "]";
        }
        if (cmd == "load" || cmd == "pin") {
            // Fleet forms: `load <name>` makes an entry resident; `pin
            // <name> <version>` publishes + pins one. A version token
            // (digits or "latest") always means the legacy default-model
            // form — names cannot start with a digit.
            if (cmd == "load" && !arg.empty() && !is_version_token(arg)) {
                const std::uint64_t v = router_->load(arg);
                return "ok loaded " + arg + " version " + std::to_string(v);
            }
            if (cmd == "pin" && !arg.empty() && !is_version_token(arg)) {
                std::uint64_t version = 0;
                if (arg2.empty()) return "err usage: pin <name> <version>";
                try {
                    version = std::stoull(arg2);
                } catch (const std::exception&) {
                    return "err bad version: " + arg2;
                }
                const std::uint64_t v = router_->pin(arg, version);
                return "ok pinned " + arg + " " + std::to_string(v);
            }
            if (!registry_) return "err no registry";
            if (arg.empty()) return "err usage: " + cmd + " <version>|latest";
            registry_->reload();
            std::uint64_t version = 0;
            if (arg == "latest") {
                const auto last = registry_->last_good();
                if (!last) return "err registry is empty";
                version = last->version;
            } else {
                try {
                    version = std::stoull(arg);
                } catch (const std::exception&) {
                    return "err bad version: " + arg;
                }
            }
            if (!registry_->has(version))
                return "err unknown version: " + std::to_string(version);
            model_->publish_weights(registry_->load(version));
            pinned_version_ = version;
            return "ok pinned " + std::to_string(version) + " published " +
                   std::to_string(model_->published_version());
        }
        if (cmd == "rollback") {
            if (!registry_) return "err no registry";
            registry_->reload();
            const auto& entries = registry_->entries();
            // Step back one accepted version from the current pin (or from
            // the newest entry when nothing was explicitly pinned).
            std::size_t idx = entries.size();
            for (std::size_t i = 0; i < entries.size(); ++i)
                if (entries[i].version == pinned_version_) idx = i;
            if (idx == entries.size() && entries.size() >= 2)
                idx = entries.size() - 1;
            if (idx == 0 || idx == entries.size())
                return "err nothing to roll back to";
            const std::uint64_t version = entries[idx - 1].version;
            model_->publish_weights(registry_->load(version));
            pinned_version_ = version;
            return "ok pinned " + std::to_string(version) + " published " +
                   std::to_string(model_->published_version());
        }
    } catch (const std::exception& e) {
        return std::string("err ") + e.what();
    }
    return "err unknown command: " + cmd;
}

std::string Daemon::stats_json() const {
    const DaemonStats d = stats();
    std::string conns = "[";
    for (const auto& [fd, conn] : conns_) {
        if (conns.size() > 1) conns += ",";
        conns += common::JsonObject()
                     .add("fd", static_cast<std::int64_t>(fd))
                     .add("control", conn->control)
                     .add("frames_in", conn->counters.frames_in)
                     .add("responses_out", conn->counters.responses_out)
                     .add("bytes_in", conn->counters.bytes_in)
                     .add("bytes_out", conn->counters.bytes_out)
                     .add("feedback_frames", conn->counters.feedback_frames)
                     .add("inflight",
                          static_cast<std::uint64_t>(conn->inflight.load()))
                     .add("paused", conn->paused)
                     .str();
    }
    conns += "]";
    const std::string daemon =
        common::JsonObject()
            .add("connections_accepted", d.connections_accepted)
            .add("connections_open", d.connections_open)
            .add("frames_in", d.frames_in)
            .add("responses_out", d.responses_out)
            .add("bytes_in", d.bytes_in)
            .add("bytes_out", d.bytes_out)
            .add("malformed_closed", d.malformed_closed)
            .add("feedback_frames", d.feedback_frames)
            .add("control_commands", d.control_commands)
            .add("backpressure_pauses", d.backpressure_pauses)
            .add("inflight", d.inflight)
            .add("draining", d.draining)
            .add("published_version", model_->published_version())
            .add("pinned_version", pinned_version_)
            .add("resident_bytes",
                 static_cast<std::uint64_t>(router_->resident_bytes()))
            .str();
    return common::JsonObject()
        .add_raw("server", serve::stats_to_json(router_->stats()))
        .add_raw("daemon", daemon)
        .add_raw("models", models_json())
        .add_raw("connections", conns)
        .str();
}

std::string Daemon::models_json() const {
    std::string out = "[";
    for (const auto& s : router_->model_stats()) {
        if (out.size() > 1) out += ",";
        out += entry_json(s);
    }
    return out + "]";
}

void Daemon::record_conn_error(int fd, const char* what) {
    obs::FlightRecorder* rec = router_->options().recorder;
    if (!rec) return;
    rec->record(obs::EventKind::ConnError, router_->clock()->now_us(), what,
                static_cast<std::uint64_t>(fd));
}

namespace {

const char* class_label(std::size_t c) {
    switch (c) {
        case 0: return "{class=\"interactive\"}";
        case 1: return "{class=\"batch\"}";
        case 2: return "{class=\"feedback\"}";
    }
    return "{class=\"?\"}";
}

std::string model_label(const std::string& name) {
    // Router names are [A-Za-z][A-Za-z0-9._-]* (the default entry is ""),
    // so no escaping is needed inside the label value.
    return "{model=\"" + name + "\"}";
}

}  // namespace

void Daemon::collect_metrics(std::string& out) const {
    using obs::append_help_type;
    using obs::append_sample;

    // ---- serving engine (ServerStats schema, §10/§12) ----
    const serve::ServerStats s = router_->stats();
    const struct {
        const char* name;
        const char* help;
        std::uint64_t v;
    } server_counters[] = {
        {"neuro_server_accepted", "requests accepted into the queue",
         s.accepted},
        {"neuro_server_rejected", "requests refused at intake", s.rejected},
        {"neuro_server_completed", "requests resolved Ok", s.completed},
        {"neuro_server_errors", "requests resolved Error", s.errors},
        {"neuro_server_batches", "micro-batches dispatched", s.batches},
        {"neuro_server_codel_dropped", "CoDel head drops", s.codel_dropped},
        {"neuro_server_deadline_dropped", "deadline-expired head drops",
         s.deadline_dropped},
        {"neuro_server_drop_state_entries",
         "times CoDel entered the drop state", s.drop_state_entries},
        {"neuro_server_weight_refreshes",
         "published weight images adopted at batch boundaries",
         s.weight_refreshes},
        {"neuro_server_feedback_dropped",
         "feedback samples shed at the intake", s.feedback_dropped},
    };
    for (const auto& c : server_counters) {
        append_help_type(out, std::string(c.name) + "_total", "counter",
                         c.help);
        append_sample(out, std::string(c.name) + "_total", "", c.v);
    }
    append_help_type(out, "neuro_server_class_accepted_total", "counter",
                     "admission accepts per priority class");
    for (std::size_t c = 0; c < serve::kPriorityClasses; ++c)
        append_sample(out, "neuro_server_class_accepted_total",
                      class_label(c), s.class_accepted[c]);
    append_help_type(out, "neuro_server_class_codel_dropped_total", "counter",
                     "CoDel head drops per priority class");
    for (std::size_t c = 0; c < serve::kPriorityClasses; ++c)
        append_sample(out, "neuro_server_class_codel_dropped_total",
                      class_label(c), s.class_codel_dropped[c]);
    append_help_type(out, "neuro_server_class_deadline_dropped_total",
                     "counter", "deadline drops per priority class");
    for (std::size_t c = 0; c < serve::kPriorityClasses; ++c)
        append_sample(out, "neuro_server_class_deadline_dropped_total",
                      class_label(c), s.class_deadline_dropped[c]);

    append_help_type(out, "neuro_server_latency_us", "gauge",
                     "dispatch latency percentiles (microseconds)");
    append_sample(out, "neuro_server_latency_us", "{quantile=\"0.5\"}",
                  s.p50_us);
    append_sample(out, "neuro_server_latency_us", "{quantile=\"0.95\"}",
                  s.p95_us);
    append_sample(out, "neuro_server_latency_us", "{quantile=\"0.99\"}",
                  s.p99_us);
    append_help_type(out, "neuro_server_sojourn_us", "gauge",
                     "queue sojourn percentiles (microseconds)");
    append_sample(out, "neuro_server_sojourn_us", "{quantile=\"0.5\"}",
                  s.sojourn_p50_us);
    append_sample(out, "neuro_server_sojourn_us", "{quantile=\"0.95\"}",
                  s.sojourn_p95_us);
    append_sample(out, "neuro_server_sojourn_us", "{quantile=\"0.99\"}",
                  s.sojourn_p99_us);
    append_help_type(out, "neuro_server_throughput_rps", "gauge",
                     "completed requests per second since start");
    append_sample(out, "neuro_server_throughput_rps", "", s.throughput_rps);

    // ---- wire layer (DaemonStats) ----
    const DaemonStats d = stats();
    const struct {
        const char* name;
        const char* help;
        std::uint64_t v;
    } daemon_counters[] = {
        {"neuro_daemon_connections_accepted", "connections accepted",
         d.connections_accepted},
        {"neuro_daemon_frames_in", "request frames decoded", d.frames_in},
        {"neuro_daemon_responses_out", "response frames flushed",
         d.responses_out},
        {"neuro_daemon_bytes_in", "bytes read from data sockets",
         d.bytes_in},
        {"neuro_daemon_bytes_out", "bytes written to data sockets",
         d.bytes_out},
        {"neuro_daemon_malformed_closed",
         "connections closed on framing errors", d.malformed_closed},
        {"neuro_daemon_feedback_frames", "feedback frames received",
         d.feedback_frames},
        {"neuro_daemon_control_commands", "control-socket commands run",
         d.control_commands},
        {"neuro_daemon_backpressure_pauses",
         "times a connection's reads were paused", d.backpressure_pauses},
    };
    for (const auto& c : daemon_counters) {
        append_help_type(out, std::string(c.name) + "_total", "counter",
                         c.help);
        append_sample(out, std::string(c.name) + "_total", "", c.v);
    }
    append_help_type(out, "neuro_daemon_connections_open", "gauge",
                     "currently open connections");
    append_sample(out, "neuro_daemon_connections_open", "",
                  d.connections_open);
    append_help_type(out, "neuro_daemon_inflight", "gauge",
                     "requests submitted but not yet resolved");
    append_sample(out, "neuro_daemon_inflight", "", d.inflight);
    append_help_type(out, "neuro_daemon_resident_bytes", "gauge",
                     "resident plastic-weight bytes across the fleet");
    append_sample(out, "neuro_daemon_resident_bytes", "",
                  static_cast<std::uint64_t>(router_->resident_bytes()));

    // ---- per-model (ModelEntryStats) ----
    const auto models = router_->model_stats();
    append_help_type(out, "neuro_model_dispatched_total", "counter",
                     "requests dispatched per model and arm");
    for (const auto& m : models) {
        append_sample(out, "neuro_model_dispatched_total",
                      "{model=\"" + m.name + "\",arm=\"base\"}",
                      m.base_dispatched);
        if (m.canary_dispatched > 0 || m.canary_version != 0)
            append_sample(out, "neuro_model_dispatched_total",
                          "{model=\"" + m.name + "\",arm=\"canary\"}",
                          m.canary_dispatched);
    }
    append_help_type(out, "neuro_model_errors_total", "counter",
                     "requests resolved Error per model (both arms)");
    for (const auto& m : models)
        append_sample(out, "neuro_model_errors_total", model_label(m.name),
                      m.base_errors + m.canary_errors);
    append_help_type(out, "neuro_model_codel_dropped_total", "counter",
                     "CoDel head drops attributed per model");
    for (const auto& m : models)
        append_sample(out, "neuro_model_codel_dropped_total",
                      model_label(m.name), m.codel_dropped);
    append_help_type(out, "neuro_model_deadline_dropped_total", "counter",
                     "deadline head drops attributed per model");
    for (const auto& m : models)
        append_sample(out, "neuro_model_deadline_dropped_total",
                      model_label(m.name), m.deadline_dropped);
    append_help_type(out, "neuro_model_resident", "gauge",
                     "1 when the model's sessions are loaded");
    for (const auto& m : models)
        append_sample(out, "neuro_model_resident", model_label(m.name),
                      static_cast<std::uint64_t>(m.resident ? 1 : 0));
    append_help_type(out, "neuro_model_weight_bytes", "gauge",
                     "resident weight bytes per model (both arms)");
    for (const auto& m : models)
        append_sample(out, "neuro_model_weight_bytes", model_label(m.name),
                      static_cast<std::uint64_t>(m.weight_bytes));
    append_help_type(out, "neuro_model_latency_us", "gauge",
                     "per-model dispatch latency percentiles (microseconds)");
    for (const auto& m : models) {
        if (m.latency_count == 0) continue;
        append_sample(out, "neuro_model_latency_us",
                      "{model=\"" + m.name + "\",quantile=\"0.5\"}", m.p50_us);
        append_sample(out, "neuro_model_latency_us",
                      "{model=\"" + m.name + "\",quantile=\"0.95\"}",
                      m.p95_us);
        append_sample(out, "neuro_model_latency_us",
                      "{model=\"" + m.name + "\",quantile=\"0.99\"}",
                      m.p99_us);
    }
}

// ---- lifecycle -------------------------------------------------------------

void Daemon::run() {
    setup_listeners();
    loop_.set_on_wake([this] { on_wake(); });
    loop_.set_on_tick([this] { on_tick(); });
    // A bounded wait keeps drain timeouts honest even with no fd traffic.
    loop_.run(/*tick_ms=*/50);

    // Past this point no handler can run; release whatever is left.
    std::vector<ConnPtr> leftover;
    leftover.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) leftover.push_back(conn);
    for (const ConnPtr& conn : leftover) close_connection(conn);
    for (const auto& [fd, control] : listeners_) {
        loop_.remove(fd);
        ::close(fd);
    }
    listeners_.clear();
    if (!options_.data_path.empty()) ::unlink(options_.data_path.c_str());
    if (!options_.control_path.empty())
        ::unlink(options_.control_path.c_str());
    finished_.store(true);
}

void Daemon::request_drain() {
    drain_requested_.store(true);
    loop_.wakeup();
}

void Daemon::request_shutdown() {
    // Async-signal-safe: two lock-free stores and one eventfd write.
    shutdown_requested_.store(true);
    drain_requested_.store(true);
    loop_.wakeup();
}

void Daemon::begin_drain() {
    draining_ = true;
    drain_started_ = std::chrono::steady_clock::now();
    // New connections: refused (data listeners gone). On a pure drain the
    // control listener stays so an operator can watch stats / escalate to
    // shutdown; shutdown closes it too.
    auto keep = listeners_.end();
    for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
        const bool keep_control = it->second && !shutdown_requested_.load();
        if (keep_control) {
            keep = it;
            continue;
        }
        loop_.remove(it->first);
        ::close(it->first);
    }
    if (keep != listeners_.end()) {
        listeners_ = {*keep};
    } else {
        listeners_.clear();
        if (!options_.control_path.empty())
            ::unlink(options_.control_path.c_str());
    }
    if (!options_.data_path.empty()) ::unlink(options_.data_path.c_str());
    // Existing requests: already submitted, will resolve. Unread requests:
    // never read — EPOLLIN interest drops for every data connection.
    for (const auto& [fd, conn] : conns_)
        if (!conn->control) update_read_interest(conn);
}

void Daemon::check_drain_progress() {
    const bool timed_out =
        std::chrono::steady_clock::now() - drain_started_ >=
        std::chrono::milliseconds(options_.drain_timeout_ms);

    std::vector<ConnPtr> closable;
    bool data_left = false;
    for (const auto& [fd, conn] : conns_) {
        if (conn->control) continue;
        // Accepted-implies-responded: a data connection is severed only
        // once its in-flight requests resolved AND their responses hit the
        // socket — unless the drain timeout says the client is dead.
        if (timed_out ||
            (conn->inflight.load() == 0 && unflushed_bytes(conn) == 0))
            closable.push_back(conn);
        else
            data_left = true;
    }
    for (const ConnPtr& conn : closable) close_connection(conn);

    if (!shutdown_requested_.load()) return;  // pure drain: loop stays up
    if (data_left && !timed_out) return;
    if (inflight_.load() != 0 && !timed_out) return;

    // Flush control replies (the `shutdown` ack) before exiting; a blocked
    // control peer is abandoned rather than allowed to wedge the exit.
    for (const auto& [fd, conn] : conns_)
        if (conn->control && conn->fd >= 0) flush_conn(conn);
    loop_.stop();
}

DaemonStats Daemon::stats() const {
    DaemonStats s;
    s.connections_accepted = totals_.connections_accepted.load();
    s.connections_open = totals_.connections_open.load();
    s.frames_in = totals_.frames_in.load();
    s.responses_out = totals_.responses_out.load();
    s.bytes_in = totals_.bytes_in.load();
    s.bytes_out = totals_.bytes_out.load();
    s.malformed_closed = totals_.malformed_closed.load();
    s.feedback_frames = totals_.feedback_frames.load();
    s.control_commands = totals_.control_commands.load();
    s.backpressure_pauses = totals_.backpressure_pauses.load();
    s.inflight = inflight_.load();
    s.draining = drain_requested_.load() || shutdown_requested_.load();
    return s;
}

}  // namespace neuro::netd
