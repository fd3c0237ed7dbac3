#pragma once
// neuro::netd::Daemon — the network front-end over serve::ModelRouter
// (docs/ARCHITECTURE.md §11–12). A single-threaded epoll readiness loop
// accepts TCP / Unix-domain connections speaking the binary wire protocol
// (netd/protocol.hpp), decodes requests, and hands them to the serving
// engine via the future-less submit_async path; completion callbacks —
// fired on the serving workers — encode the response and append it to the
// connection's write queue, then wake the loop to flush it non-blocking.
//
//   clients ──► epoll loop ──decode──► ModelRouter::submit_async ──► workers
//      ▲                                                                │
//      └── write queues ◄── wakeup ◄── completion callbacks ◄───────────┘
//
// Multi-model: a v2 request frame's model field becomes
// SubmitOptions::model, so one connection addresses any fleet entry the
// router can lazily load; the response echoes the request's version and
// model (protocol.hpp negotiation table). v1 frames route to the default
// entry and answer byte-identically to the pre-router daemon.
//
// Threading: the loop thread owns all connection read state (decoder,
// epoll registration, the in-flight write buffer); worker callbacks touch
// only each connection's mutex-guarded pending-response list and the
// eventfd. The router's own admission/batching machinery is unchanged —
// the wire carries priority class + relative deadline end-to-end into the
// AdmissionQueue, so a deadline miss resolves as a protocol-level
// Rejected frame exactly like it resolves a future in-process.
//
// Backpressure is layered:
//   * Router intake: the daemon requires the Shed policy (Block would
//     park the event loop); a full queue resolves QueueFull inline.
//   * Connection: a client that stops reading, or floods requests, has
//     its EPOLLIN interest dropped once its pending bytes or in-flight
//     count pass the configured ceilings, and restored at half of them —
//     per-connection flow control, no global stall.
//
// Lifecycle (SIGTERM → drain → exit): request_shutdown() is thread- and
// async-signal-safe. The loop then closes the listeners, stops reading
// (no new requests are accepted), lets every in-flight request resolve,
// flushes every write queue — accepted-implies-responded — and returns
// from run(). A drain that a dead client blocks past drain_timeout_ms is
// force-closed.
//
// The admin control socket (dinit idiom: line commands over a Unix
// socket) shares the same loop: `stats` (ServerStats + per-connection
// counters as JSON), default-model weight load/unload and pin/rollback
// through online::ModelRegistry, `drain`, `shutdown` — plus the fleet
// commands `models`, `stats <name>`, `load <name>`, `unload <name>`,
// `pin <name> <version>` and `canary <name> <version> <pct>`. The two
// grammars share verbs without ambiguity: model names must start with a
// letter, so a numeric (or "latest") first argument always means the
// legacy default-model form. See the control command table in
// docs/ARCHITECTURE.md §11–12.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "netd/event_loop.hpp"
#include "netd/protocol.hpp"
#include "obs/registry.hpp"
#include "online/registry.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/router.hpp"

namespace neuro::netd {

struct DaemonOptions {
    /// Unix-domain data socket path ("" = no unix data listener). An
    /// existing socket file at the path is replaced.
    std::string data_path;
    /// Admin control socket path ("" = no control listener).
    std::string control_path;
    /// TCP data listener on 127.0.0.1:<port>; 0 = none.
    std::uint16_t tcp_port = 0;
    /// Decoder ceiling per frame body (see netd/protocol.hpp).
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Pause reading a connection above this many unflushed response
    /// bytes; resume below half.
    std::size_t write_buffer_limit = 4u << 20;
    /// Pause reading a connection above this many in-flight requests.
    std::size_t max_inflight_per_conn = 256;
    /// Force-close connections still undrained this long after a
    /// drain/shutdown request.
    std::uint64_t drain_timeout_ms = 10'000;
    /// Metrics registry behind the control-socket `metrics` command (null
    /// answers `err no metrics registry`). The daemon adds a scrape-time
    /// collector rendering ServerStats / DaemonStats / ModelEntryStats, so
    /// the registry must not be scraped after the daemon is destroyed.
    /// Non-owning; neurod wires obs::default_registry().
    obs::Registry* metrics = nullptr;
};

/// Loop-thread-owned per-connection counters (snapshot via Daemon::stats).
struct ConnCounters {
    std::uint64_t frames_in = 0;
    std::uint64_t responses_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t feedback_frames = 0;
};

/// Daemon-level counters; complements serve::ServerStats (which covers the
/// admission/dispatch layer) with the wire layer.
struct DaemonStats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_open = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t responses_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t malformed_closed = 0;   ///< connections closed on bad frames
    std::uint64_t feedback_frames = 0;
    std::uint64_t control_commands = 0;
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t inflight = 0;           ///< requests submitted, not yet resolved
    bool draining = false;
};

class Daemon {
public:
    /// `router` is the serving fleet the wire drives; its default model is
    /// the target of the default-model control commands. Throws
    /// std::invalid_argument on a null router, a router that does not use
    /// Backpressure::Shed (Block would park the event loop on a full
    /// queue), or options with no data listener. `registry` is the DEFAULT
    /// model's registry for the legacy load/pin/rollback commands;
    /// optional — without it those commands answer `err no registry`
    /// (fleet entries carry their own registries via
    /// RouterOptions::fleet_dir). The daemon does not start() or
    /// shutdown() the router: the owner controls the serving lifecycle
    /// (tests exploit this to pin deadline behaviour on a ManualClock
    /// before workers run).
    Daemon(std::shared_ptr<serve::ModelRouter> router, DaemonOptions options,
           std::shared_ptr<online::ModelRegistry> registry = nullptr);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Binds the configured listeners — the control socket before the data
    /// listeners, so a client that can reach the data socket can also reach
    /// the control socket — and dispatches until a shutdown request
    /// completes its drain. Call from the thread that owns the
    /// daemon (neurod's main thread; a dedicated thread in tests).
    void run();

    /// Stops accepting connections and reading requests; in-flight work
    /// still resolves and flushes. The loop keeps running (control socket
    /// stays up) — thread-safe.
    void request_drain();

    /// request_drain() + exit run() once drained. Thread- AND
    /// async-signal-safe: a SIGTERM handler may call this directly.
    void request_shutdown();

    /// True once run() has returned.
    bool finished() const { return finished_.load(); }

    DaemonStats stats() const;

    const DaemonOptions& options() const { return options_; }

private:
    struct Connection {
        int fd = -1;
        bool control = false;
        Decoder decoder;
        std::string line_buf;  ///< control-protocol input
        ConnCounters counters;
        /// Loop-owned flush buffer (pending moves here before write()).
        std::vector<std::uint8_t> outbuf;
        std::size_t out_off = 0;
        bool want_write = false;
        bool paused = false;
        std::atomic<std::uint32_t> inflight{0};

        // ---- shared with worker callbacks (guarded by m) ----
        std::mutex m;
        std::deque<std::vector<std::uint8_t>> pending;
        std::size_t pending_bytes = 0;
        bool closed = false;  ///< fd is gone; discard late responses

        explicit Connection(std::size_t max_frame) : decoder(max_frame) {}
    };
    using ConnPtr = std::shared_ptr<Connection>;

    // ---- loop-thread handlers ----
    void on_accept(int listen_fd, bool control);
    void on_conn_event(const ConnPtr& conn, std::uint32_t events);
    void on_readable(const ConnPtr& conn);
    void on_writable(const ConnPtr& conn);
    void on_wake();
    void on_tick();

    void handle_request(const ConnPtr& conn, RequestFrame&& f);
    void handle_control_line(const ConnPtr& conn, const std::string& line);
    std::string run_control_command(const std::string& line);
    std::string stats_json() const;
    std::string models_json() const;
    /// Scrape-time bridge (DaemonOptions::metrics): appends the serving /
    /// daemon / per-model counters as Prometheus families. Reads only
    /// thread-safe surfaces (router stats, totals_ atomics) — it runs on
    /// whatever thread scrapes the registry.
    void collect_metrics(std::string& out) const;
    /// Records a ConnError flight event when the router has a recorder.
    void record_conn_error(int fd, const char* what);

    // ---- cross-thread delivery (worker callbacks) ----
    void deliver(const ConnPtr& conn, std::vector<std::uint8_t> bytes);

    // ---- plumbing ----
    void setup_listeners();
    int listen_unix(const std::string& path);
    int listen_tcp(std::uint16_t port);
    void append_out(const ConnPtr& conn, const std::uint8_t* data,
                    std::size_t n);
    void flush_conn(const ConnPtr& conn);
    void update_read_interest(const ConnPtr& conn);
    /// By value on purpose: callers often hold the connection only through
    /// a container this function mutates; the copy keeps it alive.
    void close_connection(ConnPtr conn);
    void begin_drain();
    void check_drain_progress();
    std::size_t unflushed_bytes(const ConnPtr& conn);

    std::shared_ptr<serve::ModelRouter> router_;
    /// The router's default entry: weight-publication target of the
    /// default-model control commands.
    std::shared_ptr<const runtime::CompiledModel> model_;
    DaemonOptions options_;
    std::shared_ptr<online::ModelRegistry> registry_;

    EventLoop loop_;
    std::vector<std::pair<int, bool>> listeners_;  ///< fd, is_control
    std::unordered_map<int, ConnPtr> conns_;

    // Worker → loop handoff: connections with freshly delivered responses.
    std::mutex dirty_m_;
    std::vector<ConnPtr> dirty_;

    std::atomic<bool> drain_requested_{false};
    std::atomic<bool> shutdown_requested_{false};
    std::atomic<bool> finished_{false};
    bool draining_ = false;  ///< loop-thread view
    std::chrono::steady_clock::time_point drain_started_{};

    std::atomic<std::uint64_t> inflight_{0};
    /// Registry version most recently published via the control socket
    /// (0 = none); the anchor `rollback` steps back from. Loop-thread-owned.
    std::uint64_t pinned_version_ = 0;

    // Loop-thread-owned aggregates, mirrored into atomics for stats().
    struct Totals {
        std::atomic<std::uint64_t> connections_accepted{0};
        std::atomic<std::uint64_t> connections_open{0};
        std::atomic<std::uint64_t> frames_in{0};
        std::atomic<std::uint64_t> responses_out{0};
        std::atomic<std::uint64_t> bytes_in{0};
        std::atomic<std::uint64_t> bytes_out{0};
        std::atomic<std::uint64_t> malformed_closed{0};
        std::atomic<std::uint64_t> feedback_frames{0};
        std::atomic<std::uint64_t> control_commands{0};
        std::atomic<std::uint64_t> backpressure_pauses{0};
    } totals_;
};

}  // namespace neuro::netd
