// Load test of the async serving engine (neuro::serve) — not a paper
// figure; this gates the "heavy traffic" scaling axis of the ROADMAP
// north star and seeds the bench trajectory tracked by the nightly CI.
//
// Two load shapes over one CompiledModel:
//   * closed-loop: C client threads, each submits and waits (think RPC
//     fan-in) — measures capacity and scale-out across worker counts.
//   * open-loop: Poisson arrivals (seeded RNG) at an offered rate above
//     the measured capacity, with the Shed backpressure policy — measures
//     saturation throughput, tail latency under overload, and shed rate.
//
// A third section drives the same engine through neurod's wire protocol
// (netd/protocol.hpp) over a Unix socket — an in-process daemon on its
// own thread, real frames on a real socket — and exports the socket /
// in-process throughput ratio to serving_socket.{csv,json}; CI gates that
// ratio (the wire tax must stay bounded) the same way it gates worker
// scale-out. `--connect=PATH` instead fires the closed-loop wire driver
// at an externally spawned neurod and exits — the CI smoke step.
//
// Writes bench_results/serving_load.{csv,json}; CI compares the JSON's
// same-run throughput ratios (workers=N vs workers=1) against
// bench/baselines/serving_load.json via tools/check_bench_regression.py.
//
// A fourth section sweeps multi-tenancy: the same closed-loop driver
// round-robins over M fleet entries behind one serve::ModelRouter
// (pre-loaded — steady-state routing cost, not lazy-load compiles) and
// exports serving_multimodel.{csv,json}; CI normalizes each row by the
// same-run models=1 row, gating the fan-out tax of routing across M
// session pools instead of one.
//
// CLI: --requests=N per config, --workers=MAX (sweeps 1,2,..,MAX),
//      --batch=B (micro-batch cap), --clients=C, --queue=Q, --delay_us=D,
//      --seed=S (Poisson stream), --rate_x=F (offered = F * capacity),
//      --socket=0 (skip the socket section), --models=M (tenant sweep
//      1,2,..,M; 0 skips it), --trace=0 (skip the tracing-tax section),
//      --connect=PATH (smoke mode).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "data/dataset.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "obs/timer.hpp"
#include "online/registry.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/router.hpp"

using namespace neuro;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

struct LoadRow {
    std::string config;
    std::string mode;
    std::size_t workers = 0;
    std::size_t batch = 0;
    std::size_t requests = 0;
    double offered_rps = 0.0;  // 0 for closed-loop
    double throughput_rps = 0.0;
    serve::ServerStats stats;
};

serve::RouterOptions make_options(std::size_t workers, std::size_t batch,
                                  std::size_t queue, std::uint64_t delay_us,
                                  serve::Backpressure bp) {
    serve::RouterOptions opt;
    opt.workers = workers;
    opt.queue_capacity = queue;
    opt.batch.max_batch = batch;
    opt.batch.max_delay_us = delay_us;
    opt.backpressure = bp;
    return opt;
}

/// Closed loop: `clients` threads submit-and-wait round-robin over the
/// image set until `requests` total responses have been collected.
LoadRow run_closed(const std::shared_ptr<const runtime::CompiledModel>& model,
                   const data::Dataset& images, std::size_t workers,
                   std::size_t batch, std::size_t requests,
                   std::size_t clients, std::size_t queue,
                   std::uint64_t delay_us) {
    serve::ModelRouter router(model,
                              make_options(workers, batch, queue, delay_us,
                                           serve::Backpressure::Block));
    router.start();
    common::ThreadPool pool(clients);
    const auto t0 = std::chrono::steady_clock::now();
    pool.run(clients, [&](std::size_t c) {
        for (std::size_t i = c; i < requests; i += clients)
            (void)router.submit(images.samples[i % images.size()].image).get();
    });
    const double wall = seconds_since(t0);
    router.shutdown();

    LoadRow row;
    row.config = "closed, workers=" + std::to_string(workers) +
                 ", batch=" + std::to_string(batch);
    row.mode = "closed";
    row.workers = workers;
    row.batch = batch;
    row.requests = requests;
    row.throughput_rps = static_cast<double>(requests) / wall;
    row.stats = router.stats();
    return row;
}

/// Open loop: one generator thread submits with exponential (Poisson
/// process) inter-arrival gaps at `offered_rps`, shedding when the queue
/// is full; every handle is then collected after the drain. `admission`
/// and `deadline_us` (relative SLO per request, 0 = none) parameterize the
/// head-of-queue disciplines for the overload sweep; the defaults make
/// this the historical blunt-shedding open-loop row.
LoadRow run_open(const std::shared_ptr<const runtime::CompiledModel>& model,
                 const data::Dataset& images, std::size_t workers,
                 std::size_t batch, std::size_t requests, double offered_rps,
                 std::size_t queue, std::uint64_t delay_us, std::uint64_t seed,
                 serve::AdmissionConfig admission = {},
                 std::uint64_t deadline_us = 0, std::string label = {}) {
    auto options =
        make_options(workers, batch, queue, delay_us, serve::Backpressure::Shed);
    options.admission = admission;
    serve::ModelRouter router(model, options);
    router.start();
    common::Rng rng(seed);
    serve::SubmitOptions sub;
    sub.deadline_us = deadline_us;
    std::vector<serve::InferenceHandle> handles;
    handles.reserve(requests);
    const auto t0 = std::chrono::steady_clock::now();
    double arrival_s = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
        // Exponential gap: -ln(1-u)/rate — a seeded Poisson process.
        arrival_s += -std::log(1.0 - rng.uniform()) / offered_rps;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(arrival_s)));
        handles.push_back(
            router.submit(images.samples[i % images.size()].image, sub));
    }
    router.shutdown();  // drain everything accepted
    const double wall = seconds_since(t0);
    std::size_t ok = 0;
    for (auto& h : handles)
        if (h.get().status == serve::Status::Ok) ++ok;

    LoadRow row;
    row.config = label.empty() ? "open, workers=" + std::to_string(workers) +
                                     ", batch=" + std::to_string(batch)
                               : std::move(label);
    row.mode = "open";
    row.workers = workers;
    row.batch = batch;
    row.requests = requests;
    row.offered_rps = offered_rps;
    row.throughput_rps = static_cast<double>(ok) / wall;
    row.stats = router.stats();
    return row;
}

/// Tracing tax: the identical closed-loop driver with per-request span
/// stamping (and the obs::Timer kernel phase counters) on or off. CI
/// normalizes the trace-on row by the same-run trace-off row
/// (tools/check_bench_regression.py rule "serving_trace"), so the gate
/// tracks the relative cost of observability — required to stay within a
/// few percent of untraced throughput. Also accumulates the span sum vs
/// wall latency so the row doubles as the end-to-end telescoping check.
LoadRow run_trace(const std::shared_ptr<const runtime::CompiledModel>& model,
                  const data::Dataset& images, std::size_t workers,
                  std::size_t batch, std::size_t requests, std::size_t clients,
                  std::size_t queue, std::uint64_t delay_us, bool trace,
                  double* span_cover = nullptr) {
    obs::set_timing(trace);
    serve::ModelRouter router(model,
                              make_options(workers, batch, queue, delay_us,
                                           serve::Backpressure::Block));
    router.start();
    std::atomic<std::uint64_t> span_sum_us{0};
    std::atomic<std::uint64_t> wall_sum_us{0};
    common::ThreadPool pool(clients);
    const auto t0 = std::chrono::steady_clock::now();
    pool.run(clients, [&](std::size_t c) {
        serve::SubmitOptions sub;
        sub.trace = trace;
        std::uint64_t spans = 0;
        std::uint64_t walls = 0;
        for (std::size_t i = c; i < requests; i += clients) {
            const auto res =
                router.submit(images.samples[i % images.size()].image, sub)
                    .get();
            if (res.trace.enabled) {
                spans += res.trace.queue_us() + res.trace.batch_us() +
                         res.trace.compute_us() + res.trace.resolve_us();
                walls += static_cast<std::uint64_t>(res.latency_us);
            }
        }
        span_sum_us.fetch_add(spans);
        wall_sum_us.fetch_add(walls);
    });
    const double wall = seconds_since(t0);
    router.shutdown();
    obs::set_timing(false);
    if (span_cover)
        *span_cover = wall_sum_us.load() > 0
                          ? static_cast<double>(span_sum_us.load()) /
                                static_cast<double>(wall_sum_us.load())
                          : 0.0;

    LoadRow row;
    row.config = trace ? "trace-on" : "trace-off";
    row.mode = "trace";
    row.workers = workers;
    row.batch = batch;
    row.requests = requests;
    row.throughput_rps = static_cast<double>(requests) / wall;
    row.stats = router.stats();
    return row;
}

// ---- socket mode (neurod wire protocol) ------------------------------------

netd::RequestFrame wire_frame(const common::Tensor& img, std::uint64_t id) {
    netd::RequestFrame f;
    f.request_id = id;
    f.shape.assign(img.shape().begin(), img.shape().end());
    f.data.assign(img.data(), img.data() + img.size());
    return f;
}

struct WireCounts {
    std::size_t ok = 0;
    std::size_t rejected = 0;  ///< Rejected or Error frames
    double wall = 0.0;
};

/// Closed loop over the wire: `clients` threads, one connection each, one
/// request in flight per connection (submit-and-wait, mirroring run_closed).
WireCounts drive_socket_closed(const std::string& path,
                               const data::Dataset& images,
                               std::size_t clients, std::size_t requests) {
    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> rejected{0};
    common::ThreadPool pool(clients);
    const auto t0 = std::chrono::steady_clock::now();
    pool.run(clients, [&](std::size_t c) {
        auto client = netd::Client::connect_unix(path);
        for (std::size_t i = c; i < requests; i += clients) {
            const auto resp = client.call(
                wire_frame(images.samples[i % images.size()].image, i + 1));
            if (resp.status == netd::WireStatus::Ok)
                ok.fetch_add(1);
            else
                rejected.fetch_add(1);
        }
    });
    WireCounts out;
    out.wall = seconds_since(t0);
    out.ok = ok.load();
    out.rejected = rejected.load();
    return out;
}

/// Open loop over the wire: one connection, a Poisson writer pipelining
/// frames while a reader collects every response (the daemon answers each
/// accepted frame exactly once — Ok, Rejected, or Error — so the reader
/// knows precisely how many to wait for). One thread per direction on a
/// full-duplex socket; only the reader touches the response decoder.
WireCounts drive_socket_open(const std::string& path,
                             const data::Dataset& images, std::size_t requests,
                             double offered_rps, std::uint64_t seed) {
    auto client = netd::Client::connect_unix(path);
    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> rejected{0};
    std::thread reader([&] {
        netd::ResponseFrame resp;
        for (std::size_t i = 0; i < requests; ++i) {
            if (!client.recv_response(resp)) return;  // daemon closed early
            if (resp.status == netd::WireStatus::Ok)
                ok.fetch_add(1);
            else
                rejected.fetch_add(1);
        }
    });
    common::Rng rng(seed);
    const auto t0 = std::chrono::steady_clock::now();
    double arrival_s = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
        arrival_s += -std::log(1.0 - rng.uniform()) / offered_rps;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(arrival_s)));
        client.send(wire_frame(images.samples[i % images.size()].image, i + 1));
    }
    reader.join();
    WireCounts out;
    out.wall = seconds_since(t0);
    out.ok = ok.load();
    out.rejected = rejected.load();
    return out;
}

/// In-process neurod: ModelRouter (Shed — the daemon's requirement) +
/// Daemon on a unique Unix socket, loop on a dedicated thread. One harness
/// per row so the ServerStats percentiles are per-row, like the in-process
/// rows.
struct SocketHarness {
    std::shared_ptr<serve::ModelRouter> router;
    std::unique_ptr<netd::Daemon> daemon;
    std::thread thread;
    netd::DaemonOptions dopt;

    SocketHarness(const std::shared_ptr<const runtime::CompiledModel>& model,
                  serve::RouterOptions ropt) {
        static std::atomic<int> counter{0};
        const auto base =
            std::filesystem::temp_directory_path() /
            ("neuro_loadbench_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
        dopt.data_path = base.string() + ".sock";
        ropt.backpressure = serve::Backpressure::Shed;
        router = std::make_shared<serve::ModelRouter>(model, ropt);
        router->start();
        daemon = std::make_unique<netd::Daemon>(router, dopt);
        thread = std::thread([this] { daemon->run(); });
        // The daemon binds on its own thread; wait until it answers.
        const auto t0 = std::chrono::steady_clock::now();
        while (true) {
            try {
                netd::Client::connect_unix(dopt.data_path);
                break;
            } catch (const std::exception&) {
                if (seconds_since(t0) > 10.0)
                    throw std::runtime_error(
                        "socket bench: neurod loop never came up");
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
    }

    ~SocketHarness() {
        if (daemon && !daemon->finished()) daemon->request_shutdown();
        if (thread.joinable()) thread.join();
        if (router) router->shutdown();
        std::error_code ec;
        std::filesystem::remove(dopt.data_path, ec);
    }
};

LoadRow run_socket_closed(
    const std::shared_ptr<const runtime::CompiledModel>& model,
    const data::Dataset& images, std::size_t workers, std::size_t batch,
    std::size_t requests, std::size_t clients, std::size_t queue,
    std::uint64_t delay_us) {
    SocketHarness h(model, make_options(workers, batch, queue, delay_us,
                                        serve::Backpressure::Shed));
    const auto c = drive_socket_closed(h.dopt.data_path, images, clients,
                                       requests);
    LoadRow row;
    row.config = "socket-closed";
    row.mode = "socket-closed";
    row.workers = workers;
    row.batch = batch;
    row.requests = requests;
    row.throughput_rps = static_cast<double>(c.ok) / c.wall;
    row.stats = h.router->stats();
    return row;
}

LoadRow run_socket_open(
    const std::shared_ptr<const runtime::CompiledModel>& model,
    const data::Dataset& images, std::size_t workers, std::size_t batch,
    std::size_t requests, double offered_rps, std::size_t queue,
    std::uint64_t delay_us, std::uint64_t seed) {
    SocketHarness h(model, make_options(workers, batch, queue, delay_us,
                                        serve::Backpressure::Shed));
    const auto c = drive_socket_open(h.dopt.data_path, images, requests,
                                     offered_rps, seed);
    LoadRow row;
    row.config = "socket-open";
    row.mode = "socket-open";
    row.workers = workers;
    row.batch = batch;
    row.requests = requests;
    row.offered_rps = offered_rps;
    row.throughput_rps = static_cast<double>(c.ok) / c.wall;
    row.stats = h.router->stats();
    return row;
}

// ---- multi-model (serve::ModelRouter fleet) --------------------------------

struct FleetRow {
    std::string config;
    std::size_t models = 0;
    std::size_t requests = 0;
    double throughput_rps = 0.0;
    serve::ServerStats stats;
    std::size_t resident_bytes = 0;
    std::uint64_t loads = 0;
};

/// Closed loop across `models` pre-loaded fleet entries: the same
/// submit-and-wait driver as run_closed, with each request addressed
/// round-robin to entry i % models. Unlimited budget — this row measures
/// the fan-out tax of M session pools, not eviction churn.
FleetRow run_multimodel(
    const std::shared_ptr<const runtime::CompiledModel>& model,
    const data::Dataset& images, std::size_t workers, std::size_t batch,
    std::size_t requests, std::size_t clients, std::size_t queue,
    std::uint64_t delay_us, const std::string& fleet_dir,
    const std::vector<std::string>& names, std::size_t models) {
    serve::RouterOptions ropt;
    ropt.workers = workers;
    ropt.queue_capacity = queue;
    ropt.batch.max_batch = batch;
    ropt.batch.max_delay_us = delay_us;
    ropt.backpressure = serve::Backpressure::Block;
    ropt.fleet_dir = fleet_dir;
    serve::ModelRouter router(model, ropt);
    // Materialize every tenant before the clock starts: lazy-load compiles
    // are a one-time cost, not what this row is measuring.
    for (std::size_t m = 0; m < models; ++m) router.load(names[m]);
    router.start();

    common::ThreadPool pool(clients);
    const auto t0 = std::chrono::steady_clock::now();
    pool.run(clients, [&](std::size_t c) {
        for (std::size_t i = c; i < requests; i += clients) {
            serve::SubmitOptions sub;
            sub.model = names[i % models];
            (void)router
                .submit(images.samples[i % images.size()].image,
                        std::move(sub))
                .get();
        }
    });
    const double wall = seconds_since(t0);

    FleetRow row;
    row.config = "multimodel, models=" + std::to_string(models);
    row.models = models;
    row.requests = requests;
    row.throughput_rps = static_cast<double>(requests) / wall;
    row.stats = router.stats();
    row.resident_bytes = router.resident_bytes();
    for (const auto& s : router.model_stats()) row.loads += s.loads;
    router.shutdown();
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    common::Cli cli(argc, argv);
    const auto requests = static_cast<std::size_t>(cli.get_int("requests", 256));
    const auto max_workers = static_cast<std::size_t>(cli.get_int("workers", 4));
    const auto batch = static_cast<std::size_t>(cli.get_int("batch", 8));
    const auto clients = static_cast<std::size_t>(
        cli.get_int("clients", static_cast<std::int64_t>(2 * max_workers)));
    const auto queue = static_cast<std::size_t>(cli.get_int("queue", 128));
    const auto delay_us =
        static_cast<std::uint64_t>(cli.get_int("delay_us", 200));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 17));
    const double rate_x = cli.get_double("rate_x", 1.5);
    // Overload sweep (tail-latency engineering, docs/ARCHITECTURE.md §10):
    // offered rate multiple, per-row request count (0 = 4x --requests), the
    // CoDel discipline, and the per-request SLO for the deadline row.
    const double overload_x = cli.get_double("overload_x", 3.0);
    auto overload_requests =
        static_cast<std::size_t>(cli.get_int("overload_requests", 0));
    if (overload_requests == 0) overload_requests = 4 * requests;
    const auto codel_target_us =
        static_cast<std::uint64_t>(cli.get_int("codel_target_us", 5'000));
    const auto codel_interval_us =
        static_cast<std::uint64_t>(cli.get_int("codel_interval_us", 10'000));
    const auto deadline_us =
        static_cast<std::uint64_t>(cli.get_int("deadline_us", 30'000));
    // Optional self-gates (CI uses tools/check_bench_regression.py against
    // the committed baseline instead; these catch gross failures locally):
    // p99 of accepted requests under CoDel must stay within max_p99x times
    // the closed-loop p99, while goodput holds min_goodput_frac of capacity.
    const double max_p99x = cli.get_double("max_p99x", 0.0);
    const double min_goodput_frac = cli.get_double("min_goodput_frac", 0.0);
    // CI's hard scale-out floor: fail unless the best closed-loop rate at
    // max workers is at least this multiple of the workers=1 rate. Off by
    // default — on a 1-core dev container the sweep measures overhead only.
    const double min_scaleout = cli.get_double("min_scaleout", 0.0);
    const bool run_socket = cli.get_bool("socket", true);
    const bool run_tracing = cli.get_bool("trace", true);
    const auto max_models =
        static_cast<std::size_t>(cli.get_int("models", 4));
    const std::string connect = cli.get("connect", "");

    data::GenOptions gen;
    gen.count = 64;
    gen.seed = 5;
    gen.height = 16;
    gen.width = 16;
    const auto images = data::make_digits(gen);

    // Smoke mode: fire the closed-loop wire driver at an already-running
    // neurod (CI starts the real binary, runs this, then SIGTERMs it).
    // Nothing in-process runs and no result files are written; exit status
    // says whether every frame came back and at least one was served.
    if (!connect.empty()) {
        const auto c = drive_socket_closed(connect, images, clients, requests);
        std::printf("socket smoke: %zu ok, %zu rejected of %zu requests via "
                    "%s (%.1f req/s)\n",
                    c.ok, c.rejected, requests, connect.c_str(),
                    static_cast<double>(c.ok + c.rejected) / c.wall);
        return c.ok + c.rejected == requests && c.ok > 0 ? 0 : 1;
    }

    bench::banner(
        "Serving load — async engine, micro-batching, backpressure",
        "scaling engineering on top of phase-based EMSTDP inference "
        "(no paper figure)",
        std::to_string(requests) + " requests/config, worker sweep 1.." +
            std::to_string(max_workers) + ", micro-batch " +
            std::to_string(batch) + ", " + std::to_string(clients) +
            " closed-loop clients, " +
            std::to_string(std::thread::hardware_concurrency()) +
            " hardware threads");

    runtime::ModelSpec spec;
    spec.input(1, 16, 16).hidden_layers({100}).output_classes(10);
    const auto model =
        runtime::CompiledModel::compile(spec, runtime::BackendKind::LoihiSim);

    std::vector<LoadRow> rows;

    // ---- closed-loop worker sweep at batch=1, then micro-batched -----------
    for (std::size_t w = 1; w <= max_workers; w *= 2)
        rows.push_back(run_closed(model, images, w, 1, requests, clients,
                                  queue, delay_us));
    if (max_workers > 1 && (max_workers & (max_workers - 1)) != 0)
        rows.push_back(run_closed(model, images, max_workers, 1, requests,
                                  clients, queue, delay_us));
    if (batch > 1)
        rows.push_back(run_closed(model, images, max_workers, batch, requests,
                                  clients, queue, delay_us));

    // ---- open-loop Poisson overload at rate_x times measured capacity ------
    double capacity = 0.0;
    for (const auto& r : rows) capacity = std::max(capacity, r.throughput_rps);
    rows.push_back(run_open(model, images, max_workers, batch, requests,
                            rate_x * capacity, queue, delay_us, seed));

    // ---- report ------------------------------------------------------------
    common::Table table({"configuration", "req/s", "vs 1 worker", "p50 us",
                         "p95 us", "p99 us", "shed"});
    common::CsvWriter csv(bench::kCsvDir, "serving_load",
                          {"config", "mode", "workers", "batch", "requests",
                           "offered_rps", "throughput_rps", "p50_us", "p95_us",
                           "p99_us", "accepted", "rejected"});
    bench::JsonWriter json(bench::kCsvDir, "serving_load",
                           {"config", "mode", "workers", "batch", "requests",
                            "offered_rps", "throughput_rps", "p50_us",
                            "p95_us", "p99_us", "accepted", "rejected"});
    double base_rps = 0.0;
    for (const auto& r : rows) {
        if (r.mode == "closed" && r.workers == 1 && r.batch == 1)
            base_rps = r.throughput_rps;
        table.add_row({r.config, common::Table::fmt(r.throughput_rps, 1),
                       base_rps > 0.0
                           ? common::Table::fmt(r.throughput_rps / base_rps, 2) + "x"
                           : "-",
                       common::Table::fmt(r.stats.p50_us, 0),
                       common::Table::fmt(r.stats.p95_us, 0),
                       common::Table::fmt(r.stats.p99_us, 0),
                       std::to_string(r.stats.rejected)});
        const std::vector<std::string> cells = {
            r.config,
            r.mode,
            std::to_string(r.workers),
            std::to_string(r.batch),
            std::to_string(r.requests),
            std::to_string(r.offered_rps),
            std::to_string(r.throughput_rps),
            std::to_string(r.stats.p50_us),
            std::to_string(r.stats.p95_us),
            std::to_string(r.stats.p99_us),
            std::to_string(r.stats.accepted),
            std::to_string(r.stats.rejected)};
        csv.add_row(cells);
        json.add_row(cells);
        std::printf("%-28s %8.1f req/s   p50 %6.0f us   p99 %6.0f us   "
                    "shed %llu\n",
                    r.config.c_str(), r.throughput_rps, r.stats.p50_us,
                    r.stats.p99_us,
                    static_cast<unsigned long long>(r.stats.rejected));
        std::fflush(stdout);
    }

    std::printf("\n");
    table.print();
    double best = 0.0;
    for (const auto& r : rows)
        if (r.mode == "closed" && r.workers == max_workers)
            best = std::max(best, r.throughput_rps);
    const double scaleout = base_rps > 0.0 ? best / base_rps : 0.0;
    if (base_rps > 0.0 && max_workers > 1)
        std::printf("\nscale-out: workers=%zu serves %.2fx the requests/sec "
                    "of workers=1\n",
                    max_workers, scaleout);
    std::printf("CSV: %s\nJSON: %s\n", csv.write().c_str(),
                json.write().c_str());
    bench::footnote(
        "closed-loop rows measure capacity (every client waits for its "
        "response); the open-loop row offers a seeded Poisson stream at "
        "rate_x times the best closed-loop rate with the Shed policy, so "
        "its rejected column is the backpressure doing its job. Speedup "
        "saturates at the physical core count.");
    // ---- overload: admission control vs blunt shedding ---------------------
    // Three disciplines against the same Poisson storm at overload_x times
    // capacity, plus the closed-loop reference row CI normalizes against
    // (machine-speed independence — see tools/check_bench_regression.py).
    std::vector<LoadRow> orows;
    LoadRow closed_ref;
    for (const auto& r : rows)
        if (r.mode == "closed" && r.workers == max_workers) closed_ref = r;
    closed_ref.config = "closed-ref";
    orows.push_back(closed_ref);

    const double overload_rps = overload_x * capacity;
    serve::AdmissionConfig codel_cfg;
    codel_cfg.codel.enabled = true;
    codel_cfg.codel.target_us = codel_target_us;
    codel_cfg.codel.interval_us = codel_interval_us;
    orows.push_back(run_open(model, images, max_workers, batch,
                             overload_requests, overload_rps, queue, delay_us,
                             seed, {}, 0, "overload, shed-only"));
    orows.push_back(run_open(model, images, max_workers, batch,
                             overload_requests, overload_rps, queue, delay_us,
                             seed, codel_cfg, 0, "overload, codel"));
    orows.push_back(run_open(model, images, max_workers, batch,
                             overload_requests, overload_rps, queue, delay_us,
                             seed, codel_cfg, deadline_us,
                             "overload, codel+deadline"));

    common::Table otable({"configuration", "goodput req/s", "p99 us",
                          "sojourn p99 us", "shed", "codel drop", "deadline"});
    const std::vector<std::string> ocols = {
        "config",        "mode",          "workers",
        "batch",         "requests",      "offered_rps",
        "goodput_rps",   "p95_us",        "p99_us",
        "sojourn_p99_us", "accepted",     "shed",
        "codel_dropped", "deadline_dropped", "drop_state_entries"};
    common::CsvWriter ocsv(bench::kCsvDir, "serving_overload", ocols);
    bench::JsonWriter ojson(bench::kCsvDir, "serving_overload", ocols);
    for (const auto& r : orows) {
        otable.add_row({r.config, common::Table::fmt(r.throughput_rps, 1),
                        common::Table::fmt(r.stats.p99_us, 0),
                        common::Table::fmt(r.stats.sojourn_p99_us, 0),
                        std::to_string(r.stats.rejected),
                        std::to_string(r.stats.codel_dropped),
                        std::to_string(r.stats.deadline_dropped)});
        const std::vector<std::string> cells = {
            r.config,
            r.mode,
            std::to_string(r.workers),
            std::to_string(r.batch),
            std::to_string(r.requests),
            std::to_string(r.offered_rps),
            std::to_string(r.throughput_rps),
            std::to_string(r.stats.p95_us),
            std::to_string(r.stats.p99_us),
            std::to_string(r.stats.sojourn_p99_us),
            std::to_string(r.stats.accepted),
            std::to_string(r.stats.rejected),
            std::to_string(r.stats.codel_dropped),
            std::to_string(r.stats.deadline_dropped),
            std::to_string(r.stats.drop_state_entries)};
        ocsv.add_row(cells);
        ojson.add_row(cells);
    }
    std::printf("\n");
    otable.print();
    std::printf("CSV: %s\nJSON: %s\n", ocsv.write().c_str(),
                ojson.write().c_str());
    bench::footnote(
        "overload rows offer the same seeded Poisson storm at overload_x "
        "times the measured capacity. shed-only is the blunt baseline "
        "(bounded queue, full tail cost); codel sheds the stalest head "
        "entries once standing delay exceeds target; codel+deadline also "
        "refuses to spend a session slot on requests whose SLO already "
        "passed. goodput counts Ok responses only; p99 is over accepted "
        "(Ok) requests — the CoDel rows trade a few percent goodput for a "
        "bounded tail.");

    // ---- tracing: what per-request span stamping costs ---------------------
    // Two identical closed-loop runs, spans off then on. CI normalizes
    // trace-on by the same-run trace-off row with a tight 5% tolerance
    // (ISSUE: observability must be effectively free when unused and
    // near-free when on). The span-coverage column reports the mean
    // (queue+batch+compute+resolve) / latency_us ratio over the traced run
    // — the telescoping invariant, ~1.0 by construction.
    if (run_tracing) {
        std::vector<LoadRow> trows;
        double cover = 0.0;
        trows.push_back(run_trace(model, images, max_workers, batch, requests,
                                  clients, queue, delay_us, false));
        trows.push_back(run_trace(model, images, max_workers, batch, requests,
                                  clients, queue, delay_us, true, &cover));
        const double off_rps = trows.front().throughput_rps;

        common::Table ttable({"configuration", "req/s", "vs trace-off",
                              "p50 us", "p99 us", "span cover"});
        const std::vector<std::string> tcols = {
            "config", "mode", "workers", "batch", "requests",
            "throughput_rps", "p50_us", "p95_us", "p99_us", "accepted",
            "rejected", "span_cover"};
        common::CsvWriter tcsv(bench::kCsvDir, "serving_trace", tcols);
        bench::JsonWriter tjson(bench::kCsvDir, "serving_trace", tcols);
        for (const auto& r : trows) {
            const bool on = r.config == "trace-on";
            ttable.add_row(
                {r.config, common::Table::fmt(r.throughput_rps, 1),
                 off_rps > 0.0
                     ? common::Table::fmt(r.throughput_rps / off_rps, 2) + "x"
                     : "-",
                 common::Table::fmt(r.stats.p50_us, 0),
                 common::Table::fmt(r.stats.p99_us, 0),
                 on ? common::Table::fmt(cover, 3) : "-"});
            const std::vector<std::string> cells = {
                r.config,
                r.mode,
                std::to_string(r.workers),
                std::to_string(r.batch),
                std::to_string(r.requests),
                std::to_string(r.throughput_rps),
                std::to_string(r.stats.p50_us),
                std::to_string(r.stats.p95_us),
                std::to_string(r.stats.p99_us),
                std::to_string(r.stats.accepted),
                std::to_string(r.stats.rejected),
                std::to_string(on ? cover : 0.0)};
            tcsv.add_row(cells);
            tjson.add_row(cells);
        }
        std::printf("\n");
        ttable.print();
        std::printf("CSV: %s\nJSON: %s\n", tcsv.write().c_str(),
                    tjson.write().c_str());
        bench::footnote(
            "trace rows run the identical closed-loop workload with "
            "per-request span stamping off and on (SubmitOptions::trace + "
            "obs timing). span cover is the mean span-sum / wall-latency "
            "ratio of the traced run — the phases telescope, so it sits at "
            "~1.0; CI gates the trace-on / trace-off throughput ratio.");
    }

    // ---- socket mode: the same engine behind neurod's wire protocol --------
    // The in-process closed-ref row is re-emitted as "inproc" so CI can
    // normalize the socket rows by it: the gate then tracks the wire tax
    // (socket / in-process throughput at identical workers/batch/queue),
    // which transfers across machines. The open-loop row rides along
    // ungated (absent from the committed baseline) — Poisson timing over a
    // real socket is too machine-dependent to gate.
    if (run_socket) {
        std::vector<LoadRow> srows;
        LoadRow inproc = closed_ref;
        inproc.config = "inproc";
        srows.push_back(inproc);
        srows.push_back(run_socket_closed(model, images, max_workers, batch,
                                          requests, clients, queue, delay_us));
        const double socket_capacity = srows.back().throughput_rps;
        srows.push_back(run_socket_open(model, images, max_workers, batch,
                                        requests, rate_x * socket_capacity,
                                        queue, delay_us, seed));

        common::Table stable({"configuration", "req/s", "vs in-process",
                              "p50 us", "p99 us", "shed"});
        const std::vector<std::string> scols = {
            "config", "mode", "workers", "batch", "requests", "offered_rps",
            "throughput_rps", "p50_us", "p95_us", "p99_us", "accepted",
            "rejected"};
        common::CsvWriter scsv(bench::kCsvDir, "serving_socket", scols);
        bench::JsonWriter sjson(bench::kCsvDir, "serving_socket", scols);
        for (const auto& r : srows) {
            stable.add_row(
                {r.config, common::Table::fmt(r.throughput_rps, 1),
                 inproc.throughput_rps > 0.0
                     ? common::Table::fmt(
                           r.throughput_rps / inproc.throughput_rps, 2) + "x"
                     : "-",
                 common::Table::fmt(r.stats.p50_us, 0),
                 common::Table::fmt(r.stats.p99_us, 0),
                 std::to_string(r.stats.rejected)});
            scsv.add_row({r.config, r.mode, std::to_string(r.workers),
                          std::to_string(r.batch), std::to_string(r.requests),
                          std::to_string(r.offered_rps),
                          std::to_string(r.throughput_rps),
                          std::to_string(r.stats.p50_us),
                          std::to_string(r.stats.p95_us),
                          std::to_string(r.stats.p99_us),
                          std::to_string(r.stats.accepted),
                          std::to_string(r.stats.rejected)});
            sjson.add_row({r.config, r.mode, std::to_string(r.workers),
                           std::to_string(r.batch), std::to_string(r.requests),
                           std::to_string(r.offered_rps),
                           std::to_string(r.throughput_rps),
                           std::to_string(r.stats.p50_us),
                           std::to_string(r.stats.p95_us),
                           std::to_string(r.stats.p99_us),
                           std::to_string(r.stats.accepted),
                           std::to_string(r.stats.rejected)});
        }
        std::printf("\n");
        stable.print();
        std::printf("CSV: %s\nJSON: %s\n", scsv.write().c_str(),
                    sjson.write().c_str());
        bench::footnote(
            "socket rows run the identical server configuration behind an "
            "in-process neurod event loop on a Unix socket: socket-closed "
            "is submit-and-wait per connection (the wire tax on capacity); "
            "socket-open pipelines a Poisson stream over one connection. "
            "Frame encode + two socket hops + response decode is the whole "
            "difference from the inproc row.");
    }

    // ---- multi-model: the fan-out tax of routing across M tenants ----------
    // One router, M pre-loaded fleet entries, the same closed-loop driver
    // round-robining over them. CI normalizes each row by the same-run
    // models=1 row (a single fleet entry behind the same router machinery),
    // so the gate tracks what spreading traffic across M session pools
    // costs — a ratio that transfers across machines.
    if (max_models > 0) {
        const auto fleet =
            std::filesystem::temp_directory_path() /
            ("neuro_loadbench_fleet_" + std::to_string(::getpid()));
        std::filesystem::remove_all(fleet);
        std::filesystem::create_directories(fleet);
        std::vector<std::string> names;
        for (std::size_t m = 0; m < max_models; ++m) {
            names.push_back("m" + std::to_string(m));
            online::ModelRegistry reg((fleet / names.back()).string());
            reg.record(1, 1.0, model->initial_weights());
        }

        std::vector<FleetRow> mrows;
        for (std::size_t m = 1; m <= max_models; m *= 2)
            mrows.push_back(run_multimodel(model, images, max_workers, batch,
                                           requests, clients, queue, delay_us,
                                           fleet.string(), names, m));
        if (max_models > 1 && (max_models & (max_models - 1)) != 0)
            mrows.push_back(run_multimodel(model, images, max_workers, batch,
                                           requests, clients, queue, delay_us,
                                           fleet.string(), names, max_models));

        common::Table mtable({"configuration", "req/s", "vs models=1",
                              "p50 us", "p99 us", "resident KiB"});
        const std::vector<std::string> mcols = {
            "config", "mode", "workers", "batch", "models", "requests",
            "throughput_rps", "p50_us", "p95_us", "p99_us", "accepted",
            "rejected", "resident_bytes", "loads"};
        common::CsvWriter mcsv(bench::kCsvDir, "serving_multimodel", mcols);
        bench::JsonWriter mjson(bench::kCsvDir, "serving_multimodel", mcols);
        const double single = mrows.front().throughput_rps;
        for (const auto& r : mrows) {
            mtable.add_row(
                {r.config, common::Table::fmt(r.throughput_rps, 1),
                 single > 0.0
                     ? common::Table::fmt(r.throughput_rps / single, 2) + "x"
                     : "-",
                 common::Table::fmt(r.stats.p50_us, 0),
                 common::Table::fmt(r.stats.p99_us, 0),
                 common::Table::fmt(
                     static_cast<double>(r.resident_bytes) / 1024.0, 1)});
            const std::vector<std::string> cells = {
                r.config,
                "multimodel",
                std::to_string(max_workers),
                std::to_string(batch),
                std::to_string(r.models),
                std::to_string(r.requests),
                std::to_string(r.throughput_rps),
                std::to_string(r.stats.p50_us),
                std::to_string(r.stats.p95_us),
                std::to_string(r.stats.p99_us),
                std::to_string(r.stats.accepted),
                std::to_string(r.stats.rejected),
                std::to_string(r.resident_bytes),
                std::to_string(r.loads)};
            mcsv.add_row(cells);
            mjson.add_row(cells);
        }
        std::printf("\n");
        mtable.print();
        std::printf("CSV: %s\nJSON: %s\n", mcsv.write().c_str(),
                    mjson.write().c_str());
        bench::footnote(
            "multimodel rows route the identical closed-loop workload "
            "round-robin across M pre-loaded fleet entries behind one "
            "ModelRouter (unlimited residency budget — no eviction churn). "
            "models=1 exercises the same routing machinery on a single "
            "entry, so the vs-models=1 ratio is purely the cost of "
            "fanning out across M session pools.");
        std::error_code ec;
        std::filesystem::remove_all(fleet, ec);
    }

    bool failed = false;
    if (min_scaleout > 0.0 && scaleout < min_scaleout) {
        std::fprintf(stderr,
                     "FAIL: scale-out %.2fx is below the required %.2fx "
                     "(workers=%zu vs workers=1)\n",
                     scaleout, min_scaleout, max_workers);
        failed = true;
    }
    for (const auto& r : orows) {
        if (r.config.find("codel") == std::string::npos) continue;
        if (max_p99x > 0.0 && closed_ref.stats.p99_us > 0.0 &&
            r.stats.p99_us > max_p99x * closed_ref.stats.p99_us) {
            std::fprintf(stderr,
                         "FAIL: %s p99 %.0f us exceeds %.1fx the closed-loop "
                         "p99 (%.0f us)\n",
                         r.config.c_str(), r.stats.p99_us, max_p99x,
                         closed_ref.stats.p99_us);
            failed = true;
        }
        if (min_goodput_frac > 0.0 &&
            r.throughput_rps < min_goodput_frac * capacity) {
            std::fprintf(stderr,
                         "FAIL: %s goodput %.1f req/s is below %.2f of the "
                         "measured capacity (%.1f req/s)\n",
                         r.config.c_str(), r.throughput_rps, min_goodput_frac,
                         capacity);
            failed = true;
        }
    }
    return failed ? 1 : 0;
}
