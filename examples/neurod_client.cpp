// Example: talking to neurod over its binary wire protocol.
//
// Where examples/serving_async.cpp calls serve::ModelRouter in-process, this
// example crosses a real Unix socket: it boots a neurod event loop on a
// background thread (so the example is self-contained — against a
// production daemon only the connect line changes) and then acts as a
// client, using the minimal blocking netd::Client:
//   1. Submit a Predict frame with a priority class and a 30 ms SLO
//      deadline, and read the response: echoed request_id, label, the
//      measured latency/queue-sojourn, and the micro-batch it rode in.
//   2. Provoke a deadline miss: a frame whose SLO lapses while queued
//      (the serving workers are parked until after it expires) comes back
//      as an explicit Rejected{DeadlineExceeded} frame — never a hang.
//   3. Query the admin control socket: `ping`, `version`, and the `stats`
//      JSON dump (ServerStats + daemon + per-connection counters).
//   4. Shut down gracefully — accepted-implies-responded.
//
// The wire format and daemon design are docs/ARCHITECTURE.md §11; the
// README's five-line Python client speaks the same frames.
//
// Run:  ./example_neurod_client

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "data/dataset.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/router.hpp"

using namespace neuro;

namespace {

netd::RequestFrame frame_for(const common::Tensor& img, std::uint64_t id) {
    netd::RequestFrame f;
    f.request_id = id;
    f.shape.assign(img.shape().begin(), img.shape().end());
    f.data.assign(img.data(), img.data() + img.size());
    return f;
}

const char* status_name(netd::WireStatus s) {
    switch (s) {
        case netd::WireStatus::Ok: return "Ok";
        case netd::WireStatus::Rejected: return "Rejected";
        case netd::WireStatus::Error: return "Error";
    }
    return "?";
}

}  // namespace

int main() {
    // ---- a servable model and a daemon on a Unix socket --------------------
    data::GenOptions gen;
    gen.count = 8;
    gen.seed = 5;
    gen.height = 16;
    gen.width = 16;
    const auto images = data::make_digits(gen);

    runtime::ModelSpec spec;
    spec.input(1, 16, 16).hidden_layers({100}).output_classes(10);
    const auto model =
        runtime::CompiledModel::compile(spec, runtime::BackendKind::LoihiSim);

    serve::RouterOptions ropt;
    ropt.workers = 2;
    ropt.backpressure = serve::Backpressure::Shed;  // the daemon's requirement
    auto router = std::make_shared<serve::ModelRouter>(model, ropt);

    netd::DaemonOptions dopt;
    const auto base = std::filesystem::temp_directory_path() /
                      ("neurod_example_" + std::to_string(::getpid()));
    dopt.data_path = base.string() + ".sock";
    dopt.control_path = base.string() + ".ctl";
    netd::Daemon daemon(router, dopt);
    std::thread loop([&] { daemon.run(); });
    // The loop binds on its own thread; wait until it accepts.
    for (;;) {
        try {
            netd::Client::connect_unix(dopt.data_path);
            break;
        } catch (const std::exception&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    std::printf("daemon up on %s (control %s)\n\n", dopt.data_path.c_str(),
                dopt.control_path.c_str());

    auto client = netd::Client::connect_unix(dopt.data_path);

    // ---- 1. a deadline miss, provoked deterministically --------------------
    // Workers are not running yet, so this frame's 10 ms SLO lapses while
    // it waits in the admission queue; the head check then refuses to
    // spend a session slot on it and the daemon writes the rejection back
    // as a frame (docs/ARCHITECTURE.md §10-11).
    auto doomed = frame_for(images.samples[0].image, /*id=*/1);
    doomed.deadline_us = 10'000;
    client.send(doomed);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    router->start();  // workers wake to find the SLO already passed

    netd::ResponseFrame resp;
    if (!client.recv_response(resp)) return 1;
    std::printf("id=%llu  %s  reason=%u  (queued %llu us against a 10 ms "
                "SLO)\n",
                static_cast<unsigned long long>(resp.request_id),
                status_name(resp.status), resp.reject_reason,
                static_cast<unsigned long long>(resp.sojourn_us));

    // ---- 2. submit-with-deadline, this time served -------------------------
    auto live = frame_for(images.samples[1].image, /*id=*/2);
    live.deadline_us = 30'000;
    live.priority = static_cast<std::uint8_t>(serve::Priority::Interactive);
    const auto ok = client.call(live);
    std::printf("id=%llu  %s  label=%u  latency=%llu us  sojourn=%llu us  "
                "batch=%u\n",
                static_cast<unsigned long long>(ok.request_id),
                status_name(ok.status), ok.label,
                static_cast<unsigned long long>(ok.latency_us),
                static_cast<unsigned long long>(ok.sojourn_us),
                ok.batch_size);

    // ---- 3. the admin plane ------------------------------------------------
    std::printf("\ncontrol> ping     %s\n",
                netd::control_request(dopt.control_path, "ping").c_str());
    std::printf("control> version  %s\n",
                netd::control_request(dopt.control_path, "version").c_str());
    const auto stats = netd::control_request(dopt.control_path, "stats");
    std::printf("control> stats    %.120s...\n", stats.c_str());

    // ---- 4. graceful shutdown ----------------------------------------------
    daemon.request_shutdown();  // what the SIGTERM handler calls in neurod
    loop.join();
    router->shutdown();
    std::filesystem::remove(dopt.data_path);
    std::filesystem::remove(dopt.control_path);
    std::printf("\ndrained — every accepted frame was answered before "
                "exit\n");
    return 0;
}
