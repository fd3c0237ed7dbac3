// End-to-end loopback tests for the neurod daemon (netd/daemon.hpp):
//   * predictions over the wire are bit-identical to in-process serving
//     (which is itself bit-identical to sequential Session inference),
//   * pipelined requests resolve out-of-order-safe by request id,
//   * admission metadata survives the wire: a deadline that expires while
//     queued comes back Rejected{DeadlineExceeded}, pinned on a ManualClock,
//   * malformed/oversized frames close that connection and ONLY that
//     connection — the daemon keeps serving,
//   * a client that disconnects mid-flight leaks nothing (ASan-enforced)
//     and never wedges the drain,
//   * drain/shutdown semantics: accepted-implies-responded, control socket
//     survives a pure drain,
//   * control commands: ping/stats/version, and registry pin/rollback
//     round-trips through online::ModelRegistry into live published weights,
//   * multi-model (v2): one connection routes to several fleet entries
//     bit-identically to dedicated sessions, responses echo version+model,
//     and the fleet control commands (models/load/pin/canary/unload)
//     drive the router end-to-end.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "online/registry.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/clock.hpp"
#include "serve/router.hpp"

using namespace neuro;
using netd::MsgKind;
using netd::RequestFrame;
using netd::ResponseFrame;
using netd::WireStatus;

namespace {

constexpr std::size_t kSide = 12;
constexpr std::size_t kClasses = 10;

std::shared_ptr<const runtime::CompiledModel> make_model() {
    runtime::ModelSpec spec;
    spec.input(1, kSide, kSide).hidden_layers({40}).output_classes(kClasses);
    return runtime::CompiledModel::compile(spec,
                                           runtime::BackendKind::LoihiSim);
}

data::Dataset make_images(std::size_t n) {
    data::GenOptions gen;
    gen.count = n;
    gen.seed = 33;
    gen.height = kSide;
    gen.width = kSide;
    return data::make_digits(gen);
}

RequestFrame make_frame(const common::Tensor& img, std::uint64_t id,
                        MsgKind kind = MsgKind::Predict) {
    RequestFrame f;
    f.kind = kind;
    f.request_id = id;
    f.shape.assign(img.shape().begin(), img.shape().end());
    f.data.assign(img.data(), img.data() + img.size());
    return f;
}

/// A v2 frame addressed to a fleet entry ("" = default model).
RequestFrame make_v2_frame(const common::Tensor& img, std::uint64_t id,
                           const std::string& model,
                           MsgKind kind = MsgKind::Predict) {
    RequestFrame f = make_frame(img, id, kind);
    f.version = netd::kProtocolVersionV2;
    f.model = model;
    return f;
}

/// Polls `cond` generously (sized for TSan's slowdown; real waits are ms).
template <typename F>
bool eventually(F cond) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(90);
    while (std::chrono::steady_clock::now() < deadline) {
        if (cond()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return cond();
}

/// A weight image whose output layer always predicts `winner` — makes
/// control-socket weight pinning observable through the data socket.
runtime::WeightSnapshot forced_snapshot(const runtime::CompiledModel& model,
                                        std::size_t winner) {
    runtime::WeightSnapshot snap = model.initial_weights();
    auto& out = snap.layers.back();
    const std::size_t fan_in = out.size() / kClasses;
    for (std::size_t c = 0; c < kClasses; ++c)
        for (std::size_t i = 0; i < fan_in; ++i)
            out[c * fan_in + i] = c == winner ? 60 : -60;
    return snap;
}

/// A fleet root with one single-version registry per (name, winner).
std::string make_fleet(
    const std::string& tag, const runtime::CompiledModel& model,
    const std::vector<std::pair<std::string, std::size_t>>& entries) {
    const auto root = std::filesystem::temp_directory_path() /
                      ("neuro_netd_fleet_" + std::to_string(::getpid()) +
                       "_" + tag);
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    for (const auto& [name, winner] : entries) {
        online::ModelRegistry reg((root / name).string());
        reg.record(1, 0.9, forced_snapshot(model, winner));
    }
    return root.string();
}

/// One daemon on unique Unix socket paths, run on a dedicated thread.
/// Tests tweak the public option fields before start(); setting
/// ropt.fleet_dir turns the router into a multi-model fleet.
struct Harness {
    std::shared_ptr<const runtime::CompiledModel> model = make_model();
    serve::RouterOptions ropt;
    netd::DaemonOptions dopt;
    std::shared_ptr<online::ModelRegistry> registry;

    std::shared_ptr<serve::ModelRouter> router;
    std::unique_ptr<netd::Daemon> daemon;
    std::thread thread;

    Harness() {
        static std::atomic<int> counter{0};
        const auto base =
            std::filesystem::temp_directory_path() /
            ("neuro_netd_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
        dopt.data_path = base.string() + ".sock";
        dopt.control_path = base.string() + ".ctl";
        ropt.workers = 2;
        ropt.queue_capacity = 64;
        ropt.backpressure = serve::Backpressure::Shed;
    }

    /// Starts the daemon thread without waiting for its listeners.
    void launch(bool start_router = true) {
        router = std::make_shared<serve::ModelRouter>(model, ropt);
        if (start_router) router->start();
        daemon = std::make_unique<netd::Daemon>(router, dopt, registry);
        thread = std::thread([this] { daemon->run(); });
    }

    void start(bool start_router = true) {
        launch(start_router);
        // The daemon binds on its own thread; wait until it answers. The
        // control socket is bound before the data socket, so it is up too.
        ASSERT_TRUE(eventually([&] {
            try {
                netd::Client::connect_unix(dopt.data_path);
                return true;
            } catch (const std::exception&) {
                return false;
            }
        }));
    }

    netd::Client connect() { return netd::Client::connect_unix(dopt.data_path); }
    std::string control(const std::string& cmd) {
        return netd::control_request(dopt.control_path, cmd);
    }

    void stop() {
        if (daemon && !daemon->finished()) daemon->request_shutdown();
        if (thread.joinable()) thread.join();
        if (router) router->shutdown();
    }

    ~Harness() {
        stop();
        std::filesystem::remove(dopt.data_path);
        std::filesystem::remove(dopt.control_path);
    }
};

}  // namespace

// ---- configuration ----------------------------------------------------------

TEST(Netd, DaemonRejectsInvalidConfiguration) {
    netd::DaemonOptions dopt;
    dopt.data_path = "unused.sock";
    EXPECT_THROW(netd::Daemon(nullptr, dopt), std::invalid_argument);

    // Block backpressure would park the event loop on a full queue.
    serve::RouterOptions block;
    block.backpressure = serve::Backpressure::Block;
    EXPECT_THROW(
        netd::Daemon(std::make_shared<serve::ModelRouter>(make_model(), block),
                     dopt),
        std::invalid_argument);

    serve::RouterOptions shed;
    shed.backpressure = serve::Backpressure::Shed;
    EXPECT_THROW(
        netd::Daemon(std::make_shared<serve::ModelRouter>(make_model(), shed),
                     netd::DaemonOptions{}),
        std::invalid_argument);
}

// ---- data path --------------------------------------------------------------

TEST(Netd, PredictAndCountsBitIdenticalToInProcess) {
    Harness h;
    h.start();
    const auto images = make_images(16);
    const auto session = h.model->open_session();
    auto client = h.connect();

    std::uint64_t id = 1;
    for (const auto& sample : images.samples) {
        const auto resp = client.call(make_frame(sample.image, id++));
        ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
        EXPECT_EQ(resp.label, session->predict(sample.image));
        EXPECT_GE(resp.batch_size, 1u);

        const auto counts =
            client.call(make_frame(sample.image, id++, MsgKind::Counts));
        ASSERT_EQ(counts.status, WireStatus::Ok) << counts.error;
        EXPECT_EQ(counts.counts, session->output_counts(sample.image));
    }
}

TEST(Netd, PipelinedRequestsResolveByRequestId) {
    Harness h;
    h.start();
    const auto images = make_images(12);
    const auto session = h.model->open_session();

    std::map<std::uint64_t, std::size_t> expected;
    auto client = h.connect();
    std::uint64_t id = 100;
    for (const auto& sample : images.samples) {
        client.send(make_frame(sample.image, id));
        expected[id++] = session->predict(sample.image);
    }
    // Responses may arrive in any order (each is written back the moment
    // its completion fires) — match them by echoed id.
    const std::size_t total = expected.size();
    for (std::size_t i = 0; i < total; ++i) {
        ResponseFrame resp;
        ASSERT_TRUE(client.recv_response(resp));
        ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
        auto it = expected.find(resp.request_id);
        ASSERT_NE(it, expected.end());
        EXPECT_EQ(resp.label, it->second);
        expected.erase(it);
    }
    EXPECT_TRUE(expected.empty());
}

TEST(Netd, WireDeadlineExpiresIntoRejectedFrame) {
    // ManualClock + a not-yet-started router pin the race: the request is
    // accepted over the wire, virtual time jumps past its deadline, and
    // only then do workers run — the head drop must come back as a frame.
    Harness h;
    const auto clock = std::make_shared<serve::ManualClock>();
    h.ropt.clock = clock;
    h.start(/*start_router=*/false);

    auto client = h.connect();
    auto frame = make_frame(make_images(1).samples[0].image, 77);
    frame.deadline_us = 1'000;
    client.send(frame);
    ASSERT_TRUE(eventually([&] { return h.router->stats().accepted >= 1; }));

    clock->advance_us(2'000);  // the SLO passes while queued
    h.router->start();

    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp));
    EXPECT_EQ(resp.request_id, 77u);
    EXPECT_EQ(resp.status, WireStatus::Rejected);
    EXPECT_EQ(resp.reject_reason,
              static_cast<std::uint8_t>(serve::RejectReason::DeadlineExceeded));
    EXPECT_GE(resp.sojourn_us, 1'000u);
}

TEST(Netd, FeedbackFramesFeedTheLearnerQueue) {
    Harness h;
    h.ropt.admission.feedback_capacity = 8;
    h.start();
    const auto img = make_images(1).samples[0].image;

    auto client = h.connect();
    auto frame = make_frame(img, 5, MsgKind::Feedback);
    frame.label = 3;
    const auto resp = client.call(frame);
    EXPECT_EQ(resp.status, WireStatus::Ok);
    EXPECT_EQ(resp.label, 3u);
    EXPECT_EQ(resp.priority,
              static_cast<std::uint8_t>(serve::Priority::Feedback));

    // With the feedback intake disabled the same frame is refused, not
    // dropped silently.
    Harness off;
    off.start();
    auto client2 = off.connect();
    const auto refused = client2.call(frame);
    EXPECT_EQ(refused.status, WireStatus::Rejected);
    EXPECT_EQ(refused.reject_reason,
              static_cast<std::uint8_t>(serve::RejectReason::QueueFull));
}

// ---- fault containment ------------------------------------------------------

TEST(Netd, MalformedFrameClosesOnlyThatConnection) {
    Harness h;
    h.start();

    auto bad = h.connect();
    const std::uint8_t garbage[] = {0x10, 0x00, 0x00, 0x00,  // 16-byte body
                                    0xFF, 0xFF, 0xFF, 0xFF,  // bad version...
                                    0,    0,    0,    0,
                                    0,    0,    0,    0,
                                    0,    0,    0,    0};
    bad.send_raw(garbage, sizeof(garbage));
    std::uint8_t buf[16];
    EXPECT_EQ(bad.recv_raw(buf, sizeof(buf)), 0u);  // EOF, no reply
    EXPECT_TRUE(
        eventually([&] { return h.daemon->stats().malformed_closed >= 1; }));

    // The daemon itself is healthy: a fresh connection serves normally.
    auto good = h.connect();
    const auto resp = good.call(make_frame(make_images(1).samples[0].image, 1));
    EXPECT_EQ(resp.status, WireStatus::Ok) << resp.error;
}

TEST(Netd, OversizedLengthPrefixClosesTheConnection) {
    Harness h;
    h.start();
    auto client = h.connect();
    const std::uint8_t huge[] = {0x00, 0x00, 0x00, 0x10};  // 256 MiB body
    client.send_raw(huge, sizeof(huge));
    std::uint8_t buf[16];
    EXPECT_EQ(client.recv_raw(buf, sizeof(buf)), 0u);
    EXPECT_TRUE(
        eventually([&] { return h.daemon->stats().malformed_closed >= 1; }));
}

TEST(Netd, ClientDisconnectMidFlightDoesNotWedgeTheDaemon) {
    Harness h;
    h.start();
    const auto img = make_images(1).samples[0].image;
    {
        auto client = h.connect();
        for (std::uint64_t id = 0; id < 8; ++id)
            client.send(make_frame(img, id));
        // Destructor closes the socket with every request still in flight;
        // completions hit a closed connection and must be discarded.
    }
    EXPECT_TRUE(eventually([&] {
        const auto s = h.daemon->stats();
        return s.inflight == 0 && s.connections_open == 0;
    }));
    auto client = h.connect();
    const auto resp = client.call(make_frame(img, 99));
    EXPECT_EQ(resp.status, WireStatus::Ok) << resp.error;
}

// ---- drain / shutdown -------------------------------------------------------

TEST(Netd, GracefulShutdownAnswersEverythingItRead) {
    Harness h;
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    constexpr std::uint64_t kRequests = 16;
    for (std::uint64_t id = 0; id < kRequests; ++id)
        client.send(make_frame(img, id));
    // Wait until every frame is in the daemon before pulling the plug, so
    // "accepted" is exact; then every accepted request must still answer.
    ASSERT_TRUE(
        eventually([&] { return h.daemon->stats().frames_in == kRequests; }));
    h.daemon->request_shutdown();

    std::size_t answered = 0;
    ResponseFrame resp;
    while (client.recv_response(resp)) ++answered;  // reads until EOF
    EXPECT_EQ(answered, kRequests);
    EXPECT_TRUE(eventually([&] { return h.daemon->finished(); }));
    h.thread.join();
}

TEST(Netd, DrainClosesDataPlaneButKeepsControlUp) {
    Harness h;
    h.start();
    EXPECT_EQ(h.control("drain"), "ok draining");

    // The data listener goes away (its socket file is unlinked)...
    EXPECT_TRUE(eventually([&] {
        try {
            h.connect();
            return false;
        } catch (const std::exception&) {
            return true;
        }
    }));
    // ...while the control plane still answers, and can then escalate.
    EXPECT_EQ(h.control("ping"), "ok pong");
    EXPECT_EQ(h.control("shutdown"), "ok shutting-down");
    EXPECT_TRUE(eventually([&] { return h.daemon->finished(); }));
    h.thread.join();
}

// ---- control socket ---------------------------------------------------------

TEST(Netd, ControlSocketIsListeningBeforeTheDataSocketAppears) {
    // Clients (the harness above included) wait for the data socket and
    // then send control commands at once. Spin on the data socket file and
    // check the control socket at the first instant it exists: it must
    // already accept, at every interleaving of the daemon's bind sequence.
    Harness h;
    h.launch();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(90);
    while (!std::filesystem::exists(h.dopt.data_path))
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    EXPECT_EQ(h.control("ping"), "ok pong");
}

TEST(Netd, ControlPingStatsAndVersion) {
    Harness h;
    h.start();
    EXPECT_EQ(h.control("ping"), "ok pong");
    EXPECT_EQ(h.control("version"), "ok 0");
    EXPECT_EQ(h.control("bogus"), "err unknown command: bogus");
    EXPECT_EQ(h.control("load 1"), "err no registry");

    const std::string stats = h.control("stats");
    ASSERT_EQ(stats.rfind("ok {", 0), 0u) << stats;
    EXPECT_NE(stats.find("\"server\":{"), std::string::npos);
    EXPECT_NE(stats.find("\"daemon\":{"), std::string::npos);
    EXPECT_NE(stats.find("\"connections\":["), std::string::npos);
    EXPECT_NE(stats.find("\"control_commands\""), std::string::npos);
}

TEST(Netd, RegistryPinAndRollbackRoundTrip) {
    Harness h;
    const auto dir = std::filesystem::temp_directory_path() /
                     ("neuro_netd_reg_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    h.registry = std::make_shared<online::ModelRegistry>(dir.string());
    h.registry->record(1, 0.81, forced_snapshot(*h.model, 1));
    h.registry->record(2, 0.86, forced_snapshot(*h.model, 2));
    h.start();

    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();

    EXPECT_EQ(h.control("load latest"), "ok pinned 2 published 1");
    // Worker sessions adopt the published image at their next batch
    // boundary; the forced output layer then predicts the winner.
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 1000;
        return client.call(make_frame(img, id++)).label == 2u;
    }));

    EXPECT_EQ(h.control("rollback"), "ok pinned 1 published 2");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 2000;
        return client.call(make_frame(img, id++)).label == 1u;
    }));

    EXPECT_EQ(h.control("rollback"), "err nothing to roll back to");
    EXPECT_EQ(h.control("load 9"), "err unknown version: 9");
    EXPECT_EQ(h.control("version"), "ok 2");
    EXPECT_EQ(h.control("unload"), "ok unloaded");
    EXPECT_EQ(h.control("version"), "ok 3");

    const std::string versions = h.control("versions");
    EXPECT_NE(versions.find("\"version\":1"), std::string::npos);
    EXPECT_NE(versions.find("\"version\":2"), std::string::npos);

    h.stop();
    std::filesystem::remove_all(dir);
}

// ---- multi-model (protocol v2) ----------------------------------------------

TEST(Netd, V2RoutesToMultipleModelsBitIdentically) {
    Harness h;
    h.ropt.fleet_dir = make_fleet("route", *h.model, {{"alpha", 1}, {"beta", 2}});
    h.start();
    const auto images = make_images(8);

    // Ground truth: dedicated sessions per weight image, outside the daemon.
    const auto plain = h.model->open_session();
    const auto alpha =
        h.model->with_weights(forced_snapshot(*h.model, 1))->open_session();
    const auto beta =
        h.model->with_weights(forced_snapshot(*h.model, 2))->open_session();

    // Pipeline all three tenants interleaved over ONE connection and match
    // replies by id — routing must never bleed one model's weights into
    // another's answers.
    auto client = h.connect();
    std::map<std::uint64_t, std::pair<std::string, std::size_t>> expected;
    std::uint64_t id = 1;
    for (const auto& sample : images.samples) {
        client.send(make_v2_frame(sample.image, id, ""));
        expected[id++] = {"", plain->predict(sample.image)};
        client.send(make_v2_frame(sample.image, id, "alpha"));
        expected[id++] = {"alpha", alpha->predict(sample.image)};
        client.send(make_v2_frame(sample.image, id, "beta"));
        expected[id++] = {"beta", beta->predict(sample.image)};
    }
    const std::size_t total = expected.size();
    for (std::size_t i = 0; i < total; ++i) {
        ResponseFrame resp;
        ASSERT_TRUE(client.recv_response(resp));
        ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
        auto it = expected.find(resp.request_id);
        ASSERT_NE(it, expected.end());
        EXPECT_EQ(resp.version, netd::kProtocolVersionV2);
        EXPECT_EQ(resp.model, it->second.first);
        EXPECT_EQ(resp.label, it->second.second);
        expected.erase(it);
    }
    EXPECT_TRUE(expected.empty());

    // Counts go through the same per-model sessions, bit-identically.
    const auto& img = images.samples[0].image;
    const auto counts =
        client.call(make_v2_frame(img, 9000, "alpha", MsgKind::Counts));
    ASSERT_EQ(counts.status, WireStatus::Ok) << counts.error;
    EXPECT_EQ(counts.counts, alpha->output_counts(img));
}

TEST(Netd, V2UnknownModelRejectsOnTheWire) {
    Harness h;
    h.ropt.fleet_dir = make_fleet("ghost", *h.model, {{"alpha", 1}});
    h.start();
    auto client = h.connect();

    const auto resp =
        client.call(make_v2_frame(make_images(1).samples[0].image, 7, "nope"));
    EXPECT_EQ(resp.status, WireStatus::Rejected);
    EXPECT_EQ(resp.reject_reason,
              static_cast<std::uint8_t>(serve::RejectReason::UnknownModel));
    EXPECT_EQ(resp.version, netd::kProtocolVersionV2);
    EXPECT_EQ(resp.model, "nope");
}

TEST(Netd, V1FramesStillServeTheDefaultModelOnAFleetDaemon) {
    // A v1 client pointed at a fleet-enabled daemon must see exactly what it
    // saw before multi-model existed: default-model answers in v1 frames.
    Harness h;
    h.ropt.fleet_dir = make_fleet("compat", *h.model, {{"alpha", 1}});
    h.start();
    const auto img = make_images(1).samples[0].image;
    const auto session = h.model->open_session();

    auto client = h.connect();
    const auto resp = client.call(make_frame(img, 42));
    ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
    EXPECT_EQ(resp.version, netd::kProtocolVersion);
    EXPECT_TRUE(resp.model.empty());
    EXPECT_EQ(resp.label, session->predict(img));
}

TEST(Netd, FleetControlCommandsDriveTheRouter) {
    Harness h;
    h.ropt.fleet_dir = make_fleet("ctl", *h.model, {{"alpha", 1}, {"beta", 2}});
    // A second alpha version with a different forced winner makes pin and
    // canary switches observable through the data socket.
    {
        online::ModelRegistry reg(
            (std::filesystem::path(h.ropt.fleet_dir) / "alpha").string());
        reg.record(2, 0.95, forced_snapshot(*h.model, 3));
    }
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();

    // Discovery before anything is resident.
    const std::string cold = h.control("models");
    ASSERT_EQ(cold.rfind("ok [", 0), 0u) << cold;
    EXPECT_NE(cold.find("\"name\":\"alpha\""), std::string::npos);
    EXPECT_NE(cold.find("\"name\":\"beta\""), std::string::npos);
    EXPECT_NE(cold.find("\"resident\":false"), std::string::npos);

    // Explicit load picks the registry's last good version (2).
    EXPECT_EQ(h.control("load alpha"), "ok loaded alpha version 2");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 1000;
        return client.call(make_v2_frame(img, id++, "alpha")).label == 3u;
    }));

    // Pin rolls the base arm back to version 1 on the live entry.
    EXPECT_EQ(h.control("pin alpha 1"), "ok pinned alpha 1");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 2000;
        return client.call(make_v2_frame(img, id++, "alpha")).label == 1u;
    }));

    // Canary at 100% sends every request to version 2's arm...
    EXPECT_EQ(h.control("canary alpha 2 100"), "ok canary alpha version 2 pct 100");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 3000;
        return client.call(make_v2_frame(img, id++, "alpha")).label == 3u;
    }));
    // ...and clearing it restores the pinned base.
    EXPECT_EQ(h.control("canary alpha 0 0"), "ok canary alpha version 0 pct 0");
    EXPECT_TRUE(eventually([&] {
        static std::uint64_t id = 4000;
        return client.call(make_v2_frame(img, id++, "alpha")).label == 1u;
    }));

    // Per-entry stats narrow to one JSON object with live counters.
    const std::string stats = h.control("stats alpha");
    ASSERT_EQ(stats.rfind("ok {", 0), 0u) << stats;
    EXPECT_NE(stats.find("\"name\":\"alpha\""), std::string::npos);
    EXPECT_NE(stats.find("\"resident\":true"), std::string::npos);
    // The daemon-wide stats JSON now carries the fleet too.
    const std::string all = h.control("stats");
    EXPECT_NE(all.find("\"models\":["), std::string::npos);

    EXPECT_EQ(h.control("unload alpha"), "ok unloaded alpha");
    const std::string after = h.control("models");
    EXPECT_NE(after.find("\"name\":\"alpha\""), std::string::npos);

    std::filesystem::remove_all(h.ropt.fleet_dir);
}

// ---- observability (docs/ARCHITECTURE.md §14) -------------------------------

TEST(Netd, MetricsScrapeExposesServerAndDaemonFamilies) {
    obs::Registry reg;
    Harness h;
    h.dopt.metrics = &reg;
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    for (std::uint64_t id = 1; id <= 4; ++id) {
        const auto resp = client.call(make_frame(img, id));
        ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
    }
    // A micro-batch is accounted right after its requests resolve, so the
    // last response can reach the client before its batch is counted.
    ASSERT_TRUE(eventually([&] { return h.router->stats().completed >= 4; }));

    const std::string text =
        netd::control_request_multiline(h.dopt.control_path, "metrics");
    // Well-formed exposition: HELP/TYPE headers, the absorbed ServerStats
    // and DaemonStats families with live values, "# EOF" terminator line.
    EXPECT_NE(text.find("# TYPE "), std::string::npos) << text;
    EXPECT_NE(text.find("# HELP "), std::string::npos);
    EXPECT_NE(text.find("neuro_server_accepted_total 4"), std::string::npos)
        << text;
    EXPECT_NE(text.find("neuro_server_completed_total 4"), std::string::npos);
    EXPECT_NE(text.find("neuro_daemon_frames_in_total 4"), std::string::npos);
    EXPECT_NE(text.find("neuro_daemon_connections_open "), std::string::npos);
    EXPECT_NE(text.find("neuro_server_latency_us{quantile=\"0.99\"}"),
              std::string::npos);
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    // Scrapes are deterministic in shape: a second one still terminates.
    const std::string again =
        netd::control_request_multiline(h.dopt.control_path, "metrics");
    EXPECT_EQ(again.substr(again.size() - 6), "# EOF\n");
}

TEST(Netd, MetricsScrapeCoversTheFleetPerModelFamilies) {
    obs::Registry reg;
    Harness h;
    h.ropt.fleet_dir = make_fleet("metrics", *h.model, {{"alpha", 1}});
    h.dopt.metrics = &reg;
    h.start();
    EXPECT_EQ(h.control("load alpha"), "ok loaded alpha version 1");
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    const auto resp = client.call(make_v2_frame(img, 1, "alpha"));
    ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;

    const std::string text =
        netd::control_request_multiline(h.dopt.control_path, "metrics");
    EXPECT_NE(text.find("{model=\"alpha\""), std::string::npos) << text;
    EXPECT_NE(text.find("neuro_model_dispatched_total"), std::string::npos);
    EXPECT_NE(text.find("neuro_model_weight_bytes{model=\"alpha\"}"),
              std::string::npos);
    std::filesystem::remove_all(h.ropt.fleet_dir);
}

TEST(Netd, MetricsWithoutRegistryAndEventsWithoutRecorderErr) {
    Harness h;
    h.start();
    EXPECT_EQ(h.control("metrics"), "err no metrics registry");
    EXPECT_EQ(h.control("events"), "err no recorder");
    // The multiline client returns a bare err line without waiting for a
    // terminator that will never come.
    EXPECT_EQ(netd::control_request_multiline(h.dopt.control_path, "metrics"),
              "err no metrics registry");
}

TEST(Netd, EventsDumpRecordsControlPlaneHistory) {
    obs::FlightRecorder rec(64);
    Harness h;
    h.ropt.fleet_dir = make_fleet("events", *h.model, {{"alpha", 1}});
    h.ropt.recorder = &rec;
    h.start();
    EXPECT_EQ(h.control("load alpha"), "ok loaded alpha version 1");
    EXPECT_EQ(h.control("pin alpha 1"), "ok pinned alpha 1");

    const std::string events = h.control("events");
    ASSERT_EQ(events.rfind("ok [", 0), 0u) << events;
    EXPECT_NE(events.find("\"kind\":\"model_load\""), std::string::npos)
        << events;
    EXPECT_NE(events.find("\"kind\":\"weight_publish\""), std::string::npos);
    EXPECT_NE(events.find("\"detail\":\"alpha\""), std::string::npos);

    // `events N` narrows the dump to the newest N.
    const std::string one = h.control("events 1");
    ASSERT_EQ(one.rfind("ok [", 0), 0u) << one;
    EXPECT_EQ(one.find("\"kind\":\"model_load\""), std::string::npos) << one;
    std::filesystem::remove_all(h.ropt.fleet_dir);
}

TEST(Netd, SlowRequestEventsCarryTheSpanBreakdown) {
    obs::FlightRecorder rec(64);
    Harness h;
    h.ropt.fleet_dir = make_fleet("slow", *h.model, {{"alpha", 1}});
    h.ropt.recorder = &rec;
    h.ropt.slow_request_us = 1;  // every dispatched request is "slow"
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();
    const auto resp = client.call(make_v2_frame(img, 31, "alpha"));
    ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;

    ASSERT_TRUE(eventually([&] {
        return h.control("events").find("\"kind\":\"slow_request\"") !=
               std::string::npos;
    }));
    const std::string events = h.control("events");
    EXPECT_NE(events.find("\"spans\":{"), std::string::npos) << events;
    EXPECT_NE(events.find("\"compute_us\":"), std::string::npos);
    std::filesystem::remove_all(h.ropt.fleet_dir);
}

TEST(Netd, V3TraceEchoTelescopesToTheWireLatency) {
    Harness h;
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();

    RequestFrame f = make_frame(img, 41);
    f.version = netd::kProtocolVersionV3;
    f.flags = netd::kFlagTrace;
    const auto resp = client.call(f);
    ASSERT_EQ(resp.status, WireStatus::Ok) << resp.error;
    EXPECT_EQ(resp.version, netd::kProtocolVersionV3);
    ASSERT_FALSE(resp.trace.empty());

    std::map<std::uint8_t, std::uint64_t> spans;
    for (const auto& s : resp.trace) {
        EXPECT_GE(s.id, 1);
        EXPECT_LE(s.id, 7);
        EXPECT_TRUE(spans.emplace(s.id, s.value).second)
            << "duplicate span id " << int(s.id);
    }
    const std::uint64_t total =
        spans[static_cast<std::uint8_t>(obs::SpanId::TotalUs)];
    const std::uint64_t sum =
        spans[static_cast<std::uint8_t>(obs::SpanId::QueueUs)] +
        spans[static_cast<std::uint8_t>(obs::SpanId::BatchUs)] +
        spans[static_cast<std::uint8_t>(obs::SpanId::ComputeUs)] +
        spans[static_cast<std::uint8_t>(obs::SpanId::ResolveUs)];
    // The phases telescope by construction: their sum IS the total span.
    EXPECT_EQ(sum, total);
    // And the total reconciles with the latency the router measured — the
    // end-to-end acceptance criterion (5% plus clock-coarseness slack).
    const double slack =
        std::max(0.05 * static_cast<double>(resp.latency_us), 200.0);
    EXPECT_LE(static_cast<double>(total),
              static_cast<double>(resp.latency_us) + slack);
    EXPECT_GE(static_cast<double>(total) + slack,
              static_cast<double>(resp.latency_us));
}

TEST(Netd, V3WithoutTheFlagAndOlderVersionsGetNoTraceBlock) {
    Harness h;
    h.start();
    const auto img = make_images(1).samples[0].image;
    auto client = h.connect();

    RequestFrame v3 = make_frame(img, 51);
    v3.version = netd::kProtocolVersionV3;  // flags stay 0
    const auto resp3 = client.call(v3);
    ASSERT_EQ(resp3.status, WireStatus::Ok) << resp3.error;
    EXPECT_EQ(resp3.version, netd::kProtocolVersionV3);
    EXPECT_TRUE(resp3.trace.empty());

    const auto resp1 = client.call(make_frame(img, 52));
    ASSERT_EQ(resp1.status, WireStatus::Ok) << resp1.error;
    EXPECT_EQ(resp1.version, netd::kProtocolVersion);
    EXPECT_TRUE(resp1.trace.empty());
}
