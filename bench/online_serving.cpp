// Learning-while-serving load test (neuro::online + neuro::serve) — the
// production shape of the paper's in-hardware learning claim: EMSTDP
// updates land on the serving fleet *while it serves*, through versioned
// COW weight publication, with a shadow-eval gate in front of traffic.
//
// One learning-off control row (plain server, frozen weights), then a
// sweep of feedback-rate x publish-interval rows. Each learning-on row
// runs a feedback producer (seeded, fixed order: the whole learning
// trajectory — updates, replay, publish points, accuracies — is
// deterministic on the integer chip simulator, so the accuracy columns
// are machine-independent and CI-gateable) next to closed-loop inference
// clients, and reports:
//   * accuracy over the feedback stream: baseline (initial weights) vs
//     final (last good published version) on a held-out set, plus the
//     per-version trajectory from the model registry,
//   * serving p95 with learning on, and its ratio to the learning-off
//     row — the "learning must not wreck the tail" acceptance number.
//
// Writes bench_results/online_serving.{csv,json}; CI gates final_accuracy
// against bench/baselines/online_serving.json (absolute comparison, like
// table1) via tools/check_bench_regression.py.
//
// CLI: --feedback=N (stream length/config), --requests=R (control-row
//      requests), --holdout=H, --rates=a,b --intervals=x,y (sweep),
//      --workers=W, --batch=B, --clients=C, --seed=S,
//      --max_p95_ratio=F (0 = report only; >0 = fail above it).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "online/engine.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/router.hpp"

using namespace neuro;

namespace {

struct Row {
    std::string config;
    std::string mode;
    std::size_t publish_interval = 0;
    double feedback_rps = 0.0;
    std::size_t feedback = 0;
    std::uint64_t requests = 0;
    double baseline_accuracy = 0.0;
    double final_accuracy = 0.0;
    double prequential_accuracy = 0.0;
    std::uint64_t published = 0;
    std::uint64_t rollbacks = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double throughput_rps = 0.0;
    double p95_ratio = 0.0;  ///< vs the learning-off control row
};

std::vector<double> parse_list(const std::string& csv) {
    std::vector<double> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
    return out;
}

/// Closed-loop inference clients that run until `stop` flips, then report
/// how many requests completed Ok.
std::uint64_t drive_traffic(serve::ModelRouter& router,
                            const data::Dataset& images, std::size_t clients,
                            std::atomic<bool>& stop) {
    std::atomic<std::uint64_t> ok{0};
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < clients; ++c)
        pool.emplace_back([&, c] {
            std::size_t i = c;
            while (!stop.load(std::memory_order_relaxed)) {
                if (router.submit(images.samples[i % images.size()].image)
                        .get()
                        .status == serve::Status::Ok)
                    ok.fetch_add(1, std::memory_order_relaxed);
                i += clients;
            }
        });
    for (auto& t : pool) t.join();
    return ok.load();
}

}  // namespace

int main(int argc, char** argv) {
    common::Cli cli(argc, argv);
    const auto feedback_n = static_cast<std::size_t>(cli.get_int("feedback", 240));
    const auto requests = static_cast<std::size_t>(cli.get_int("requests", 192));
    const auto holdout_n = static_cast<std::size_t>(cli.get_int("holdout", 80));
    const auto workers = static_cast<std::size_t>(cli.get_int("workers", 2));
    const auto batch = static_cast<std::size_t>(cli.get_int("batch", 4));
    const auto clients = static_cast<std::size_t>(cli.get_int("clients", 2));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 17));
    const auto rates = parse_list(cli.get("rates", "100,200"));
    const auto intervals = parse_list(cli.get("intervals", "60,120"));
    const double max_p95_ratio = cli.get_double("max_p95_ratio", 0.0);

    bench::banner(
        "Online learning while serving — feedback-rate x publish-interval",
        "in-hardware learning (paper Sec. IV) as a live-serving subsystem "
        "(no paper figure)",
        std::to_string(feedback_n) + " feedback samples/config, sweep " +
            cli.get("rates", "100,200") + " fb/s x intervals " +
            cli.get("intervals", "60,120") + ", " + std::to_string(workers) +
            " workers, " + std::to_string(clients) + " clients, " +
            std::to_string(std::thread::hardware_concurrency()) +
            " hardware threads");

    data::GenOptions gen;
    gen.count = feedback_n + holdout_n;
    gen.seed = seed;
    gen.height = 16;
    gen.width = 16;
    auto all = data::make_digits(gen);
    auto [stream, holdout] = data::split(all, feedback_n);

    runtime::ModelSpec spec;
    spec.input(1, 16, 16).hidden_layers({100}).output_classes(10);
    spec.options.seed = 29;

    serve::RouterOptions ropt;
    ropt.workers = workers;
    ropt.queue_capacity = 128;
    ropt.batch.max_batch = batch;
    ropt.admission.feedback_capacity = 256;

    std::vector<Row> rows;

    // ---- learning OFF: the frozen-server control row -----------------------
    {
        const auto model = runtime::CompiledModel::compile(spec);
        auto probe = model->open_session();
        const double baseline = core::evaluate(*probe, holdout);
        serve::ModelRouter router(model, ropt);
        router.start();
        std::atomic<bool> stop{false};
        std::thread stopper([&] {
            // Fixed request budget: the control row measures a quiet router.
            while (router.stats().completed < requests)
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            stop.store(true);
        });
        const auto ok = drive_traffic(router, stream, clients, stop);
        stopper.join();
        router.shutdown();
        const auto st = router.stats();
        Row row;
        row.config = "serve-only";
        row.mode = "off";
        row.requests = ok;
        row.baseline_accuracy = baseline;
        row.final_accuracy = baseline;  // frozen weights: nothing changes
        row.p50_us = st.p50_us;
        row.p95_us = st.p95_us;
        row.p99_us = st.p99_us;
        row.throughput_rps = st.throughput_rps;
        row.p95_ratio = 1.0;
        rows.push_back(row);
    }
    const double off_p95 = rows[0].p95_us;

    // ---- learning ON: feedback-rate x publish-interval sweep ---------------
    for (const double rate : rates) {
        for (const double interval_d : intervals) {
            const auto interval = static_cast<std::size_t>(interval_d);
            const auto model = runtime::CompiledModel::compile(spec);
            serve::ModelRouter router(model, ropt);

            const auto registry_dir =
                std::filesystem::temp_directory_path() /
                ("neuro_online_bench_" + std::to_string(interval) + "_" +
                 std::to_string(static_cast<int>(rate)));
            std::filesystem::remove_all(registry_dir);

            online::OnlineOptions oopt;
            oopt.publish_interval = interval;
            oopt.seed = seed;
            oopt.max_regression = 0.05;
            // Drain one sample at a time: long learner bursts between
            // yields are exactly what inflates the serving tail when the
            // learner shares cores with the pool.
            oopt.feedback_batch =
                static_cast<std::size_t>(cli.get_int("feedback_batch", 1));
            oopt.registry_dir = registry_dir.string();
            online::OnlineEngine engine(model, router.feedback_queue(),
                                        holdout, oopt);
            router.start();
            engine.start();

            // Paced, ordered feedback stream: blocking push keeps the
            // training order (and hence every accuracy) deterministic.
            std::thread producer([&] {
                const auto t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < stream.size(); ++i) {
                    std::this_thread::sleep_until(
                        t0 + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) / rate)));
                    serve::FeedbackSample f{stream.samples[i].image,
                                            stream.samples[i].label, {}};
                    router.feedback_queue()->push(f);
                }
            });

            std::atomic<bool> stop{false};
            std::thread stopper([&] {
                while (engine.stats().feedback_seen < stream.size())
                    std::this_thread::sleep_for(std::chrono::milliseconds(2));
                stop.store(true);
            });
            const auto ok = drive_traffic(router, stream, clients, stop);
            producer.join();
            stopper.join();
            engine.stop();
            router.shutdown();

            const auto st = router.stats();
            const auto es = engine.stats();
            Row row;
            row.config = "learn, rate=" +
                         std::to_string(static_cast<int>(rate)) +
                         ", interval=" + std::to_string(interval);
            row.mode = "on";
            row.publish_interval = interval;
            row.feedback_rps = rate;
            row.feedback = stream.size();
            row.requests = ok;
            row.baseline_accuracy = es.baseline_accuracy;
            row.final_accuracy = es.last_good_accuracy;
            row.prequential_accuracy =
                es.feedback_seen == 0
                    ? 0.0
                    : static_cast<double>(es.prequential_hits) /
                          static_cast<double>(es.feedback_seen);
            row.published = es.published;
            row.rollbacks = es.rollbacks;
            row.p50_us = st.p50_us;
            row.p95_us = st.p95_us;
            row.p99_us = st.p99_us;
            row.throughput_rps = st.throughput_rps;
            row.p95_ratio = off_p95 > 0.0 ? st.p95_us / off_p95 : 0.0;
            rows.push_back(row);

            // Accuracy-over-time for this config, straight from the
            // registry (one line per accepted version).
            std::printf("%-26s versions:", row.config.c_str());
            if (engine.registry())
                for (const auto& e : engine.registry()->entries())
                    std::printf(" v%llu=%.3f",
                                static_cast<unsigned long long>(e.version),
                                e.accuracy);
            std::printf("  (baseline %.3f)\n", es.baseline_accuracy);
            std::fflush(stdout);
            std::filesystem::remove_all(registry_dir);
        }
    }

    // ---- report ------------------------------------------------------------
    common::Table table({"configuration", "acc start", "acc final", "preq",
                         "publishes", "rollbacks", "p95 us", "p95 ratio",
                         "req/s"});
    const std::vector<std::string> keys = {
        "config", "mode", "publish_interval", "feedback_rps", "feedback",
        "requests", "baseline_accuracy", "final_accuracy",
        "prequential_accuracy", "published", "rollbacks", "p50_us", "p95_us",
        "p99_us", "throughput_rps", "p95_ratio"};
    common::CsvWriter csv(bench::kCsvDir, "online_serving", keys);
    bench::JsonWriter json(bench::kCsvDir, "online_serving", keys);
    for (const auto& r : rows) {
        table.add_row({r.config, common::Table::fmt(r.baseline_accuracy, 3),
                       common::Table::fmt(r.final_accuracy, 3),
                       common::Table::fmt(r.prequential_accuracy, 3),
                       std::to_string(r.published),
                       std::to_string(r.rollbacks),
                       common::Table::fmt(r.p95_us, 0),
                       common::Table::fmt(r.p95_ratio, 2),
                       common::Table::fmt(r.throughput_rps, 1)});
        const std::vector<std::string> cells = {
            r.config,
            r.mode,
            std::to_string(r.publish_interval),
            std::to_string(r.feedback_rps),
            std::to_string(r.feedback),
            std::to_string(r.requests),
            std::to_string(r.baseline_accuracy),
            std::to_string(r.final_accuracy),
            std::to_string(r.prequential_accuracy),
            std::to_string(r.published),
            std::to_string(r.rollbacks),
            std::to_string(r.p50_us),
            std::to_string(r.p95_us),
            std::to_string(r.p99_us),
            std::to_string(r.throughput_rps),
            std::to_string(r.p95_ratio)};
        csv.add_row(cells);
        json.add_row(cells);
    }
    std::printf("\n");
    table.print();
    std::printf("CSV: %s\nJSON: %s\n", csv.write().c_str(),
                json.write().c_str());
    bench::footnote(
        "accuracy columns are deterministic (integer simulator, seeded "
        "stream) and CI-gated; latency columns are machine-dependent and "
        "reported for the p95-ratio acceptance check. The learning-off row "
        "is the frozen-server control the ratios compare against.");

    bool fail = false;
    for (const auto& r : rows) {
        if (r.mode != "on") continue;
        if (r.final_accuracy <= r.baseline_accuracy) {
            std::fprintf(stderr,
                         "FAIL: %s did not improve over the feedback stream "
                         "(%.3f -> %.3f)\n",
                         r.config.c_str(), r.baseline_accuracy,
                         r.final_accuracy);
            fail = true;
        }
        if (max_p95_ratio > 0.0 && r.p95_ratio > max_p95_ratio) {
            std::fprintf(stderr,
                         "FAIL: %s serving p95 ratio %.2f exceeds %.2f\n",
                         r.config.c_str(), r.p95_ratio, max_p95_ratio);
            fail = true;
        }
    }
    return fail ? 1 : 0;
}
