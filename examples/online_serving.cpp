// Learning while serving, end to end (docs/ARCHITECTURE.md §9):
//
//   1. compile a model and put a serve::ModelRouter pool on it,
//   2. attach an online::OnlineEngine to the router's feedback queue,
//   3. stream labeled feedback while inference traffic keeps flowing,
//   4. watch versions pass the shadow-eval gate, get published, be adopted
//      by the pool at batch boundaries, and land in the on-disk registry.
//
// Build & run:  cmake --build build --target example_online_serving &&
//               ./build/example_online_serving

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "online/engine.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/router.hpp"

using namespace neuro;

int main() {
    // ---- data: a digits stream plus a held-out set for the shadow eval ----
    data::GenOptions gen;
    gen.count = 560;
    gen.seed = 17;
    gen.height = 16;
    gen.width = 16;
    const auto [stream, holdout] = data::split(data::make_digits(gen), 480);

    // ---- model + serving pool ---------------------------------------------
    runtime::ModelSpec spec;
    spec.input(1, 16, 16).hidden_layers({100}).output_classes(10);
    const auto model = runtime::CompiledModel::compile(spec);

    serve::RouterOptions ropt;
    ropt.workers = 2;
    ropt.admission.feedback_capacity = 256;  // enables the labeled-feedback intake
    serve::ModelRouter router(model, ropt);

    // ---- the online engine -------------------------------------------------
    const auto registry_dir =
        std::filesystem::temp_directory_path() / "neuro_online_example";
    std::filesystem::remove_all(registry_dir);
    online::OnlineOptions oopt;
    oopt.publish_interval = 120;  // shadow-eval + publish every 120 samples
    oopt.max_regression = 0.05;   // candidates may not regress > 5 points
    oopt.feedback_batch = 1;
    oopt.registry_dir = registry_dir.string();
    online::OnlineEngine engine(model, router.feedback_queue(), holdout, oopt);

    router.start();
    engine.start();
    std::printf("baseline accuracy (shadow eval): %.3f\n",
                engine.stats().baseline_accuracy);

    // ---- serve and learn at the same time ---------------------------------
    std::atomic<bool> stop{false};
    std::thread traffic([&] {
        for (std::size_t i = 0; !stop.load(); ++i)
            (void)router.submit(stream.samples[i % stream.size()].image).get();
    });
    std::size_t accepted = 0;
    for (const auto& s : stream.samples) {
        // Feedback is best-effort: when the learner falls behind, the queue
        // sheds and submit_feedback says so — count what actually got in.
        if (router.submit_feedback(s.image, s.label)) ++accepted;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // Wait for the learner to drain what was accepted, then stop (order-
    // independent with router.shutdown(): both close the shared queue).
    while (engine.stats().feedback_seen < accepted)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
    traffic.join();
    engine.stop();
    router.shutdown();

    // ---- what happened -----------------------------------------------------
    const auto es = engine.stats();
    const auto ss = router.stats();
    std::printf("feedback consumed: %llu (trained %llu incl. replay)\n",
                static_cast<unsigned long long>(es.feedback_seen),
                static_cast<unsigned long long>(es.trained));
    std::printf("candidates %llu -> published %llu, rollbacks %llu\n",
                static_cast<unsigned long long>(es.candidates),
                static_cast<unsigned long long>(es.published),
                static_cast<unsigned long long>(es.rollbacks));
    std::printf("accuracy: %.3f -> %.3f (serving version %llu)\n",
                es.baseline_accuracy, es.last_good_accuracy,
                static_cast<unsigned long long>(es.current_version));
    std::printf("pool picked up %llu weight refreshes; served %llu requests\n",
                static_cast<unsigned long long>(ss.weight_refreshes),
                static_cast<unsigned long long>(ss.completed));
    if (engine.registry()) {
        std::printf("registry (%s):\n", engine.registry()->dir().c_str());
        for (const auto& e : engine.registry()->entries())
            std::printf("  v%llu  accuracy %.3f\n",
                        static_cast<unsigned long long>(e.version), e.accuracy);
    }

    // A post-mortem session sees the last published (gated) weights.
    auto session = model->open_session();
    session->refresh();
    std::printf("fresh session after refresh(): accuracy %.3f\n",
                core::evaluate(*session, holdout));
    std::filesystem::remove_all(registry_dir);
    return 0;
}
