// Contract tests for neuro::serve::ModelRouter as a single-model engine
// (a fleet of one; the multi-model behaviour lives in router_test.cpp):
//   * micro-batch coalescing semantics (collect_batch),
//   * configuration validation,
//   * batched serving bit-identical to sequential Session inference,
//   * backpressure — Shed rejects deterministically, Block waits,
//   * drain-on-shutdown completes every accepted request,
//   * error isolation (a bad request doesn't take the worker down),
//   * stats invariants and per-class attribution,
//   * concurrent submitters (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/tensor.hpp"
#include "data/dataset.hpp"
#include "obs/timer.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/request.hpp"
#include "serve/router.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"

using namespace neuro;
using common::BoundedQueue;

namespace {

std::shared_ptr<const runtime::CompiledModel> make_model() {
    runtime::ModelSpec spec;
    spec.input(1, 12, 12).hidden_layers({40}).output_classes(10);
    return runtime::CompiledModel::compile(spec,
                                           runtime::BackendKind::LoihiSim);
}

data::Dataset make_images(std::size_t n) {
    data::GenOptions gen;
    gen.count = n;
    gen.seed = 21;
    gen.height = 12;
    gen.width = 12;
    return data::make_digits(gen);
}

}  // namespace

// ---- scheduler --------------------------------------------------------------

TEST(Scheduler, FullBatchDispatchesWithoutWaitingOutTheDelay) {
    BoundedQueue<int> q(16);
    for (int i = 0; i < 8; ++i) {
        int v = i;
        ASSERT_TRUE(q.push(v));
    }
    const serve::BatchPolicy policy{4, 2'000'000};  // 2s delay must NOT matter
    std::vector<int> out;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(serve::collect_batch(q, policy, out));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
    ASSERT_TRUE(serve::collect_batch(q, policy, out));
    EXPECT_EQ(out, (std::vector<int>{4, 5, 6, 7}));
}

TEST(Scheduler, PartialBatchDispatchesOnDelayExpiry) {
    BoundedQueue<int> q(16);
    for (int i = 0; i < 2; ++i) {
        int v = i;
        ASSERT_TRUE(q.push(v));
    }
    const serve::BatchPolicy policy{8, 3000};  // 3ms, queue stays short
    std::vector<int> out;
    ASSERT_TRUE(serve::collect_batch(q, policy, out));
    EXPECT_EQ(out, (std::vector<int>{0, 1}));
}

TEST(Scheduler, MaxBatchOneNeverCoalesces) {
    BoundedQueue<int> q(4);
    int v = 7;
    ASSERT_TRUE(q.push(v));
    v = 8;
    ASSERT_TRUE(q.push(v));
    const serve::BatchPolicy policy{1, 2'000'000};
    std::vector<int> out;
    ASSERT_TRUE(serve::collect_batch(q, policy, out));
    EXPECT_EQ(out, std::vector<int>{7});
}

TEST(Scheduler, ClosedAndDrainedQueueEndsTheLoop) {
    BoundedQueue<int> q(4);
    int v = 1;
    ASSERT_TRUE(q.push(v));
    q.close();
    const serve::BatchPolicy policy{8, 1000};
    std::vector<int> out;
    ASSERT_TRUE(serve::collect_batch(q, policy, out));  // drains the leftover
    EXPECT_EQ(out, std::vector<int>{1});
    EXPECT_FALSE(serve::collect_batch(q, policy, out));  // worker exit signal
    EXPECT_TRUE(out.empty());
}

// ---- configuration ----------------------------------------------------------

TEST(ModelRouter, RejectsNullModelAndDegenerateOptions) {
    EXPECT_THROW(serve::ModelRouter(nullptr), std::invalid_argument);
    const auto model = make_model();
    serve::RouterOptions no_workers;
    no_workers.workers = 0;
    EXPECT_THROW(serve::ModelRouter(model, no_workers), std::invalid_argument);
    serve::RouterOptions no_batch;
    no_batch.batch.max_batch = 0;
    EXPECT_THROW(serve::ModelRouter(model, no_batch), std::invalid_argument);
}

// ---- determinism ------------------------------------------------------------

TEST(ModelRouter, BatchedServingBitIdenticalToSequentialSessions) {
    const auto model = make_model();
    const auto images = make_images(24);

    auto ref = model->open_session();
    std::vector<std::size_t> want_label;
    std::vector<std::vector<std::int32_t>> want_counts;
    for (const auto& s : images.samples) {
        want_label.push_back(ref->predict(s.image));
        want_counts.push_back(ref->output_counts(s.image));
    }

    struct Config {
        std::size_t workers, batch;
    };
    for (const Config cfg : {Config{1, 1}, Config{3, 4}, Config{2, 16}}) {
        serve::RouterOptions opt;
        opt.workers = cfg.workers;
        opt.queue_capacity = 64;
        opt.batch.max_batch = cfg.batch;
        opt.batch.max_delay_us = 500;
        serve::ModelRouter router(model, opt);
        router.start();

        std::vector<serve::InferenceHandle> predicts, counts;
        for (const auto& s : images.samples) {
            predicts.push_back(router.submit(s.image));
            counts.push_back(router.submit_counts(s.image));
        }
        for (std::size_t i = 0; i < images.size(); ++i) {
            auto p = predicts[i].get();
            ASSERT_EQ(p.status, serve::Status::Ok);
            EXPECT_EQ(p.label, want_label[i])
                << "workers=" << cfg.workers << " batch=" << cfg.batch;
            EXPECT_GE(p.batch_size, 1u);
            EXPECT_LE(p.batch_size, cfg.batch);
            auto c = counts[i].get();
            ASSERT_EQ(c.status, serve::Status::Ok);
            EXPECT_EQ(c.counts, want_counts[i]);
        }
        router.shutdown();
        const auto stats = router.stats();
        EXPECT_EQ(stats.accepted, 2 * images.size());
        EXPECT_EQ(stats.completed, 2 * images.size());
        EXPECT_EQ(stats.rejected, 0u);
        EXPECT_EQ(stats.errors, 0u);
    }
}

// ---- backpressure -----------------------------------------------------------

TEST(ModelRouter, ShedPolicyRejectsExactlyTheOverflowBeforeStart) {
    const auto model = make_model();
    const auto images = make_images(1);
    serve::RouterOptions opt;
    opt.workers = 1;
    opt.queue_capacity = 2;
    opt.backpressure = serve::Backpressure::Shed;
    serve::ModelRouter router(model, opt);  // workers idle until start()

    std::vector<serve::InferenceHandle> handles;
    for (int i = 0; i < 5; ++i)
        handles.push_back(router.submit(images.samples[0].image));

    // Queue holds 2: requests 2..4 must already be complete as Rejected,
    // with the intake-specific reason (shed, not head-dropped).
    for (int i = 2; i < 5; ++i) {
        ASSERT_TRUE(handles[static_cast<std::size_t>(i)].ready());
        auto r = handles[static_cast<std::size_t>(i)].get();
        EXPECT_EQ(r.status, serve::Status::Rejected);
        EXPECT_EQ(r.reject, serve::RejectReason::QueueFull);
    }
    router.shutdown();  // auto-starts and drains the two accepted requests
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(handles[static_cast<std::size_t>(i)].get().status,
                  serve::Status::Ok);
    const auto stats = router.stats();
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(ModelRouter, BlockPolicyWaitsForSpaceInsteadOfShedding) {
    const auto model = make_model();
    const auto images = make_images(1);
    serve::RouterOptions opt;
    opt.workers = 1;
    opt.queue_capacity = 1;
    opt.backpressure = serve::Backpressure::Block;
    serve::ModelRouter router(model, opt);

    std::atomic<int> submitted{0};
    std::vector<serve::InferenceHandle> handles(3);
    std::thread producer([&] {
        for (int i = 0; i < 3; ++i) {
            handles[static_cast<std::size_t>(i)] =
                router.submit(images.samples[0].image);
            submitted.fetch_add(1);
        }
    });
    // With no workers running and capacity 1, the producer can complete at
    // most one submit; the second blocks inside the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_LE(submitted.load(), 1);

    router.start();
    producer.join();
    EXPECT_EQ(submitted.load(), 3);
    for (auto& h : handles) EXPECT_EQ(h.get().status, serve::Status::Ok);
    router.shutdown();
    EXPECT_EQ(router.stats().rejected, 0u);
    EXPECT_EQ(router.stats().completed, 3u);
}

// ---- shutdown ---------------------------------------------------------------

TEST(ModelRouter, ShutdownDrainsEveryAcceptedRequest) {
    const auto model = make_model();
    const auto images = make_images(4);
    serve::RouterOptions opt;
    opt.workers = 2;
    opt.queue_capacity = 64;
    opt.batch.max_batch = 8;
    serve::ModelRouter router(model, opt);

    std::vector<serve::InferenceHandle> handles;
    for (int i = 0; i < 20; ++i)
        handles.push_back(
            router.submit(images.samples[static_cast<std::size_t>(i) % 4].image));
    router.shutdown();
    for (auto& h : handles) EXPECT_EQ(h.get().status, serve::Status::Ok);

    // After shutdown the intake is closed: immediate rejection.
    auto late = router.submit(images.samples[0].image);
    ASSERT_TRUE(late.ready());
    auto late_result = late.get();
    EXPECT_EQ(late_result.status, serve::Status::Rejected);
    EXPECT_EQ(late_result.reject, serve::RejectReason::Shutdown);
    EXPECT_FALSE(router.running());
    const auto stats = router.stats();
    EXPECT_EQ(stats.completed, 20u);
    EXPECT_EQ(stats.rejected, 1u);
    // shutdown() twice is harmless.
    router.shutdown();
}

// ---- error isolation --------------------------------------------------------

TEST(ModelRouter, BadRequestCompletesWithErrorAndWorkerSurvives) {
    const auto model = make_model();
    const auto images = make_images(1);
    serve::RouterOptions opt;
    opt.workers = 1;
    serve::ModelRouter router(model, opt);
    router.start();

    common::Tensor wrong_size({3});  // backend throws invalid_argument
    auto bad = router.submit(wrong_size);
    auto good = router.submit(images.samples[0].image);
    const auto bad_result = bad.get();
    EXPECT_EQ(bad_result.status, serve::Status::Error);
    EXPECT_FALSE(bad_result.error.empty());
    EXPECT_EQ(good.get().status, serve::Status::Ok);
    router.shutdown();
    const auto stats = router.stats();
    EXPECT_EQ(stats.errors, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

// ---- stats ------------------------------------------------------------------

TEST(ModelRouter, StatsInvariantsAfterLoad) {
    const auto model = make_model();
    const auto images = make_images(8);
    serve::RouterOptions opt;
    opt.workers = 2;
    opt.batch.max_batch = 4;
    serve::ModelRouter router(model, opt);
    router.start();
    std::vector<serve::InferenceHandle> handles;
    for (int i = 0; i < 32; ++i)
        handles.push_back(
            router.submit(images.samples[static_cast<std::size_t>(i) % 8].image));
    for (auto& h : handles) (void)h.get();
    router.shutdown();

    const auto s = router.stats();
    EXPECT_EQ(s.completed, 32u);
    EXPECT_GE(s.batches, 32u / opt.batch.max_batch);
    EXPECT_GE(s.mean_batch, 1.0);
    EXPECT_LE(s.max_batch, opt.batch.max_batch);
    EXPECT_LE(s.peak_queue_depth, opt.queue_capacity);
    EXPECT_GE(s.peak_queue_depth, 1u);
    EXPECT_LE(s.p50_us, s.p95_us);
    EXPECT_LE(s.p95_us, s.p99_us);
    EXPECT_LE(s.p99_us, s.max_us * 1.07);  // bucket upper-edge slack
    EXPECT_GT(s.elapsed_s, 0.0);
    EXPECT_GT(s.throughput_rps, 0.0);

    // Admission-layer stats under a no-overload run: everything rode the
    // default Interactive class, the sojourn histogram saw every dispatch,
    // and CoDel (disabled) never engaged.
    constexpr auto kInteractive =
        static_cast<std::size_t>(serve::Priority::Interactive);
    EXPECT_EQ(s.class_accepted[kInteractive], 32u);
    EXPECT_EQ(s.class_codel_dropped[kInteractive], 0u);
    EXPECT_EQ(s.class_deadline_dropped[kInteractive], 0u);
    EXPECT_EQ(s.codel_dropped, 0u);
    EXPECT_EQ(s.deadline_dropped, 0u);
    EXPECT_EQ(s.drop_state_entries, 0u);
    EXPECT_LE(s.sojourn_p50_us, s.sojourn_p95_us);
    EXPECT_LE(s.sojourn_p95_us, s.sojourn_p99_us);
    EXPECT_LE(s.sojourn_p99_us, s.sojourn_max_us * 1.07);
    // Queue wait is a component of end-to-end latency.
    EXPECT_LE(s.sojourn_p50_us, s.max_us);
}

// Per-class accounting: one request per class (feedback via its own
// intake), each attributed to the right AdmissionCounters slot.
TEST(ModelRouter, StatsAttributeAcceptsToTheSubmittedClass) {
    const auto model = make_model();
    const auto images = make_images(3);
    serve::RouterOptions opt;
    opt.workers = 1;
    opt.admission.feedback_capacity = 4;
    serve::ModelRouter router(model, opt);
    router.start();

    serve::SubmitOptions interactive;  // default class
    serve::SubmitOptions batch;
    batch.priority = serve::Priority::Batch;
    auto r0 = router.submit(images.samples[0].image, interactive).get();
    auto r1 = router.submit(images.samples[1].image, batch).get();
    ASSERT_TRUE(router.submit_feedback(images.samples[2].image, 1));
    EXPECT_EQ(r0.status, serve::Status::Ok);
    EXPECT_EQ(r0.priority, serve::Priority::Interactive);
    EXPECT_EQ(r1.status, serve::Status::Ok);
    EXPECT_EQ(r1.priority, serve::Priority::Batch);
    router.shutdown();

    const auto s = router.stats();
    constexpr auto kI = static_cast<std::size_t>(serve::Priority::Interactive);
    constexpr auto kB = static_cast<std::size_t>(serve::Priority::Batch);
    constexpr auto kF = static_cast<std::size_t>(serve::Priority::Feedback);
    EXPECT_EQ(s.class_accepted[kI], 1u);
    EXPECT_EQ(s.class_accepted[kB], 1u);
    EXPECT_EQ(s.class_accepted[kF], 1u);
    EXPECT_EQ(s.codel_dropped + s.deadline_dropped, 0u);
    EXPECT_EQ(s.feedback_dropped, 0u);
}

// ---- tracing ----------------------------------------------------------------

TEST(ModelRouter, TracedRequestOnAShardedModelReportsKernelTime) {
#ifdef NEURO_OBS_NO_TIMERS
    GTEST_SKIP() << "kernel timers compiled out";
#endif
    runtime::ModelSpec spec;
    spec.input(1, 12, 12).hidden_layers({40}).output_classes(10).with_shards(2);
    const auto model = runtime::CompiledModel::compile(
        spec, runtime::BackendKind::LoihiSim);
    serve::RouterOptions opt;
    opt.workers = 1;
    serve::ModelRouter router(model, opt);
    router.start();
    serve::SubmitOptions traced;
    traced.trace = true;
    obs::set_timing(true);
    const auto r = router.submit(make_images(1).samples[0].image, traced).get();
    obs::set_timing(false);
    router.shutdown();
    ASSERT_EQ(r.status, serve::Status::Ok);
    ASSERT_TRUE(r.trace.enabled);
    EXPECT_GT(r.trace.kernel_sweep_ns, 0u);
}

// ---- concurrency (run under TSan in CI) -------------------------------------

TEST(ModelRouter, ConcurrentSubmittersAllCompleteCorrectly) {
    const auto model = make_model();
    const auto images = make_images(6);
    auto ref = model->open_session();
    std::vector<std::size_t> want;
    for (const auto& s : images.samples) want.push_back(ref->predict(s.image));

    serve::RouterOptions opt;
    opt.workers = 2;
    opt.queue_capacity = 16;
    opt.batch.max_batch = 4;
    opt.batch.max_delay_us = 200;
    serve::ModelRouter router(model, opt);
    router.start();

    constexpr int kThreads = 4, kPerThread = 25;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t)
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const auto idx =
                    static_cast<std::size_t>(t * kPerThread + i) % images.size();
                auto r = router.submit(images.samples[idx].image).get();
                if (r.status != serve::Status::Ok || r.label != want[idx])
                    mismatches.fetch_add(1);
            }
        });
    for (auto& t : submitters) t.join();
    router.shutdown();

    EXPECT_EQ(mismatches.load(), 0);
    const auto stats = router.stats();
    EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.completed,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.rejected, 0u);
}
