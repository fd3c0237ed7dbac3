// Contract tests for neuro::obs (docs/ARCHITECTURE.md §14):
//   * Timer — zero accumulation while disabled, stop() flush + disarm,
//     nesting and shared-sink addition,
//   * TraceContext — span telescoping (queue+batch+compute+resolve ==
//     total) and saturating deltas,
//   * Registry — collector output in registration order, the sample
//     formatting helpers, and the "# EOF" terminator,
//   * FlightRecorder — ordering, wraparound, detail truncation, the
//     events JSON, and concurrent writers against a snapshotting reader.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

using namespace neuro;

namespace {

/// set_timing is process-global; every test that flips it restores the
/// disabled default so suites stay order-independent.
struct TimingGuard {
    explicit TimingGuard(bool on) { obs::set_timing(on); }
    ~TimingGuard() { obs::set_timing(false); }
};

}  // namespace

// ---- Timer ------------------------------------------------------------------

TEST(Timer, DisabledTimerNeverTouchesTheSink) {
    TimingGuard g(false);
    std::uint64_t sink = 0;
    {
        obs::Timer t(sink);
        volatile int spin = 0;
        for (int i = 0; i < 1000; ++i) spin = spin + i;
    }
    EXPECT_EQ(sink, 0u);
}

TEST(Timer, EnabledTimerAccumulatesElapsedNanoseconds) {
    TimingGuard g(true);
    std::uint64_t sink = 0;
    {
        obs::Timer t(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Slept ~2ms; any positive accumulation proves the clock was read.
    EXPECT_GT(sink, 0u);
}

TEST(Timer, StopFlushesOnceAndDisarms) {
    TimingGuard g(true);
    std::uint64_t sink = 0;
    obs::Timer t(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    t.stop();
    const std::uint64_t after_stop = sink;
    EXPECT_GT(after_stop, 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    t.stop();  // idempotent: no second flush
    EXPECT_EQ(sink, after_stop);
}

TEST(Timer, SiblingScopesSharingASinkAdd) {
    TimingGuard g(true);
    std::uint64_t sink = 0;
    {
        obs::Timer a(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t first = sink;
    {
        obs::Timer b(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(sink, first);
}

TEST(Timer, NestedScopesAccumulateIntoTheirOwnSinks) {
    TimingGuard g(true);
    std::uint64_t outer = 0;
    std::uint64_t inner = 0;
    {
        obs::Timer a(outer);
        {
            obs::Timer b(inner);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(inner, 0u);
    // The outer scope covers the inner one plus its own tail.
    EXPECT_GE(outer, inner);
}

TEST(Timer, FlipMidScopeKeepsTheStartingPolicy) {
    // A scope opened while timing is off stays off even if the switch
    // flips before it closes (the constructor decided).
    std::uint64_t sink = 0;
    obs::set_timing(false);
    {
        obs::Timer t(sink);
        obs::set_timing(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    obs::set_timing(false);
    EXPECT_EQ(sink, 0u);
}

// ---- TraceContext -----------------------------------------------------------

TEST(TraceContext, SpansTelescopeToTotal) {
    obs::TraceContext t;
    t.enabled = true;
    t.t_intake_us = 100;
    t.t_dequeue_us = 180;
    t.t_dispatch_us = 250;
    t.t_compute_done_us = 1300;
    t.t_complete_us = 1320;
    EXPECT_EQ(t.queue_us(), 80u);
    EXPECT_EQ(t.batch_us(), 70u);
    EXPECT_EQ(t.compute_us(), 1050u);
    EXPECT_EQ(t.resolve_us(), 20u);
    EXPECT_EQ(t.queue_us() + t.batch_us() + t.compute_us() + t.resolve_us(),
              t.total_us());
}

TEST(TraceContext, DeltasSaturateAtZeroOnClockCoarseness) {
    // A coarse clock can stamp equal (or, through saturation math, even
    // out-of-order-looking) values; spans must never underflow.
    EXPECT_EQ(obs::TraceContext::delta(50, 50), 0u);
    EXPECT_EQ(obs::TraceContext::delta(60, 50), 0u);
    obs::TraceContext t;
    EXPECT_EQ(t.total_us(), 0u);
}

TEST(TraceContext, SpanIdNamesAreStable) {
    EXPECT_STREQ(obs::to_string(obs::SpanId::QueueUs), "queue_us");
    EXPECT_STREQ(obs::to_string(obs::SpanId::ComputeUs), "compute_us");
    EXPECT_STREQ(obs::to_string(obs::SpanId::KernelSweepNs),
                 "kernel_sweep_ns");
    EXPECT_STREQ(obs::to_string(obs::SpanId::TotalUs), "total_us");
}

// ---- Registry ---------------------------------------------------------------

TEST(Registry, ExposeFramesCollectorOutputWithEofTerminator) {
    obs::Registry empty;
    EXPECT_EQ(empty.expose(), "# EOF\n");

    obs::Registry reg;
    reg.add_collector([](std::string& out) {
        obs::append_help_type(out, "neuro_zeta_ops_total", "counter",
                              "first collector");
        obs::append_sample(out, "neuro_zeta_ops_total", "",
                           std::uint64_t{3});
    });
    reg.add_collector([](std::string& out) {
        obs::append_help_type(out, "neuro_alpha_depth", "gauge",
                              "second collector");
        obs::append_sample(out, "neuro_alpha_depth", "", -4.0);
    });
    const std::string text = reg.expose();
    EXPECT_EQ(text,
              "# HELP neuro_zeta_ops_total first collector\n"
              "# TYPE neuro_zeta_ops_total counter\n"
              "neuro_zeta_ops_total 3\n"
              "# HELP neuro_alpha_depth second collector\n"
              "# TYPE neuro_alpha_depth gauge\n"
              "neuro_alpha_depth -4\n"
              "# EOF\n");
    // Scrapes are repeatable: collectors run again, framing unchanged.
    EXPECT_EQ(reg.expose(), text);
}

TEST(Registry, CollectorsAppendBeforeTheTerminator) {
    obs::Registry reg;
    reg.add_collector([](std::string& out) {
        obs::append_help_type(out, "neuro_bridge_total", "counter",
                              "scrape-time bridge");
        obs::append_sample(out, "neuro_bridge_total",
                           "{model=\"m0\"}", std::uint64_t{42});
    });
    const std::string text = reg.expose();
    const auto bridge = text.find("neuro_bridge_total{model=\"m0\"} 42\n");
    ASSERT_NE(bridge, std::string::npos) << text;
    EXPECT_LT(bridge, text.rfind("# EOF\n"));
}

// ---- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorder, RecordsInOrderOldestFirst) {
    obs::FlightRecorder rec(16);
    for (std::uint64_t i = 0; i < 5; ++i)
        rec.record(obs::EventKind::ModelLoad, 100 + i, "m" + std::to_string(i),
                   i, 0);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(events[i].t_us, 100 + i);
        EXPECT_EQ(events[i].a, i);
        EXPECT_EQ(events[i].detail_str(), "m" + std::to_string(i));
        EXPECT_EQ(events[i].kind, obs::EventKind::ModelLoad);
    }
    EXPECT_EQ(rec.total_recorded(), 5u);
}

TEST(FlightRecorder, WraparoundKeepsTheMostRecentCapacityEvents) {
    obs::FlightRecorder rec(8);  // power of two already
    ASSERT_EQ(rec.capacity(), 8u);
    for (std::uint64_t i = 0; i < 20; ++i)
        rec.record(obs::EventKind::CoDelDrop, i, "d", i, 0);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].a, 12 + i);  // tickets 12..19 survive
    EXPECT_EQ(rec.total_recorded(), 20u);
}

TEST(FlightRecorder, SnapshotMaxNReturnsTheNewestSuffix) {
    obs::FlightRecorder rec(32);
    for (std::uint64_t i = 0; i < 10; ++i)
        rec.record(obs::EventKind::Eviction, i, "e", i, 0);
    const auto events = rec.snapshot(3);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].a, 7u);
    EXPECT_EQ(events[2].a, 9u);
}

TEST(FlightRecorder, CapacityRoundsUpToAPowerOfTwo) {
    obs::FlightRecorder rec(100);
    EXPECT_EQ(rec.capacity(), 128u);
    obs::FlightRecorder tiny(1);
    EXPECT_EQ(tiny.capacity(), 8u);  // floor
}

TEST(FlightRecorder, DetailTruncatesToThirtyNineBytesPlusNul) {
    obs::Event e;
    const std::string long_name(64, 'x');
    e.set_detail(long_name);
    EXPECT_EQ(std::strlen(e.detail), sizeof e.detail - 1);
    EXPECT_EQ(e.detail_str(), std::string(sizeof e.detail - 1, 'x'));
    e.set_detail("short");
    EXPECT_EQ(e.detail_str(), "short");
}

TEST(FlightRecorder, SlowRequestSpansSurviveTheRing) {
    obs::FlightRecorder rec(8);
    obs::Event e;
    e.kind = obs::EventKind::SlowRequest;
    e.t_us = 777;
    e.a = 42;       // request_id
    e.b = 125'000;  // latency_us
    for (std::size_t i = 0; i < e.spans.size(); ++i)
        e.spans[i] = 10 * (i + 1);
    e.set_detail("modelA");
    rec.record(e);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].spans, e.spans);
    EXPECT_EQ(events[0].detail_str(), "modelA");
}

TEST(FlightRecorder, EventsJsonCarriesKindsDetailsAndSpans) {
    obs::FlightRecorder rec(8);
    rec.record(obs::EventKind::Eviction, 5, "victim", 4096, 2);
    obs::Event slow;
    slow.kind = obs::EventKind::SlowRequest;
    slow.t_us = 9;
    slow.a = 1;
    slow.b = 200'000;
    slow.spans[0] = 11;  // queue_us
    slow.spans[6] = 77;  // total_us
    slow.set_detail("m0");
    rec.record(slow);
    const std::string json = obs::events_to_json(rec.snapshot());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"kind\":\"eviction\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"detail\":\"victim\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"slow_request\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_us\":11"), std::string::npos);
    EXPECT_NE(json.find("\"total_us\":77"), std::string::npos);
    // Non-slow events carry no spans object.
    const auto eviction = json.find("\"kind\":\"eviction\"");
    const auto spans = json.find("\"spans\"");
    ASSERT_NE(spans, std::string::npos);
    EXPECT_GT(spans, eviction);
    EXPECT_EQ(obs::events_to_json({}), "[]");
}

TEST(FlightRecorder, ConcurrentWritersNeverBlockOrTearTheReader) {
    obs::FlightRecorder rec(64);
    constexpr int kWriters = 4;
    constexpr std::uint64_t kPerWriter = 5'000;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            // Every surviving event must be internally consistent: the
            // a-word always equals the t_us stamp in this workload, so a
            // torn slot would be visible immediately.
            for (const auto& e : rec.snapshot())
                ASSERT_EQ(e.a, e.t_us);
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&rec, w] {
            for (std::uint64_t i = 0; i < kPerWriter; ++i) {
                const std::uint64_t stamp = w * kPerWriter + i;
                rec.record(obs::EventKind::ConnError, stamp, "fd", stamp, 0);
            }
        });
    for (auto& t : writers) t.join();
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(rec.total_recorded(), kWriters * kPerWriter);
    EXPECT_EQ(rec.snapshot().size(), rec.capacity());
}
