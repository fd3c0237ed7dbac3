// Unit tests of the benchmark harness's own logic: the percentile /
// sample-count rule, the rate ladder and backlog detection behind the
// serve_wire throughput metric, failure accounting and the JSON report.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.hpp"

using namespace neurobench;

namespace {

std::vector<double> iota(std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
    return v;
}

LadderStep step(double rate, double tail_us, bool backlog = false,
                std::uint64_t failed = 0, std::size_t n = 2000) {
    LadderStep s;
    s.rate = rate;
    s.outcomes.attempted = n;
    s.outcomes.ok = n - failed;
    s.outcomes.shed = failed;
    s.latency.n = n;
    s.latency.tail_q = 99;
    s.latency.tail = tail_us;
    s.latency.tail_supported = percentile_supported(n, 99);
    s.backlog = backlog;
    return s;
}

}  // namespace

TEST(Percentile, NearestRank) {
    const auto v = iota(100);
    EXPECT_EQ(percentile_sorted(v, 50), 50);
    EXPECT_EQ(percentile_sorted(v, 99), 99);
    EXPECT_EQ(percentile_sorted(v, 100), 100);
    EXPECT_EQ(percentile_sorted(v, 0), 1);
    EXPECT_EQ(percentile_sorted({}, 50), 0);
    EXPECT_EQ(percentile_sorted({7.0}, 99), 7.0);
}

TEST(Percentile, SamplesBeyond) {
    EXPECT_EQ(samples_beyond(100, 99), 1u);
    EXPECT_EQ(samples_beyond(1000, 99), 10u);
    EXPECT_EQ(samples_beyond(999, 99), 9u);
    EXPECT_EQ(samples_beyond(0, 50), 0u);
}

TEST(Percentile, TenBeyondRule) {
    // p99 needs 1000 samples (10 beyond); 999 is one short.
    EXPECT_TRUE(percentile_supported(1000, 99));
    EXPECT_FALSE(percentile_supported(999, 99));
    // p95 needs 200.
    EXPECT_TRUE(percentile_supported(200, 95));
    EXPECT_FALSE(percentile_supported(199, 95));
    EXPECT_FALSE(percentile_supported(15, 50));
    EXPECT_TRUE(percentile_supported(20, 50));
}

TEST(Percentile, HighestSupported) {
    EXPECT_EQ(highest_supported_percentile(10000), 99.9);
    EXPECT_EQ(highest_supported_percentile(1000), 99);
    EXPECT_EQ(highest_supported_percentile(999), 98);
    EXPECT_EQ(highest_supported_percentile(200), 95);
    EXPECT_EQ(highest_supported_percentile(100), 90);
    EXPECT_EQ(highest_supported_percentile(19), 0);
}

TEST(Percentile, SummaryFlagsUnsupportedTail) {
    auto s = summarize(iota(500), 99);
    EXPECT_EQ(s.n, 500u);
    EXPECT_EQ(s.p50, 250);
    EXPECT_EQ(s.tail, 495);
    EXPECT_FALSE(s.tail_supported);
    EXPECT_EQ(s.max_supported_q, 98);
    s = summarize(iota(2000), 99);
    EXPECT_TRUE(s.tail_supported);
    EXPECT_EQ(s.tail, 1980);
}

TEST(Percentile, SummaryIgnoresInputOrder) {
    std::vector<double> v = {5, 1, 4, 2, 3};
    const auto s = summarize(v, 50);
    EXPECT_EQ(s.p50, 3);
}

TEST(Backlog, FlatInflightIsNotABacklog) {
    EXPECT_FALSE(backlog_growing(std::vector<double>(40, 3.0)));
    // Noise around a steady level.
    std::vector<double> v;
    for (int i = 0; i < 40; ++i) v.push_back(i % 2 ? 2.0 : 9.0);
    EXPECT_FALSE(backlog_growing(v));
}

TEST(Backlog, LinearGrowthIsABacklog) {
    std::vector<double> v;
    for (int i = 0; i < 40; ++i) v.push_back(2.0 * i);
    EXPECT_TRUE(backlog_growing(v));
}

TEST(Backlog, SmallGrowthBelowTheFloorIsNoise) {
    std::vector<double> v;
    for (int i = 0; i < 40; ++i) v.push_back(1.0 + i / 10.0);  // 1 -> 4.9
    EXPECT_FALSE(backlog_growing(v));
}

TEST(Backlog, TooFewSamplesNeverFlag) {
    EXPECT_FALSE(backlog_growing({0, 100, 200, 300}));
}

TEST(Ladder, RatesAreGeometricAndInclusive) {
    const auto r = ladder_rates(100, 200, 1.25);
    ASSERT_EQ(r.size(), 4u);  // 100 125 156 195
    EXPECT_EQ(r.front(), 100);
    EXPECT_EQ(r[1], 125);
    EXPECT_EQ(r.back(), 195);
    EXPECT_TRUE(ladder_rates(0, 100, 1.5).empty());
    EXPECT_TRUE(ladder_rates(10, 100, 1.0).empty());
}

TEST(Ladder, StepPassRule) {
    EXPECT_TRUE(step_passes(step(100, 900), 1000));
    EXPECT_TRUE(step_passes(step(100, 1000), 1000));
    EXPECT_FALSE(step_passes(step(100, 1001), 1000));
    EXPECT_FALSE(step_passes(step(100, 10, true), 1000));     // backlog
    EXPECT_FALSE(step_passes(step(100, 10, false, 1), 1000)); // one failure
    EXPECT_FALSE(step_passes(step(100, 10, false, 0, 500), 1000));  // n < 1000
    EXPECT_FALSE(step_passes(LadderStep{}, 1000));            // nothing sent
}

TEST(Ladder, MaxRateStopsAtFirstFailure) {
    const std::vector<LadderStep> steps = {step(100, 500), step(200, 800),
                                           step(300, 2000), step(400, 700)};
    // 400 passed only after 300 failed: not capacity.
    EXPECT_EQ(max_rate_at_slo(steps, 1000), 200);
    EXPECT_EQ(max_rate_at_slo(steps, 5000), 400);
    EXPECT_EQ(max_rate_at_slo({step(100, 5000)}, 1000), 0);
    EXPECT_EQ(max_rate_at_slo({}, 1000), 0);
}

TEST(Ladder, BacklogFailsAStepEvenWithinTheLimit) {
    const std::vector<LadderStep> steps = {step(100, 500), step(200, 500, true)};
    EXPECT_EQ(max_rate_at_slo(steps, 1000), 100);
}

TEST(Outcomes, EveryNonOkDispositionIsAFailure) {
    Outcomes o;
    o.attempted = 100;
    o.ok = 93;
    o.shed = 1;
    o.dropped = 1;
    o.errors = 1;
    o.timeouts = 1;
    o.wrong = 1;
    o.feedback_dropped = 2;
    EXPECT_EQ(o.failed(), 7u);
    EXPECT_DOUBLE_EQ(o.failed_frac(), 0.07);
    EXPECT_TRUE(o.balanced());
    o.ok = 92;
    EXPECT_FALSE(o.balanced());
    EXPECT_EQ(Outcomes{}.failed_frac(), 0.0);
}

TEST(Outcomes, Accumulate) {
    Outcomes a, b;
    a.attempted = 3;
    a.ok = 3;
    b.attempted = 2;
    b.ok = 1;
    b.timeouts = 1;
    a += b;
    EXPECT_EQ(a.attempted, 5u);
    EXPECT_EQ(a.ok, 4u);
    EXPECT_EQ(a.failed(), 1u);
    EXPECT_TRUE(a.balanced());
}

TEST(Report, JsonShapeAndCorrectness) {
    Report r;
    r.outcomes.attempted = 4;
    r.outcomes.ok = 4;
    r.set("latency_p50_us", 1.5, "us");
    r.set("setup_s", 0.25, "s");
    r.set("latency_p50_us", 2.5, "us");  // overwrite keeps one entry
    EXPECT_TRUE(r.correct());
    EXPECT_EQ(r.json(),
              "{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
              "\"metrics\": {\"latency_p50_us\": {\"value\": 2.5, \"unit\": "
              "\"us\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

TEST(Report, WrongOutputOrFailedCheckMakesItIncorrect) {
    Report r;
    r.outcomes.attempted = 2;
    r.outcomes.ok = 1;
    r.outcomes.wrong = 1;
    EXPECT_FALSE(r.correct());
    EXPECT_NE(r.json().find("\"correct\": false"), std::string::npos);
    EXPECT_NE(r.json().find("\"failed\": 1"), std::string::npos);

    Report c;
    c.fail_check("activity changed");
    EXPECT_FALSE(c.correct());

    // Load failures (shed) are failures but not incorrect output.
    Report s;
    s.outcomes.attempted = 2;
    s.outcomes.ok = 1;
    s.outcomes.shed = 1;
    EXPECT_TRUE(s.correct());
}

TEST(Report, NumbersKeepAllDigitsAndStayJson) {
    EXPECT_EQ(Report::number(0.1), "0.10000000000000001");
    EXPECT_EQ(Report::number(1e300 * 1e300), "0");
}

TEST(BlockRate, MedianIgnoresAStalledBlock) {
    // Four blocks at 100/s and one stalled block at 10/s.
    const std::vector<std::pair<double, double>> b = {
        {50, 0.5}, {50, 0.5}, {5, 0.5}, {50, 0.5}, {50, 0.5}};
    EXPECT_DOUBLE_EQ(median_block_rate(b), 100.0);
    EXPECT_EQ(median_block_rate({}), 0.0);
    EXPECT_DOUBLE_EQ(median_block_rate({{10, 0.0}, {10, 1.0}}), 10.0);
}

TEST(BlockRate, BlocksOfACumulativeCounter) {
    // A counter sampled every 0.12 s, growing by 12 per sample (100/s):
    // a block closes at the first sample 0.5 s or more after it opened.
    std::vector<std::pair<double, double>> samples;
    for (int i = 0; i <= 22; ++i) samples.push_back({0.12 * i, 12.0 * i});
    const auto b = blocks_of(samples, 0.5);
    ASSERT_EQ(b.size(), 4u);  // the last 0.24 s is not a full block
    for (const auto& [work, secs] : b) {
        EXPECT_NEAR(secs, 0.6, 1e-9);
        EXPECT_NEAR(work / secs, 100.0, 1e-9);
    }
    EXPECT_TRUE(blocks_of({}, 0.5).empty());
}
