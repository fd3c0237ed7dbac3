// Unit tests for src/common: RNG determinism and distribution sanity,
// tensor algebra, fixed-point helpers, table/CSV rendering, CLI parsing,
// statistics, and the bounded MPMC queue.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/fixed.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/tensor.hpp"

using namespace neuro::common;

TEST(Rng, DeterministicStreams) {
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformMomentsAndRange) {
    Rng rng(7);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
        sq += u * u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
    EXPECT_NEAR(sq / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
    Rng rng(9);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
    Rng rng(3);
    bool lo = false, hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        lo |= v == -2;
        hi |= v == 2;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, ShufflePermutes) {
    Rng rng(5);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto w = v;
    rng.shuffle(w);
    std::sort(w.begin(), w.end());
    EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng a(11);
    Rng child = a.split();
    // The child stream must not replay the parent's.
    Rng b(11);
    (void)b.next_u64();  // advance identically to the split call
    EXPECT_NE(child.next_u64(), b.next_u64());
}

TEST(Tensor, ShapeAndIndexing) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.size(), 24u);
    EXPECT_EQ(t.rank(), 3u);
    t.at3(1, 2, 3) = 5.0f;
    EXPECT_FLOAT_EQ(t[23], 5.0f);
    EXPECT_EQ(t.describe(), "Tensor[2x3x4]");
}

TEST(Tensor, ReshapePreservesCount) {
    Tensor t({4, 6});
    t.reshape({24});
    EXPECT_EQ(t.rank(), 1u);
    EXPECT_THROW(t.reshape({5}), std::invalid_argument);
}

TEST(Tensor, Arithmetic) {
    Tensor a({3});
    Tensor b({3});
    a.fill(2.0f);
    b.fill(1.5f);
    a += b;
    EXPECT_FLOAT_EQ(a[0], 3.5f);
    a -= b;
    EXPECT_FLOAT_EQ(a[1], 2.0f);
    a *= 2.0f;
    EXPECT_FLOAT_EQ(a[2], 4.0f);
    EXPECT_FLOAT_EQ(a.sum(), 12.0f);
    EXPECT_FLOAT_EQ(a.mean(), 4.0f);
}

TEST(Tensor, ArgmaxFirstOnTies) {
    Tensor t({4});
    t[0] = 1.0f;
    t[1] = 3.0f;
    t[2] = 3.0f;
    t[3] = 0.0f;
    EXPECT_EQ(t.argmax(), 1u);
}

TEST(Fixed, SaturateSigned) {
    EXPECT_EQ(saturate_signed(127, 8), 127);
    EXPECT_EQ(saturate_signed(128, 8), 127);
    EXPECT_EQ(saturate_signed(-128, 8), -128);
    EXPECT_EQ(saturate_signed(-129, 8), -128);
    EXPECT_EQ(saturate_signed(100000, 8), 127);
}

TEST(Fixed, SaturateUnsigned) {
    EXPECT_EQ(saturate_unsigned(127, 7), 127);
    EXPECT_EQ(saturate_unsigned(128, 7), 127);
    EXPECT_EQ(saturate_unsigned(-5, 7), 0);
}

TEST(Fixed, Decay12Extremes) {
    // delta = 0: perfect integrator. delta = 4096: clears in one step.
    EXPECT_EQ(decay12(1000, 0), 1000);
    EXPECT_EQ(decay12(1000, 4096), 0);
    // Halfway decay.
    EXPECT_EQ(decay12(1000, 2048), 500);
}

TEST(Fixed, QuantizeRoundTrip) {
    const float v = 0.37f;
    const auto q = quantize_signed(v, 1.0f, 8);
    EXPECT_NEAR(dequantize_signed(q, 1.0f, 8), v, 1.0f / 127.0f);
    EXPECT_EQ(quantize_signed(2.0f, 1.0f, 8), 127);   // saturates
    EXPECT_EQ(quantize_signed(-2.0f, 1.0f, 8), -128);
}

TEST(Table, AlignsAndFormats) {
    Table t({"name", "value"});
    t.add_row({"alpha", Table::fmt(1.5)});
    t.add_row({"b", Table::pct(0.945)});
    const std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("94.5%"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Csv, WritesEscapedFile) {
    const std::string dir = testing::TempDir() + "/neuro_csv_test";
    CsvWriter w(dir, "t", {"a", "b"});
    w.add_row({"x,y", "plain"});
    const std::string path = w.write();
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    EXPECT_EQ(line, "a,b");
    std::getline(f, line);
    EXPECT_EQ(line, "\"x,y\",plain");
    std::filesystem::remove_all(dir);
}

TEST(Cli, ParsesKeysFlagsAndTypes) {
    const char* argv[] = {"prog", "--alpha=3", "--flag", "--rate=0.5",
                          "--name=test"};
    Cli cli(5, argv);
    EXPECT_FALSE(cli.error());
    EXPECT_EQ(cli.get_int("alpha", 0), 3);
    EXPECT_TRUE(cli.get_bool("flag", false));
    EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.5);
    EXPECT_EQ(cli.get("name", ""), "test");
    EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, RejectsPositional) {
    const char* argv[] = {"prog", "positional"};
    Cli cli(2, argv);
    EXPECT_TRUE(cli.error());
}

TEST(Stats, ConfusionAccuracyAndRecall) {
    Confusion c(3);
    c.add(0, 0);
    c.add(0, 1);
    c.add(1, 1);
    c.add(2, 2);
    EXPECT_DOUBLE_EQ(c.accuracy(), 0.75);
    EXPECT_DOUBLE_EQ(c.recall(0), 0.5);
    EXPECT_DOUBLE_EQ(c.recall(1), 1.0);
    EXPECT_DOUBLE_EQ(c.accuracy_over({0}), 0.5);
    EXPECT_DOUBLE_EQ(c.accuracy_over({1, 2}), 1.0);
    EXPECT_THROW(c.add(3, 0), std::out_of_range);
}

TEST(Stats, MeanStddevArgmax) {
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(stddev({1.0, 2.0, 3.0}), 1.0, 1e-12);
    EXPECT_EQ(argmax(std::vector<double>{1.0, 5.0, 2.0}), 1u);
    EXPECT_EQ(argmax(std::vector<int>{3, 3, 1}), 0u);
}

TEST(BoundedQueue, FifoOrderAndSize) {
    BoundedQueue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    for (int i = 0; i < 4; ++i) {
        int v = i;
        EXPECT_TRUE(q.push(v));
    }
    EXPECT_EQ(q.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        int out = -1;
        EXPECT_TRUE(q.pop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, ZeroCapacityThrows) {
    EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

TEST(BoundedQueue, TryPushRefusesWhenFullAndKeepsValue) {
    BoundedQueue<std::unique_ptr<int>> q(1);
    auto a = std::make_unique<int>(1);
    EXPECT_EQ(q.try_push(a), BoundedQueue<std::unique_ptr<int>>::Push::Ok);
    EXPECT_EQ(a, nullptr);  // moved out on success
    auto b = std::make_unique<int>(2);
    EXPECT_EQ(q.try_push(b), BoundedQueue<std::unique_ptr<int>>::Push::Full);
    ASSERT_NE(b, nullptr);  // refused value stays with the caller
    EXPECT_EQ(*b, 2);
    q.close();
    EXPECT_EQ(q.try_push(b), BoundedQueue<std::unique_ptr<int>>::Push::Closed);
    ASSERT_NE(b, nullptr);
}

TEST(BoundedQueue, CloseDrainsAcceptedItemsThenRefuses) {
    BoundedQueue<int> q(8);
    for (int i = 0; i < 3; ++i) {
        int v = i;
        ASSERT_TRUE(q.push(v));
    }
    q.close();
    EXPECT_TRUE(q.closed());
    int v = 99;
    EXPECT_FALSE(q.push(v));
    int out = -1;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(BoundedQueue, PopUntilTimesOutOnEmpty) {
    BoundedQueue<int> q(2);
    int out = -1;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(q.pop_until(
        out, t0 + std::chrono::milliseconds(5)));
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(4));
}

TEST(BoundedQueue, BlockingPushUnblocksOnPop) {
    BoundedQueue<int> q(1);
    int v0 = 0;
    ASSERT_TRUE(q.push(v0));
    std::atomic<bool> second_pushed{false};
    std::thread producer([&] {
        int v1 = 1;
        ASSERT_TRUE(q.push(v1));  // blocks until the consumer pops
        second_pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(second_pushed.load());
    int out = -1;
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, 0);
    producer.join();
    EXPECT_TRUE(second_pushed.load());
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, 1);
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
    BoundedQueue<int> q(1);
    int v0 = 0;
    ASSERT_TRUE(q.push(v0));
    std::thread producer([&] {
        int v1 = 1;
        EXPECT_FALSE(q.push(v1));  // full, then woken by close: refused
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    producer.join();
    int out = -1;
    EXPECT_TRUE(q.pop(out));  // the accepted item still drains
    EXPECT_EQ(out, 0);
    EXPECT_FALSE(q.pop(out));
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
    BoundedQueue<int> q(1);
    std::thread consumer([&] {
        int out = -1;
        EXPECT_FALSE(q.pop(out));  // empty, then woken by close: drained
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    consumer.join();
}

TEST(BoundedQueue, MpmcStressDeliversEverythingOnce) {
    constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 250;
    BoundedQueue<int> q(16);
    std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
    for (auto& s : seen) s.store(0);
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p)
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int v = p * kPerProducer + i;
                ASSERT_TRUE(q.push(v));
            }
        });
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c)
        consumers.emplace_back([&] {
            int out = -1;
            while (q.pop(out)) seen[static_cast<std::size_t>(out)]++;
        });
    for (auto& t : threads) t.join();
    q.close();
    for (auto& t : consumers) t.join();
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

// ---- latency histogram (the one histogram behind every latency readout) ----

TEST(LatencyHistogram, PercentilesBoundedBySubBucketResolution) {
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.max_us(), 1000.0);
    EXPECT_NEAR(h.mean_us(), 500.5, 1e-9);
    // Percentiles are monotone and never exceed the observed maximum.
    EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
    EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
    EXPECT_LE(h.percentile(0.99), h.max_us());
    // Log-bucketed estimates err high by at most one sub-bucket (~6%).
    EXPECT_GE(h.percentile(0.50), 500.0);
    EXPECT_LE(h.percentile(0.50), 500.0 * 1.07);
    EXPECT_GE(h.percentile(0.99), 990.0);
    EXPECT_LE(h.percentile(0.99), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
}

TEST(LatencyHistogram, EmptyAndSubMicrosecond) {
    LatencyHistogram h;
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    h.record(0.25);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_LE(h.percentile(0.99), 1.0);
}

// ---- randomized producer/consumer stress (seeded, satellite of the
// ---- admission-control PR; run under TSan in CI) ----------------------------

#include <map>
#include <mutex>

#include "serve/admission.hpp"
#include "serve/clock.hpp"

namespace {

// Encode (producer, sequence) so consumers can check per-producer FIFO
// without any out-of-band bookkeeping.
constexpr int kSeqBase = 1'000'000;
int encode(int producer, int seq) { return producer * kSeqBase + seq; }

}  // namespace

// Randomized (seeded ⇒ reproducible) MPMC interleavings: no accepted item
// is lost or duplicated, and items from one producer are consumed in the
// order that producer pushed them — the queue may interleave producers
// arbitrarily, but never reorders a single producer's stream.
TEST(BoundedQueueStress, SeededMpmcInterleavingsConserveItemsAndProducerFifo) {
    for (const std::uint64_t seed : {7ull, 21ull, 1968ull}) {
        Rng rng(seed);
        const int producers = static_cast<int>(rng.uniform_int(2, 4));
        const int consumers = static_cast<int>(rng.uniform_int(2, 4));
        const int per_producer = static_cast<int>(rng.uniform_int(200, 400));
        BoundedQueue<int> q(static_cast<std::size_t>(rng.uniform_int(1, 8)));

        std::vector<std::thread> threads;
        std::mutex consumed_m;
        std::vector<int> consumed;
        for (int p = 0; p < producers; ++p) {
            threads.emplace_back([&, p] {
                for (int s = 0; s < per_producer; ++s) {
                    int v = encode(p, s);
                    ASSERT_TRUE(q.push(v));  // Block mode: nothing is shed
                }
            });
        }
        std::atomic<int> remaining{producers * per_producer};
        for (int c = 0; c < consumers; ++c) {
            threads.emplace_back([&] {
                int out;
                std::vector<int> local;
                while (remaining.fetch_sub(1) > 0) {
                    if (!q.pop(out)) break;
                    local.push_back(out);
                }
                std::lock_guard<std::mutex> lock(consumed_m);
                consumed.insert(consumed.end(), local.begin(), local.end());
            });
        }
        // Consumers claim items via `remaining`, so exactly
        // producers*per_producer pops happen and every thread terminates.
        for (auto& t : threads) t.join();

        ASSERT_EQ(consumed.size(),
                  static_cast<std::size_t>(producers * per_producer))
            << "seed " << seed;
        // Conservation: each (producer, seq) appears exactly once.
        std::vector<int> sorted = consumed;
        std::sort(sorted.begin(), sorted.end());
        for (int p = 0, i = 0; p < producers; ++p)
            for (int s = 0; s < per_producer; ++s, ++i)
                ASSERT_EQ(sorted[static_cast<std::size_t>(i)], encode(p, s))
                    << "seed " << seed;
    }
}

// NOTE on FIFO-per-producer above: with multiple consumers, consumption
// order across consumers is not globally observable, so FIFO is asserted
// in the single-consumer variant below where the pop order IS the queue
// order.
TEST(BoundedQueueStress, SingleConsumerObservesPerProducerFifo) {
    Rng rng(4242);
    const int producers = 4;
    const int per_producer = 500;
    BoundedQueue<int> q(static_cast<std::size_t>(rng.uniform_int(2, 6)));

    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (int s = 0; s < per_producer; ++s) {
                int v = encode(p, s);
                ASSERT_TRUE(q.push(v));
            }
        });
    }
    std::vector<int> consumed;
    int out;
    for (int i = 0; i < producers * per_producer; ++i) {
        ASSERT_TRUE(q.pop(out));
        consumed.push_back(out);
    }
    for (auto& t : threads) t.join();

    std::map<int, int> next_seq;
    for (const int v : consumed) {
        const int p = v / kSeqBase;
        const int s = v % kSeqBase;
        ASSERT_EQ(s, next_seq[p]) << "producer " << p << " reordered";
        ++next_seq[p];
    }
}

// close() during a concurrent push storm: whatever the queue ACCEPTED is
// exactly what consumers drain — no accepted item vanishes, no refused
// item sneaks in.
TEST(BoundedQueueStress, CloseUnderConcurrentSubmittersDrainsExactlyAccepted) {
    BoundedQueue<int> q(4);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 300;
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<int> started{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            started.fetch_add(1);
            for (int s = 0; s < kPerProducer; ++s) {
                int v = encode(p, s);
                if (q.try_push(v) == BoundedQueue<int>::Push::Ok)
                    accepted.fetch_add(1);
            }
        });
    }
    std::uint64_t consumed = 0;
    std::thread consumer([&] {
        int out;
        while (q.pop(out)) ++consumed;
    });
    while (started.load() < kProducers) std::this_thread::yield();
    q.close();  // races with in-flight try_push calls by design
    for (auto& t : producers) t.join();
    consumer.join();
    EXPECT_EQ(consumed, accepted.load());
}

// The same conservation law for the admission queue, with drops in the
// balance: accepted == admitted + dropped, every drop carries the right
// cause, and within one class a single consumer observes producer FIFO.
TEST(AdmissionQueueStress, ConcurrentProducersConserveEntriesAcrossClasses) {
    using neuro::serve::Admitted;
    using neuro::serve::AdmissionQueue;
    using neuro::serve::DropCause;
    using neuro::serve::Dropped;
    using neuro::serve::Priority;

    auto clk = std::make_shared<neuro::serve::ManualClock>();
    clk->set_us(1'000);
    AdmissionQueue<int> q(8, neuro::serve::AdmissionConfig{}, clk);

    constexpr int kProducers = 3;  // one per priority class
    constexpr int kPerProducer = 400;
    std::vector<std::thread> producers;
    std::atomic<std::uint64_t> expired_pushed{0};
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            Rng rng(100 + static_cast<std::uint64_t>(p));
            const auto cls = static_cast<Priority>(p);
            for (int s = 0; s < kPerProducer; ++s) {
                int v = encode(p, s);
                // ~25% of entries carry an already-expired deadline (the
                // clock is frozen at 1000, the deadline is 500): they must
                // surface as DeadlineExceeded drops, never dispatch.
                const bool expired = rng.bernoulli(0.25);
                if (expired) expired_pushed.fetch_add(1);
                ASSERT_TRUE(q.push(v, cls, expired ? 500u : 0u));
            }
        });
    }

    std::vector<int> admitted;
    std::vector<Dropped<int>> dropped;
    std::thread consumer([&] {
        Admitted<int> out;
        std::vector<Dropped<int>> drops;
        for (;;) {
            drops.clear();
            const bool got = q.pop(out, drops);
            dropped.insert(dropped.end(),
                           std::make_move_iterator(drops.begin()),
                           std::make_move_iterator(drops.end()));
            if (got)
                admitted.push_back(out.value);
            else if (drops.empty())
                break;  // terminal: closed and drained
        }
    });
    for (auto& t : producers) t.join();
    q.close();
    consumer.join();

    EXPECT_EQ(admitted.size() + dropped.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    EXPECT_EQ(dropped.size(), expired_pushed.load());
    for (const auto& d : dropped)
        EXPECT_EQ(d.cause, DropCause::DeadlineExceeded);

    // Single consumer ⇒ per-class order is observable: the admitted and
    // dropped streams each replay their producer's sequence monotonically
    // (one producer per class; the queue never reorders within a class).
    std::map<int, int> next_admitted, next_dropped;
    for (const int v : admitted) {
        const int p = v / kSeqBase;
        ASSERT_GE(v % kSeqBase, next_admitted[p]);
        next_admitted[p] = v % kSeqBase;
    }
    for (const auto& d : dropped) {
        const int p = d.value / kSeqBase;
        ASSERT_GE(d.value % kSeqBase, next_dropped[p]);
        next_dropped[p] = d.value % kSeqBase;
    }

    const auto counters = q.counters();
    std::uint64_t acc = 0, disp = 0, dl = 0;
    for (std::size_t c = 0; c < neuro::serve::kPriorityClasses; ++c) {
        acc += counters.accepted[c];
        disp += counters.dispatched[c];
        dl += counters.deadline_dropped[c];
    }
    EXPECT_EQ(acc, static_cast<std::uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(disp, admitted.size());
    EXPECT_EQ(dl, dropped.size());
}
