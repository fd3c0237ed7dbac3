// Contract tests for serve::ModelRouter (the multi-model serving fleet):
//   * multi-model dispatch is bit-identical to dedicated Sessions on the
//     same weight snapshots, across interleaved traffic,
//   * unknown / invalid model names reject at the intake (UnknownModel)
//     without occupying queue space,
//   * lazy load materializes an entry at first dispatch; load/pin/unload
//     drive residency explicitly,
//   * LRU eviction under a tight resident-byte budget evicts the coldest
//     unpinned entry, never a pinned one, and never drops an accepted
//     request (queued requests reload their entry at dispatch),
//   * the canary split is deterministic in request_id and matches the
//     published ModelRouter::canary_arm hash, with per-arm counters,
//   * eviction racing live dispatch is safe (run under TSan in CI).

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/tensor.hpp"
#include "online/registry.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/model_spec.hpp"
#include "serve/router.hpp"
#include "serve/scheduler.hpp"

using namespace neuro;
using serve::ModelRouter;
using serve::RouterOptions;

namespace {

constexpr std::size_t kDims = 16;
constexpr std::size_t kClasses = 4;

std::shared_ptr<const runtime::CompiledModel> make_model() {
    runtime::ModelSpec spec;
    spec.input(1, 1, kDims).hidden_layers({20}).output_classes(kClasses);
    spec.options.seed = 7;
    return runtime::CompiledModel::compile(spec,
                                           runtime::BackendKind::LoihiSim);
}

/// A weight image whose output layer strongly prefers `winner`, making
/// per-model routing observable as a constant prediction.
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

std::size_t snapshot_bytes(const runtime::WeightSnapshot& snap) {
    std::size_t n = 0;
    for (const auto& layer : snap.layers)
        n += layer.size() * sizeof(std::int32_t);
    return n;
}

common::Tensor make_image(std::size_t seed) {
    common::Tensor x({1, 1, kDims});
    for (std::size_t i = 0; i < kDims; ++i)
        x[i] = static_cast<float>((seed * 31 + i * 7) % 17) / 17.0f;
    return x;
}

/// A fresh fleet root with one registry directory per (name, winner):
/// version 1 of each model forces predictions to its winner class.
std::string make_fleet(
    const std::string& tag, const runtime::CompiledModel& model,
    const std::vector<std::pair<std::string, std::size_t>>& entries) {
    const auto root =
        std::filesystem::temp_directory_path() / ("neuro_router_" + tag);
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    for (const auto& [name, winner] : entries) {
        online::ModelRegistry reg((root / name).string());
        reg.record(1, 0.9, forced_snapshot(model, winner));
    }
    return root.string();
}

}  // namespace

// ---- routing correctness ----------------------------------------------------

TEST(Router, MultiModelBitIdenticalToDedicatedSessions) {
    const auto model = make_model();
    const auto fleet =
        make_fleet("identity", *model, {{"alpha", 1}, {"beta", 2}});

    RouterOptions opt;
    opt.workers = 3;
    opt.batch.max_batch = 4;
    opt.batch.max_delay_us = 200;
    opt.fleet_dir = fleet;
    ModelRouter router(model, opt);
    router.start();

    // Reference: dedicated sequential Sessions over the same snapshots.
    const auto alpha_model =
        model->with_weights(forced_snapshot(*model, 1));
    const auto beta_model = model->with_weights(forced_snapshot(*model, 2));
    auto ref_default = model->open_session();
    auto ref_alpha = alpha_model->open_session();
    auto ref_beta = beta_model->open_session();

    const std::size_t n = 24;
    std::vector<serve::InferenceHandle> handles;
    std::vector<std::vector<std::int32_t>> expected;
    for (std::size_t i = 0; i < n; ++i) {
        const auto image = make_image(i);
        serve::SubmitOptions s;
        runtime::Session* ref = nullptr;
        switch (i % 3) {
            case 0: ref = ref_default.get(); break;
            case 1: s.model = "alpha"; ref = ref_alpha.get(); break;
            default: s.model = "beta"; ref = ref_beta.get(); break;
        }
        expected.push_back(ref->output_counts(image));
        handles.push_back(router.submit_counts(image, s));
    }
    for (std::size_t i = 0; i < n; ++i) {
        auto r = handles[i].get();
        ASSERT_EQ(r.status, serve::Status::Ok) << r.error;
        EXPECT_EQ(r.counts, expected[i]) << "request " << i;
    }
    router.shutdown();

    const auto alpha = router.model_stats("alpha");
    EXPECT_TRUE(alpha.resident);
    EXPECT_EQ(alpha.base_version, 1u);
    EXPECT_EQ(alpha.loads, 1u);
    EXPECT_EQ(alpha.base_dispatched, n / 3);
    EXPECT_EQ(alpha.base_ok, n / 3);
}

TEST(Router, UnknownAndInvalidModelsRejectAtIntake) {
    const auto model = make_model();
    RouterOptions opt;
    opt.fleet_dir = "";  // no fleet at all
    ModelRouter router(model, opt);
    // Deliberately never started: intake rejects resolve inline, so these
    // get() calls must not block.
    serve::SubmitOptions s;
    s.model = "nope";
    auto r = router.submit(make_image(0), s).get();
    EXPECT_EQ(r.status, serve::Status::Rejected);
    EXPECT_EQ(r.reject, serve::RejectReason::UnknownModel);

    s.model = "9starts-with-digit";
    r = router.submit(make_image(0), s).get();
    EXPECT_EQ(r.reject, serve::RejectReason::UnknownModel);
    router.shutdown();
}

TEST(Router, DefaultOptionsAreAFleetOfOneThatRejectsNames) {
    // Default RouterOptions configure a fleet of one: addressing any name
    // through the unified SubmitOptions resolves UnknownModel, not a crash
    // or a hang.
    ModelRouter router(make_model());
    serve::SubmitOptions s;
    s.model = "tenant";
    auto r = router.submit(make_image(1), s).get();
    EXPECT_EQ(r.status, serve::Status::Rejected);
    EXPECT_EQ(r.reject, serve::RejectReason::UnknownModel);
    router.shutdown();
}

TEST(Router, LazyLoadMaterializesAtFirstDispatch) {
    const auto model = make_model();
    const auto fleet = make_fleet("lazy", *model, {{"alpha", 3}});
    RouterOptions opt;
    opt.fleet_dir = fleet;
    ModelRouter router(model, opt);
    router.start();

    // Submitting registers the entry (addressability check) but the load
    // itself happens at dispatch on a worker.
    auto r = router.submit(make_image(2), [] {
        serve::SubmitOptions s;
        s.model = "alpha";
        return s;
    }()).get();
    ASSERT_EQ(r.status, serve::Status::Ok) << r.error;
    EXPECT_EQ(r.label, 3u);

    const auto s = router.model_stats("alpha");
    EXPECT_TRUE(s.resident);
    EXPECT_FALSE(s.pinned);
    EXPECT_EQ(s.loads, 1u);
    EXPECT_EQ(s.base_version, 1u);
    EXPECT_GT(s.weight_bytes, 0u);
    router.shutdown();
}

// ---- explicit residency control ---------------------------------------------

TEST(Router, LoadPinUnloadDriveResidency) {
    const auto model = make_model();
    const auto fleet = make_fleet("explicit", *model, {{"alpha", 1}});
    {
        // A second accepted version for pin() to publish.
        online::ModelRegistry reg(
            (std::filesystem::path(fleet) / "alpha").string());
        reg.record(2, 0.95, forced_snapshot(*model, 2));
    }
    RouterOptions opt;
    opt.fleet_dir = fleet;
    ModelRouter router(model, opt);
    router.start();

    // load() picks the registry's last good version (2).
    EXPECT_EQ(router.load("alpha"), 2u);
    EXPECT_TRUE(router.model_stats("alpha").resident);

    // pin() an older version on the resident pool: published through the
    // COW channel, adopted at the next batch boundary.
    EXPECT_EQ(router.pin("alpha", 1), 1u);
    EXPECT_TRUE(router.model_stats("alpha").pinned);
    serve::SubmitOptions s;
    s.model = "alpha";
    auto r = router.submit(make_image(3), s).get();
    ASSERT_EQ(r.status, serve::Status::Ok) << r.error;
    EXPECT_EQ(r.label, 1u);  // version 1 forces winner 1

    router.unload("alpha");
    const auto st = router.model_stats("alpha");
    EXPECT_FALSE(st.resident);
    EXPECT_FALSE(st.pinned);
    EXPECT_EQ(st.weight_bytes, 0u);

    EXPECT_THROW(router.unload(""), std::invalid_argument);
    EXPECT_THROW(router.unload("ghost"), std::invalid_argument);
    router.shutdown();
}

// ---- LRU eviction -----------------------------------------------------------

TEST(Router, LruEvictsColdestAndSparesPinned) {
    const auto model = make_model();
    const auto fleet =
        make_fleet("lru", *model, {{"a", 1}, {"b", 2}, {"c", 3}});
    const std::size_t entry_bytes =
        snapshot_bytes(model->initial_weights());

    RouterOptions opt;
    opt.fleet_dir = fleet;
    // Default entry + exactly ONE fleet entry fit.
    opt.resident_budget_bytes = 2 * entry_bytes;
    ModelRouter router(model, opt);
    router.start();

    router.load("a");
    EXPECT_TRUE(router.model_stats("a").resident);
    // Loading "b" pushes past the budget; "a" is the only candidate.
    router.load("b");
    EXPECT_FALSE(router.model_stats("a").resident);
    EXPECT_EQ(router.model_stats("a").evictions, 1u);
    EXPECT_TRUE(router.model_stats("b").resident);
    EXPECT_LE(router.resident_bytes(), opt.resident_budget_bytes);

    // Touch "b" via traffic, then load "a" again — "b" is now hotter but
    // is still the only evictable entry, so it goes.
    serve::SubmitOptions s;
    s.model = "b";
    ASSERT_EQ(router.submit(make_image(4), s).get().status,
              serve::Status::Ok);
    router.load("a");
    EXPECT_FALSE(router.model_stats("b").resident);
    EXPECT_TRUE(router.model_stats("a").resident);

    // Pin "a": immune. Loading "c" then overshoots the soft ceiling with
    // nothing evictable — both stay resident.
    router.pin("a", 0);
    router.load("c");
    EXPECT_TRUE(router.model_stats("a").resident);
    EXPECT_TRUE(router.model_stats("c").resident);
    EXPECT_GT(router.resident_bytes(), opt.resident_budget_bytes);
    router.shutdown();
}

TEST(Router, EvictionNeverDropsAcceptedRequests) {
    // Budget for a single fleet entry while three models take traffic from
    // three threads: every dispatch of a cold entry forces a reload and
    // usually an eviction of whichever entry another thread just used.
    // Accepted-implies-completed must hold bit-exactly throughout. This is
    // the eviction-vs-dispatch race test CI runs under TSan.
    const auto model = make_model();
    const auto fleet =
        make_fleet("race", *model, {{"a", 1}, {"b", 2}, {"c", 3}});
    RouterOptions opt;
    opt.workers = 4;
    opt.queue_capacity = 256;
    opt.batch.max_batch = 4;
    opt.batch.max_delay_us = 100;
    opt.fleet_dir = fleet;
    opt.resident_budget_bytes =
        2 * snapshot_bytes(model->initial_weights());
    ModelRouter router(model, opt);
    router.start();

    const std::vector<std::string> names = {"a", "b", "c"};

    // Phase 1 (deterministic churn): strict round-robin with a get() after
    // each request. The just-served entry is idle by the time the next
    // name loads, so every load past the first must evict it — queued and
    // future requests for the victim simply reload it at dispatch.
    for (std::size_t round = 0; round < 8; ++round) {
        for (std::size_t t = 0; t < names.size(); ++t) {
            serve::SubmitOptions s;
            s.model = names[t];
            auto r = router.submit(make_image(round), s).get();
            ASSERT_EQ(r.status, serve::Status::Ok) << r.error;
            ASSERT_EQ(r.label, t + 1);
        }
    }
    std::uint64_t serial_evictions = 0;
    for (const auto& st : router.model_stats())
        serial_evictions += st.evictions;
    EXPECT_GT(serial_evictions, 0u);
    EXPECT_LE(router.resident_bytes(), opt.resident_budget_bytes);

    // Phase 2 (concurrent stress): three submitter threads flood their
    // models so intake, dispatch, lazy reload and eviction interleave —
    // the TSan target. The soft ceiling may park all entries resident
    // here; phase 1 already proved the eviction path.
    const std::size_t per_thread = 40;
    std::vector<std::vector<serve::InferenceHandle>> handles(names.size());
    {
        std::vector<std::thread> submitters;
        for (std::size_t t = 0; t < names.size(); ++t) {
            handles[t].reserve(per_thread);
            submitters.emplace_back([&, t] {
                for (std::size_t i = 0; i < per_thread; ++i) {
                    serve::SubmitOptions s;
                    s.model = names[t];
                    handles[t].push_back(router.submit(make_image(i), s));
                }
            });
        }
        for (auto& th : submitters) th.join();
    }
    for (std::size_t t = 0; t < names.size(); ++t) {
        for (auto& h : handles[t]) {
            auto r = h.get();
            ASSERT_EQ(r.status, serve::Status::Ok) << r.error;
            EXPECT_EQ(r.label, t + 1);  // model t forces winner t+1
        }
    }
    router.shutdown();

    std::uint64_t loads = 0;
    for (const auto& st : router.model_stats()) loads += st.loads;
    // The budget admits one fleet entry at a time, so serving three models
    // had to churn: entries were reloaded well past their first load.
    EXPECT_GT(loads, 3u);
}

// ---- canary splits ----------------------------------------------------------

TEST(Router, CanaryArmHashIsDeterministic) {
    for (std::uint64_t id = 0; id < 64; ++id) {
        EXPECT_FALSE(ModelRouter::canary_arm(id, 0));
        EXPECT_TRUE(ModelRouter::canary_arm(id, 100));
        EXPECT_EQ(ModelRouter::canary_arm(id, 37),
                  ModelRouter::canary_arm(id, 37));
    }
    // The hash actually splits: across 1000 ids at 30%, both arms appear.
    std::size_t canary = 0;
    for (std::uint64_t id = 0; id < 1000; ++id)
        if (ModelRouter::canary_arm(id, 30)) ++canary;
    EXPECT_GT(canary, 200u);
    EXPECT_LT(canary, 400u);
}

TEST(Router, CanarySplitMatchesHashAndCountsPerArm) {
    const auto model = make_model();
    const auto fleet = make_fleet("canary", *model, {{"alpha", 1}});
    {
        online::ModelRegistry reg(
            (std::filesystem::path(fleet) / "alpha").string());
        reg.record(2, 0.95, forced_snapshot(*model, 2));
    }
    RouterOptions opt;
    opt.fleet_dir = fleet;
    ModelRouter router(model, opt);
    router.start();

    // Base = version 1 (winner 1), canary = version 2 (winner 2) at 30%.
    router.pin("alpha", 1);
    router.set_canary("alpha", 2, 30);
    auto st = router.model_stats("alpha");
    EXPECT_EQ(st.canary_version, 2u);
    EXPECT_EQ(st.canary_pct, 30u);

    const std::size_t n = 120;
    std::size_t expect_canary = 0;
    std::vector<serve::InferenceHandle> handles;
    for (std::uint64_t id = 0; id < n; ++id) {
        serve::SubmitOptions s;
        s.model = "alpha";
        s.request_id = id;
        if (ModelRouter::canary_arm(id, 30)) ++expect_canary;
        handles.push_back(router.submit(make_image(id), s));
    }
    for (std::uint64_t id = 0; id < n; ++id) {
        auto r = handles[id].get();
        ASSERT_EQ(r.status, serve::Status::Ok) << r.error;
        // The arm is a pure function of the request id, so the label is
        // exactly predictable per request — determinism, not statistics.
        EXPECT_EQ(r.label, ModelRouter::canary_arm(id, 30) ? 2u : 1u)
            << "request " << id;
    }
    st = router.model_stats("alpha");
    EXPECT_EQ(st.canary_dispatched, expect_canary);
    EXPECT_EQ(st.base_dispatched, n - expect_canary);
    EXPECT_EQ(st.canary_ok, expect_canary);

    // Clearing the canary tears the arm down; traffic that hashed to it
    // now serves from base.
    router.set_canary("alpha", 0, 0);
    st = router.model_stats("alpha");
    EXPECT_EQ(st.canary_version, 0u);
    EXPECT_EQ(st.canary_pct, 0u);
    std::uint64_t canary_id = 0;
    while (!ModelRouter::canary_arm(canary_id, 30)) ++canary_id;
    serve::SubmitOptions s;
    s.model = "alpha";
    s.request_id = canary_id;
    EXPECT_EQ(router.submit(make_image(0), s).get().label, 1u);
    router.shutdown();
}

TEST(Router, CanaryPromotionViaPin) {
    const auto model = make_model();
    const auto fleet = make_fleet("promote", *model, {{"alpha", 1}});
    {
        online::ModelRegistry reg(
            (std::filesystem::path(fleet) / "alpha").string());
        reg.record(2, 0.95, forced_snapshot(*model, 2));
    }
    RouterOptions opt;
    opt.fleet_dir = fleet;
    ModelRouter router(model, opt);
    router.start();
    router.pin("alpha", 1);
    router.set_canary("alpha", 2, 25);

    // Promote: base becomes the canary version, canary clears — the
    // control-socket `pin` + `canary 0` sequence.
    router.pin("alpha", 2);
    router.set_canary("alpha", 0, 0);
    const auto st = router.model_stats("alpha");
    EXPECT_EQ(st.base_version, 2u);
    EXPECT_EQ(st.canary_version, 0u);
    serve::SubmitOptions s;
    s.model = "alpha";
    EXPECT_EQ(router.submit(make_image(5), s).get().label, 2u);

    EXPECT_THROW(router.set_canary("alpha", 2, 101), std::invalid_argument);
    router.shutdown();
}

// ---- model-tagged feedback --------------------------------------------------

TEST(Router, FeedbackCarriesTheModelTag) {
    const auto model = make_model();
    const auto fleet = make_fleet("feedback", *model, {{"alpha", 1}});
    RouterOptions opt;
    opt.fleet_dir = fleet;
    opt.admission.feedback_capacity = 8;
    ModelRouter router(model, opt);

    serve::SubmitOptions def;
    EXPECT_TRUE(router.submit_feedback(make_image(0), 1, def));
    serve::SubmitOptions tagged;
    tagged.model = "alpha";
    EXPECT_TRUE(router.submit_feedback(make_image(1), 2, tagged));
    serve::SubmitOptions unknown;
    unknown.model = "ghost";
    EXPECT_FALSE(router.submit_feedback(make_image(2), 1, unknown));

    serve::BatchPolicy policy{4, 1000};
    std::vector<serve::FeedbackSample> batch;
    ASSERT_TRUE(serve::collect_batch(*router.feedback_queue(), policy, batch));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].model, "");
    EXPECT_EQ(batch[1].model, "alpha");
    EXPECT_EQ(batch[1].label, 2u);
    router.shutdown();
}
