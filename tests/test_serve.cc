/**
 * @file
 * Tests of the se::serve layer: InferenceSession weight rebuild
 * policies and fidelity against the eager install path, ServeEngine
 * batching/fan-out correctness, and the determinism wall — responses
 * must be bit-identical across thread counts, batch sizes and flush
 * policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "base/failpoint.hh"
#include "base/hash.hh"
#include "base/random.hh"
#include "core/stream_loader.hh"
#include "kernels/dispatch.hh"
#include "nn/blocks.hh"
#include "serve/engine.hh"
#include "serve/front.hh"
#include "serve/latency.hh"
#include "serve/session.hh"
#include "temp_path.hh"

namespace se {
namespace {

constexpr int64_t kInC = 3, kInH = 6, kInW = 6, kClasses = 10;

/** A compact CNN with all three reshape rules and a real forward. */
std::unique_ptr<nn::Sequential>
makeServeCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(kInC, 8, 3, 1, 1, 1, rng, false);
    net->add<nn::BatchNorm2d>(8);
    net->add<nn::ReLU>();
    net->add<nn::Conv2d>(8, 16, 1, 1, 0, 1, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::GlobalAvgPool>();
    net->add<nn::Flatten>();
    net->add<nn::Linear>(16, kClasses, rng, false);
    return net;
}

struct ShippedModel
{
    std::shared_ptr<const std::vector<core::SeLayerRecord>> records;
    std::unique_ptr<nn::Sequential> reference;  ///< eager-installed
    core::SeOptions seOpts;
    core::ApplyOptions applyOpts;
};

ShippedModel
shipModel(uint64_t seed = 51)
{
    ShippedModel s;
    s.seOpts.vectorThreshold = 0.01;
    s.reference = makeServeCnn(seed);
    auto compressed =
        core::compressToRecords(*s.reference, s.seOpts, s.applyOpts);
    s.records = std::make_shared<std::vector<core::SeLayerRecord>>(
        std::move(compressed.records));
    return s;
}

Tensor
makeInput(uint64_t seed, int64_t n = 1)
{
    Rng rng(seed);
    return randn({n, kInC, kInH, kInW}, rng, 0.0f, 1.0f);
}

// ------------------------------------------------- InferenceSession

TEST(InferenceSession, MatchesEagerInstallBitForBit)
{
    auto shipped = shipModel(51);
    serve::InferenceSession session(makeServeCnn(51), shipped.records,
                                    shipped.seOpts,
                                    shipped.applyOpts);
    EXPECT_EQ(session.rebuildableLayers(), shipped.records->size());

    Tensor x = makeInput(1, 4);
    Tensor ref = shipped.reference->forward(x, false);
    Tensor got = session.forward(x);
    ASSERT_EQ(got.shape(), ref.shape());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          (size_t)got.size() * sizeof(float)),
              0);
}

TEST(InferenceSession, CachedModeRebuildsEachLayerOnce)
{
    auto shipped = shipModel(52);
    serve::InferenceSession session(makeServeCnn(52), shipped.records,
                                    shipped.seOpts,
                                    shipped.applyOpts);
    const auto layers = (uint64_t)session.rebuildableLayers();
    Tensor x = makeInput(2);
    session.forward(x);
    session.forward(x);
    session.forward(x);
    EXPECT_EQ(session.stats().coldRebuilds, layers);
    EXPECT_EQ(session.stats().warmRebuilds, 0u);
    EXPECT_EQ(session.stats().forwardCalls, 3u);
}

TEST(InferenceSession, PerCallModeRebuildsEveryForward)
{
    auto shipped = shipModel(53);
    serve::SessionOptions warm_opts;
    warm_opts.rebuildPerCall = true;
    warm_opts.cacheRebuiltWeights = true;
    serve::InferenceSession warm(makeServeCnn(53), shipped.records,
                                 shipped.seOpts, shipped.applyOpts,
                                 warm_opts);
    const auto layers = (uint64_t)warm.rebuildableLayers();
    Tensor x = makeInput(3);
    Tensor y1 = warm.forward(x);
    Tensor y2 = warm.forward(x);
    // First call cold, second restored from the per-layer cache.
    EXPECT_EQ(warm.stats().coldRebuilds, layers);
    EXPECT_EQ(warm.stats().warmRebuilds, layers);
    EXPECT_EQ(std::memcmp(y1.data(), y2.data(),
                          (size_t)y1.size() * sizeof(float)),
              0);

    serve::SessionOptions cold_opts;
    cold_opts.rebuildPerCall = true;
    cold_opts.cacheRebuiltWeights = false;
    serve::InferenceSession cold(makeServeCnn(53), shipped.records,
                                 shipped.seOpts, shipped.applyOpts,
                                 cold_opts);
    cold.forward(x);
    cold.forward(x);
    EXPECT_EQ(cold.stats().coldRebuilds, 2 * layers);
    EXPECT_EQ(cold.stats().warmRebuilds, 0u);
}

TEST(InferenceSession, InvalidateThenWarmRebuild)
{
    auto shipped = shipModel(54);
    serve::InferenceSession session(makeServeCnn(54), shipped.records,
                                    shipped.seOpts,
                                    shipped.applyOpts);
    const auto layers = (uint64_t)session.rebuildableLayers();
    Tensor x = makeInput(4);
    Tensor y1 = session.forward(x);
    session.invalidateWeights();
    Tensor y2 = session.forward(x);
    EXPECT_EQ(session.stats().coldRebuilds, layers);
    EXPECT_EQ(session.stats().warmRebuilds, layers);
    EXPECT_EQ(std::memcmp(y1.data(), y2.data(),
                          (size_t)y1.size() * sizeof(float)),
              0);

    session.clearRebuildCache();
    Tensor y3 = session.forward(x);
    EXPECT_EQ(session.stats().coldRebuilds, 2 * layers);
    EXPECT_EQ(std::memcmp(y1.data(), y3.data(),
                          (size_t)y1.size() * sizeof(float)),
              0);
}

TEST(InferenceSession, RejectsMismatchedArchitecture)
{
    auto shipped = shipModel(55);
    Rng rng(56);
    auto wrong = std::make_unique<nn::Sequential>();
    wrong->add<nn::Conv2d>(kInC, 4, 3, 1, 1, 1, rng, false);
    wrong->add<nn::Linear>(16, kClasses, rng, false);
    EXPECT_THROW(serve::InferenceSession(std::move(wrong),
                                         shipped.records,
                                         shipped.seOpts,
                                         shipped.applyOpts),
                 core::ModelFileError);
}

// ------------------------------------------------------ ServeEngine

TEST(ServeEngine, AnswersMatchDirectSessionForward)
{
    auto shipped = shipModel(61);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(61); },
        shipped.seOpts, shipped.applyOpts, opts);
    EXPECT_EQ(engine.replicaCount(), 2);

    const int n = 17;
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < n; ++i)
        futs.push_back(engine.submit(
            makeInput(100 + (uint64_t)i).reshaped(
                {kInC, kInH, kInW})));
    engine.drain();

    for (int i = 0; i < n; ++i) {
        Tensor got = futs[(size_t)i].get();
        Tensor ref = shipped.reference->forward(
            makeInput(100 + (uint64_t)i), false);
        ASSERT_EQ(got.size(), ref.size());
        EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                              (size_t)got.size() * sizeof(float)),
                  0)
            << "request " << i;
    }

    auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)n);
    EXPECT_GE(st.batches, 1u);
    EXPECT_LE(st.p50Ms, st.p95Ms);
    EXPECT_LE(st.p95Ms, st.p99Ms);
    EXPECT_LE(st.p99Ms, st.maxMs);
}

TEST(ServeEngine, DeterministicAcrossThreadsBatchingAndPolicies)
{
    auto shipped = shipModel(62);
    const int n = 23;

    struct Config
    {
        int threads;
        size_t maxBatch;
        serve::FlushPolicy flush;
        bool rebuildPerCall;
    };
    const Config configs[] = {
        {0, 1, serve::FlushPolicy::Greedy, false},
        {1, 4, serve::FlushPolicy::Greedy, false},
        {8, 3, serve::FlushPolicy::Greedy, false},
        {8, 8, serve::FlushPolicy::Full, false},
        {2, 5, serve::FlushPolicy::Greedy, true},
        {2, 6, serve::FlushPolicy::Deadline, false},
        {0, 4, serve::FlushPolicy::Deadline, true},
    };

    std::vector<uint64_t> digests;
    for (const Config &cfg : configs) {
        serve::ServeOptions opts;
        opts.threads = cfg.threads;
        opts.maxBatch = cfg.maxBatch;
        opts.flush = cfg.flush;
        opts.session.rebuildPerCall = cfg.rebuildPerCall;
        serve::ServeEngine engine(
            shipped.records, [] { return makeServeCnn(62); },
            shipped.seOpts, shipped.applyOpts, opts);

        std::vector<std::future<Tensor>> futs;
        for (int i = 0; i < n; ++i)
            futs.push_back(
                engine.submit(makeInput(200 + (uint64_t)i)));
        engine.drain();

        uint64_t digest = kFnvOffsetBasis;
        for (auto &f : futs)
            digest = hashTensor(f.get(), digest);
        digests.push_back(digest);
    }
    for (size_t i = 1; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], digests[0])
            << "config " << i << " produced different responses";
}

TEST(ServeEngine, FullFlushPolicyWaitsForFullBatches)
{
    auto shipped = shipModel(63);
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.maxBatch = 4;
    opts.flush = serve::FlushPolicy::Full;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(63); },
        shipped.seOpts, shipped.applyOpts, opts);

    // 4 requests = exactly one full batch; drain flushes nothing.
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)i)));
    engine.drain();
    EXPECT_EQ(engine.stats().batches, 1u);
    EXPECT_DOUBLE_EQ(engine.stats().meanBatchSize, 4.0);

    // 3 more sit below the threshold until drain flushes them.
    for (int i = 0; i < 3; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)i)));
    engine.drain();
    EXPECT_EQ(engine.stats().requests, 7u);
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
}

TEST(ServeEngine, MalformedShapeFailsOnlyItselfNotItsNeighbors)
{
    // Regression: a malformed request used to poison its whole
    // micro-batch (runBatch threw "mixed sample shapes" and failed
    // every neighbor). Admission-time validation must reject only
    // the malformed request.
    auto shipped = shipModel(64);
    serve::ServeOptions opts;
    opts.threads = 0;  // one replica: everything lands in one batch
    opts.maxBatch = 64;
    opts.flush = serve::FlushPolicy::Full;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(64); },
        shipped.seOpts, shipped.applyOpts, opts);

    // Mixed-shape flood: good and bad interleaved.
    const int rounds = 10;
    std::vector<std::future<Tensor>> good, bad;
    Rng rng(2);
    for (int i = 0; i < rounds; ++i) {
        good.push_back(engine.submit(makeInput((uint64_t)i)));
        bad.push_back(
            engine.submit(randn({kInC, kInH + 1, kInW}, rng)));
        // A 4-D input with batch dim != 1 is malformed too.
        bad.push_back(
            engine.submit(randn({2, kInC, kInH, kInW}, rng)));
    }
    engine.drain();
    for (auto &f : bad)
        EXPECT_THROW(f.get(), std::invalid_argument);
    for (auto &f : good)
        EXPECT_NO_THROW(f.get());  // every well-formed neighbor answers
    const auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)rounds);
    EXPECT_EQ(st.rejected, (uint64_t)(2 * rounds));
    EXPECT_EQ(st.failed, 0u);
}

TEST(ServeEngine, ExpectedSampleOptionPinsTheShapeUpFront)
{
    auto shipped = shipModel(66);
    serve::ServeOptions opts;
    opts.threads = 0;
    opts.expectedSample = {kInC, kInH, kInW};
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(66); },
        shipped.seOpts, shipped.applyOpts, opts);

    // With the shape pinned, even the FIRST request can be rejected
    // (no first-request lock-in ambiguity).
    Rng rng(3);
    auto bad = engine.submit(randn({kInC, kInH, kInW + 2}, rng));
    auto good = engine.submit(makeInput(1));
    engine.drain();
    EXPECT_THROW(bad.get(), std::invalid_argument);
    EXPECT_NO_THROW(good.get());
    EXPECT_EQ(engine.stats().rejected, 1u);
    EXPECT_EQ(engine.stats().requests, 1u);
}

TEST(ServeEngine, QueueCapShedsWithAdmissionError)
{
    auto shipped = shipModel(67);
    serve::ServeOptions opts;
    opts.threads = 0;
    opts.maxBatch = 64;
    opts.flush = serve::FlushPolicy::Full;  // hold the queue: builds
                                            // a backlog deterministically
    opts.queueCap = 4;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(67); },
        shipped.seOpts, shipped.applyOpts, opts);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)i)));
    // Queue is at capacity and nothing dispatches under Full: the
    // next submits must shed, fail-fast and typed.
    EXPECT_THROW(engine.submit(makeInput(9)), serve::AdmissionError);
    EXPECT_THROW(engine.submit(makeInput(10)), serve::AdmissionError);
    engine.drain();
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
    const auto st = engine.stats();
    EXPECT_EQ(st.shed, 2u);
    EXPECT_EQ(st.requests, 4u);
    // After the drain the queue has room again.
    auto late = engine.submit(makeInput(11));
    engine.drain();
    EXPECT_NO_THROW(late.get());
}

TEST(ServeEngine, SubmitOnStoppedEngineThrowsInsteadOfPanicking)
{
    // Regression: submit() after stop used to SE_ASSERT -> SE_PANIC
    // and kill the process.
    auto shipped = shipModel(68);
    serve::ServeOptions opts;
    opts.threads = 1;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(68); },
        shipped.seOpts, shipped.applyOpts, opts);
    auto before = engine.submit(makeInput(1));
    engine.stop();
    // stop() answers everything already accepted...
    EXPECT_NO_THROW(before.get());
    // ...and later submits throw a catchable typed error.
    EXPECT_THROW(engine.submit(makeInput(2)),
                 serve::EngineStoppedError);
    EXPECT_THROW(engine.submit(makeInput(3)), std::runtime_error);
    engine.stop();  // idempotent
}

TEST(ServeEngine, DeadlinePolicyFlushesPartialBatchWithoutDrain)
{
    auto shipped = shipModel(69);
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.maxBatch = 32;
    opts.flush = serve::FlushPolicy::Deadline;
    opts.flushDeadlineMs = 5.0;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(69); },
        shipped.seOpts, shipped.applyOpts, opts);

    // 3 requests < maxBatch: Full would hold them until drain(); the
    // deadline must close the batch by itself.
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)i)));
    for (auto &f : futs)
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "deadline flush never fired";
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
    EXPECT_EQ(engine.stats().requests, 3u);
}

TEST(ServeEngine, StatsIncludeEveryRequestWhoseFutureIsReady)
{
    // Regression (surfaced as a flake under `ctest -j2` machine
    // load): runBatch used to set promise values BEFORE committing
    // latencies under stats_mu_, so a waiter that woke on its future
    // and immediately called stats() could read requests == 0 after a
    // successful get(). The contract is now commit-then-fulfill: a
    // ready future implies its request is visible in stats(). The
    // serve_publish_delay failpoint parks the batch worker for 1ms at
    // the publish instant, turning the one-in-a-thousand preemption
    // into a deterministic one — this test fails every iteration
    // under the old ordering.
    failpoint::ScopedArm delay("serve_publish_delay", "after0");
    auto shipped = shipModel(75);
    serve::ServeOptions opts;
    opts.threads = 1;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(75); },
        shipped.seOpts, shipped.applyOpts, opts);

    for (uint64_t i = 0; i < 50; ++i) {
        auto fut = engine.submit(makeInput(i));
        ASSERT_NO_THROW(fut.get());
        EXPECT_EQ(engine.stats().requests, i + 1)
            << "future ready but stats() missed the request "
               "(iteration "
            << i << ")";
    }
}

TEST(ServeEngine, ConcurrentDrainersAllObserveTheFlush)
{
    // Regression: `draining_` was a bool reset by whichever drainer
    // woke first; the loser could wait forever behind a Full hold.
    auto shipped = shipModel(70);
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.maxBatch = 16;
    opts.flush = serve::FlushPolicy::Full;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(70); },
        shipped.seOpts, shipped.applyOpts, opts);

    for (int round = 0; round < 3; ++round) {
        std::vector<std::future<Tensor>> futs;
        for (int i = 0; i < 5; ++i)  // below maxBatch: needs a flush
            futs.push_back(engine.submit(makeInput((uint64_t)i)));
        std::thread d1([&] { engine.drain(); });
        std::thread d2([&] { engine.drain(); });
        d1.join();
        d2.join();
        for (auto &f : futs)
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
    }
    EXPECT_EQ(engine.stats().requests, 15u);
}

// ------------------------------------------------ LatencyReservoir

TEST(LatencyReservoir, HoldsConstantMemoryUnderAMillionAdds)
{
    // Regression: engine latency history used to grow without bound.
    serve::LatencyReservoir res(512);
    Rng rng(7);
    for (int i = 0; i < 1000000; ++i)
        res.add(rng.uniform(0.0f, 10.0f));
    EXPECT_EQ(res.count(), 1000000u);
    EXPECT_LE(res.sampleSize(), 512u);  // constant, not 1e6
    EXPECT_LE(res.sortedSample().size(), 512u);
}

TEST(LatencyReservoir, KnownDistributionStatsWithinSamplingError)
{
    // Uniform 0..9999 presented in shuffled order: exact running
    // aggregates, percentiles within reservoir sampling error.
    const int n = 10000;
    std::vector<double> values;
    values.reserve((size_t)n);
    for (int i = 0; i < n; ++i)
        values.push_back((double)i);
    Rng rng(11);
    std::shuffle(values.begin(), values.end(), rng.raw());

    serve::LatencyReservoir res(1024);
    for (double v : values)
        res.add(v);

    EXPECT_EQ(res.count(), (uint64_t)n);
    EXPECT_DOUBLE_EQ(res.max(), 9999.0);        // exact
    EXPECT_NEAR(res.mean(), 4999.5, 1e-9);      // exact running sum
    const auto sorted = res.sortedSample();
    ASSERT_EQ(sorted.size(), 1024u);
    // 1024 uniform samples: the qth sample quantile has stddev
    // ~ n*sqrt(q(1-q)/1024) ≈ 156 at q=0.5; 5 sigma bounds.
    const auto pct = [&](double q) {
        return sorted[std::min(
            sorted.size() - 1,
            (size_t)(q * (double)sorted.size()))];
    };
    EXPECT_NEAR(pct(0.50), 0.50 * n, 800.0);
    EXPECT_NEAR(pct(0.95), 0.95 * n, 500.0);
    EXPECT_NEAR(pct(0.99), 0.99 * n, 300.0);
}

TEST(LatencyReservoir, SmallStreamsAreExact)
{
    serve::LatencyReservoir res(100);
    for (int i = 1; i <= 10; ++i)
        res.add((double)i);
    EXPECT_EQ(res.count(), 10u);
    EXPECT_EQ(res.sampleSize(), 10u);  // below cap: the full stream
    EXPECT_DOUBLE_EQ(res.mean(), 5.5);
    EXPECT_DOUBLE_EQ(res.max(), 10.0);
    EXPECT_DOUBLE_EQ(res.sortedSample().front(), 1.0);
}

TEST(ServeEngine, StatsStayBoundedAndCorrectUnderSustainedTraffic)
{
    // Engine-level soak at a tiny reservoir cap: counters stay exact
    // while the percentile source stays bounded.
    auto shipped = shipModel(71);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 8;
    opts.latencyReservoirCap = 32;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(71); },
        shipped.seOpts, shipped.applyOpts, opts);

    const int n = 300;
    std::vector<std::future<Tensor>> futs;
    futs.reserve((size_t)n);
    for (int i = 0; i < n; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)(i % 7))));
    engine.drain();
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
    const auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)n);  // exact despite sampling
    EXPECT_GT(st.meanLatencyMs, 0.0);
    EXPECT_LE(st.p50Ms, st.p95Ms);
    EXPECT_LE(st.p95Ms, st.p99Ms);
    EXPECT_LE(st.p99Ms, st.maxMs);
}

// ------------------------------------------------------- ServeFront

/** A second, structurally different architecture for multi-model. */
std::unique_ptr<nn::Sequential>
makeServeMlpCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(kInC, 6, 3, 1, 1, 1, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::GlobalAvgPool>();
    net->add<nn::Flatten>();
    net->add<nn::Linear>(6, 12, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::Linear>(12, kClasses, rng, false);
    return net;
}

TEST(ServeFront, TwoModelsServeConcurrentlyBitIdentical)
{
    auto shippedA = shipModel(81);

    ShippedModel shippedB;
    shippedB.seOpts.vectorThreshold = 0.01;
    shippedB.reference = makeServeMlpCnn(82);
    auto compressedB = core::compressToRecords(
        *shippedB.reference, shippedB.seOpts, shippedB.applyOpts);
    shippedB.records =
        std::make_shared<std::vector<core::SeLayerRecord>>(
            std::move(compressedB.records));

    serve::ModelRegistry reg;
    reg.add("cnn-a", {shippedA.records,
                      [] { return makeServeCnn(81); },
                      shippedA.seOpts, shippedA.applyOpts});
    reg.add("mlp-b", {shippedB.records,
                      [] { return makeServeMlpCnn(82); },
                      shippedB.seOpts, shippedB.applyOpts});
    EXPECT_TRUE(reg.contains("cnn-a"));
    EXPECT_FALSE(reg.contains("cnn-c"));
    EXPECT_THROW(reg.at("cnn-c"), serve::UnknownModelError);
    EXPECT_THROW(
        reg.add("cnn-a", {shippedA.records,
                          [] { return makeServeCnn(81); },
                          shippedA.seOpts, shippedA.applyOpts}),
        std::invalid_argument);

    serve::ServeOptions opts;
    opts.threads = 4;  // split 2+2 across the models
    opts.maxBatch = 4;
    serve::ServeFront front(reg, opts);
    EXPECT_EQ(front.modelCount(), 2u);
    EXPECT_EQ(front.replicaCount(), 4);

    const int n = 12;
    std::vector<std::future<Tensor>> futA, futB;
    for (int i = 0; i < n; ++i) {  // interleaved two-tenant traffic
        futA.push_back(
            front.submit("cnn-a", makeInput(300 + (uint64_t)i)));
        futB.push_back(
            front.submit("mlp-b", makeInput(400 + (uint64_t)i)));
    }
    EXPECT_THROW(front.submit("nope", makeInput(1)),
                 serve::UnknownModelError);
    front.drain();

    // Responses must be bit-identical to each model's single-model
    // reference forward.
    for (int i = 0; i < n; ++i) {
        Tensor gotA = futA[(size_t)i].get();
        Tensor refA = shippedA.reference->forward(
            makeInput(300 + (uint64_t)i), false);
        ASSERT_EQ(gotA.size(), refA.size());
        EXPECT_EQ(std::memcmp(gotA.data(), refA.data(),
                              (size_t)gotA.size() * sizeof(float)),
                  0)
            << "cnn-a request " << i;
        Tensor gotB = futB[(size_t)i].get();
        Tensor refB = shippedB.reference->forward(
            makeInput(400 + (uint64_t)i), false);
        ASSERT_EQ(gotB.size(), refB.size());
        EXPECT_EQ(std::memcmp(gotB.data(), refB.data(),
                              (size_t)gotB.size() * sizeof(float)),
                  0)
            << "mlp-b request " << i;
    }

    EXPECT_EQ(front.stats("cnn-a").requests, (uint64_t)n);
    EXPECT_EQ(front.stats("mlp-b").requests, (uint64_t)n);
    const auto agg = front.aggregateStats();
    EXPECT_EQ(agg.requests, (uint64_t)(2 * n));
    EXPECT_EQ(agg.failed + agg.rejected + agg.shed, 0u);

    front.stop();
    EXPECT_THROW(front.submit("cnn-a", makeInput(1)),
                 serve::EngineStoppedError);
}

TEST(ServeFront, PerModelShapeIsolation)
{
    // Each engine locks its own shape; one tenant's malformed
    // traffic never disturbs the other tenant.
    auto shipped = shipModel(83);
    serve::ModelRegistry reg;
    reg.add("m1", {shipped.records, [] { return makeServeCnn(83); },
                   shipped.seOpts, shipped.applyOpts});
    reg.add("m2", {shipped.records, [] { return makeServeCnn(83); },
                   shipped.seOpts, shipped.applyOpts});
    serve::ServeOptions opts;
    opts.threads = 0;
    opts.expectedSample = {kInC, kInH, kInW};
    serve::ServeFront front(reg, opts);

    auto ok1 = front.submit("m1", makeInput(1));
    Rng rng(4);
    auto bad2 =
        front.submit("m2", randn({kInC, kInH + 2, kInW}, rng));
    auto ok2 = front.submit("m2", makeInput(2));
    front.drain();
    EXPECT_NO_THROW(ok1.get());
    EXPECT_NO_THROW(ok2.get());
    EXPECT_THROW(bad2.get(), std::invalid_argument);
    EXPECT_EQ(front.stats("m1").rejected, 0u);
    EXPECT_EQ(front.stats("m2").rejected, 1u);
}

// -------------------------------------- CeDirect quantized serving

TEST(InferenceSession, CeDirectBitIdenticalToDense)
{
    auto shipped = shipModel(91);
    serve::InferenceSession dense(makeServeCnn(91), shipped.records,
                                  shipped.seOpts, shipped.applyOpts);
    serve::SessionOptions ce_opts;
    ce_opts.weightSource = serve::WeightSource::CeDirect;
    ce_opts.cacheRebuiltWeights = false;  // every rebuild decodes
    ce_opts.rebuildPerCall = true;
    serve::InferenceSession ce(makeServeCnn(91), shipped.records,
                               shipped.seOpts, shipped.applyOpts,
                               ce_opts);
    EXPECT_GE(ce.stats().packMs, 0.0);

    for (int i = 0; i < 4; ++i) {
        Tensor x = makeInput(500 + (uint64_t)i, 3);
        Tensor yd = dense.forward(x);
        Tensor yc = ce.forward(x);
        ASSERT_EQ(yd.shape(), yc.shape());
        EXPECT_EQ(std::memcmp(yd.data(), yc.data(),
                              (size_t)yd.size() * sizeof(float)),
                  0)
            << "request " << i;
    }
}

/**
 * A net whose decomposed pieces exercise the write-back geometry
 * makeServeCnn does not: with maxSliceRows = 10 the second 3x3 conv's
 * 24-row filters split into slices at row offsets 8 and 16, and three
 * FC-rule layers have row lengths that fcGroupSize (4) does not divide
 * — a 1x1 conv over 18 channels and a Linear over 18 features (one
 * piece each, last row padded) and a Linear over 42 features (11 rows,
 * sliced at row 6, last slice padded).
 */
std::unique_ptr<nn::Sequential>
makeGeometryNet(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(kInC, 8, 3, 1, 1, 1, rng, false);
    net->add<nn::BatchNorm2d>(8);
    net->add<nn::ReLU>();
    net->add<nn::Conv2d>(8, 8, 3, 1, 1, 1, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::Conv2d>(8, 18, 1, 1, 0, 1, rng, false);  // stays dense
    net->add<nn::ReLU>();
    net->add<nn::Conv2d>(18, 8, 1, 1, 0, 1, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::GlobalAvgPool>();
    net->add<nn::Flatten>();
    net->add<nn::Linear>(8, 18, rng, false);  // stays dense
    net->add<nn::ReLU>();
    net->add<nn::Linear>(18, 42, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::Linear>(42, kClasses, rng, false);
    return net;
}

TEST(InferenceSession, CeDirectWritesSlicedAndPaddedPiecesInPlace)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    apply_opts.maxSliceRows = 10;
    auto reference = makeGeometryNet(101);
    auto records = std::make_shared<std::vector<core::SeLayerRecord>>(
        core::compressToRecords(*reference, se_opts, apply_opts)
            .records);

    // The plan really has both geometries this test is about.
    auto probe = makeGeometryNet(101);
    const core::CompressionPlan plan =
        core::planCompression(*probe, se_opts, apply_opts);
    bool conv_offset = false;
    int padded_layers = 0;
    for (const core::DecompUnit &u : plan.units)
        conv_offset |= plan.layers[u.layerIndex].convKxK && u.rowOffset > 0;
    for (const core::PlannedLayer &pl : plan.layers)
        padded_layers += pl.weight && !pl.convKxK &&
                         pl.rowLength % pl.kernelS != 0;
    ASSERT_TRUE(conv_offset);
    ASSERT_EQ(padded_layers, 3);

    serve::InferenceSession dense(makeGeometryNet(101), records, se_opts,
                                  apply_opts);
    serve::SessionOptions ce_opts;
    ce_opts.weightSource = serve::WeightSource::CeDirect;
    ce_opts.cacheRebuiltWeights = false;
    ce_opts.rebuildPerCall = true;
    serve::InferenceSession ce(makeGeometryNet(101), records, se_opts,
                               apply_opts, ce_opts);
    const kernels::KernelIsa prev = kernels::activeIsa();
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        kernels::setActiveIsa(isa);
        Tensor x = makeInput(600, 3);
        Tensor yd = dense.forward(x);
        Tensor yc = ce.forward(x);
        Tensor yr = reference->forward(x, false);
        ASSERT_EQ(yd.shape(), yc.shape());
        EXPECT_EQ(std::memcmp(yd.data(), yc.data(),
                              (size_t)yd.size() * sizeof(float)),
                  0)
            << kernels::isaName(isa);
        EXPECT_EQ(std::memcmp(yr.data(), yc.data(),
                              (size_t)yr.size() * sizeof(float)),
                  0)
            << kernels::isaName(isa);
        // Every parameter, rebuilt or not, matches byte for byte.
        const auto pd = dense.net().params();
        const auto pc = ce.net().params();
        ASSERT_EQ(pd.size(), pc.size());
        for (size_t i = 0; i < pd.size(); ++i)
            EXPECT_EQ(std::memcmp(pd[i].value->data(),
                                  pc[i].value->data(),
                                  (size_t)pd[i].value->size() *
                                      sizeof(float)),
                      0)
                << kernels::isaName(isa) << " param " << i;
    }
    kernels::setActiveIsa(prev);
}

TEST(InferenceSession, RejectsPieceWhoseCeRankDisagreesWithBasis)
{
    // An in-memory record whose Ce has r columns but whose basis has
    // r +- 1 rows must be refused at bind: the Ce*B kernels would
    // read r basis rows.
    auto shipped = shipModel(102);
    for (int64_t delta : {-1, 1}) {
        auto records = std::make_shared<std::vector<core::SeLayerRecord>>(
            *shipped.records);
        core::SeMatrix &piece = records->front().pieces.front();
        const int64_t rank = piece.ce.dim(1);
        ASSERT_EQ(piece.basis.dim(0), rank);
        Tensor basis({rank + delta, piece.basis.dim(1)});
        for (int64_t i = 0; i < std::min(rank, rank + delta); ++i)
            for (int64_t j = 0; j < basis.dim(1); ++j)
                basis.at(i, j) = piece.basis.at(i, j);
        piece.basis = basis;
        for (serve::WeightSource src : {serve::WeightSource::Dense,
                                        serve::WeightSource::CeDirect}) {
            serve::SessionOptions opts;
            opts.weightSource = src;
            EXPECT_THROW(serve::InferenceSession(makeServeCnn(102), records,
                                                 shipped.seOpts,
                                                 shipped.applyOpts, opts),
                         core::ModelFileError)
                << "rank delta " << delta;
        }
    }
}

TEST(ServeFront, QuantizedEngineABsAgainstFloatEngineOfSameBundle)
{
    // The ISCA story end-to-end: one bundle, two tenants — a Dense
    // engine and a CeDirect engine — answering identical traffic
    // with identical bits and separate per-tenant stats.
    auto shipped = shipModel(92);
    serve::ModelRegistry reg;
    serve::ModelEntry dense_entry{shipped.records,
                                  [] { return makeServeCnn(92); },
                                  shipped.seOpts, shipped.applyOpts};
    serve::ModelEntry ce_entry = dense_entry;
    ce_entry.weightSource = serve::WeightSource::CeDirect;
    reg.add("dense", dense_entry);
    reg.add("ce4", ce_entry);

    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    opts.session.rebuildPerCall = true;  // rebuilds on every batch
    opts.session.cacheRebuiltWeights = false;
    serve::ServeFront front(reg, opts);

    const int n = 10;
    std::vector<std::future<Tensor>> fd, fc;
    for (int i = 0; i < n; ++i) {
        fd.push_back(
            front.submit("dense", makeInput(600 + (uint64_t)i)));
        fc.push_back(
            front.submit("ce4", makeInput(600 + (uint64_t)i)));
    }
    front.drain();
    for (int i = 0; i < n; ++i) {
        Tensor yd = fd[(size_t)i].get();
        Tensor yc = fc[(size_t)i].get();
        ASSERT_EQ(yd.size(), yc.size());
        EXPECT_EQ(std::memcmp(yd.data(), yc.data(),
                              (size_t)yd.size() * sizeof(float)),
                  0)
            << "request " << i;
    }
    EXPECT_EQ(front.stats("dense").requests, (uint64_t)n);
    EXPECT_EQ(front.stats("ce4").requests, (uint64_t)n);
}

TEST(ServeFront, PrunedV3BundleServesWithNoOutOfBandRestore)
{
    // Compress WITH channel pruning, ship as v3, reload, and serve
    // through the front from the bundle alone: the reference is the
    // compression-time net itself.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    apply_opts.channelGammaThreshold = 1e-3;

    auto reference = makeServeCnn(93);
    // Deterministically knock two BN channels under the threshold and
    // give the running stats non-factory values.
    reference->visit([&](nn::Layer &l) {
        if (auto *bn = dynamic_cast<nn::BatchNorm2d *>(&l)) {
            bn->gammaTensor()[1] = 1e-4f;
            bn->gammaTensor()[3] = 1e-4f;
            for (int64_t c = 0;
                 c < bn->runningMeanTensor().size(); ++c) {
                bn->runningMeanTensor()[c] = 0.05f * (float)(c + 1);
                bn->runningVarTensor()[c] = 1.0f + 0.1f * (float)c;
            }
        }
    });
    auto compressed =
        core::compressToRecords(*reference, se_opts, apply_opts);
    ASSERT_FALSE(compressed.dense.empty());

    std::stringstream ss;
    core::saveModelV3(ss, compressed.records, compressed.dense);
    auto bundle = core::loadModelBundle(ss);

    serve::ModelRegistry reg;
    reg.add("pruned-dense",
            serve::makeModelEntry(bundle,
                                  [] { return makeServeCnn(93); },
                                  se_opts, apply_opts));
    reg.add("pruned-ce4",
            serve::makeModelEntry(std::move(bundle),
                                  [] { return makeServeCnn(93); },
                                  se_opts, apply_opts,
                                  serve::WeightSource::CeDirect));
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeFront front(reg, opts);

    const int n = 8;
    std::vector<std::future<Tensor>> fd, fc;
    for (int i = 0; i < n; ++i) {
        fd.push_back(front.submit("pruned-dense",
                                  makeInput(700 + (uint64_t)i)));
        fc.push_back(front.submit("pruned-ce4",
                                  makeInput(700 + (uint64_t)i)));
    }
    front.drain();
    for (int i = 0; i < n; ++i) {
        Tensor ref = reference->forward(
            makeInput(700 + (uint64_t)i), false);
        Tensor yd = fd[(size_t)i].get();
        Tensor yc = fc[(size_t)i].get();
        ASSERT_EQ(yd.size(), ref.size());
        EXPECT_EQ(std::memcmp(yd.data(), ref.data(),
                              (size_t)ref.size() * sizeof(float)),
                  0)
            << "dense request " << i;
        EXPECT_EQ(std::memcmp(yc.data(), ref.data(),
                              (size_t)ref.size() * sizeof(float)),
                  0)
            << "ce4 request " << i;
    }
}

TEST(InferenceSession, DenseStateInstallRejectsWrongFactory)
{
    // A v3 dense residual bound to a structurally different factory
    // must throw at construction, never serve garbage.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto net = makeServeCnn(94);
    auto compressed =
        core::compressToRecords(*net, se_opts, apply_opts);
    ASSERT_FALSE(compressed.dense.empty());
    compressed.dense.pop_back();  // incomplete residual

    serve::SessionOptions opts;
    opts.denseState =
        std::make_shared<const std::vector<core::DenseTensor>>(
            std::move(compressed.dense));
    auto records =
        std::make_shared<const std::vector<core::SeLayerRecord>>(
            std::move(compressed.records));
    EXPECT_THROW(
        serve::InferenceSession(makeServeCnn(94), records, se_opts,
                                apply_opts, opts),
        core::ModelFileError);
}

TEST(ServeEngine, CeDirectDeterministicAcrossThreadsAndBatching)
{
    // The determinism wall extended to the quantized path.
    auto shipped = shipModel(95);
    const int n = 15;
    std::vector<uint64_t> digests;
    for (const auto &[threads, batch] :
         std::vector<std::pair<int, size_t>>{
             {0, 1}, {1, 4}, {4, 3}, {2, 8}}) {
        serve::ServeOptions opts;
        opts.threads = threads;
        opts.maxBatch = batch;
        opts.session.weightSource = serve::WeightSource::CeDirect;
        serve::ServeEngine engine(
            shipped.records, [] { return makeServeCnn(95); },
            shipped.seOpts, shipped.applyOpts, opts);
        std::vector<std::future<Tensor>> futs;
        for (int i = 0; i < n; ++i)
            futs.push_back(
                engine.submit(makeInput(800 + (uint64_t)i)));
        engine.drain();
        uint64_t digest = kFnvOffsetBasis;
        for (auto &f : futs)
            digest = hashTensor(f.get(), digest);
        digests.push_back(digest);
    }
    for (size_t i = 1; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], digests[0]) << "config " << i;

    // And the quantized digests equal the dense reference's.
    serve::InferenceSession dense(makeServeCnn(95), shipped.records,
                                  shipped.seOpts, shipped.applyOpts);
    uint64_t ref = kFnvOffsetBasis;
    for (int i = 0; i < n; ++i) {
        Tensor y = dense.forward(makeInput(800 + (uint64_t)i));
        ref = hashTensor(y.reshaped({y.size()}), ref);
    }
    EXPECT_EQ(digests[0], ref);
}

// ------------------------------------------------- bind once per model

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       (size_t)a.size() * sizeof(float)) == 0;
}

TEST(ServeEngine, OneFactoryCallAndOneSharedBindWhateverTheReplicas)
{
    auto shipped = shipModel(96);
    for (int threads : {0, 1, 3, 5}) {
        SCOPED_TRACE(threads);
        std::atomic<int> calls{0};
        serve::ServeOptions opts;
        opts.threads = threads;
        opts.session.weightSource = serve::WeightSource::CeDirect;
        serve::ServeEngine engine(
            shipped.records,
            [&] {
                ++calls;
                return makeServeCnn(96);
            },
            shipped.seOpts, shipped.applyOpts, opts);
        EXPECT_EQ(calls.load(), 1);
        EXPECT_EQ(engine.replicaCount(), std::max(threads, 1));
        for (int i = 1; i < engine.replicaCount(); ++i)
            EXPECT_EQ(&engine.boundModel(i), &engine.boundModel(0));
        EXPECT_EQ(engine.boundModel(0).layers(), shipped.records->size());
    }
}

TEST(ServeFrontReload, EachGenerationCallsTheFactoryOnce)
{
    auto shipped = shipModel(97);
    std::atomic<int> calls{0};
    const serve::NetFactory good = [&] {
        ++calls;
        return makeServeCnn(97);
    };
    // A net the records do not fit: the bind throws after the call.
    const serve::NetFactory wrong = [&] {
        ++calls;
        Rng rng(98);
        auto net = std::make_unique<nn::Sequential>();
        net->add<nn::Conv2d>(kInC, 4, 3, 1, 1, 1, rng, false);
        return net;
    };
    const auto entry = [&](const serve::NetFactory &f) {
        return serve::ModelEntry{shipped.records, f, shipped.seOpts,
                                 shipped.applyOpts, nullptr};
    };
    serve::ModelRegistry reg;
    reg.add("m", entry(good));
    serve::ServeOptions opts;
    opts.threads = 3;
    serve::ServeFront front(reg, opts);
    EXPECT_EQ(calls.load(), 1);

    front.reloadModel("m", entry(good));
    EXPECT_EQ(calls.load(), 2);
    EXPECT_THROW(front.reloadModel("m", entry(wrong)),
                 core::ModelFileError);
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Unhealthy);
    front.reloadModel("m", entry(good));
    EXPECT_EQ(calls.load(), 4);
    EXPECT_EQ(front.generation("m"), 3u);  // the failed build took no number

    Tensor x = makeInput(99);
    auto fut = front.submit("m", x);
    front.drain();
    Tensor want = shipped.reference->forward(x, false);
    EXPECT_TRUE(bitIdentical(fut.get(), want));
    EXPECT_EQ(calls.load(), 4);
    front.stop();
}

TEST(ServeEngine, ClonedReplicasServeBitIdenticalToASerialSession)
{
    // The dense residual moves the BN state off the factory's init, so
    // a replica serves correctly only if its clone carries what the
    // bind installed into the template.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto reference = makeServeCnn(100);
    reference->visit([&](nn::Layer &l) {
        if (auto *bn = dynamic_cast<nn::BatchNorm2d *>(&l))
            for (int64_t c = 0; c < bn->runningMeanTensor().size(); ++c) {
                bn->runningMeanTensor()[c] = 0.03f * (float)(c + 1);
                bn->runningVarTensor()[c] = 1.0f + 0.2f * (float)c;
                bn->gammaTensor()[c] = 1.0f - 0.01f * (float)c;
            }
    });
    auto compressed =
        core::compressToRecords(*reference, se_opts, apply_opts);
    auto records =
        std::make_shared<const std::vector<core::SeLayerRecord>>(
            std::move(compressed.records));

    serve::SessionOptions sopts;
    sopts.rebuildPerCall = true;
    sopts.cacheRebuiltWeights = false;
    sopts.weightSource = serve::WeightSource::CeDirect;
    sopts.denseState =
        std::make_shared<const std::vector<core::DenseTensor>>(
            std::move(compressed.dense));
    serve::InferenceSession serial(makeServeCnn(100), records, se_opts,
                                   apply_opts, sopts);

    serve::ServeOptions opts;
    opts.threads = 3;
    opts.maxBatch = 2;
    opts.session = sopts;
    serve::ServeEngine engine(records, [] { return makeServeCnn(100); },
                              se_opts, apply_opts, opts);
    const int n = 24;
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < n; ++i)
        futs.push_back(engine.submit(makeInput(1000 + (uint64_t)i)));
    engine.drain();
    for (int i = 0; i < n; ++i) {
        const Tensor x = makeInput(1000 + (uint64_t)i);
        const Tensor want = serial.forward(x);
        EXPECT_TRUE(bitIdentical(reference->forward(x, false), want));
        EXPECT_TRUE(bitIdentical(futs[(size_t)i].get(), want))
            << "request " << i;
    }
}

TEST(ServeEngine, HeavyTrafficManyWaiters)
{
    auto shipped = shipModel(65);
    serve::ServeOptions opts;
    opts.threads = 4;
    opts.maxBatch = 6;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(65); },
        shipped.seOpts, shipped.applyOpts, opts);

    const int n = 200;
    std::vector<std::future<Tensor>> futs;
    futs.reserve((size_t)n);
    for (int i = 0; i < n; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)(i % 5))));
    engine.drain();
    for (int i = 0; i < n; ++i) {
        Tensor r = futs[(size_t)i].get();
        EXPECT_EQ(r.size(), kClasses);
    }
    auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)n);
    EXPECT_GE(st.meanBatchSize, 1.0);
}

// ------------------------------------ model-file v4 streamed serving

/**
 * Compress a makeServeCnn(seed), pin its bases to the int8 grid (the
 * v4 compress-time contract) and write the v4 bundle to `path`. The
 * returned net is the quantized compression-time reference every
 * served response must bit-match.
 */
std::unique_ptr<nn::Sequential>
shipV4Model(uint64_t seed, const std::string &path,
            const core::SeOptions &se_opts,
            const core::ApplyOptions &apply_opts)
{
    auto reference = makeServeCnn(seed);
    auto compressed =
        core::compressToRecords(*reference, se_opts, apply_opts);
    core::quantizeBasisAtCompress(*reference, compressed, se_opts,
                                  apply_opts);
    core::saveModelV4File(path, compressed.bundle());
    return reference;
}

TEST(ServeFrontV4, V4BundleServesDenseAndCeDirectBitIdentical)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    const test::TempPath file("se_serve_v4_ab.sexm");
    const std::string &path = file.path;
    auto reference = shipV4Model(96, path, se_opts, apply_opts);

    // One v4 file, opened lazily once, served by two tenants — a
    // Dense engine and a CeDirect engine (the transcode shim).
    auto streamed = std::make_shared<core::StreamedModel>(path);
    serve::ModelRegistry reg;
    reg.add("dense",
            serve::makeModelEntry(streamed,
                                  [] { return makeServeCnn(96); },
                                  se_opts, apply_opts));
    reg.add("ce4",
            serve::makeModelEntry(streamed,
                                  [] { return makeServeCnn(96); },
                                  se_opts, apply_opts,
                                  serve::WeightSource::CeDirect));

    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeFront front(reg, opts);

    const int n = 10;
    std::vector<std::future<Tensor>> fd, fc;
    for (int i = 0; i < n; ++i) {
        fd.push_back(
            front.submit("dense", makeInput(900 + (uint64_t)i)));
        fc.push_back(
            front.submit("ce4", makeInput(900 + (uint64_t)i)));
    }
    front.drain();
    for (int i = 0; i < n; ++i) {
        Tensor ref = reference->forward(
            makeInput(900 + (uint64_t)i), false);
        Tensor yd = fd[(size_t)i].get();
        Tensor yc = fc[(size_t)i].get();
        ASSERT_EQ(yd.size(), ref.size());
        EXPECT_EQ(std::memcmp(yd.data(), ref.data(),
                              (size_t)ref.size() * sizeof(float)),
                  0)
            << "dense request " << i;
        EXPECT_EQ(std::memcmp(yc.data(), ref.data(),
                              (size_t)ref.size() * sizeof(float)),
                  0)
            << "ce4 request " << i;
    }
}

TEST(ServeFrontV4, LazyEagerAndRecordsPathsAnswerIdentically)
{
    // The loader is an access policy, not a value policy: lazy mmap,
    // eager decode-at-open, and the classic loadModelBundleFile ->
    // records path must produce bit-identical responses — and so
    // must every thread/batch configuration (the SE_THREADS
    // invariance, exercised programmatically).
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    const test::TempPath file("se_serve_v4_loaders.sexm");
    const std::string &path = file.path;
    auto reference = shipV4Model(97, path, se_opts, apply_opts);

    const int n = 8;
    std::vector<uint64_t> digests;
    for (const auto &[threads, batch] :
         std::vector<std::pair<int, size_t>>{
             {0, 1}, {1, 4}, {4, 3}}) {
        for (int mode = 0; mode < 3; ++mode) {
            serve::ModelRegistry reg;
            if (mode == 2) {  // eager records path, no streaming
                reg.add("m", serve::makeModelEntry(
                                 core::loadModelBundleFile(path),
                                 [] { return makeServeCnn(97); },
                                 se_opts, apply_opts));
            } else {
                core::StreamLoaderOptions lo;
                lo.eager = (mode == 1);
                auto sm = std::make_shared<core::StreamedModel>(
                    path, lo);
                reg.add("m", serve::makeModelEntry(
                                 std::move(sm),
                                 [] { return makeServeCnn(97); },
                                 se_opts, apply_opts));
            }
            serve::ServeOptions opts;
            opts.threads = threads;
            opts.maxBatch = batch;
            serve::ServeFront front(reg, opts);
            std::vector<std::future<Tensor>> futs;
            for (int i = 0; i < n; ++i)
                futs.push_back(front.submit(
                    "m", makeInput(1000 + (uint64_t)i)));
            front.drain();
            uint64_t digest = kFnvOffsetBasis;
            for (auto &f : futs)
                digest = hashTensor(f.get(), digest);
            digests.push_back(digest);
        }
    }
    for (size_t i = 1; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], digests[0]) << "config " << i;

    // All equal the quantized compression-time net's own forward.
    uint64_t ref = kFnvOffsetBasis;
    for (int i = 0; i < n; ++i) {
        Tensor y =
            reference->forward(makeInput(1000 + (uint64_t)i), false);
        ref = hashTensor(y.reshaped({y.size()}), ref);
    }
    EXPECT_EQ(digests[0], ref);
}

TEST(ServeFrontV4, UntouchedStreamedModelStaysCold)
{
    // The point of the lazy loader: in a multi-model front, a
    // streamed model nobody submits to never builds its engine and
    // never decodes a piece.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    const test::TempPath hot_file("se_serve_v4_hot.sexm");
    const std::string &hot_path = hot_file.path;
    const test::TempPath cold_file("se_serve_v4_cold.sexm");
    const std::string &cold_path = cold_file.path;
    auto hot_ref = shipV4Model(98, hot_path, se_opts, apply_opts);
    shipV4Model(99, cold_path, se_opts, apply_opts);

    auto hot = std::make_shared<core::StreamedModel>(hot_path);
    auto cold = std::make_shared<core::StreamedModel>(cold_path);
    serve::ModelRegistry reg;
    reg.add("hot", serve::makeModelEntry(
                       hot, [] { return makeServeCnn(98); },
                       se_opts, apply_opts));
    reg.add("cold", serve::makeModelEntry(
                        cold, [] { return makeServeCnn(99); },
                        se_opts, apply_opts));

    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeFront front(reg, opts);
    EXPECT_FALSE(front.engineBuilt("hot"));
    EXPECT_FALSE(front.engineBuilt("cold"));
    EXPECT_EQ(hot->decodedPieces(), 0u);
    EXPECT_EQ(cold->decodedPieces(), 0u);
    EXPECT_EQ(front.replicaCount(), 0);  // no engine built yet

    auto fut = front.submit("hot", makeInput(1100));
    front.drain();
    Tensor ref = hot_ref->forward(makeInput(1100), false);
    Tensor got = fut.get();
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          (size_t)ref.size() * sizeof(float)),
              0);

    // The hot model paid its decode; the cold one still has not.
    EXPECT_TRUE(front.engineBuilt("hot"));
    EXPECT_GT(hot->decodedPieces(), 0u);
    EXPECT_FALSE(front.engineBuilt("cold"));
    EXPECT_EQ(cold->decodedPieces(), 0u);
    EXPECT_GT(front.replicaCount(), 0);
    EXPECT_EQ(front.stats("hot").requests, 1u);
    EXPECT_EQ(front.stats("cold").requests, 0u);  // all-zero stats

    // A stopped front refuses to build the cold engine on a late
    // first submit instead of standing up workers post-stop.
    front.stop();
    EXPECT_THROW(front.submit("cold", makeInput(1)),
                 serve::EngineStoppedError);
    EXPECT_FALSE(front.engineBuilt("cold"));
    EXPECT_EQ(cold->decodedPieces(), 0u);
}

// ---------------------------------------------- generations / reload

TEST(ModelRegistryGenerations, ReplaceBumpsTagInPlace)
{
    auto shipped = shipModel(61);
    serve::ModelRegistry reg;
    reg.add("m", serve::ModelEntry{shipped.records,
                                   [] { return makeServeCnn(61); },
                                   shipped.seOpts, shipped.applyOpts,
                                   nullptr});
    reg.add("n", serve::ModelEntry{shipped.records,
                                   [] { return makeServeCnn(61); },
                                   shipped.seOpts, shipped.applyOpts,
                                   nullptr});
    EXPECT_EQ(reg.generationOf("m"), 1u);

    auto next = shipModel(62);
    reg.replace("m", serve::ModelEntry{next.records,
                                       [] { return makeServeCnn(62); },
                                       next.seOpts, next.applyOpts,
                                       nullptr});
    EXPECT_EQ(reg.generationOf("m"), 2u);
    EXPECT_EQ(reg.generationOf("n"), 1u);  // untouched neighbor
    EXPECT_EQ(reg.ids(), (std::vector<std::string>{"m", "n"}));
    EXPECT_EQ(reg.at("m").records.get(), next.records.get());

    EXPECT_THROW(
        reg.replace("absent",
                    serve::ModelEntry{next.records,
                                      [] { return makeServeCnn(62); },
                                      next.seOpts, next.applyOpts,
                                      nullptr}),
        serve::UnknownModelError);
    EXPECT_THROW(reg.replace("m", serve::ModelEntry{}),
                 std::invalid_argument);  // invalid entry, valid id
    EXPECT_THROW(reg.generationOf("absent"),
                 serve::UnknownModelError);
}

TEST(ServeFrontReload, SwapsGenerationsBitIdenticalZeroDrops)
{
    auto gen1 = shipModel(63);
    auto gen2 = shipModel(64);
    serve::ModelRegistry reg;
    reg.add("m", serve::ModelEntry{gen1.records,
                                   [] { return makeServeCnn(63); },
                                   gen1.seOpts, gen1.applyOpts,
                                   nullptr});
    serve::ServeOptions opts;
    opts.threads = 2;
    serve::ServeFront front(reg, opts);
    EXPECT_EQ(front.generation("m"), 1u);
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Healthy);

    Tensor x = makeInput(70);
    auto before = front.submit("m", x);
    front.drain();
    Tensor want1 = gen1.reference->forward(x, false);
    EXPECT_EQ(std::memcmp(before.get().data(), want1.data(),
                          (size_t)want1.size() * sizeof(float)),
              0);

    front.reloadModel(
        "m", serve::ModelEntry{gen2.records,
                               [] { return makeServeCnn(64); },
                               gen2.seOpts, gen2.applyOpts, nullptr});
    EXPECT_EQ(front.generation("m"), 2u);
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Healthy);

    auto after = front.submit("m", x);
    front.drain();
    Tensor want2 = gen2.reference->forward(x, false);
    EXPECT_EQ(std::memcmp(after.get().data(), want2.data(),
                          (size_t)want2.size() * sizeof(float)),
              0);
    // Both generations' traffic shows up in the merged stats.
    EXPECT_EQ(front.stats("m").requests, 2u);
    EXPECT_EQ(front.aggregateStats().requests, 2u);
    front.stop();
}

TEST(ServeFrontReload, ConcurrentSubmitsRideTheSwap)
{
    auto gen1 = shipModel(65);
    auto gen2 = shipModel(66);
    serve::ModelRegistry reg;
    reg.add("m", serve::ModelEntry{gen1.records,
                                   [] { return makeServeCnn(65); },
                                   gen1.seOpts, gen1.applyOpts,
                                   nullptr});
    serve::ServeOptions opts;
    opts.threads = 2;
    serve::ServeFront front(reg, opts);

    Tensor x = makeInput(71);
    Tensor want1 = gen1.reference->forward(x, false);
    Tensor want2 = gen2.reference->forward(x, false);

    std::atomic<bool> done{false};
    std::atomic<int> answered{0}, dropped{0}, mismatched{0};
    std::thread traffic([&] {
        while (!done.load()) {
            try {
                Tensor y = front.submit("m", x).get();
                const bool is1 =
                    std::memcmp(y.data(), want1.data(),
                                (size_t)want1.size() *
                                    sizeof(float)) == 0;
                const bool is2 =
                    std::memcmp(y.data(), want2.data(),
                                (size_t)want2.size() *
                                    sizeof(float)) == 0;
                if (!is1 && !is2)
                    ++mismatched;
                ++answered;
            } catch (const serve::EngineStoppedError &) {
                // submit() retries across a swap internally; an
                // escape here is a dropped request.
                ++dropped;
            }
        }
    });
    for (int flip = 0; flip < 10; ++flip) {
        const auto &g = (flip % 2 == 0) ? gen2 : gen1;
        const uint64_t seed = (flip % 2 == 0) ? 66u : 65u;
        front.reloadModel(
            "m", serve::ModelEntry{g.records,
                                   [seed] {
                                       return makeServeCnn(seed);
                                   },
                                   g.seOpts, g.applyOpts, nullptr});
    }
    done = true;
    traffic.join();
    // Settle the live engine's stats: a future resolves before its
    // batch's counters land, so count only after a drain barrier.
    front.drain();
    EXPECT_EQ(dropped.load(), 0);
    EXPECT_EQ(mismatched.load(), 0);
    EXPECT_GT(answered.load(), 0);
    EXPECT_EQ(front.generation("m"), 11u);
    EXPECT_EQ((uint64_t)answered.load(),
              front.stats("m").requests);
    front.stop();
}

TEST(ServeFrontV4, SubmitVsStopRaceOnColdEntryNoDoubleBuild)
{
    // Regression (the old build-under-lock path): a first submit to a
    // cold streamed entry held the front-wide lock for the whole
    // piece-decode + engine build, so a concurrent stop() (or second
    // submit) stacked up behind it — and a badly timed pair could
    // build twice. The build now runs outside the lock under a
    // per-slot building flag.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    const test::TempPath file("se_serve_v4_stoprace.sexm");
    const std::string &path = file.path;
    shipV4Model(100, path, se_opts, apply_opts);

    for (int round = 0; round < 8; ++round) {
        auto streamed = std::make_shared<core::StreamedModel>(path);
        std::atomic<int> factoryCalls{0};
        serve::ModelRegistry reg;
        reg.add("cold",
                serve::makeModelEntry(streamed,
                                      [&factoryCalls] {
                                          ++factoryCalls;
                                          return makeServeCnn(100);
                                      },
                                      se_opts, apply_opts));
        serve::ServeOptions opts;
        opts.threads = 0;  // one replica: any rebuild is visible
        serve::ServeFront front(reg, opts);

        std::atomic<int> refused{0}, served{0};
        std::vector<std::thread> submitters;
        for (int t = 0; t < 3; ++t)
            submitters.emplace_back([&] {
                try {
                    Tensor y =
                        front.submit("cold", makeInput(1200)).get();
                    (void)y;
                    ++served;
                } catch (const serve::EngineStoppedError &) {
                    ++refused;
                }
            });
        std::thread stopper([&] { front.stop(); });
        for (auto &t : submitters)
            t.join();
        stopper.join();  // joining at all proves no deadlock

        // At most one engine build (one replica) ever happened, even
        // with three racing first touches; every submit either got
        // an answer or a clean refusal.
        EXPECT_LE(factoryCalls.load(), 1) << "round " << round;
        EXPECT_EQ(served.load() + refused.load(), 3)
            << "round " << round;
    }
}

// ------------------------------------------ serve bit-identity wall

TEST(ServePipeline, BitIdentityWallAcrossModesThreadsAndPolicies)
{
    // The engine answers every request bit-identically to the
    // uncompressed reference across thread counts, flush policies,
    // rebuild policies and weight sources.
    auto shipped = shipModel(142);
    const int n = 19;

    uint64_t refDigest = kFnvOffsetBasis;
    for (int i = 0; i < n; ++i) {
        Tensor y = shipped.reference->forward(
            makeInput(1500 + (uint64_t)i), false);
        refDigest = hashTensor(y.reshaped({y.size()}), refDigest);
    }

    struct Config
    {
        int threads;
        size_t maxBatch;
        serve::FlushPolicy flush;
        bool perCall;
        serve::WeightSource src;
    };
    const Config configs[] = {
        {0, 4, serve::FlushPolicy::Greedy, true,
         serve::WeightSource::Dense},
        {1, 4, serve::FlushPolicy::Greedy, true,
         serve::WeightSource::CeDirect},
        {3, 5, serve::FlushPolicy::Greedy, true,
         serve::WeightSource::CeDirect},
        {2, 8, serve::FlushPolicy::Full, false,
         serve::WeightSource::Dense},
        {2, 6, serve::FlushPolicy::Deadline, true,
         serve::WeightSource::CeDirect},
        {4, 3, serve::FlushPolicy::Greedy, false,
         serve::WeightSource::CeDirect},
    };
    size_t idx = 0;
    for (const Config &cfg : configs) {
        serve::ServeOptions opts;
        opts.threads = cfg.threads;
        opts.maxBatch = cfg.maxBatch;
        opts.flush = cfg.flush;
        opts.session.rebuildPerCall = cfg.perCall;
        opts.session.weightSource = cfg.src;
        serve::ServeEngine engine(
            shipped.records, [] { return makeServeCnn(142); },
            shipped.seOpts, shipped.applyOpts, opts);

        std::vector<std::future<Tensor>> futs;
        for (int i = 0; i < n; ++i)
            futs.push_back(
                engine.submit(makeInput(1500 + (uint64_t)i)));
        engine.drain();

        uint64_t digest = kFnvOffsetBasis;
        for (auto &f : futs)
            digest = hashTensor(f.get(), digest);
        EXPECT_EQ(digest, refDigest)
            << "config " << idx << " diverged from the reference";

        auto st = engine.stats();
        EXPECT_EQ(st.requests, (uint64_t)n) << "config " << idx;
        EXPECT_EQ(st.failed, 0u) << "config " << idx;
        EXPECT_EQ(st.overlappedBatches, 0u) << "config " << idx;
        ++idx;
    }
}

TEST(ServeEngine, RejectsRemovedPipelineFlags)
{
    // pipeline / pipelineRebuild remain only as compatibility fields
    // for the benchmark driver; setting them must fail loudly rather
    // than be silently ignored.
    auto shipped = shipModel(145);
    serve::ServeOptions engine_pipe;
    engine_pipe.threads = 0;
    engine_pipe.pipeline = true;
    EXPECT_THROW(serve::ServeEngine(
                     shipped.records, [] { return makeServeCnn(145); },
                     shipped.seOpts, shipped.applyOpts, engine_pipe),
                 std::invalid_argument);

    serve::ServeOptions session_pipe;
    session_pipe.threads = 0;
    session_pipe.session.pipelineRebuild = true;
    EXPECT_THROW(serve::ServeEngine(
                     shipped.records, [] { return makeServeCnn(145); },
                     shipped.seOpts, shipped.applyOpts, session_pipe),
                 std::invalid_argument);

    serve::SessionOptions so;
    so.pipelineRebuild = true;
    EXPECT_THROW(serve::InferenceSession(makeServeCnn(145),
                                         shipped.records,
                                         shipped.seOpts,
                                         shipped.applyOpts, so),
                 std::invalid_argument);
}

TEST(ServeEngine, FlushDeadlineIsCappedAndNanRejected)
{
    // A deadline past the cap would overflow the integer-nanosecond
    // cast in the dispatcher (UB; in practice a flush time in the
    // past), and NaN slips through a plain `< 0` clamp.
    auto shipped = shipModel(146);
    auto make = [&](double deadline_ms) {
        serve::ServeOptions opts;
        opts.threads = 0;
        opts.flush = serve::FlushPolicy::Deadline;
        opts.flushDeadlineMs = deadline_ms;
        return std::make_unique<serve::ServeEngine>(
            shipped.records, [] { return makeServeCnn(146); },
            shipped.seOpts, shipped.applyOpts, opts);
    };
    EXPECT_THROW(make(std::nan("")), std::invalid_argument);
    EXPECT_THROW(make(1e300), std::invalid_argument);
    EXPECT_THROW(make(std::nextafter(serve::kMaxFlushDeadlineMs, 1e9)),
                 std::invalid_argument);
    EXPECT_DOUBLE_EQ(serve::kMaxFlushDeadlineMs, 3.6e6);

    // The cap itself is accepted and holds a partial batch: nothing
    // is answered until drain() flushes it.
    auto engine = make(serve::kMaxFlushDeadlineMs);
    auto fut = engine->submit(makeInput(2000));
    EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout);
    engine->drain();
    EXPECT_NO_THROW(fut.get());
    EXPECT_EQ(engine->stats().requests, 1u);

    // Negative deadlines still clamp to 0 (flush immediately).
    auto eager = make(-5.0);
    EXPECT_NO_THROW(eager->submit(makeInput(2001)).get());
}

TEST(ServePipelineV4, StreamedCeDirectBitIdentical)
{
    // End-to-end streaming: a lazily opened v4 bundle, records bound
    // CeDirect, served by the engine, must answer exactly what the
    // uncompressed reference computes.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    const test::TempPath file("se_serve_pipe_v4.sexm");
    const std::string &path = file.path;
    auto reference = shipV4Model(144, path, se_opts, apply_opts);
    const int n = 12;

    core::StreamedModel sm(path);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    opts.session.rebuildPerCall = true;
    opts.session.cacheRebuiltWeights = false;
    opts.session.weightSource = serve::WeightSource::CeDirect;
    opts.session.denseState = std::make_shared<
        const std::vector<core::DenseTensor>>(sm.dense());
    serve::ServeEngine engine(
        sm.records(), [] { return makeServeCnn(144); }, se_opts,
        apply_opts, opts);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < n; ++i)
        futs.push_back(engine.submit(makeInput(1900 + (uint64_t)i)));
    engine.drain();
    uint64_t digest = kFnvOffsetBasis;
    for (auto &f : futs)
        digest = hashTensor(f.get(), digest);
    engine.stop();

    // records() touched every piece once, and each decoded inline.
    const auto ss = sm.streamStats();
    EXPECT_EQ(ss.prefetchMisses, (uint64_t)sm.pieceCount());
    EXPECT_EQ(ss.prefetchHits, 0u);
    EXPECT_EQ(sm.decodedPieces(), sm.pieceCount());

    const auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)n);
    EXPECT_GT(st.decodeStallMs, 0.0);  // rebuilt every batch

    uint64_t refDigest = kFnvOffsetBasis;
    for (int i = 0; i < n; ++i) {
        Tensor y =
            reference->forward(makeInput(1900 + (uint64_t)i), false);
        refDigest = hashTensor(y.reshaped({y.size()}), refDigest);
    }
    EXPECT_EQ(digest, refDigest);
}

} // namespace
} // namespace se
