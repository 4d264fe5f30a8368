/**
 * @file
 * Stress tests of the concurrency substrate: ThreadPool exception
 * propagation and many-waiter contention, destruction with a full
 * queue, DecompCache behaviour under concurrent identical keys and
 * concurrent eviction pressure, and ServeEngine under hostile
 * concurrency (stop-vs-submit races, queueCap saturation,
 * drain-vs-submit interleaving) — every request must complete or be
 * shed, never hang, never kill the process — and StreamedModel under
 * racing consumers, where each piece must decode exactly once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "base/failpoint.hh"
#include "base/random.hh"
#include "base/thread_pool.hh"
#include "core/model_file.hh"
#include "core/stream_loader.hh"
#include "nn/blocks.hh"
#include "runtime/decomp_cache.hh"
#include "serve/engine.hh"
#include "serve/front.hh"
#include "temp_path.hh"

namespace se {
namespace {

// ------------------------------------------------------- ThreadPool

TEST(ThreadPoolStress, EverySubmittedFutureCarriesItsException)
{
    ThreadPool pool(4);
    const int n = 64;
    std::vector<std::future<int>> futs;
    futs.reserve((size_t)n);
    for (int i = 0; i < n; ++i)
        futs.push_back(pool.submit([i]() -> int {
            if (i % 3 == 0)
                throw std::runtime_error("task " + std::to_string(i));
            return i;
        }));
    for (int i = 0; i < n; ++i) {
        if (i % 3 == 0) {
            try {
                futs[(size_t)i].get();
                FAIL() << "task " << i << " should have thrown";
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()),
                          "task " + std::to_string(i));
            }
        } else {
            EXPECT_EQ(futs[(size_t)i].get(), i);
        }
    }
}

TEST(ThreadPoolStress, ParallelForRethrowsUnderContention)
{
    ThreadPool pool(8);
    std::atomic<int> executed{0};
    for (int round = 0; round < 20; ++round) {
        EXPECT_THROW(pool.parallelFor(500,
                                      [&](int64_t i) {
                                          executed++;
                                          if (i == 250)
                                              throw std::logic_error(
                                                  "boom");
                                      }),
                     std::logic_error);
    }
    EXPECT_GT(executed.load(), 0);
}

TEST(ThreadPoolStress, ParallelForSurvivesAfterAnException)
{
    // The pool must stay fully usable after a failed run.
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(
            64, [](int64_t) { throw std::runtime_error("first"); }),
        std::runtime_error);

    std::vector<std::atomic<int>> hits(512);
    pool.parallelFor(512, [&](int64_t i) { hits[(size_t)i]++; });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolStress, ManyWaitersManySubmitters)
{
    // 8 external threads hammer one pool with small tasks and wait on
    // every future; totals must come out exact.
    ThreadPool pool(4);
    std::atomic<int64_t> total{0};
    constexpr int submitters = 8, per_thread = 200;
    std::vector<std::thread> threads;
    threads.reserve(submitters);
    for (int t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            std::vector<std::future<int>> futs;
            futs.reserve(per_thread);
            for (int i = 0; i < per_thread; ++i) {
                const int value = t * per_thread + i;
                futs.push_back(
                    pool.submit([value] { return value; }));
            }
            int64_t local = 0;
            for (auto &f : futs)
                local += f.get();
            total += local;
        });
    }
    for (auto &th : threads)
        th.join();
    const int64_t n = (int64_t)submitters * per_thread;
    EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ThreadPoolStress, DestructionDrainsTheQueue)
{
    // Queued-but-not-started tasks still run before the pool dies.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 300; ++i)
            pool.submit([&ran] { ran++; });
    }
    EXPECT_EQ(ran.load(), 300);
}

// ------------------------------------------------------ DecompCache

Tensor
smallMatrix(uint64_t seed)
{
    Rng rng(seed);
    return randn({12, 4}, rng, 0.0f, 0.1f);
}

TEST(DecompCacheStress, ConcurrentIdenticalKeysStayConsistent)
{
    // Many threads ask for the same decomposition at once: every
    // answer must be bit-identical, the cache must hold exactly one
    // entry, and hits + misses must equal the number of calls.
    Tensor w = smallMatrix(31);
    core::SeOptions opts;
    opts.vectorThreshold = 0.01;
    const core::SeMatrix ref = core::decomposeMatrix(w, opts);

    runtime::DecompCache cache(16);
    const int threads = 8, per_thread = 25;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < per_thread; ++i) {
                core::SeMatrix got = cache.getOrCompute(w, opts);
                if (got.ce.size() != ref.ce.size() ||
                    std::memcmp(got.ce.data(), ref.ce.data(),
                                (size_t)ref.ce.size() *
                                    sizeof(float)) != 0 ||
                    std::memcmp(got.basis.data(), ref.basis.data(),
                                (size_t)ref.basis.size() *
                                    sizeof(float)) != 0)
                    mismatches++;
            }
        });
    }
    for (auto &th : workers)
        th.join();

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(),
              (uint64_t)(threads * per_thread));
    EXPECT_GE(cache.hits(), (uint64_t)(threads * per_thread - threads));
}

TEST(DecompCacheStress, ConcurrentEvictionPressureStaysBounded)
{
    // More live keys than capacity, hammered from several threads:
    // the cache must stay within capacity, never mis-answer, and keep
    // coherent counters.
    const size_t capacity = 3;
    runtime::DecompCache cache(capacity);
    core::SeOptions opts;
    opts.vectorThreshold = 0.01;

    const int distinct = 8;
    std::vector<Tensor> keys;
    std::vector<core::SeMatrix> refs;
    for (int k = 0; k < distinct; ++k) {
        keys.push_back(smallMatrix(100 + (uint64_t)k));
        refs.push_back(core::decomposeMatrix(keys.back(), opts));
    }

    const int threads = 6, per_thread = 30;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Rng rng((uint64_t)t);
            for (int i = 0; i < per_thread; ++i) {
                const int k = (int)rng.integer(0, distinct - 1);
                core::SeMatrix got =
                    cache.getOrCompute(keys[(size_t)k], opts);
                if (std::memcmp(got.ce.data(),
                                refs[(size_t)k].ce.data(),
                                (size_t)got.ce.size() *
                                    sizeof(float)) != 0)
                    mismatches++;
            }
        });
    }
    for (auto &th : workers)
        th.join();

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_LE(cache.size(), capacity);
    EXPECT_EQ(cache.hits() + cache.misses(),
              (uint64_t)(threads * per_thread));

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------ ServeEngine races

constexpr int64_t kSrvC = 2, kSrvH = 4, kSrvW = 4;

/** The smallest servable CNN (stress tests care about plumbing). */
std::unique_ptr<nn::Sequential>
makeTinyCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(kSrvC, 4, 3, 1, 1, 1, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::GlobalAvgPool>();
    net->add<nn::Flatten>();
    net->add<nn::Linear>(4, 4, rng, false);
    return net;
}

struct TinyShipped
{
    std::shared_ptr<const std::vector<core::SeLayerRecord>> records;
    core::SeOptions seOpts;
    core::ApplyOptions applyOpts;
};

TinyShipped
shipTiny(uint64_t seed)
{
    TinyShipped s;
    s.seOpts.vectorThreshold = 0.01;
    auto net = makeTinyCnn(seed);
    auto compressed =
        core::compressToRecords(*net, s.seOpts, s.applyOpts);
    s.records = std::make_shared<std::vector<core::SeLayerRecord>>(
        std::move(compressed.records));
    return s;
}

Tensor
tinyInput(uint64_t seed)
{
    Rng rng(seed);
    return randn({kSrvC, kSrvH, kSrvW}, rng, 0.0f, 1.0f);
}

TEST(ServeEngineStress, StopSubmitRaceIsCatchableNotFatal)
{
    // Regression: submit() racing stop()/destruction used to
    // SE_PANIC the whole process. Now every accepted request is
    // answered and every refused one throws EngineStoppedError.
    auto shipped = shipTiny(41);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeEngine engine(
        shipped.records, [] { return makeTinyCnn(41); },
        shipped.seOpts, shipped.applyOpts, opts);

    constexpr int submitters = 4, per_thread = 100;
    std::atomic<int> accepted{0}, refused{0};
    std::vector<std::vector<std::future<Tensor>>> futs(
        (size_t)submitters);
    std::vector<std::thread> threads;
    threads.reserve(submitters);
    for (int t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                try {
                    futs[(size_t)t].push_back(
                        engine.submit(tinyInput((uint64_t)i)));
                    accepted++;
                } catch (const serve::EngineStoppedError &) {
                    refused++;
                }
            }
        });
    }
    // Stop mid-flood: some submits land before, some after.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    engine.stop();
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(accepted.load() + refused.load(),
              submitters * per_thread);
    // Every accepted request was answered before stop() returned.
    for (auto &vec : futs)
        for (auto &f : vec) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
            EXPECT_NO_THROW(f.get());
        }
    EXPECT_EQ(engine.stats().requests, (uint64_t)accepted.load());
}

TEST(ServeEngineStress, QueueCapSaturationShedsOrCompletesNeverHangs)
{
    auto shipped = shipTiny(42);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    opts.queueCap = 8;
    serve::ServeEngine engine(
        shipped.records, [] { return makeTinyCnn(42); },
        shipped.seOpts, shipped.applyOpts, opts);

    constexpr int submitters = 6, per_thread = 100;
    std::atomic<int> accepted{0}, shed{0};
    std::vector<std::vector<std::future<Tensor>>> futs(
        (size_t)submitters);
    std::vector<std::thread> threads;
    threads.reserve(submitters);
    for (int t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                try {
                    futs[(size_t)t].push_back(
                        engine.submit(tinyInput((uint64_t)i)));
                    accepted++;
                } catch (const serve::AdmissionError &) {
                    shed++;
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    engine.drain();

    // Conservation law: every offered request either completed or
    // was shed — nothing lost, nothing hung.
    EXPECT_EQ(accepted.load() + shed.load(),
              submitters * per_thread);
    for (auto &vec : futs)
        for (auto &f : vec) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
            EXPECT_NO_THROW(f.get());
        }
    const auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)accepted.load());
    EXPECT_EQ(st.shed, (uint64_t)shed.load());
    EXPECT_EQ(st.failed, 0u);
}

TEST(ServeEngineStress, DrainVsSubmitInterleavingNeverLosesRequests)
{
    // Drainers and submitters interleave freely (Full policy, so an
    // un-flushed hold would deadlock a lost drainer).
    auto shipped = shipTiny(43);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 8;
    opts.flush = serve::FlushPolicy::Full;
    serve::ServeEngine engine(
        shipped.records, [] { return makeTinyCnn(43); },
        shipped.seOpts, shipped.applyOpts, opts);

    constexpr int submitters = 3, per_thread = 60, drainers = 3;
    std::atomic<bool> done{false};
    std::vector<std::vector<std::future<Tensor>>> futs(
        (size_t)submitters);
    std::vector<std::thread> threads;
    for (int t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                futs[(size_t)t].push_back(
                    engine.submit(tinyInput((uint64_t)i)));
                if (i % 16 == 0)
                    std::this_thread::yield();
            }
        });
    }
    for (int d = 0; d < drainers; ++d) {
        threads.emplace_back([&] {
            while (!done.load())
                engine.drain();
        });
    }
    for (int t = 0; t < submitters; ++t)
        threads[(size_t)t].join();
    done.store(true);
    for (size_t t = (size_t)submitters; t < threads.size(); ++t)
        threads[t].join();
    engine.drain();

    for (auto &vec : futs)
        for (auto &f : vec) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
            EXPECT_NO_THROW(f.get());
        }
    EXPECT_EQ(engine.stats().requests,
              (uint64_t)(submitters * per_thread));
}

// --------------------------------------- persistent cache sharing

TEST(DecompCacheStress, SharedSpillDirAcrossInstancesStaysCoherent)
{
    // Two cache instances sharing one spill directory model two
    // processes pointed at the same SE_CACHE_DIR: interleaved
    // writes, recovery scans and memory evictions from several
    // threads must never produce a torn read — every answer is
    // bit-identical to the direct decomposition.
    const test::TempPath spill_dir("se_stress_shared_spill");
    const std::string &dir = spill_dir.path;

    core::SeOptions opts;
    opts.vectorThreshold = 0.01;
    const int distinct = 6;
    std::vector<Tensor> keys;
    std::vector<core::SeMatrix> refs;
    for (int k = 0; k < distinct; ++k) {
        keys.push_back(smallMatrix(300 + (uint64_t)k));
        refs.push_back(core::decomposeMatrix(keys.back(), opts));
    }

    runtime::DecompCache a(runtime::DecompCacheOptions{2, dir});
    runtime::DecompCache b(runtime::DecompCacheOptions{2, dir});

    const int threads_per = 3, per_thread = 40;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    for (int inst = 0; inst < 2; ++inst) {
        runtime::DecompCache &cache = inst == 0 ? a : b;
        for (int t = 0; t < threads_per; ++t) {
            workers.emplace_back([&, inst, t] {
                for (int i = 0; i < per_thread; ++i) {
                    const int k =
                        (i + t + inst * threads_per) % distinct;
                    core::SeMatrix got = cache.getOrCompute(
                        keys[(size_t)k], opts);
                    const core::SeMatrix &ref = refs[(size_t)k];
                    if (got.ce.size() != ref.ce.size() ||
                        std::memcmp(got.ce.data(), ref.ce.data(),
                                    (size_t)ref.ce.size() *
                                        sizeof(float)) != 0 ||
                        std::memcmp(got.basis.data(),
                                    ref.basis.data(),
                                    (size_t)ref.basis.size() *
                                        sizeof(float)) != 0)
                        mismatches++;
                    if (i % 13 == 0)
                        cache.recoverScan();  // concurrent sweeps
                    if (i % 17 == 0)
                        cache.clear();  // evict the memory tier
                }
            });
        }
    }
    for (auto &th : workers)
        th.join();

    EXPECT_EQ(mismatches.load(), 0);
    // Every distinct key ended up durable and valid on disk.
    EXPECT_EQ(a.recoverScan(), (size_t)distinct);
    EXPECT_EQ(b.recoverScan(), (size_t)distinct);
}

// ------------------------------------------------ reload under fire

TEST(ServeFrontStress, FiftyReloadFlipsUnderTrafficDropNothing)
{
    // The hot-reload wall: two bundles flip back and forth 50 times
    // under continuous traffic. Zero requests may drop, and every
    // response must be bit-identical to one of the two generations'
    // reference nets (a response can never blend generations).
    auto refA = makeTinyCnn(46);
    auto refB = makeTinyCnn(47);
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto compA = core::compressToRecords(*refA, se_opts, apply_opts);
    auto compB = core::compressToRecords(*refB, se_opts, apply_opts);
    auto recsA =
        std::make_shared<std::vector<core::SeLayerRecord>>(
            compA.records);
    auto recsB =
        std::make_shared<std::vector<core::SeLayerRecord>>(
            compB.records);

    serve::ModelRegistry reg;
    reg.add("m", serve::ModelEntry{recsA,
                                   [] { return makeTinyCnn(46); },
                                   se_opts, apply_opts, nullptr});
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeFront front(reg, opts);

    Tensor x = tinyInput(9);
    Tensor batched = x.reshaped({1, x.dim(0), x.dim(1), x.dim(2)});
    Tensor wantA = refA->forward(batched, false);
    Tensor wantB = refB->forward(batched, false);

    std::atomic<bool> done{false};
    std::atomic<int> answered{0}, dropped{0}, blended{0};
    constexpr int traffic_threads = 2;
    std::vector<std::thread> traffic;
    for (int t = 0; t < traffic_threads; ++t)
        traffic.emplace_back([&] {
            while (!done.load()) {
                try {
                    Tensor y = front.submit("m", x).get();
                    const size_t bytes =
                        (size_t)y.size() * sizeof(float);
                    if (std::memcmp(y.data(), wantA.data(), bytes) &&
                        std::memcmp(y.data(), wantB.data(), bytes))
                        ++blended;
                    ++answered;
                } catch (const serve::EngineStoppedError &) {
                    ++dropped;  // a swap escape = a dropped request
                }
            }
        });

    constexpr int flips = 50;
    for (int flip = 0; flip < flips; ++flip) {
        const bool toB = flip % 2 == 0;
        front.reloadModel(
            "m",
            serve::ModelEntry{toB ? recsB : recsA,
                              [toB] {
                                  return makeTinyCnn(toB ? 47 : 46);
                              },
                              se_opts, apply_opts, nullptr});
        EXPECT_EQ(front.generation("m"), (uint64_t)(flip + 2));
    }
    done.store(true);
    for (auto &t : traffic)
        t.join();
    front.drain();

    EXPECT_EQ(dropped.load(), 0);
    EXPECT_EQ(blended.load(), 0);
    EXPECT_GT(answered.load(), 0);
    EXPECT_EQ(front.generation("m"), (uint64_t)(flips + 1));
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Healthy);
    // Merged stats saw every answered request across 51 generations.
    EXPECT_EQ(front.stats("m").requests, (uint64_t)answered.load());
    front.stop();
}

TEST(ServeEngineStress, InjectedBatchFaultsUnderLoadNeverHang)
{
    // A "replica keeps dying" drill: serve_batch_exec fires on a
    // deterministic schedule under concurrent traffic. Every request
    // must resolve (answered or failed with the injected fault), the
    // engine must keep serving afterwards, and nothing may hang.
    failpoint::disarmAll();
    auto shipped = shipTiny(48);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeEngine engine(
        shipped.records, [] { return makeTinyCnn(48); },
        shipped.seOpts, shipped.applyOpts, opts);

    constexpr int submitters = 3, per_thread = 40;
    std::vector<std::vector<std::future<Tensor>>> futs(
        (size_t)submitters);
    {
        failpoint::ScopedArm arm("serve_batch_exec", "1in5");
        std::vector<std::thread> threads;
        for (int t = 0; t < submitters; ++t)
            threads.emplace_back([&, t] {
                for (int i = 0; i < per_thread; ++i)
                    futs[(size_t)t].push_back(
                        engine.submit(tinyInput((uint64_t)i)));
            });
        for (auto &t : threads)
            t.join();
        engine.drain();
    }

    int ok = 0, injected = 0;
    for (auto &vec : futs)
        for (auto &f : vec) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
            try {
                f.get();
                ++ok;
            } catch (const failpoint::InjectedFault &) {
                ++injected;
            }
        }
    EXPECT_EQ(ok + injected, submitters * per_thread);
    EXPECT_GT(injected, 0);
    EXPECT_EQ(engine.stats().failed, (uint64_t)injected);

    // Disarmed again: the engine serves on as if nothing happened.
    auto after = engine.submit(tinyInput(5));
    engine.drain();
    EXPECT_NO_THROW(after.get());
}

TEST(ServeEngineStress, StopDrainRaceUnderPublishDelayConservesEveryRequest)
{
    // Submitters race drain() and then stop() while
    // serve_publish_delay stalls workers right after they publish a
    // batch, so requests pile up in the queue and replicas free late.
    // Conservation law: every accepted future resolves (never hangs),
    // every refused submit throws EngineStoppedError, and the books
    // balance.
    failpoint::disarmAll();
    auto shipped = shipTiny(52);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeEngine engine(
        shipped.records, [] { return makeTinyCnn(52); },
        shipped.seOpts, shipped.applyOpts, opts);

    constexpr int submitters = 4, per_thread = 60;
    std::atomic<int> accepted{0}, refused{0};
    std::vector<std::vector<std::future<Tensor>>> futs(
        (size_t)submitters);
    {
        failpoint::ScopedArm arm("serve_publish_delay", "1in3");
        std::vector<std::thread> threads;
        threads.reserve(submitters + 1);
        for (int t = 0; t < submitters; ++t)
            threads.emplace_back([&, t] {
                for (int i = 0; i < per_thread; ++i) {
                    try {
                        futs[(size_t)t].push_back(
                            engine.submit(tinyInput((uint64_t)i)));
                        accepted++;
                    } catch (const serve::EngineStoppedError &) {
                        refused++;
                    }
                }
            });
        // One thread races drain() against the in-flight flood.
        threads.emplace_back([&] { engine.drain(); });
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        engine.stop();
        for (auto &th : threads)
            th.join();
    }

    EXPECT_EQ(accepted.load() + refused.load(),
              submitters * per_thread);
    for (auto &vec : futs)
        for (auto &f : vec) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
            EXPECT_NO_THROW(f.get());
        }
    auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)accepted.load());
    EXPECT_EQ(st.failed, 0u);

    // Stopped means stopped.
    EXPECT_THROW(engine.submit(tinyInput(9)),
                 serve::EngineStoppedError);
}

// ---------------------------------------------------- StreamedModel

/** A v4 bundle of a small two-conv CNN at `path`, several pieces. */
void
shipStreamBundle(uint64_t seed, const std::string &path)
{
    Rng rng(seed);
    nn::Sequential net;
    net.add<nn::Conv2d>(kSrvC, 8, 3, 1, 1, 1, rng, false);
    net.add<nn::ReLU>();
    net.add<nn::Conv2d>(8, 8, 3, 1, 1, 1, rng, false);
    net.add<nn::ReLU>();
    net.add<nn::GlobalAvgPool>();
    net.add<nn::Flatten>();
    net.add<nn::Linear>(8, 4, rng, false);
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto compressed = core::compressToRecords(net, se_opts, apply_opts);
    core::quantizeBasisAtCompress(net, compressed, se_opts, apply_opts);
    core::saveModelV4File(path, compressed.bundle());
}

/** Every stored bit of two pieces agrees. */
bool
sameBits(const core::SeMatrix &a, const core::SeMatrix &b)
{
    return a.ce.shape() == b.ce.shape() &&
           a.basis.shape() == b.basis.shape() &&
           !std::memcmp(a.ce.data(), b.ce.data(),
                        (size_t)a.ce.size() * sizeof(float)) &&
           !std::memcmp(a.basis.data(), b.basis.data(),
                        (size_t)a.basis.size() * sizeof(float)) &&
           a.alphabet.expMax == b.alphabet.expMax &&
           a.alphabet.numLevels == b.alphabet.numLevels &&
           a.iterations == b.iterations &&
           !std::memcmp(&a.reconRelError, &b.reconRelError,
                        sizeof(double));
}

/** The eager loader's pieces in flat directory order. */
std::vector<core::SeMatrix>
eagerPieces(const std::string &path)
{
    std::vector<core::SeMatrix> out;
    for (auto &rec : core::loadModelBundleFile(path).records)
        for (auto &p : rec.pieces)
            out.push_back(std::move(p));
    return out;
}

constexpr int kStreamThreads = 8;

TEST(StreamedModelStress, RacingConsumersDecodeEachPieceOnce)
{
    failpoint::disarmAll();
    const test::TempPath file("se_stress_stream.sexm");
    const std::string &path = file.path;
    shipStreamBundle(51, path);
    const std::vector<core::SeMatrix> want = eagerPieces(path);

    core::StreamedModel sm(path);
    const size_t n = sm.pieceCount();
    ASSERT_EQ(n, want.size());
    ASSERT_GE(n, 4u);

    // Each thread walks every index from its own starting point;
    // half of them also race records() before their walk, half after.
    std::vector<std::vector<const core::SeMatrix *>> got(
        (size_t)kStreamThreads);
    std::vector<std::shared_ptr<const std::vector<core::SeLayerRecord>>>
        recs((size_t)kStreamThreads);
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kStreamThreads; ++t)
        threads.emplace_back([&, t] {
            arrived.fetch_add(1);
            while (arrived.load() < kStreamThreads)
                std::this_thread::yield();
            if (t % 2 == 0)
                recs[(size_t)t] = sm.records();
            std::vector<const core::SeMatrix *> mine(n);
            for (size_t k = 0; k < n; ++k) {
                const size_t i = (k + (size_t)t * n / kStreamThreads) % n;
                mine[i] = &sm.piece(i);
            }
            if (t % 2 == 1)
                recs[(size_t)t] = sm.records();
            got[(size_t)t] = std::move(mine);
        });
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(sm.decodedPieces(), n);
    const core::StreamStats ss = sm.streamStats();
    EXPECT_EQ(ss.prefetchMisses, (uint64_t)n);
    EXPECT_EQ(ss.prefetchHits, 0u);
    for (int t = 0; t < kStreamThreads; ++t) {
        EXPECT_EQ(recs[(size_t)t], recs[0]) << "thread " << t;
        for (size_t i = 0; i < n; ++i)
            EXPECT_TRUE(sameBits(*got[(size_t)t][i], want[i]))
                << "thread " << t << " piece " << i;
    }
    size_t flat = 0;
    for (const auto &rec : *recs[0])
        for (const auto &p : rec.pieces)
            EXPECT_TRUE(sameBits(p, want[flat++]));
    EXPECT_EQ(flat, n);
}

TEST(StreamedModelStress, FailedDecodeWakesWaitersAndRetries)
{
    // All threads open on piece 0, so the one armed decode fault
    // lands there while the others wait on it: they must wake, one
    // of them must decode it, and the thread that saw the fault gets
    // the piece on its next touch.
    failpoint::disarmAll();
    const test::TempPath file("se_stress_fault.sexm");
    const std::string &path = file.path;
    shipStreamBundle(52, path);
    const std::vector<core::SeMatrix> want = eagerPieces(path);

    core::StreamedModel sm(path);
    const size_t n = sm.pieceCount();
    ASSERT_EQ(n, want.size());
    std::atomic<int> arrived{0}, faults{0}, bad{0};
    {
        failpoint::ScopedArm arm("stream_piece_decode", "once");
        std::vector<std::thread> threads;
        for (int t = 0; t < kStreamThreads; ++t)
            threads.emplace_back([&] {
                arrived.fetch_add(1);
                while (arrived.load() < kStreamThreads)
                    std::this_thread::yield();
                for (size_t i = 0; i < n; ++i) {
                    const core::SeMatrix *m = nullptr;
                    try {
                        m = &sm.piece(i);
                    } catch (const core::ModelFileError &e) {
                        if (i != 0 || !std::strstr(e.what(), "piece 0"))
                            bad.fetch_add(1);
                        faults.fetch_add(1);
                        m = &sm.piece(i);  // the retry decodes
                    }
                    if (!sameBits(*m, want[i]))
                        bad.fetch_add(1);
                }
            });
        for (auto &th : threads)
            th.join();
    }
    EXPECT_EQ(faults.load(), 1);
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(sm.decodedPieces(), n);
    EXPECT_EQ(sm.streamStats().prefetchMisses, (uint64_t)n);
}

} // namespace
} // namespace se
