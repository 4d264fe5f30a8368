/**
 * @file
 * Tests of the se::runtime layer: thread pool, content hashing, the
 * decomposition cache, the parallel compression pipeline (bit-identical
 * to the serial path), and the batched simulation driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/annotate.hh"
#include "accel/baselines.hh"
#include "accel/smartexchange_accel.hh"
#include "base/hash.hh"
#include "base/random.hh"
#include "base/thread_pool.hh"
#include "core/model_file.hh"
#include "kernels/kernels.hh"
#include "runtime/options.hh"
#include "runtime/pipeline.hh"
#include "runtime/sim_driver.hh"
#include "serve/engine.hh"
#include "temp_path.hh"

namespace se {
namespace {

// -------------------------------------------- RuntimeOptions::fromEnv

/** RAII env var that restores the previous value on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *prev = std::getenv(name))
            prev_ = prev;
        had_ = std::getenv(name) != nullptr;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), prev_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_, prev_;
    bool had_ = false;
};

TEST(RuntimeOptions, FromEnvParsesValidKnobs)
{
    ScopedEnv t("SE_THREADS", "3");
    ScopedEnv q("SE_SERVE_QUEUE_CAP", "128");
    ScopedEnv d("SE_SERVE_DEADLINE_MS", "2.5");
    ScopedEnv w("SE_SERVE_WEIGHT_SOURCE", "ce");
    ScopedEnv f("SE_MODEL_FORMAT", "2");
    ScopedEnv s("SE_STREAM_LOADER", "eager");
    const auto ro = runtime::RuntimeOptions::fromEnv();
    EXPECT_EQ(ro.threads, 3);
    EXPECT_EQ(ro.serveQueueCap, 128u);
    EXPECT_DOUBLE_EQ(ro.serveDeadlineMs, 2.5);
    EXPECT_EQ(ro.serveWeightSource,
              runtime::ServeWeightSource::CeDirect);
    EXPECT_EQ(ro.modelFormat, 2);
    EXPECT_TRUE(ro.streamEager);
}

TEST(RuntimeOptions, FromEnvParsesStreamingKnobs)
{
    ScopedEnv f("SE_MODEL_FORMAT", "4");
    ScopedEnv s("SE_STREAM_LOADER", "mmap");
    const auto ro = runtime::RuntimeOptions::fromEnv();
    EXPECT_EQ(ro.modelFormat, 4);
    EXPECT_FALSE(ro.streamEager);
}

TEST(RuntimeOptions, FromEnvNoLongerReadsPrefetchDepth)
{
    // The stream loader has one decode path, so the old lookahead
    // knob is not a knob any more: any value is ignored, none throws.
    for (const char *v : {"3", "two"}) {
        ScopedEnv d("SE_PREFETCH_DEPTH", v);
        EXPECT_EQ(runtime::RuntimeOptions::fromEnv().prefetchDepth, 0u)
            << v;
    }
}

TEST(RuntimeOptions, FromEnvRejectsMalformedValues)
{
    // Regression: these used to be atoi/atof'd — SE_THREADS=four
    // silently selected the serial path (0) instead of
    // failing. Every SE_* knob now rejects unrecognized values.
    const std::vector<std::pair<const char *, const char *>> bad{
        {"SE_THREADS", "four"},
        {"SE_THREADS", "4x"},
        {"SE_THREADS", ""},
        {"SE_THREADS", "4294967296"},  // would wrap to 0 (serial)
        {"SE_SERVE_QUEUE_CAP", "many"},
        {"SE_SERVE_QUEUE_CAP", "-1"},
        {"SE_SERVE_DEADLINE_MS", "fast"},
        {"SE_SERVE_DEADLINE_MS", "1.5ms"},
        {"SE_SERVE_DEADLINE_MS", "nan"},
        {"SE_SERVE_WEIGHT_SOURCE", "quantized"},
        {"SE_MODEL_FORMAT", "1"},
        {"SE_MODEL_FORMAT", "5"},
        {"SE_MODEL_FORMAT", "v3"},
        {"SE_STREAM_LOADER", "lazy"},
        {"SE_STREAM_LOADER", "MMAP"},  // case-sensitive
        {"SE_STREAM_LOADER", ""},
        {"SE_KERNEL_ISA", "AVX512"},
        {"SE_KERNEL_ISA", "sse2"},  // scalar, avx2, avx512: the tiers
        {"SE_KERNEL_ISA", "fast"},
        {"SE_KERNEL_ISA", "AVX2"},  // case-sensitive like the others
    };
    for (const auto &[name, value] : bad) {
        ScopedEnv e(name, value);
        EXPECT_THROW(runtime::RuntimeOptions::fromEnv(),
                     std::invalid_argument)
            << name << "=" << value;
    }
}

TEST(RuntimeOptions, FromEnvDefaultsWithoutKnobs)
{
    // Shield against SE_* leaking in from the harness environment.
    std::vector<std::unique_ptr<ScopedEnv>> clear;
    for (const char *name :
         {"SE_SERVE_QUEUE_CAP", "SE_SERVE_DEADLINE_MS",
          "SE_SERVE_WEIGHT_SOURCE", "SE_MODEL_FORMAT",
          "SE_STREAM_LOADER"}) {
        clear.push_back(std::make_unique<ScopedEnv>(name, "0"));
        ::unsetenv(name);  // ScopedEnv restores any prior value
    }
    const auto ro = runtime::RuntimeOptions::fromEnv();
    EXPECT_EQ(ro.modelFormat, 3);
    EXPECT_FALSE(ro.streamEager);
    EXPECT_EQ(ro.serveWeightSource,
              runtime::ServeWeightSource::Dense);
    EXPECT_EQ(ro.serveQueueCap, 0u);
    EXPECT_DOUBLE_EQ(ro.serveDeadlineMs, 0.0);
    EXPECT_FALSE(ro.servePipeline);
    EXPECT_EQ(ro.prefetchDepth, 0u);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, SubmitReturnsResults)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3);
    auto f = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](int64_t i) { hits[(size_t)i]++; });
    for (int64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[(size_t)i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(8,
                                  [](int64_t i) {
                                      if (i == 5)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    int64_t sum = 0;  // no atomics needed: inline execution
    pool.parallelFor(100, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum, 4950);
}

// ------------------------------------------------------------------ Hash

TEST(Hash, TensorHashIsContentAndShapeSensitive)
{
    Rng rng(11);
    Tensor a = randn({6, 4}, rng, 0.0f, 1.0f);
    Tensor b = a;
    EXPECT_EQ(hashTensor(a), hashTensor(b));

    b[0] += 1.0f;
    EXPECT_NE(hashTensor(a), hashTensor(b));

    // Same bytes, different shape.
    Tensor c = a.reshaped({4, 6});
    EXPECT_NE(hashTensor(a), hashTensor(c));
}

TEST(Hash, DecompKeySeesOptionChanges)
{
    Rng rng(12);
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    core::SeOptions a, b;
    b.vectorThreshold = a.vectorThreshold * 2.0;
    EXPECT_NE(runtime::decompKey(w, a), runtime::decompKey(w, b));
    EXPECT_EQ(runtime::decompKey(w, a), runtime::decompKey(w, a));
}

// ----------------------------------------------------------- DecompCache

TEST(DecompCache, HitMissCountersAndIdenticalResults)
{
    Rng rng(13);
    Tensor w = randn({16, 4}, rng, 0.0f, 0.1f);
    core::SeOptions opts;
    opts.vectorThreshold = 0.01;

    runtime::DecompCache cache(8);
    auto first = cache.getOrCompute(w, opts);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), 1u);

    auto second = cache.getOrCompute(w, opts);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // The cached copy is bit-identical to the computed one.
    ASSERT_EQ(first.ce.size(), second.ce.size());
    EXPECT_EQ(std::memcmp(first.ce.data(), second.ce.data(),
                          (size_t)first.ce.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(first.basis.data(), second.basis.data(),
                          (size_t)first.basis.size() * sizeof(float)),
              0);
    EXPECT_EQ(first.reconRelError, second.reconRelError);
}

TEST(DecompCache, EvictsLeastRecentlyUsed)
{
    Rng rng(14);
    core::SeOptions opts;
    runtime::DecompCache cache(2);

    Tensor w0 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w1 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w2 = randn({8, 4}, rng, 0.0f, 0.1f);

    cache.getOrCompute(w0, opts);  // {w0}
    cache.getOrCompute(w1, opts);  // {w1, w0}
    cache.getOrCompute(w0, opts);  // hit -> {w0, w1}
    EXPECT_EQ(cache.hits(), 1u);
    cache.getOrCompute(w2, opts);  // evicts w1 -> {w2, w0}
    EXPECT_EQ(cache.size(), 2u);

    cache.getOrCompute(w0, opts);  // still cached
    EXPECT_EQ(cache.hits(), 2u);
    cache.getOrCompute(w1, opts);  // was evicted: a miss
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(DecompCache, ZeroCapacityDisables)
{
    Rng rng(15);
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    runtime::DecompCache cache(0);
    cache.getOrCompute(w, core::SeOptions{});
    cache.getOrCompute(w, core::SeOptions{});
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
}

// ------------------------------------------- persistent DecompCache

namespace fs = std::filesystem;

TEST(PersistentDecompCache, SurvivesARestart)
{
    const test::TempPath dir("se_runtime_spill_restart");
    Rng rng(16);
    Tensor w = randn({16, 4}, rng, 0.0f, 0.1f);
    core::SeOptions opts;
    opts.vectorThreshold = 0.01;

    core::SeMatrix first;
    {
        runtime::DecompCache cache(
            runtime::DecompCacheOptions{8, dir.path});
        first = cache.getOrCompute(w, opts);
        EXPECT_EQ(cache.spills(), 1u);
        EXPECT_EQ(cache.spillFailures(), 0u);
    }
    // "Restart": a fresh instance (empty memory tier) finds the
    // entry on disk, bit-identical to the computed one.
    runtime::DecompCache cache(
        runtime::DecompCacheOptions{8, dir.path});
    EXPECT_EQ(cache.recoverScan(), 1u);
    const auto second = cache.getOrCompute(w, opts);
    EXPECT_EQ(cache.diskHits(), 1u);
    EXPECT_EQ(cache.misses(), 0u);
    ASSERT_EQ(first.ce.size(), second.ce.size());
    EXPECT_EQ(std::memcmp(first.ce.data(), second.ce.data(),
                          (size_t)first.ce.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(first.basis.data(), second.basis.data(),
                          (size_t)first.basis.size() * sizeof(float)),
              0);
    // The disk hit was promoted: the next lookup is a memory hit.
    cache.getOrCompute(w, opts);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(PersistentDecompCache, MemoryEvictionKeepsTheDiskCopy)
{
    const test::TempPath dir("se_runtime_spill_evict");
    Rng rng(17);
    core::SeOptions opts;
    runtime::DecompCache cache(
        runtime::DecompCacheOptions{1, dir.path});
    Tensor w0 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w1 = randn({8, 4}, rng, 0.0f, 0.1f);
    cache.getOrCompute(w0, opts);
    cache.getOrCompute(w1, opts);  // evicts w0 from memory
    EXPECT_EQ(cache.size(), 1u);
    cache.getOrCompute(w0, opts);  // …but the spill tier still has it
    EXPECT_EQ(cache.diskHits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PersistentDecompCache, CorruptAndTruncatedEntriesAreDropped)
{
    const test::TempPath dir("se_runtime_spill_corrupt");
    Rng rng(18);
    core::SeOptions opts;
    Tensor w0 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w1 = randn({8, 4}, rng, 0.0f, 0.1f);
    {
        runtime::DecompCache cache(
            runtime::DecompCacheOptions{8, dir.path});
        cache.getOrCompute(w0, opts);
        cache.getOrCompute(w1, opts);
    }
    // Flip one payload byte in the first entry, truncate the second.
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(dir.path))
        files.push_back(e.path().string());
    ASSERT_EQ(files.size(), 2u);
    {
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(30);
        char b = 0;
        f.seekg(30);
        f.get(b);
        b = (char)(b ^ 0x10);
        f.seekp(30);
        f.put(b);
    }
    fs::resize_file(files[1], 10);

    runtime::DecompCache cache(
        runtime::DecompCacheOptions{8, dir.path});
    // The recovery scan at construction already swept both.
    EXPECT_EQ(cache.corruptDropped(), 2u);
    EXPECT_EQ(cache.recoverScan(), 0u);
    for (const auto &e : fs::directory_iterator(dir.path))
        FAIL() << "stale file survived recovery: " << e.path();
    // Both lookups are ordinary misses that recompute and re-spill.
    core::SeMatrix out;
    EXPECT_FALSE(cache.lookup(runtime::decompKey(w0, opts), out));
    cache.getOrCompute(w0, opts);
    EXPECT_EQ(cache.spills(), 1u);
}

TEST(PersistentDecompCache, ForeignAndMisnamedFilesAreHandled)
{
    const test::TempPath dir("se_runtime_spill_foreign");
    Rng rng(19);
    core::SeOptions opts;
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    {
        runtime::DecompCache cache(
            runtime::DecompCacheOptions{8, dir.path});
        cache.getOrCompute(w, opts);
    }
    // A foreign file is left alone; a valid entry renamed under the
    // wrong key must NOT be served (key binding) and is dropped.
    std::string entry;
    for (const auto &e : fs::directory_iterator(dir.path))
        entry = e.path().string();
    {
        std::ofstream f((fs::path(dir.path) / "notes.txt").string());
        f << "not a cache entry";
    }
    const std::string renamed =
        (fs::path(dir.path) / "0123456789abcdef.sedc").string();
    fs::copy_file(entry, renamed);

    runtime::DecompCache cache(
        runtime::DecompCacheOptions{8, dir.path});
    EXPECT_EQ(cache.recoverScan(), 1u);  // the real entry survives
    EXPECT_FALSE(fs::exists(renamed));
    EXPECT_TRUE(
        fs::exists((fs::path(dir.path) / "notes.txt").string()));
    core::SeMatrix out;
    EXPECT_TRUE(cache.lookup(runtime::decompKey(w, opts), out));
    EXPECT_EQ(cache.diskHits(), 1u);
}

TEST(PersistentDecompCache, ClearKeepsSpillPurgeWipesIt)
{
    const test::TempPath dir("se_runtime_spill_purge");
    Rng rng(20);
    core::SeOptions opts;
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    runtime::DecompCache cache(
        runtime::DecompCacheOptions{8, dir.path});
    EXPECT_TRUE(cache.persistent());
    cache.getOrCompute(w, opts);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.recoverScan(), 1u);  // disk tier survived clear()
    cache.purgeSpill();
    EXPECT_EQ(cache.recoverScan(), 0u);
}

// --------------------------------------------------- CompressionPipeline

/** A small CNN exercising all three reshape rules + BN pruning. */
std::unique_ptr<nn::Sequential>
makeCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(3, 16, 3, 1, 1, 1, rng, false);
    auto *bn = net->add<nn::BatchNorm2d>(16);
    net->add<nn::Conv2d>(16, 24, 1, 1, 0, 1, rng, false);  // 1x1 rule
    net->add<nn::Conv2d>(24, 8, 3, 1, 1, 1, rng, false);
    net->add<nn::Flatten>();  // forwards a 3 x 2 x 2 sample
    net->add<nn::Linear>(32, 10, rng, false);              // FC rule
    // Make one BN gamma small enough to trip channel pruning.
    bn->gammaTensor()[3] = 1e-4f;
    return net;
}

/** Bit-exact weight comparison between two networks. */
void
expectIdenticalWeights(nn::Sequential &a, nn::Sequential &b)
{
    std::vector<const Tensor *> wa, wb;
    a.visit([&](nn::Layer &l) {
        if (auto *c = dynamic_cast<nn::Conv2d *>(&l))
            wa.push_back(&c->weightTensor());
        else if (auto *f = dynamic_cast<nn::Linear *>(&l))
            wa.push_back(&f->weightTensor());
    });
    b.visit([&](nn::Layer &l) {
        if (auto *c = dynamic_cast<nn::Conv2d *>(&l))
            wb.push_back(&c->weightTensor());
        else if (auto *f = dynamic_cast<nn::Linear *>(&l))
            wb.push_back(&f->weightTensor());
    });
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.size(); ++i) {
        ASSERT_EQ(wa[i]->size(), wb[i]->size());
        EXPECT_EQ(std::memcmp(wa[i]->data(), wb[i]->data(),
                              (size_t)wa[i]->size() * sizeof(float)),
                  0)
            << "weight tensor " << i << " differs";
    }
}

void
expectIdenticalReports(const core::CompressionReport &a,
                       const core::CompressionReport &b)
{
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const auto &x = a.layers[i], &y = b.layers[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.weightCount, y.weightCount);
        EXPECT_EQ(x.originalBits, y.originalBits);
        EXPECT_EQ(x.ceBits, y.ceBits);
        EXPECT_EQ(x.basisBits, y.basisBits);
        EXPECT_EQ(x.vectorSparsity, y.vectorSparsity);
        EXPECT_EQ(x.elementSparsity, y.elementSparsity);
        EXPECT_EQ(x.channelSparsity, y.channelSparsity);
        EXPECT_EQ(x.reconRelError, y.reconRelError);
        EXPECT_EQ(x.decomposed, y.decomposed);
        EXPECT_EQ(x.pieces, y.pieces);
    }
}

TEST(CompressionPipeline, ParallelMatchesSerialBitForBit)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    apply_opts.channelGammaThreshold = 0.01;
    apply_opts.maxSliceRows = 24;  // exercise slicing too

    auto serial_net = makeCnn(77);
    auto report_serial =
        core::applySmartExchange(*serial_net, se_opts, apply_opts);

    runtime::RuntimeOptions ro;
    ro.threads = 4;
    runtime::CompressionPipeline pipe(ro);
    auto parallel_net = makeCnn(77);
    auto report_parallel =
        pipe.run(*parallel_net, se_opts, apply_opts);

    EXPECT_EQ(pipe.stats().threadsUsed,
              std::min(4, kernels::threadBudget()));
    EXPECT_GT(pipe.stats().units, 0u);
    expectIdenticalWeights(*serial_net, *parallel_net);
    expectIdenticalReports(report_serial, report_parallel);
}

TEST(CompressionPipeline, ZeroThreadsMatchesTheLegacySerialPath)
{
    // threads = 0 runs the pipeline's units serially (through the
    // cache when one is configured); applySmartExchange is the
    // reference it must reproduce.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;

    auto serial_net = makeCnn(78);
    auto report_serial = core::applySmartExchange(
        *serial_net, se_opts, core::ApplyOptions{});

    runtime::RuntimeOptions ro;  // threads = 0
    ro.cacheCapacity = 64;
    runtime::CompressionPipeline pipe(ro);
    auto fallback_net = makeCnn(78);
    auto report_fallback =
        pipe.run(*fallback_net, se_opts, core::ApplyOptions{});
    EXPECT_EQ(pipe.stats().threadsUsed, 0);
    EXPECT_GT(pipe.stats().units, 0u);

    expectIdenticalWeights(*serial_net, *fallback_net);
    expectIdenticalReports(report_serial, report_fallback);
}

TEST(CompressionPipeline, CacheAnswersRepeatedSweeps)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;

    runtime::RuntimeOptions ro;
    ro.threads = 2;
    ro.cacheCapacity = 4096;
    runtime::CompressionPipeline pipe(ro);

    auto net1 = makeCnn(79);
    auto report1 = pipe.run(*net1, se_opts, core::ApplyOptions{});
    EXPECT_EQ(pipe.stats().cacheHits, 0u);
    const size_t units = pipe.stats().units;

    // A fresh, identical network: every unit should hit the cache.
    auto net2 = makeCnn(79);
    auto report2 = pipe.run(*net2, se_opts, core::ApplyOptions{});
    EXPECT_EQ(pipe.stats().units, units);
    EXPECT_EQ(pipe.stats().cacheHits, units);

    expectIdenticalWeights(*net1, *net2);
    expectIdenticalReports(report1, report2);
}

// -------------------------------------------------------------- SimDriver

TEST(SimDriver, SweepIsBitIdenticalAcrossThreadCounts)
{
    auto make_accs = [] {
        std::vector<accel::AcceleratorPtr> accs;
        accs.push_back(std::make_unique<accel::DianNao>());
        accs.push_back(std::make_unique<accel::Scnn>());
        accs.push_back(std::make_unique<accel::SmartExchangeAccel>());
        return accs;
    };
    auto accs = make_accs();
    std::vector<sim::Workload> workloads;
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::VGG19));
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::ResNet164));
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::MobileNetV2));

    std::vector<runtime::SimResults> all;
    for (int threads : {0, 1, 8}) {
        runtime::RuntimeOptions ro;
        ro.threads = threads;
        runtime::SimDriver driver(ro);
        all.push_back(driver.sweep(accs, workloads, true));
    }
    for (size_t v = 1; v < all.size(); ++v) {
        ASSERT_EQ(all[v].size(), all[0].size());
        for (size_t ai = 0; ai < all[0].size(); ++ai)
            for (size_t wi = 0; wi < all[0][ai].size(); ++wi) {
                const auto &a = all[0][ai][wi];
                const auto &b = all[v][ai][wi];
                ASSERT_EQ(a.run, b.run);
                EXPECT_EQ(a.stats.cycles, b.stats.cycles);
                EXPECT_EQ(a.stats.dramTrafficBits,
                          b.stats.dramTrafficBits);
                for (size_t c = 0; c < sim::kNumComponents; ++c)
                    EXPECT_EQ(a.stats.energyPj[c],
                              b.stats.energyPj[c])
                        << "variant " << v << " cell (" << ai << ","
                        << wi << ") component "
                        << sim::componentName((sim::Component)c);
            }
    }
}

TEST(SimDriver, SweepMatchesRunNetworkAndHonorsSkips)
{
    std::vector<accel::AcceleratorPtr> accs;
    accs.push_back(std::make_unique<accel::DianNao>());
    accs.push_back(std::make_unique<accel::SmartExchangeAccel>());

    std::vector<sim::Workload> workloads;
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::VGG19));
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::MobileNetV2));

    runtime::RuntimeOptions ro;
    ro.threads = 3;
    runtime::SimDriver driver(ro);
    auto cells = driver.sweep(accs, workloads, /*include_fc=*/false,
                              [](size_t ai, size_t wi) {
                                  return ai == 0 && wi == 1;  // skip
                              });

    ASSERT_EQ(cells.size(), 2u);
    ASSERT_EQ(cells[0].size(), 2u);
    EXPECT_FALSE(cells[0][1].run);

    for (size_t ai = 0; ai < accs.size(); ++ai)
        for (size_t wi = 0; wi < workloads.size(); ++wi) {
            if (ai == 0 && wi == 1)
                continue;
            ASSERT_TRUE(cells[ai][wi].run);
            auto ref = accs[ai]->runNetwork(workloads[wi], false);
            EXPECT_EQ(cells[ai][wi].stats.cycles, ref.cycles);
            EXPECT_EQ(cells[ai][wi].stats.totalEnergyPj(),
                      ref.totalEnergyPj());
        }
}

// ------------------------------------------------------ thread budget

/** The Threads: line of /proc/self/status (-1 when absent). */
int
processThreadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return -1;
}

/** Threads the sanitizer runtime adds: TSan starts one of its own. */
#if defined(__SANITIZE_THREAD__)
constexpr int kRuntimeThreads = 1;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kRuntimeThreads = 1;
#else
constexpr int kRuntimeThreads = 0;
#endif
#else
constexpr int kRuntimeThreads = 0;
#endif

/**
 * SE_THREADS is the one thread budget. Under SE_THREADS=3 a pipeline
 * asked for 8 workers and the v4 piece encode after it both fan out
 * on the one 3-worker executor, so the process holds at most the main
 * thread plus 3. Executor workers live as long as the process (and a
 * per-owner pool as long as its owner), so a sample taken after each
 * fan-out, with the pipeline still alive, counts every worker either
 * one started. A default ServeEngine takes its replica count from the
 * same budget, and serving 32 requests through it starts no thread
 * beyond those it stood up. Runs in a freshly exec'd child, so the
 * budget is parsed from this SE_THREADS.
 */
TEST(ThreadBudgetDeathTest, EveryFanOutSharesOneBudget)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ::setenv("SE_THREADS", "3", 1);
            core::SeOptions se_opts;
            se_opts.vectorThreshold = 0.01;
            const core::ApplyOptions apply;
            runtime::RuntimeOptions ro;
            ro.threads = 8;
            ro.cacheCapacity = 64;
            runtime::CompressionPipeline pipe(ro);
            auto net = makeCnn(81);
            pipe.run(*net, se_opts, apply);
            int peak = processThreadCount();

            auto ship = makeCnn(81);
            core::CompressedModel model = core::compressToRecords(
                *ship, se_opts, apply,
                [&pipe](const Tensor &w, const core::SeOptions &o) {
                    return pipe.cache().getOrCompute(w, o);
                });
            core::quantizeBasisAtCompress(*ship, model, se_opts, apply);
            std::ostringstream os;
            core::saveModelV4(os, model.records, model.dense);
            peak = std::max(peak, processThreadCount());

            serve::ServeEngine engine(
                std::make_shared<std::vector<core::SeLayerRecord>>(
                    model.records),
                [] { return makeCnn(81); }, se_opts, apply);
            const int replicas = engine.replicaCount();
            const int standup = processThreadCount();
            Rng rng(82);
            std::vector<std::future<Tensor>> futs;
            for (int i = 0; i < 32; ++i)
                futs.push_back(engine.submit(randn({3, 2, 2}, rng)));
            engine.drain();
            bool served = true;
            for (auto &f : futs)
                served = served && f.get().size() == 10;
            const int drained = processThreadCount();
            std::fprintf(stderr,
                         "threads %d standup %d drained %d replicas %d\n",
                         peak, standup, drained, replicas);
            // Main + executor + one thread per replica, with no
            // dispatcher beside them: serving starts none of its own.
            const bool ok = peak <= 1 + 3 + kRuntimeThreads &&
                            replicas == 3 && served &&
                            drained <= standup &&
                            standup <= 1 + 3 + 3 + kRuntimeThreads;
            std::_Exit(ok ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "replicas 3");
}

} // namespace
} // namespace se
