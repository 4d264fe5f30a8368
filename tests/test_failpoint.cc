/**
 * @file
 * Tests of the deterministic fault-injection framework and of every
 * layer it is threaded through: model-file I/O, the streaming loader,
 * the persistent DecompCache spill tier, serve batch execution, and
 * the ServeFront quarantine / hot-reload / fallback machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "base/failpoint.hh"
#include "base/hash.hh"
#include "base/random.hh"
#include "core/model_file.hh"
#include "core/smart_exchange.hh"
#include "core/stream_loader.hh"
#include "nn/blocks.hh"
#include "runtime/decomp_cache.hh"
#include "runtime/options.hh"
#include "serve/front.hh"
#include "temp_path.hh"

namespace se {
namespace {

namespace fs = std::filesystem;

/** Every test leaves the process with nothing armed. */
class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::disarmAll(); }
    void TearDown() override { failpoint::disarmAll(); }
};

using FailpointParse = FailpointTest;
using FailpointTrigger = FailpointTest;
using FailpointMacros = FailpointTest;
using FailpointEnv = FailpointTest;
using ModelFileInjection = FailpointTest;
using StreamInjection = FailpointTest;
using SpillInjection = FailpointTest;
using ServeInjection = FailpointTest;

// ------------------------------------------------------------ parsing

TEST_F(FailpointParse, PolicyAccepts)
{
    EXPECT_EQ(failpoint::parsePolicy("once").kind,
              failpoint::Policy::Kind::Once);

    const auto every = failpoint::parsePolicy("1in8");
    EXPECT_EQ(every.kind, failpoint::Policy::Kind::EveryN);
    EXPECT_EQ(every.n, 8u);

    const auto after = failpoint::parsePolicy("after3");
    EXPECT_EQ(after.kind, failpoint::Policy::Kind::AfterN);
    EXPECT_EQ(after.n, 3u);

    const auto prob = failpoint::parsePolicy("p0.25");
    EXPECT_EQ(prob.kind, failpoint::Policy::Kind::Prob);
    EXPECT_DOUBLE_EQ(prob.p, 0.25);

    const auto seeded = failpoint::parsePolicy("p0.5@42");
    EXPECT_DOUBLE_EQ(seeded.p, 0.5);
    EXPECT_EQ(seeded.seed, 42u);
}

TEST_F(FailpointParse, PolicyRejects)
{
    for (const char *bad :
         {"", "twice", "1in", "1in0", "1inx", "1in8x", "after",
          "afterx", "p", "p0", "p-0.5", "p1.5", "p0.5@", "p0.5@x",
          "ONCE"})
        EXPECT_THROW(failpoint::parsePolicy(bad),
                     std::invalid_argument)
            << "policy '" << bad << "' should be rejected";
}

TEST_F(FailpointParse, SpecAcceptsListAndEmpty)
{
    const auto parsed =
        failpoint::parseSpec("a:once,b:1in4,c:p0.5@7");
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed[0].first, "a");
    EXPECT_EQ(parsed[1].first, "b");
    EXPECT_EQ(parsed[2].first, "c");
    EXPECT_TRUE(failpoint::parseSpec("").empty());
}

TEST_F(FailpointParse, SpecRejectsMalformedItems)
{
    for (const char *bad :
         {"a", "a:", ":once", "a:once,", ",a:once", "a:once,a:1in2",
          "a:bogus", "a:once,,b:once"})
        EXPECT_THROW(failpoint::parseSpec(bad), std::invalid_argument)
            << "spec '" << bad << "' should be rejected";
}

// ----------------------------------------------------------- triggers

TEST_F(FailpointTrigger, UnarmedIsANoop)
{
    EXPECT_FALSE(failpoint::anyArmed());
    EXPECT_FALSE(failpoint::evaluate("never_armed"));
    EXPECT_EQ(failpoint::hitCount("never_armed"), 0u);
    EXPECT_NO_THROW(SE_FAILPOINT("never_armed"));
}

TEST_F(FailpointTrigger, OnceFiresOnFirstEvaluationOnly)
{
    failpoint::arm("fp", "once");
    EXPECT_TRUE(failpoint::anyArmed());
    EXPECT_TRUE(failpoint::evaluate("fp"));
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(failpoint::evaluate("fp"));
    EXPECT_EQ(failpoint::hitCount("fp"), 6u);
    EXPECT_EQ(failpoint::fireCount("fp"), 1u);
}

TEST_F(FailpointTrigger, EveryNFiresOnMultiplesOfN)
{
    failpoint::arm("fp", "1in3");
    std::vector<bool> fired;
    for (int i = 0; i < 9; ++i)
        fired.push_back(failpoint::evaluate("fp"));
    const std::vector<bool> want = {false, false, true,  false, false,
                                    true,  false, false, true};
    EXPECT_EQ(fired, want);
    EXPECT_EQ(failpoint::fireCount("fp"), 3u);
}

TEST_F(FailpointTrigger, AfterNFiresOnEveryLaterEvaluation)
{
    failpoint::arm("fp", "after2");
    EXPECT_FALSE(failpoint::evaluate("fp"));
    EXPECT_FALSE(failpoint::evaluate("fp"));
    EXPECT_TRUE(failpoint::evaluate("fp"));
    EXPECT_TRUE(failpoint::evaluate("fp"));
    EXPECT_EQ(failpoint::fireCount("fp"), 2u);
}

TEST_F(FailpointTrigger, ProbIsDeterministicPerSeed)
{
    auto draw = [](const std::string &policy) {
        failpoint::arm("fp", policy);
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(failpoint::evaluate("fp"));
        return out;
    };
    const auto a = draw("p0.5@123");
    const auto b = draw("p0.5@123");
    EXPECT_EQ(a, b);  // re-arming with the same seed replays exactly
    const auto c = draw("p0.5@124");
    EXPECT_NE(a, c);  // another seed is another (deterministic) run
    // The rate is plausibly p, not 0 or 1 (64 draws, p = 0.5).
    const size_t fires = (size_t)std::count(a.begin(), a.end(), true);
    EXPECT_GT(fires, 10u);
    EXPECT_LT(fires, 54u);
}

TEST_F(FailpointTrigger, ProbFirePatternIsPinned)
{
    // The fire pattern of p0.5@42 over 64 hits, bit i for hit i: a
    // re-armed site replays the run it made before, whichever engine
    // draws the policy's numbers.
    failpoint::arm("fp", "p0.5@42");
    uint64_t fired = 0;
    for (int i = 0; i < 64; ++i)
        if (failpoint::evaluate("fp"))
            fired |= uint64_t{1} << i;
    EXPECT_EQ(fired, 0xa0dedae4abee07a8ULL);
}

TEST_F(FailpointTrigger, DisarmStopsFiringAndKeepsCounters)
{
    failpoint::arm("fp", "after0");  // fires on every evaluation
    EXPECT_TRUE(failpoint::evaluate("fp"));
    failpoint::disarm("fp");
    EXPECT_FALSE(failpoint::anyArmed());
    EXPECT_FALSE(failpoint::evaluate("fp"));
    EXPECT_EQ(failpoint::hitCount("fp"), 1u);  // post-disarm not counted
    EXPECT_EQ(failpoint::fireCount("fp"), 1u);
}

TEST_F(FailpointTrigger, ArmFromSpecReplacesPreviousArming)
{
    failpoint::arm("old", "once");
    failpoint::armFromSpec("a:once,b:1in2");
    const auto names = failpoint::armedNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_FALSE(failpoint::evaluate("old"));
    failpoint::armFromSpec("");
    EXPECT_FALSE(failpoint::anyArmed());
}

TEST_F(FailpointMacros, ThrowTypesCarryThePrefixAndName)
{
    failpoint::arm("fp_plain", "once");
    try {
        SE_FAILPOINT("fp_plain");
        FAIL() << "armed failpoint did not throw";
    } catch (const failpoint::InjectedFault &e) {
        EXPECT_NE(std::string(e.what()).find(
                      failpoint::kInjectedPrefix),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("fp_plain"),
                  std::string::npos);
    }

    failpoint::arm("fp_typed", "once");
    try {
        SE_FAILPOINT_THROW("fp_typed", core::ModelFileError);
        FAIL() << "armed failpoint did not throw";
    } catch (const core::ModelFileError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      failpoint::kInjectedPrefix),
                  std::string::npos);
    }
}

// ------------------------------------------------- RuntimeOptions env

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

TEST_F(FailpointEnv, FromEnvAcceptsAndAppliesSpec)
{
    ScopedEnv fp("SE_FAILPOINTS",
                 "stream_piece_decode:1in8,decomp_spill_write:once");
    const auto ro = runtime::RuntimeOptions::fromEnv();
    EXPECT_EQ(ro.failpoints,
              "stream_piece_decode:1in8,decomp_spill_write:once");
    EXPECT_FALSE(failpoint::anyArmed());  // fromEnv only validates
    ro.applyFailpoints();
    const auto names = failpoint::armedNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "stream_piece_decode");
    EXPECT_EQ(names[1], "decomp_spill_write");
}

TEST_F(FailpointEnv, FromEnvRejectsMalformedSpec)
{
    ScopedEnv fp("SE_FAILPOINTS", "stream_piece_decode:1inx");
    EXPECT_THROW(runtime::RuntimeOptions::fromEnv(),
                 std::invalid_argument);
}

TEST_F(FailpointEnv, CacheDirAcceptedAndEmptyRejected)
{
    {
        const test::TempPath cache_dir("se_cache_env_test");
        ScopedEnv d("SE_CACHE_DIR", cache_dir.path.c_str());
        EXPECT_EQ(runtime::RuntimeOptions::fromEnv().cacheDir,
                  cache_dir.path);
    }
    ScopedEnv d("SE_CACHE_DIR", "");
    EXPECT_THROW(runtime::RuntimeOptions::fromEnv(),
                 std::invalid_argument);
}

// ----------------------------------------------- model-file injection

constexpr int64_t kC = 2, kH = 4, kW = 4;

std::unique_ptr<nn::Sequential>
makeTinyCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(kC, 4, 3, 1, 1, 1, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::GlobalAvgPool>();
    net->add<nn::Flatten>();
    net->add<nn::Linear>(4, 4, rng, false);
    return net;
}

Tensor
tinyInput(uint64_t seed)
{
    Rng rng(seed);
    // Batch dim of 1: valid both as an engine sample and as a
    // direct reference-net forward input.
    return randn({1, kC, kH, kW}, rng, 0.0f, 1.0f);
}

/** Compress seed's tiny CNN and ship it as a v4 file; returns the
 *  reference net for bit-identity checks. */
std::unique_ptr<nn::Sequential>
shipTinyV4(uint64_t seed, const std::string &path,
           const core::SeOptions &se_opts,
           const core::ApplyOptions &apply_opts)
{
    auto reference = makeTinyCnn(seed);
    auto compressed =
        core::compressToRecords(*reference, se_opts, apply_opts);
    core::quantizeBasisAtCompress(*reference, compressed, se_opts,
                                  apply_opts);
    core::saveModelV4File(path, compressed.bundle());
    return reference;
}

TEST_F(ModelFileInjection, SaveAndLoadFaultsAreTypedAndOneShot)
{
    const test::TempPath file("se_fp_model_io.sexm");
    const std::string &path = file.path;
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto net = makeTinyCnn(7);
    auto compressed =
        core::compressToRecords(*net, se_opts, apply_opts);

    {
        failpoint::ScopedArm arm("model_file_save_io", "once");
        EXPECT_THROW(core::saveModelFile(path, compressed.records),
                     core::ModelFileError);
        // `once` spent: the retry goes through.
        EXPECT_NO_THROW(
            core::saveModelFile(path, compressed.records));
    }
    {
        failpoint::ScopedArm arm("model_file_load_io", "once");
        EXPECT_THROW(core::loadModelFile(path),
                     core::ModelFileError);
        EXPECT_EQ(core::loadModelFile(path).size(),
                  compressed.records.size());
    }
}

TEST_F(StreamInjection, OpenAndPieceDecodeFaultsAreTyped)
{
    const test::TempPath file("se_fp_stream.sexm");
    const std::string &path = file.path;
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    shipTinyV4(8, path, se_opts, apply_opts);

    {
        failpoint::ScopedArm arm("stream_open", "once");
        EXPECT_THROW(core::StreamedModel m(path),
                     core::ModelFileError);
    }
    core::StreamedModel m(path);
    ASSERT_GT(m.pieceCount(), 0u);
    {
        failpoint::ScopedArm arm("stream_piece_decode", "once");
        try {
            m.piece(0);
            FAIL() << "armed piece decode did not throw";
        } catch (const core::ModelFileError &e) {
            EXPECT_NE(std::string(e.what()).find("piece 0"),
                      std::string::npos);
        }
        // The fault did not poison the cache: the retry decodes.
        EXPECT_NO_THROW(m.piece(0));
    }
    EXPECT_EQ(m.decodedPieces(), 1u);
}

// -------------------------------------------- spill-tier injection

size_t
spillFileCount(const std::string &dir)
{
    size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".sedc")
            ++n;
    return n;
}

TEST_F(SpillInjection, WriteFaultNeverFailsTheComputation)
{
    const test::TempPath dir("se_fp_spill_write");
    runtime::DecompCache cache(
        runtime::DecompCacheOptions{4, dir.path});
    Rng rng(21);
    Tensor w0 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w1 = randn({8, 4}, rng, 0.0f, 0.1f);
    core::SeOptions opts;

    failpoint::ScopedArm arm("decomp_spill_write", "once");
    EXPECT_NO_THROW(cache.getOrCompute(w0, opts));
    EXPECT_EQ(cache.spillFailures(), 1u);
    EXPECT_EQ(cache.spills(), 0u);
    EXPECT_EQ(spillFileCount(dir.path), 0u);

    cache.getOrCompute(w1, opts);  // `once` spent: this one spills
    EXPECT_EQ(cache.spills(), 1u);
    EXPECT_EQ(spillFileCount(dir.path), 1u);
}

TEST_F(SpillInjection, CommitFaultLeavesOnlyATempFileToSweep)
{
    const test::TempPath dir("se_fp_spill_commit");
    Rng rng(22);
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    core::SeOptions opts;
    core::SeMatrix computed;
    {
        runtime::DecompCache cache(
            runtime::DecompCacheOptions{4, dir.path});
        // Kill the process between temp-write and rename — the
        // failpoint models the crash without actually dying.
        failpoint::ScopedArm arm("decomp_spill_commit", "once");
        computed = cache.getOrCompute(w, opts);
        EXPECT_EQ(cache.spillFailures(), 1u);
        EXPECT_EQ(spillFileCount(dir.path), 0u);
        size_t temps = 0;
        for (const auto &e : fs::directory_iterator(dir.path))
            if (e.path().string().find(".tmp") != std::string::npos)
                ++temps;
        EXPECT_EQ(temps, 1u);
    }
    // "Restart": the recovery scan at construction sweeps the orphan
    // temp, and the entry is simply a miss to recompute.
    runtime::DecompCache recovered(
        runtime::DecompCacheOptions{4, dir.path});
    EXPECT_EQ(recovered.recoverScan(), 0u);
    for (const auto &e : fs::directory_iterator(dir.path))
        EXPECT_EQ(e.path().string().find(".tmp"), std::string::npos);
    const auto again = recovered.getOrCompute(w, opts);
    EXPECT_EQ(recovered.diskHits(), 0u);
    ASSERT_EQ(again.ce.size(), computed.ce.size());
    EXPECT_EQ(std::memcmp(again.ce.data(), computed.ce.data(),
                          (size_t)again.ce.size() * sizeof(float)),
              0);
}

TEST_F(SpillInjection, ReadFaultIsAMissAndDropsTheEntry)
{
    const test::TempPath dir("se_fp_spill_read");
    Rng rng(23);
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    core::SeOptions opts;
    {
        runtime::DecompCache writer(
            runtime::DecompCacheOptions{4, dir.path});
        writer.getOrCompute(w, opts);
        EXPECT_EQ(spillFileCount(dir.path), 1u);
    }
    runtime::DecompCache reader(
        runtime::DecompCacheOptions{4, dir.path});
    failpoint::ScopedArm arm("decomp_spill_read", "once");
    core::SeMatrix out;
    EXPECT_FALSE(reader.lookup(runtime::decompKey(w, opts), out));
    EXPECT_EQ(reader.corruptDropped(), 1u);
    // An unreadable entry is dropped so the next writer re-creates
    // it cleanly.
    EXPECT_EQ(spillFileCount(dir.path), 0u);
}

// ------------------------------------------------- serve injection

TEST_F(ServeInjection, BatchExecFaultFailsFuturesNotTheEngine)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto net = makeTinyCnn(31);
    auto compressed =
        core::compressToRecords(*net, se_opts, apply_opts);
    auto records =
        std::make_shared<std::vector<core::SeLayerRecord>>(
            std::move(compressed.records));
    serve::ServeOptions opts;
    opts.threads = 0;
    serve::ServeEngine engine(records, [] { return makeTinyCnn(31); },
                              se_opts, apply_opts, opts);

    failpoint::ScopedArm arm("serve_batch_exec", "once");
    auto bad = engine.submit(tinyInput(1));
    engine.drain();
    EXPECT_THROW(bad.get(), failpoint::InjectedFault);
    EXPECT_EQ(engine.stats().failed, 1u);

    // The engine survives its faulted batch and keeps serving.
    auto good = engine.submit(tinyInput(2));
    engine.drain();
    EXPECT_NO_THROW(good.get());
    EXPECT_EQ(engine.stats().requests, 1u);
}

TEST_F(ServeInjection, FirstTouchFaultQuarantinesOnlyThatModel)
{
    const test::TempPath file_a("se_fp_quarantine_a.sexm");
    const std::string &path_a = file_a.path;
    const test::TempPath file_b("se_fp_quarantine_b.sexm");
    const std::string &path_b = file_b.path;
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto ref_a = shipTinyV4(41, path_a, se_opts, apply_opts);
    auto ref_b = shipTinyV4(42, path_b, se_opts, apply_opts);

    serve::ModelRegistry reg;
    reg.add("a", serve::makeModelEntry(
                     std::make_shared<core::StreamedModel>(path_a),
                     [] { return makeTinyCnn(41); }, se_opts,
                     apply_opts));
    reg.add("b", serve::makeModelEntry(
                     std::make_shared<core::StreamedModel>(path_b),
                     [] { return makeTinyCnn(42); }, se_opts,
                     apply_opts));
    serve::ServeOptions opts;
    opts.threads = 0;
    serve::ServeFront front(reg, opts);

    {
        failpoint::ScopedArm arm("serve_engine_build", "once");
        EXPECT_THROW(front.submit("a", tinyInput(3)),
                     serve::ModelUnhealthyError);
    }
    EXPECT_EQ(front.health("a"), serve::ModelHealth::Unhealthy);
    EXPECT_FALSE(front.engineBuilt("a"));
    EXPECT_EQ(front.generation("a"), 0u);
    // The fault is confined: submits to 'a' keep refusing with the
    // typed error, while 'b' builds and serves bit-identically.
    EXPECT_THROW(front.submit("a", tinyInput(3)),
                 serve::ModelUnhealthyError);
    auto fut = front.submit("b", tinyInput(4));
    front.drain();
    Tensor got = fut.get();
    Tensor want = ref_b->forward(tinyInput(4), false);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          (size_t)got.size() * sizeof(float)),
              0);
    EXPECT_EQ(front.health("b"), serve::ModelHealth::Healthy);

    // A successful reload recovers the quarantined model.
    front.reloadModel(
        "a", serve::makeModelEntry(
                 std::make_shared<core::StreamedModel>(path_a),
                 [] { return makeTinyCnn(41); }, se_opts, apply_opts));
    EXPECT_EQ(front.health("a"), serve::ModelHealth::Healthy);
    EXPECT_EQ(front.generation("a"), 1u);
    auto healed = front.submit("a", tinyInput(5));
    front.drain();
    Tensor got_a = healed.get();
    Tensor want_a = ref_a->forward(tinyInput(5), false);
    EXPECT_EQ(std::memcmp(got_a.data(), want_a.data(),
                          (size_t)got_a.size() * sizeof(float)),
              0);
    front.stop();
}

TEST_F(ServeInjection, ReloadFaultWithFallbackKeepsPreviousGeneration)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto net = makeTinyCnn(51);
    auto compressed =
        core::compressToRecords(*net, se_opts, apply_opts);
    serve::ModelRegistry reg;
    reg.add("m", serve::makeModelEntry(compressed.bundle(),
                                       [] { return makeTinyCnn(51); },
                                       se_opts, apply_opts));
    serve::ServeOptions opts;
    opts.threads = 0;
    opts.reloadFallback = true;
    serve::ServeFront front(reg, opts);
    EXPECT_EQ(front.generation("m"), 1u);

    auto next = core::compressToRecords(*makeTinyCnn(52), se_opts,
                                        apply_opts);
    {
        failpoint::ScopedArm arm("serve_engine_build", "once");
        EXPECT_THROW(
            front.reloadModel(
                "m", serve::makeModelEntry(
                         next.bundle(),
                         [] { return makeTinyCnn(52); }, se_opts,
                         apply_opts)),
            failpoint::InjectedFault);
    }
    // Generation 1 absorbed the failed reload and keeps serving.
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Healthy);
    EXPECT_EQ(front.generation("m"), 1u);
    EXPECT_EQ(front.reloadFallbacks("m"), 1u);
    auto fut = front.submit("m", tinyInput(6));
    front.drain();
    Tensor got = fut.get();
    Tensor want = net->forward(tinyInput(6), false);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          (size_t)got.size() * sizeof(float)),
              0);
    front.stop();
}

TEST_F(ServeInjection, ReloadFaultWithoutFallbackQuarantines)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto net51 = makeTinyCnn(51);
    auto compressed =
        core::compressToRecords(*net51, se_opts, apply_opts);
    serve::ModelRegistry reg;
    reg.add("m", serve::makeModelEntry(compressed.bundle(),
                                       [] { return makeTinyCnn(51); },
                                       se_opts, apply_opts));
    serve::ServeOptions opts;
    opts.threads = 0;
    serve::ServeFront front(reg, opts);

    // Some traffic on generation 1, so retired stats must merge.
    auto pre = front.submit("m", tinyInput(7));
    front.drain();
    pre.get();

    auto net52 = makeTinyCnn(52);
    auto next =
        core::compressToRecords(*net52, se_opts, apply_opts);
    {
        failpoint::ScopedArm arm("serve_engine_build", "once");
        EXPECT_THROW(
            front.reloadModel(
                "m", serve::makeModelEntry(
                         next.bundle(),
                         [] { return makeTinyCnn(52); }, se_opts,
                         apply_opts)),
            failpoint::InjectedFault);
    }
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Unhealthy);
    EXPECT_THROW(front.submit("m", tinyInput(8)),
                 serve::ModelUnhealthyError);
    // Generation 1's counters survived its retirement.
    EXPECT_EQ(front.stats("m").requests, 1u);

    // The next (clean) reload recovers and serves the new bundle.
    front.reloadModel(
        "m", serve::makeModelEntry(next.bundle(),
                                   [] { return makeTinyCnn(52); },
                                   se_opts, apply_opts));
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Healthy);
    EXPECT_EQ(front.generation("m"), 2u);
    auto fut = front.submit("m", tinyInput(9));
    front.drain();
    Tensor got = fut.get();
    Tensor want = net52->forward(tinyInput(9), false);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          (size_t)got.size() * sizeof(float)),
              0);
    EXPECT_EQ(front.stats("m").requests, 2u);
    front.stop();
}

} // namespace
} // namespace se
