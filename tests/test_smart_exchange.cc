/**
 * @file
 * Tests of the SmartExchange decomposition (Algorithm 1): structural
 * invariants of the output (power-of-2 membership, vector sparsity),
 * reconstruction quality, the Fig. 9 evolution trace, and property
 * sweeps over matrix sizes and sparsity thresholds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "base/hash.hh"
#include "base/random.hh"
#include "core/apply.hh"
#include "core/smart_exchange.hh"
#include "kernels/dispatch.hh"
#include "kernels/gemm.hh"
#include "models/zoo.hh"

namespace se {
namespace {

using core::decomposeMatrix;
using core::SeMatrix;
using core::SeOptions;
using core::SeTrace;

Tensor
randomWeight(int64_t m, int64_t n, uint64_t seed)
{
    Rng rng(seed);
    return randn({m, n}, rng, 0.0f, 0.1f);
}

TEST(SmartExchange, CeEntriesArePowersOfTwo)
{
    Tensor w = randomWeight(48, 3, 1);
    SeOptions opts;
    SeMatrix se = decomposeMatrix(w, opts);
    for (int64_t i = 0; i < se.ce.size(); ++i)
        EXPECT_TRUE(se.alphabet.contains(se.ce[i]))
            << "Ce entry " << se.ce[i] << " not in Omega_P";
}

TEST(SmartExchange, ReconstructionErrorIsModest)
{
    Tensor w = randomWeight(96, 3, 2);
    SeOptions opts;
    SeMatrix se = decomposeMatrix(w, opts);
    // Random matrices are the worst case; structured (trained) weights
    // do better. Even so the relative error stays bounded.
    EXPECT_LT(se.reconRelError, 0.6);
    EXPECT_GT(se.reconRelError, 0.0);
}

TEST(SmartExchange, ExactlyRepresentableMatrixHasTinyError)
{
    // W = Ce * B with power-of-2 Ce must reconstruct almost exactly.
    Rng rng(3);
    Tensor ce({30, 3});
    for (int64_t i = 0; i < ce.size(); ++i) {
        const int p = (int)rng.integer(-3, 0);
        const float sign = rng.chance(0.5) ? 1.0f : -1.0f;
        ce[i] = rng.chance(0.3) ? 0.0f
                                : sign * std::ldexp(1.0f, p);
    }
    Tensor b = randn({3, 3}, rng, 0.0f, 0.5f);
    for (int64_t i = 0; i < 3; ++i)
        b.at(i, i) += 1.0f;
    Tensor w = kernels::gemm(ce, b);
    SeOptions opts;
    opts.vectorThreshold = 0.0;  // don't prune anything
    SeMatrix se = decomposeMatrix(w, opts);
    // Column normalization perturbs the exact power-of-2 structure,
    // so the error is not exactly zero — but it must sit far below
    // the ~0.4-0.6 error of an unstructured random matrix.
    EXPECT_LT(se.reconRelError, 0.25);
}

TEST(SmartExchange, VectorSparsityRespondsToThreshold)
{
    Tensor w = randomWeight(128, 3, 4);
    SeOptions loose, tight;
    loose.vectorThreshold = 1e-4;
    tight.vectorThreshold = 0.08;
    SeMatrix se_loose = decomposeMatrix(w, loose);
    SeMatrix se_tight = decomposeMatrix(w, tight);
    EXPECT_GE(se_tight.vectorSparsity(), se_loose.vectorSparsity());
    EXPECT_GT(se_tight.vectorSparsity(), 0.0);
}

TEST(SmartExchange, MinVectorSparsityFloorIsHonoured)
{
    Tensor w = randomWeight(100, 3, 5);
    SeOptions opts;
    opts.vectorThreshold = 0.0;
    opts.minVectorSparsity = 0.4;
    SeMatrix se = decomposeMatrix(w, opts);
    EXPECT_GE(se.vectorSparsity(), 0.4 - 1e-9);
}

TEST(SmartExchange, ZeroRowsStayZeroInReconstruction)
{
    Tensor w = randomWeight(64, 3, 6);
    SeOptions opts;
    opts.minVectorSparsity = 0.3;
    SeMatrix se = decomposeMatrix(w, opts);
    Tensor rec = se.reconstruct();
    for (int64_t i = 0; i < se.ce.dim(0); ++i) {
        bool zero_row = true;
        for (int64_t j = 0; j < se.ce.dim(1); ++j)
            zero_row &= se.ce.at(i, j) == 0.0f;
        if (zero_row) {
            for (int64_t j = 0; j < rec.dim(1); ++j)
                EXPECT_FLOAT_EQ(rec.at(i, j), 0.0f);
        }
    }
}

TEST(SmartExchange, ElementSparsityAtLeastVectorSparsity)
{
    Tensor w = randomWeight(80, 3, 7);
    SeOptions opts;
    opts.minVectorSparsity = 0.25;
    SeMatrix se = decomposeMatrix(w, opts);
    EXPECT_GE(se.elementSparsity(), se.vectorSparsity() - 1e-9);
}

TEST(SmartExchange, StorageAccountingMatchesDefinition)
{
    Tensor w = randomWeight(50, 3, 8);
    SeOptions opts;
    opts.minVectorSparsity = 0.4;
    SeMatrix se = decomposeMatrix(w, opts);
    const int64_t m = 50, r = 3;
    const int64_t nz_rows =
        m - (int64_t)std::llround(se.vectorSparsity() * m);
    EXPECT_EQ(se.ceStorageBits(4), m + nz_rows * r * 4);
    EXPECT_EQ(se.basisStorageBits(8), r * 3 * 8);
}

TEST(SmartExchange, TraceTracksEvolution)
{
    // Reproduces the Fig. 9 shape: sparsity rises early (error bumps
    // up), then fitting remedies the error while keeping sparsity;
    // B drifts away from identity.
    Tensor w = randomWeight(192, 3, 9);
    SeOptions opts;
    opts.vectorThreshold = 0.02;
    opts.maxIterations = 20;
    SeTrace trace;
    decomposeMatrix(w, opts, &trace);
    ASSERT_GE(trace.reconError.size(), 3u);
    // B must end away from its identity initialization.
    EXPECT_GT(trace.basisDrift.back(), 0.01);
    // Sparsity is monotone non-decreasing (monotone pruning).
    for (size_t i = 1; i < trace.vectorSparsity.size(); ++i)
        EXPECT_GE(trace.vectorSparsity[i],
                  trace.vectorSparsity[i - 1] - 1e-9);
}

TEST(SmartExchange, ConvergesWithinIterationCap)
{
    Tensor w = randomWeight(64, 3, 10);
    SeOptions opts;
    opts.maxIterations = 30;
    // tol = 0 never fires (delta >= 0), so the count is the cap, also
    // when the loop stops early at a fixed point.
    opts.tol = 0.0;
    SeTrace trace;
    SeMatrix se = decomposeMatrix(w, opts, &trace);
    EXPECT_EQ(se.iterations, opts.maxIterations);
    EXPECT_EQ(trace.reconError.size(), (size_t)opts.maxIterations + 1);
    // A tol that fires at once keeps its own count, and no fixed
    // point is reported past it.
    opts.tol = 1e30;
    SeTrace early;
    se = decomposeMatrix(w, opts, &early);
    EXPECT_EQ(se.iterations, 1);
    EXPECT_EQ(early.fixedPointAt, 0);
    EXPECT_EQ(early.reconError.size(), 2u);
}

TEST(SmartExchange, RejectsWideMatrices)
{
    Tensor w({3, 10});
    EXPECT_DEATH(decomposeMatrix(w, SeOptions{}), "tall");
}

TEST(SmartExchange, RejectsNonFiniteWeights)
{
    // A NaN or Inf would otherwise surface far away, as a "not
    // positive definite" Cholesky failure; it must be named at entry.
    for (float bad : {std::nanf(""), INFINITY, -INFINITY}) {
        Tensor w = randomWeight(12, 3, 12);
        w.at(7, 2) = bad;
        EXPECT_DEATH(decomposeMatrix(w, SeOptions{}),
                     "non-finite .* at \\(7, 2\\)");
    }
}

TEST(SmartExchange, CoefBitsControlAlphabetSize)
{
    Tensor w = randomWeight(60, 3, 11);
    SeOptions opts3, opts6;
    opts3.coefBits = 3;
    opts6.coefBits = 6;
    SeMatrix a = decomposeMatrix(w, opts3);
    SeMatrix b = decomposeMatrix(w, opts6);
    EXPECT_EQ(a.alphabet.numLevels, 3);
    EXPECT_EQ(b.alphabet.numLevels, 31);
    // More exponent levels => at most equal reconstruction error.
    EXPECT_LE(b.reconRelError, a.reconRelError + 0.05);
}

/** Property sweep across matrix geometries (kernel sizes 3/5/7). */
struct GeomParam
{
    int64_t m, n;
};

class GeometrySweep
    : public ::testing::TestWithParam<GeomParam>
{
};

TEST_P(GeometrySweep, InvariantsHoldForAllGeometries)
{
    const auto [m, n] = GetParam();
    Tensor w = randomWeight(m, n, (uint64_t)(m * 131 + n));
    SeOptions opts;
    opts.vectorThreshold = 0.01;
    SeMatrix se = decomposeMatrix(w, opts);
    EXPECT_EQ(se.ce.dim(0), m);
    EXPECT_EQ(se.ce.dim(1), n);
    EXPECT_EQ(se.basis.dim(0), n);
    EXPECT_EQ(se.basis.dim(1), n);
    for (int64_t i = 0; i < se.ce.size(); ++i)
        EXPECT_TRUE(se.alphabet.contains(se.ce[i]));
    EXPECT_LT(se.reconRelError, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(GeomParam{9, 3}, GeomParam{48, 3},
                      GeomParam{192, 3}, GeomParam{25, 5},
                      GeomParam{175, 5}, GeomParam{49, 7},
                      GeomParam{196, 4}, GeomParam{512, 3}));

/**
 * Digest wall: decomposeMatrix must keep producing the same bytes —
 * Ce, B, the alphabet, the iteration count, reconRelError and the
 * Fig. 9 trace — for a fixed corpus, under every compiled kernel
 * ISA. The corpus is every planCompression unit of VGG19-sim and
 * VGG11-sim (base width 12, 8x8 inputs) plus random m x n shapes with
 * n in 1..8; the option variant cycles coefBits 2..6, refineOnSupport
 * on/off, three vector thresholds and a sparsity floor. The expected
 * digest was recorded before the decomposition loop was rewritten
 * for speed, so any rounding change in the loop shows up here.
 */
core::SeOptions
digestVariant(size_t i)
{
    static const double kThetas[] = {4e-3, 0.01, 0.2};
    core::SeOptions o;
    o.coefBits = 2 + (int)(i % 5);
    o.refineOnSupport = (i / 5) % 2 == 1;
    o.vectorThreshold = kThetas[i % 3];
    o.minVectorSparsity = i % 7 == 3 ? 0.3 : 0.0;
    return o;
}

uint64_t
hashDoubles(const std::vector<double> &v, uint64_t h)
{
    return v.empty() ? h : fnv1a(v.data(), v.size() * sizeof(double), h);
}

uint64_t
hashDecomposition(const SeMatrix &se, uint64_t h)
{
    h = hashTensor(se.ce, h);
    h = hashTensor(se.basis, h);
    h = hashValue(se.alphabet.expMax, h);
    h = hashValue(se.alphabet.numLevels, h);
    h = hashValue(se.iterations, h);
    return hashValue(se.reconRelError, h);
}

std::vector<Tensor>
digestCorpus()
{
    std::vector<Tensor> corpus;
    for (models::ModelId id :
         {models::ModelId::VGG19, models::ModelId::VGG11}) {
        models::SimConfig cfg;
        cfg.baseWidth = 12;
        cfg.inHeight = cfg.inWidth = 8;
        cfg.seed = 1000 + (uint64_t)id;
        auto net = models::buildSim(id, cfg);
        core::CompressionPlan plan =
            core::planCompression(*net, SeOptions{}, core::ApplyOptions{});
        for (const core::DecompUnit &u : plan.units)
            corpus.push_back(u.matrix);
    }
    Rng rng(2024);
    for (int64_t n = 1; n <= 8; ++n)
        for (int64_t m : {n, n + 1, 3 * n + 2, (int64_t)41, (int64_t)150})
            corpus.push_back(randn({m, n}, rng, 0.0f, 0.1f));
    return corpus;
}

uint64_t
corpusDigest(const std::vector<Tensor> &corpus,
             SeOptions (*variant)(size_t) = digestVariant)
{
    uint64_t h = kFnvOffsetBasis;
    for (size_t i = 0; i < corpus.size(); ++i) {
        const SeOptions opts = variant(i);
        // Trace every fourth run so the Fig. 9 bookkeeping is pinned
        // too without paying for it on the whole corpus.
        SeTrace trace;
        const SeMatrix se =
            decomposeMatrix(corpus[i], opts, i % 4 == 0 ? &trace : nullptr);
        h = hashDecomposition(se, h);
        h = hashDoubles(trace.reconError, h);
        h = hashDoubles(trace.vectorSparsity, h);
        h = hashDoubles(trace.basisDrift, h);
    }
    return h;
}

TEST(SmartExchange, DecompositionDigestIsPinnedUnderEveryIsa)
{
    const std::vector<Tensor> corpus = digestCorpus();
    ASSERT_GT(corpus.size(), 200u);
    const kernels::KernelIsa prev = kernels::activeIsa();
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        kernels::setActiveIsa(isa);
        EXPECT_EQ(corpusDigest(corpus), 14218884675328427468ULL)
            << "decomposeMatrix output moved under "
            << kernels::isaName(isa);
    }
    kernels::setActiveIsa(prev);
}

/**
 * The benchmark's operating point (perfbench's compress workload):
 * theta = 0.01, a 0.5 vector-sparsity floor, 4-bit coefficients. At
 * least half of every Ce is pruned after the first iteration, so this
 * is where the loop's live-row skipping does the most; the variant
 * corpus above never uses the 0.5 floor.
 */
SeOptions
operatingPoint(size_t)
{
    SeOptions o;
    o.coefBits = 4;
    o.vectorThreshold = 0.01;
    o.minVectorSparsity = 0.5;
    return o;
}

TEST(SmartExchange, OperatingPointDigestIsPinnedUnderEveryIsa)
{
    const std::vector<Tensor> corpus = digestCorpus();
    const kernels::KernelIsa prev = kernels::activeIsa();
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        kernels::setActiveIsa(isa);
        EXPECT_EQ(corpusDigest(corpus, operatingPoint), 3971067058372082819ULL)
            << "decomposeMatrix output moved under "
            << kernels::isaName(isa);
    }
    kernels::setActiveIsa(prev);
}

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           !std::memcmp(a.data(), b.data(), (size_t)a.size() * sizeof(float));
}

/**
 * The fixed-point exit must not be observable in the output. Over the
 * operating-point corpus, wherever the loop stopped early, the count
 * is still the cap, every trace series is padded with its last entry
 * to the full loop's length, and running exactly fixedPointAt
 * iterations concludes on the same bytes. Whether the exit fires only
 * at a real fixed point is the digests' job above: an exit on a state
 * that does not yet repeat moves Ce.
 */
TEST(SmartExchange, FixedPointExitIsInvisible)
{
    const std::vector<Tensor> corpus = digestCorpus();
    size_t stopped = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
        SeOptions opts = operatingPoint(i);
        SeTrace trace;
        const SeMatrix full = decomposeMatrix(corpus[i], opts, &trace);
        const int at = trace.fixedPointAt;
        // One entry per counted iteration plus the conclusion's; a
        // few tiny units end early on tol, with no fixed point.
        const size_t len = (size_t)full.iterations + 1;
        for (const std::vector<double> *series :
             {&trace.reconError, &trace.vectorSparsity, &trace.basisDrift,
              &trace.liveRows})
            ASSERT_EQ(series->size(), len) << "unit " << i;
        ASSERT_GE(at, 0);
        ASSERT_LE(at, opts.maxIterations);
        if (at == 0)
            continue;
        ++stopped;
        ASSERT_EQ(full.iterations, opts.maxIterations) << "unit " << i;
        for (const std::vector<double> *series :
             {&trace.reconError, &trace.vectorSparsity, &trace.basisDrift,
              &trace.liveRows})
            for (size_t k = (size_t)at; k + 1 < len; ++k)
                ASSERT_EQ(std::memcmp(&(*series)[k], &(*series)[at - 1],
                                      sizeof(double)),
                          0)
                    << "unit " << i << ", trace entry " << k;

        opts.maxIterations = at;
        const SeMatrix cut = decomposeMatrix(corpus[i], opts);
        EXPECT_TRUE(sameBytes(cut.ce, full.ce)) << "unit " << i;
        EXPECT_TRUE(sameBytes(cut.basis, full.basis)) << "unit " << i;
        EXPECT_EQ(cut.alphabet.expMax, full.alphabet.expMax);
        EXPECT_EQ(cut.alphabet.numLevels, full.alphabet.numLevels);
        EXPECT_EQ(std::memcmp(&cut.reconRelError, &full.reconRelError,
                              sizeof(double)),
                  0)
            << "unit " << i;
    }
    // The wall only bites if the exit fires on most of the corpus.
    EXPECT_GT(stopped, corpus.size() / 2);
}

} // namespace
} // namespace se
