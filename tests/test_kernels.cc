/**
 * @file
 * Differential tests of the se::kernels layer against the legacy
 * loops in tests/reference.
 *
 * The load-bearing invariant is bit-exactness of the GEMM lowerings
 * (conv/linear forward, linear backward, matmul, the fused Ce GEMM):
 * the golden benches run on them, so "agrees with the reference loop
 * to the last bit" is exactly "goldens cannot move".
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "core/model_file.hh"
#include "kernels/ce_gemm.hh"
#include "kernels/conv.hh"
#include "kernels/dispatch.hh"
#include "kernels/gemm.hh"
#include "kernels/kernels.hh"
#include "kernels/scratch.hh"
#include "linalg/linalg.hh"
#include "models/zoo.hh"
#include "nn/layers.hh"
#include "reference/reference.hh"

namespace {

using namespace se;

/** Force one micro-kernel ISA for a scope, restoring the previous. */
class ScopedIsa
{
  public:
    explicit ScopedIsa(kernels::KernelIsa isa)
        : prev_(kernels::activeIsa())
    {
        kernels::setActiveIsa(isa);
    }
    ~ScopedIsa() { kernels::setActiveIsa(prev_); }

  private:
    kernels::KernelIsa prev_;
};

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       (size_t)a.size() * sizeof(float)) == 0;
}

/** The reference conv forward over a layer's own parameters. */
Tensor
referenceConv(nn::Conv2d &conv, const Tensor &x)
{
    const kernels::ConvSpec spec{conv.inChannels(), conv.outChannels(),
                                 conv.kernelSize(), conv.strideLen(),
                                 conv.padLen(),     conv.groupCount(),
                                 conv.dilationLen()};
    const Tensor &bias = conv.biasTensor();
    return reference::conv2dForward(x, conv.weightTensor(),
                                    bias.empty() ? nullptr : &bias, spec);
}

/** The reference Linear forward over a layer's own parameters. */
Tensor
referenceLinear(nn::Linear &fc, const Tensor &x)
{
    const Tensor &bias = fc.biasTensor();
    return reference::linearForward(x, fc.weightTensor(),
                                    bias.empty() ? nullptr : &bias);
}

// ------------------------------------------------------------- GEMM

TEST(Kernels, GemmMatchesReferenceBitExact)
{
    Rng rng(101);
    // Shapes straddle the register tile (8), the remainder paths and
    // the parallel-dispatch threshold.
    const std::vector<std::vector<int64_t>> shapes{
        {1, 1, 1},  {1, 7, 1},   {5, 1, 9},   {17, 23, 9},
        {8, 8, 8},  {33, 15, 1}, {64, 64, 64}, {96, 96, 96},
    };
    for (const auto &s : shapes) {
        Tensor a = randn({s[0], s[1]}, rng);
        Tensor b = randn({s[1], s[2]}, rng);
        EXPECT_TRUE(bitEqual(reference::matmul(a, b),
                             kernels::gemm(a, b)))
            << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(Kernels, GemmAdversarialShapes)
{
    Rng rng(102);
    // k = 0: no accumulation at all, output must be exactly zero.
    Tensor a0({3, 0});
    Tensor b0({0, 4});
    Tensor c0 = kernels::gemm(a0, b0);
    ASSERT_EQ(c0.dim(0), 3);
    ASSERT_EQ(c0.dim(1), 4);
    for (int64_t i = 0; i < c0.size(); ++i)
        EXPECT_EQ(c0[i], 0.0f);

    // 1xN and Nx1 degenerate panels.
    Tensor row = randn({1, 129}, rng);
    Tensor colv = randn({129, 1}, rng);
    EXPECT_TRUE(bitEqual(reference::matmul(row, colv),
                         kernels::gemm(row, colv)));
    EXPECT_TRUE(bitEqual(reference::matmul(colv, row),
                         kernels::gemm(colv, row)));
}

TEST(Kernels, GemmSparseInputsKeepZeroSkipSemantics)
{
    Rng rng(103);
    Tensor a = randn({31, 45}, rng);
    Tensor b = randn({45, 27}, rng);
    // SmartExchange Ce matrices are row-sparse; the blocked kernel
    // must keep the legacy zero-skip byte-compatible.
    for (int64_t i = 0; i < a.size(); i += 3)
        a[i] = 0.0f;
    EXPECT_TRUE(bitEqual(reference::matmul(a, b), kernels::gemm(a, b)));
}

TEST(Kernels, GemmThreadCountInvariant)
{
    Rng rng(105);
    // Big enough to clear the parallel threshold.
    Tensor a = randn({96, 96}, rng);
    Tensor b = randn({96, 96}, rng);
    Tensor serial;
    {
        kernels::SerialScope inline_only;
        serial = kernels::gemm(a, b);
    }
    Tensor threaded = kernels::gemm(a, b);  // the executor's width
    EXPECT_TRUE(bitEqual(serial, threaded));
}

// ------------------------------------------------------------- Conv2d

struct ConvCfg
{
    int64_t c, m, k, stride, pad, dil, groups, h, w, batch;
};

std::vector<ConvCfg>
convSweep()
{
    // stride x pad x dil x groups x kernel over non-square inputs,
    // skipping geometrically invalid combinations.
    std::vector<ConvCfg> out;
    const int64_t c = 6, m = 12;
    for (int64_t k : {1, 3, 7})
        for (int64_t stride : {1, 2})
            for (int64_t pad : {0, 1, 3})
                for (int64_t dil : {1, 2})
                    for (int64_t groups : {(int64_t)1, c}) {
                        const int64_t h = 11, w = 9;
                        const int64_t kext = dil * (k - 1) + 1;
                        if (h + 2 * pad < kext || w + 2 * pad < kext)
                            continue;
                        out.push_back({c, m, k, stride, pad, dil,
                                       groups, h, w, 2});
                    }
    // VGG19-sim's last stage: 3x3 on 2x2 maps, so each per-image
    // GEMM has n = 4 columns (the AVX2 single-YMM stage).
    out.push_back({48, 48, 3, 1, 1, 1, 1, 2, 2, 8});
    return out;
}

TEST(Kernels, ConvForwardSweepFastVsNaive)
{
    int checked = 0;
    for (const ConvCfg &cfg : convSweep()) {
        Rng rng(200 + checked);
        nn::Conv2d conv(cfg.c, cfg.m, cfg.k, cfg.stride, cfg.pad,
                        cfg.groups, rng, /*bias=*/true, cfg.dil);
        Tensor x = randn({cfg.batch, cfg.c, cfg.h, cfg.w}, rng);

        const Tensor y_naive = referenceConv(conv, x);
        for (kernels::KernelIsa isa : kernels::supportedIsas()) {
            ScopedIsa forced(isa);
            // Exact, not merely close: exactness is what keeps the
            // golden benches byte-stable.
            EXPECT_TRUE(bitEqual(y_naive, conv.forward(x, false)))
                << kernels::isaName(isa) << " k=" << cfg.k
                << " stride=" << cfg.stride << " pad=" << cfg.pad
                << " dil=" << cfg.dil << " groups=" << cfg.groups
                << " " << cfg.h << "x" << cfg.w << " batch "
                << cfg.batch;
        }
        ++checked;
    }
    EXPECT_GT(checked, 30);  // the sweep really swept
}

TEST(Kernels, ConvForwardThreadCountInvariant)
{
    Rng rng(42);
    nn::Conv2d conv(16, 32, 3, 1, 1, 1, rng);
    Tensor x = randn({2, 16, 24, 24}, rng);
    Tensor serial;
    {
        kernels::SerialScope inline_only;
        serial = conv.forward(x, false);
    }
    Tensor threaded = conv.forward(x, false);
    EXPECT_TRUE(bitEqual(serial, threaded));
}

TEST(Kernels, ScratchArenaGrowOnlyAndRelease)
{
    kernels::ScratchArena arena;
    EXPECT_EQ(arena.floatsReserved(), 0u);
    float *p = arena.buffer(100);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(arena.floatsReserved(), 100u);
    // Smaller requests reuse the existing block.
    EXPECT_EQ(arena.buffer(10), p);
    // Growth replaces the block at exactly the new need.
    arena.buffer(150);
    EXPECT_EQ(arena.floatsReserved(), 150u);
    arena.release();
    EXPECT_EQ(arena.floatsReserved(), 0u);
}

TEST(Kernels, ConvScratchArenaReuseIsStateless)
{
    // Repeated calls reuse the arena; a smaller input after a larger
    // one must not read stale bytes beyond its extent.
    Rng rng(43);
    nn::Conv2d conv(4, 8, 3, 1, 1, 1, rng);
    Tensor big = randn({1, 4, 20, 20}, rng);
    Tensor small = randn({1, 4, 7, 5}, rng);

    Tensor first_small = conv.forward(small, false);
    conv.forward(big, false);
    Tensor again_small = conv.forward(small, false);
    EXPECT_TRUE(bitEqual(first_small, again_small));
}

// ------------------------------------------- folded conv lowering

/**
 * Gaussian values salted with +-0 (30%) and +-Inf / NaN (1% each):
 * zeros reach the -0 bias path, non-finite values the NaN/Inf chains.
 * As in doubleChainOperand, the NaN is the hardware's own (Inf - Inf),
 * so only NaN placement is contract, not which NaN propagates.
 */
Tensor
saltedTensor(const Shape &shape, Rng &rng)
{
    volatile float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {0.0f, -0.0f, inf, -inf, inf - inf};
    Tensor t = randn(shape, rng);
    for (int64_t i = 0; i < t.size(); ++i) {
        const float u = rng.uniform();
        if (u < 0.15f)
            t[i] = specials[0];
        else if (u < 0.30f)
            t[i] = specials[1];
        else if (u < 0.33f)
            t[i] = specials[2 + rng.integer(0, 2)];
    }
    return t;
}

/** The conv's weights and bias, with +-0 weights and -0 biases. */
struct ConvParams
{
    Tensor w, bias;
};

ConvParams
convParams(const kernels::ConvSpec &sp, Rng &rng)
{
    ConvParams p;
    p.w = randn({sp.outCh, sp.inCh / sp.groups, sp.kern, sp.kern}, rng);
    for (int64_t i = 0; i < p.w.size(); ++i)
        if (rng.chance(0.1))
            p.w[i] = rng.chance(0.5) ? 0.0f : -0.0f;
    p.bias = randn({sp.outCh}, rng);
    for (int64_t m = 0; m < sp.outCh; m += 2)
        p.bias[m] = -0.0f;
    return p;
}

/** conv2dForwardGemm under every ISA, memcmp'd against the reference. */
void
expectFoldedMatchesReference(const Tensor &x, const ConvParams &p,
                             const kernels::ConvSpec &sp,
                             const std::string &what)
{
    const Tensor want = reference::conv2dForward(x, p.w, &p.bias, sp);
    const Tensor want_nobias =
        reference::conv2dForward(x, p.w, nullptr, sp);
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa forced(isa);
        EXPECT_TRUE(bitEqual(
            want, kernels::conv2dForwardGemm(x, p.w, &p.bias, sp)))
            << kernels::isaName(isa) << " " << what;
        EXPECT_TRUE(bitEqual(want_nobias, kernels::conv2dForwardGemm(
                                              x, p.w, nullptr, sp)))
            << kernels::isaName(isa) << " " << what << " (no bias)";
    }
}

TEST(Kernels, FoldedConvForwardWallAgainstReference)
{
    // Batches that leave a partial last chunk on every map size
    // (chunks of 64 columns: 64 samples of 1x1, 16 of 2x2, 4 of 4x4,
    // 1 of 8x8), across stride, dilation, depth-wise groups and pad.
    // Output widths 2, 4, 6 and 8 at stride 1 take the panel's direct
    // read of the padded input; widths 1, 7 and 9 and stride 2 take
    // the column matrix. Out-channel counts 1, 5, 7 and 13 leave every
    // row remainder of the 6-row AVX2 tile; a grouped geometry
    // multiplies a count that its groups do not divide by the group
    // count.
    struct Geo
    {
        int64_t k, stride, pad, dil, groups;
    };
    const int64_t c = 6;
    const Geo geos[] = {
        {3, 1, 1, 1, 1}, {3, 2, 1, 1, 1}, {3, 1, 3, 2, 1},
        {3, 1, 1, 1, c}, {1, 1, 0, 1, 1}, {3, 1, 0, 1, 1},
        {3, 2, 3, 2, 2},
    };
    const int64_t maps[][2] = {{1, 1}, {2, 2}, {4, 4}, {8, 8}, {11, 9}};
    int checked = 0;
    for (int64_t out_ch : {12, 1, 5, 7, 13})
        for (int64_t batch : {1, 2, 3, 5, 8, 17})
            for (const auto &hw : maps)
                for (const Geo &g : geos) {
                    const int64_t kext = g.dil * (g.k - 1) + 1;
                    if (hw[0] + 2 * g.pad < kext || hw[1] + 2 * g.pad < kext)
                        continue;
                    const int64_t m =
                        out_ch % g.groups == 0 ? out_ch : out_ch * g.groups;
                    const kernels::ConvSpec sp{c,     m,        g.k, g.stride,
                                               g.pad, g.groups, g.dil};
                    Rng rng(900 + checked);
                    const ConvParams p = convParams(sp, rng);
                    const Tensor x =
                        saltedTensor({batch, c, hw[0], hw[1]}, rng);
                    expectFoldedMatchesReference(
                        x, p, sp,
                        std::to_string(m) + " out, batch " +
                            std::to_string(batch) + " " +
                            std::to_string(hw[0]) + "x" +
                            std::to_string(hw[1]) + " k=" +
                            std::to_string(g.k) + " stride=" +
                            std::to_string(g.stride) + " pad=" +
                            std::to_string(g.pad) + " dil=" +
                            std::to_string(g.dil) + " groups=" +
                            std::to_string(g.groups));
                    ++checked;
                }
    EXPECT_GT(checked, 750);
    // The served model's 2x2-map conv at odd batches, where every row
    // block ends in a 4-column tail (4, 8 + 4 and 16 + 4 columns):
    // more out channels than one 12-row block, and a row remainder.
    for (int64_t out_ch : {24, 25})
        for (int64_t batch : {1, 3, 5}) {
            const kernels::ConvSpec sp{12, out_ch, 3, 1, 1, 1, 1};
            Rng rng(1900 + 10 * out_ch + batch);
            const ConvParams p = convParams(sp, rng);
            const Tensor x = saltedTensor({batch, 12, 2, 2}, rng);
            expectFoldedMatchesReference(
                x, p, sp,
                std::to_string(out_ch) + " out, batch " +
                    std::to_string(batch) + " 2x2");
        }
}

TEST(Kernels, FoldedConvArenaNeverLeaksStaleBytes)
{
    // The calling thread's arena is shared by every layer it runs:
    // one layer at alternating batch sizes, then two layers with
    // different pads, groups and map sizes interleaved, must each
    // match a fresh reference every call.
    Rng rng(911);
    nn::Conv2d a(6, 12, 3, 1, 1, 1, rng);
    nn::Conv2d b(6, 6, 3, 1, 0, 6, rng, /*bias=*/true, 2);
    for (Tensor *bias : {&a.biasTensor(), &b.biasTensor()})
        (*bias)[0] = -0.0f;
    int call = 0;
    for (int64_t batch : {8, 1, 17, 3, 8, 2}) {
        const Tensor x = saltedTensor({batch, 6, 4, 4}, rng);
        EXPECT_TRUE(bitEqual(referenceConv(a, x), a.forward(x, false)))
            << "alternating batch " << batch;
    }
    for (int64_t batch : {5, 17, 1, 8}) {
        const Tensor xa = saltedTensor({batch, 6, 2, 2}, rng);
        const Tensor xb = saltedTensor({batch + 1, 6, 8, 8}, rng);
        EXPECT_TRUE(bitEqual(referenceConv(a, xa), a.forward(xa, false)))
            << "interleaved a, call " << call;
        EXPECT_TRUE(bitEqual(referenceConv(b, xb), b.forward(xb, false)))
            << "interleaved b, call " << call;
        ++call;
    }
}

/** The perfbench serving model: VGG19-sim at base width 12 on 8x8. */
models::SimConfig
servedVgg19Config()
{
    models::SimConfig cfg;
    cfg.baseWidth = 12;
    cfg.inHeight = cfg.inWidth = 8;
    cfg.seed = 31;
    return cfg;
}

TEST(KernelsConcurrency, ParallelForwardsOnPerThreadArenasAreBitEqual)
{
    // Four threads run their own VGG19-sim forward at once, each on
    // its own arena; every output must equal the serial one. TSan
    // runs this under the concurrency label.
    const models::SimConfig cfg = servedVgg19Config();
    Rng rng(57);
    const Tensor x =
        randn({5, cfg.inChannels, cfg.inHeight, cfg.inWidth}, rng);
    const Tensor serial =
        models::buildSim(models::ModelId::VGG19, cfg)->forward(x, false);

    constexpr int kThreads = 4;
    std::vector<std::unique_ptr<nn::Sequential>> nets;
    for (int t = 0; t < kThreads; ++t)
        nets.push_back(models::buildSim(models::ModelId::VGG19, cfg));
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 10; ++rep)
                if (!bitEqual(serial, nets[(size_t)t]->forward(x, false)))
                    ++mismatches[(size_t)t];
        });
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[(size_t)t], 0) << "thread " << t;
}

TEST(KernelsConcurrency, ThreadArenaHoldsOnlyTheLargestConvChunk)
{
    // peak_rss guard: after a batch-8 VGG19-sim forward, a fresh
    // thread's arena holds no more than the largest single conv's
    // chunk (padded input + column matrix, the latter only for shapes
    // the panel cannot address directly), the most panel offsets and
    // the widest row block a panel widens to double (12 A rows on the
    // AVX-512 tier, 6 on AVX2), each block sized by its own largest
    // need, not the sum over the layers.
    const models::SimConfig cfg = servedVgg19Config();
    const int64_t n = 8;
    auto net = models::buildSim(models::ModelId::VGG19, cfg);
    Rng rng(58);
    const Tensor x =
        randn({n, cfg.inChannels, cfg.inHeight, cfg.inWidth}, rng);

    int64_t largest = 0, most_offsets = 0, widest = 0, sum = 0;
    int64_t h = cfg.inHeight, w = cfg.inWidth;
    for (size_t i = 0; i < net->size(); ++i) {
        nn::Layer *l = net->layer(i);
        if (auto *pool = dynamic_cast<nn::MaxPool2d *>(l)) {
            h = kernels::windowOutExtent(h, 0, pool->kernelSize(),
                                         pool->strideLen());
            w = kernels::windowOutExtent(w, 0, pool->kernelSize(),
                                         pool->strideLen());
        }
        auto *conv = dynamic_cast<nn::Conv2d *>(l);
        if (!conv)
            continue;
        const int64_t k = conv->kernelSize(), p = conv->padLen();
        const int64_t kext = conv->dilationLen() * (k - 1) + 1;
        const int64_t oh =
            kernels::windowOutExtent(h, p, kext, conv->strideLen());
        const int64_t ow =
            kernels::windowOutExtent(w, p, kext, conv->strideLen());
        const int64_t cols = oh * ow;
        const int64_t per = std::min(
            n, (kernels::kConvFoldCols + cols - 1) / cols);
        const int64_t patch =
            conv->inChannels() / conv->groupCount() * k * k;
        const bool direct = conv->strideLen() == 1 && ow % 2 == 0;
        const int64_t offsets =
            2 * (patch + (per * cols + 1) / 2 + per * cols);
        const int64_t need =
            (p > 0 ? per * conv->inChannels() * (h + 2 * p) * (w + 2 * p)
                   : 0) +
            (direct ? 0 : patch * per * cols);
        largest = std::max(largest, need);
        most_offsets = std::max(most_offsets, offsets);
        widest = std::max(widest, 2 * 12 * patch);
        sum += need + offsets + 2 * 12 * patch;
        h = oh;
        w = ow;
    }
    const int64_t bound = largest + most_offsets + widest;
    ASSERT_GT(largest, 0);
    ASSERT_LT(bound, sum);
    // No more than the arena held before the panel read the padded
    // input directly (padded input + column matrix + GEMM output).
    EXPECT_LE(bound, 21504);

    size_t reserved = 0;
    std::thread([&] {
        net->forward(x, false);
        reserved = kernels::threadScratch().floatsReserved();
    }).join();
    EXPECT_GT(reserved, 0u);
    EXPECT_LE(reserved, (size_t)bound);
}

// ------------------------------------------------------------- Linear

TEST(Kernels, LinearForwardBackwardBitExact)
{
    // Batch sizes on both sides of the transpose heuristic.
    for (int64_t batch : {(int64_t)1, (int64_t)2, (int64_t)16}) {
        Rng rng(500 + (int)batch), rng_x(77);
        nn::Linear fc(37, 19, rng);
        Tensor x = randn({batch, 37}, rng_x);

        const Tensor y = fc.forward(x, true);
        EXPECT_TRUE(bitEqual(referenceLinear(fc, x), y))
            << "batch " << batch;
        const Tensor gy = randn(y.shape(), rng_x);
        const Tensor gx = fc.backward(gy);

        Tensor grad_w(fc.weightTensor().shape());
        Tensor grad_b(fc.biasTensor().shape());
        const Tensor gx_ref = reference::linearBackward(
            x, fc.weightTensor(), gy, grad_w, &grad_b);
        EXPECT_TRUE(bitEqual(gx_ref, gx)) << "batch " << batch;
        const auto p = fc.params();
        ASSERT_EQ(p.size(), 2u);
        EXPECT_TRUE(bitEqual(grad_w, *p[0].grad)) << "batch " << batch;
        EXPECT_TRUE(bitEqual(grad_b, *p[1].grad)) << "batch " << batch;
    }
}

// ------------------------------------------- whole-model congruence

TEST(Kernels, SimModelForwardIdenticalAcrossImpls)
{
    // End-to-end canary: a full reduced-scale CNN (conv + bn + pool +
    // fc) must produce byte-identical logits under every ISA to a
    // walk of its top-level layers with Conv2d and Linear on the
    // reference loops (every other layer runs its own forward).
    models::SimConfig cfg;
    cfg.baseWidth = 8;
    cfg.inHeight = cfg.inWidth = 10;
    cfg.seed = 5;

    Rng rng(55);
    Tensor x =
        randn({2, cfg.inChannels, cfg.inHeight, cfg.inWidth}, rng);

    Tensor ref = x;
    int lowered = 0;
    {
        auto net = models::buildSim(models::ModelId::VGG19, cfg);
        for (size_t i = 0; i < net->size(); ++i) {
            nn::Layer *l = net->layer(i);
            if (auto *conv = dynamic_cast<nn::Conv2d *>(l)) {
                ref = referenceConv(*conv, ref);
                ++lowered;
            } else if (auto *fc = dynamic_cast<nn::Linear *>(l)) {
                ref = referenceLinear(*fc, ref);
                ++lowered;
            } else {
                ref = l->forward(ref, false);
            }
        }
    }
    EXPECT_EQ(lowered, 7);  // VGG19-sim's 6 convs and its classifier
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa forced(isa);
        auto net = models::buildSim(models::ModelId::VGG19, cfg);
        EXPECT_TRUE(bitEqual(ref, net->forward(x, false)))
            << kernels::isaName(isa);
    }
}

// ------------------------------------------------------ Ce-code GEMM

/** Random Ce in Omega_P (zero rows included) plus its packed form. */
Tensor
randomCe(Rng &rng, int64_t rows, int64_t cols,
         const quant::Pow2Alphabet &a)
{
    Tensor ce({rows, cols});
    for (int64_t i = 0; i < rows; ++i) {
        if (rng.chance(0.3))
            continue;  // vector-sparse row
        for (int64_t j = 0; j < cols; ++j) {
            if (rng.chance(0.2))
                continue;
            const int exp = (int)rng.integer(a.expMin(), a.expMax);
            const float mag = std::ldexp(1.0f, exp);
            ce.at(i, j) = rng.chance(0.5) ? mag : -mag;
        }
    }
    return ce;
}

TEST(CeGemm, BitIdenticalToDenseGemmOnDecodedCodes)
{
    // gemmCeB must reproduce sgemm(decode(Ce), B) — and hence the
    // dense rebuild path — to the last bit, across panel boundaries
    // (rows > the internal panel size), odd code counts and zero
    // rows.
    Rng rng(31);
    for (const auto &[rows, cols, n] :
         std::vector<std::tuple<int64_t, int64_t, int64_t>>{
             {1, 1, 1}, {3, 3, 4}, {48, 3, 3}, {130, 5, 7},
             {300, 9, 9}, {257, 4, 6}}) {
        quant::Pow2Alphabet a;
        a.expMax = (int)rng.integer(-4, 4);
        a.numLevels = (int)rng.integer(1, 7);
        Tensor ce = randomCe(rng, rows, cols, a);
        Tensor basis = randn({cols, n}, rng);
        const auto packed = core::packCe(ce, a);

        Tensor want({rows, n});
        kernels::sgemm(ce.data(), basis.data(), want.data(), rows,
                       cols, n, false);
        Tensor got({rows, n});
        kernels::ScratchArena arena;
        kernels::gemmCeB(packed.rowMask.data(),
                         packed.nibbles.data(), rows, cols,
                         basis.data(), n, a, got.data(), arena);
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              (size_t)want.size() * sizeof(float)),
                  0)
            << rows << "x" << cols << "x" << n;

        // The Tensor-level dense path (reconstruct ==
        // kernels::gemm) and the reference matmul agree too.
        core::SeMatrix m;
        m.ce = ce;
        m.basis = basis;
        m.alphabet = a;
        for (const Tensor &recon :
             {m.reconstruct(), reference::matmul(ce, basis)})
            EXPECT_EQ(
                std::memcmp(recon.data(), got.data(),
                            (size_t)recon.size() * sizeof(float)),
                0)
                << rows << "x" << cols << "x" << n;
    }
}

TEST(CeGemm, FullySparseAndFullyDenseEdges)
{
    Rng rng(32);
    quant::Pow2Alphabet a;
    a.expMax = 2;  // covers the 0.5 / -2.0 codes below
    a.numLevels = 7;
    Tensor basis = randn({3, 5}, rng);
    kernels::ScratchArena arena;

    Tensor zero({10, 3});  // all rows zero: empty nibble stream
    auto pz = core::packCe(zero, a);
    EXPECT_EQ(pz.nonZeroRows, 0);
    Tensor out({10, 5}, 1.0f);
    kernels::gemmCeB(pz.rowMask.data(), pz.nibbles.data(), 10, 3,
                     basis.data(), 5, a, out.data(), arena);
    for (int64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 0.0f);

    Tensor dense({10, 3});  // no zero anywhere
    for (int64_t i = 0; i < dense.size(); ++i)
        dense[i] = (i % 2) ? 0.5f : -2.0f;
    auto pd = core::packCe(dense, a);
    EXPECT_EQ(pd.nonZeroRows, 10);
    Tensor want({10, 5});
    kernels::sgemm(dense.data(), basis.data(), want.data(), 10, 3, 5,
                   false);
    Tensor got({10, 5});
    kernels::gemmCeB(pd.rowMask.data(), pd.nibbles.data(), 10, 3,
                     basis.data(), 5, a, got.data(), arena);
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          (size_t)want.size() * sizeof(float)),
              0);
}

// ------------------------------------------------------ ISA dispatch

TEST(Dispatch, SupportedIsasStartWithScalarAndMatchActive)
{
    const auto isas = kernels::supportedIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), kernels::KernelIsa::Scalar);
    EXPECT_TRUE(kernels::isaSupported(kernels::activeIsa()));
    EXPECT_TRUE(kernels::isaSupported(kernels::detectBestIsa()));
}

TEST(Dispatch, ParseKernelIsaStrict)
{
    EXPECT_EQ(kernels::parseKernelIsa("auto"),
              kernels::detectBestIsa());
    EXPECT_EQ(kernels::parseKernelIsa(""), kernels::detectBestIsa());
    EXPECT_EQ(kernels::parseKernelIsa("scalar"),
              kernels::KernelIsa::Scalar);
    // A real tier parses where the CPU runs it and is refused loudly
    // where it does not.
    if (kernels::isaSupported(kernels::KernelIsa::Avx512))
        EXPECT_EQ(kernels::parseKernelIsa("avx512"),
                  kernels::KernelIsa::Avx512);
    else
        EXPECT_THROW(kernels::parseKernelIsa("avx512"),
                     std::invalid_argument);
    EXPECT_THROW(kernels::parseKernelIsa("AVX512"),
                 std::invalid_argument);
    EXPECT_THROW(kernels::parseKernelIsa("sse2"),  // no such tier
                 std::invalid_argument);
    EXPECT_THROW(kernels::parseKernelIsa("fast"),
                 std::invalid_argument);
    EXPECT_THROW(kernels::parseKernelIsa("AVX2"),
                 std::invalid_argument);
}

/**
 * The executor reads SE_THREADS itself, for library callers that
 * never go through RuntimeOptions::fromEnv. A value that is not a
 * whole in-range integer must refuse the first pool() use with
 * std::invalid_argument, not silently build a one-thread pool. Each
 * case runs in a freshly exec'd child so pool() really is first.
 */
TEST(KernelsDeathTest, PoolRejectsMalformedSeThreads)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"four", "4294967296", "-9999999999", "3x",
                            ""}) {
        EXPECT_EXIT(
            {
                ::setenv("SE_THREADS", bad, 1);
                try {
                    kernels::pool();
                } catch (const std::invalid_argument &e) {
                    std::fprintf(stderr, "rejected: %s\n", e.what());
                    std::_Exit(3);
                }
                std::_Exit(0);
            },
            ::testing::ExitedWithCode(3), "rejected: SE_THREADS")
            << "SE_THREADS='" << bad << "'";
    }
    EXPECT_EXIT(
        {
            ::setenv("SE_THREADS", "3", 1);
            std::_Exit((int)kernels::pool().threadCount());
        },
        ::testing::ExitedWithCode(3), "");
}

/**
 * Dispatch reads SE_KERNEL_ISA itself on first use, for every caller:
 * nothing else installs it. A freshly exec'd child sets the knob
 * before its first activeIsa() and must run the scalar variant.
 */
TEST(KernelsDeathTest, DispatchReadsSeKernelIsaOnFirstUse)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ::setenv("SE_KERNEL_ISA", "scalar", 1);
            const kernels::KernelIsa isa = kernels::activeIsa();
            std::fprintf(stderr, "active %s\n", kernels::isaName(isa));
            std::_Exit(isa == kernels::KernelIsa::Scalar ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "active scalar");
}

/**
 * A window larger than the padded input has no output position. The
 * size must be rejected before (in + 2 pad - window) / stride + 1
 * truncates toward zero into a bogus extent: a negative one for conv
 * (whose two negative dims multiply to a positive element count), a
 * 1 for pooling (which then reads past the input).
 */
TEST(KernelsDeathTest, ConvRejectsInputSmallerThanWindow)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(61);
    nn::Conv2d conv(2, 3, 3, 1, 0, 1, rng);
    const Tensor x = randn({1, 2, 1, 1}, rng);
    EXPECT_DEATH(conv.forward(x, false),
                 "input extent 1 with pad 0 is smaller than the "
                 "3-wide window");
    EXPECT_DEATH(referenceConv(conv, x),
                 "input extent 1 with pad 0 is smaller than the "
                 "3-wide window");
    // Padding that makes the input cover the window is fine.
    nn::Conv2d padded(2, 3, 3, 1, 1, 1, rng);
    EXPECT_EQ(padded.forward(x, false).shape(), (Shape{1, 3, 1, 1}));
}

TEST(KernelsDeathTest, MaxPoolRejectsInputSmallerThanWindow)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(62);
    nn::MaxPool2d pool(2, 2);
    EXPECT_DEATH(pool.forward(randn({1, 2, 1, 1}, rng), false),
                 "input extent 1 with pad 0 is smaller than the "
                 "2-wide window");
    EXPECT_DEATH(pool.forward(randn({1, 2, 4, 1}, rng), false),
                 "smaller than the 2-wide window");
    EXPECT_EQ(pool.forward(randn({1, 2, 2, 3}, rng), false).shape(),
              (Shape{1, 2, 1, 1}));
}

/**
 * Stride, kernel, dilation or groups below 1 and pad below 0 describe
 * no convolution: stride 0 divides by zero in windowOutExtent, and
 * pad -1 or kernel 0 return a wrongly sized map without complaint.
 * The layers reject them when built, and the lowering (whose panel
 * offsets are built from them) at its ConvSpec.
 */
TEST(KernelsDeathTest, ConvAndPoolRejectMalformedGeometry)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(63);
    EXPECT_DEATH(nn::Conv2d(2, 2, 3, /*stride=*/0, 1, 1, rng),
                 "stride 0 ");
    EXPECT_DEATH(nn::Conv2d(2, 2, 1, 1, /*pad=*/-1, 1, rng), "pad -1");
    EXPECT_DEATH(nn::Conv2d(2, 2, /*kernel=*/0, 1, 0, 1, rng),
                 "kernel 0 ");
    EXPECT_DEATH(nn::Conv2d(2, 2, 3, 1, 1, /*groups=*/0, rng),
                 "groups 0 ");
    EXPECT_DEATH(nn::Conv2d(2, 2, 3, 1, 1, 1, rng, true, /*dil=*/0),
                 "dilation 0 ");
    EXPECT_DEATH(nn::MaxPool2d(2, /*stride=*/0), "stride 0");
    EXPECT_DEATH(nn::MaxPool2d(/*kernel=*/0, 2), "kernel 0 ");

    const Tensor x = randn({1, 2, 6, 6}, rng);
    const Tensor w = randn({2, 2, 1, 1}, rng);
    const kernels::ConvSpec good{2, 2, 1, 1, 0, 1, 1};
    EXPECT_EQ(kernels::conv2dForwardGemm(x, w, nullptr, good).shape(),
              (Shape{1, 2, 6, 6}));
    struct Bad
    {
        kernels::ConvSpec spec;
        const char *what;
    };
    const Bad bad[] = {
        {{2, 2, 1, 0, 0, 1, 1}, "stride 0 "},
        {{2, 2, 1, 1, -1, 1, 1}, "pad -1"},
        {{2, 2, 0, 1, 0, 1, 1}, "kernel 0 "},
        {{2, 2, 1, 1, 0, 1, 0}, "dilation 0 "},
        {{2, 2, 1, 1, 0, 0, 1}, "groups 0 "},
    };
    for (const Bad &b : bad)
        EXPECT_DEATH(kernels::conv2dForwardGemm(x, w, nullptr, b.spec),
                     b.what);
}

TEST(Dispatch, ForcedSelectionSticks)
{
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa forced(isa);
        EXPECT_EQ(kernels::activeIsa(), isa);
    }
}

/**
 * Random matrix with ~25% exact zeros, a few negative zeros and — when
 * asked — a NaN planted in a row the other operand zeros out, so the
 * sweep exercises the zero-skip semantics (signed-zero preservation,
 * no 0*NaN) every variant must share with the scalar kernel.
 */
Tensor
sparseRandn(Rng &rng, int64_t rows, int64_t cols)
{
    Tensor t = randn({rows, cols}, rng);
    for (int64_t i = 0; i < t.size(); ++i) {
        if (rng.chance(0.2))
            t[i] = 0.0f;
        else if (rng.chance(0.05))
            t[i] = -0.0f;
    }
    return t;
}

TEST(Dispatch, SgemmEveryIsaBitIdenticalToScalar)
{
    Rng rng(201);
    // m x k x n sweep: unit dims, empty inner dim, tile-aligned,
    // remainder tails for the 8- and 16-wide SIMD stages.
    const std::vector<std::vector<int64_t>> shapes{
        {1, 1, 1},  {1, 17, 1},  {9, 1, 13},   {5, 0, 7},
        {17, 23, 9}, {32, 16, 24}, {33, 15, 17}, {96, 31, 40},
    };
    for (const auto &s : shapes) {
        const int64_t m = s[0], k = s[1], n = s[2];
        Tensor a = sparseRandn(rng, m, k);
        Tensor b = sparseRandn(rng, k, n);
        for (bool accumulate : {false, true}) {
            Tensor seed = randn({m, n}, rng);
            Tensor want = seed;
            {
                ScopedIsa isa(kernels::KernelIsa::Scalar);
                kernels::sgemm(a.data(), b.data(), want.data(), m, k,
                               n, accumulate);
            }
            for (kernels::KernelIsa isa : kernels::supportedIsas()) {
                Tensor got = seed;
                ScopedIsa forced(isa);
                kernels::sgemm(a.data(), b.data(), got.data(), m, k,
                               n, accumulate);
                EXPECT_TRUE(bitEqual(want, got))
                    << kernels::isaName(isa) << " " << m << "x" << k
                    << "x" << n << " acc=" << accumulate;
            }
        }
    }
}

TEST(Dispatch, SgemmSkipsZeroTimesNaN)
{
    // A zero entry of A must SKIP the multiply, not fold 0 * NaN into
    // the chain — the scalar contract every variant inherits.
    Tensor a({2, 2});
    a.at(0, 0) = 1.0f;  // row 0 uses only B row 0
    a.at(1, 1) = 2.0f;  // row 1 uses only B row 1
    Tensor b({2, 3});
    b.at(0, 0) = 3.0f;
    b.at(1, 1) = std::nanf("");
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa forced(isa);
        Tensor c({2, 3});
        kernels::sgemm(a.data(), b.data(), c.data(), 2, 2, 3, false);
        EXPECT_EQ(c.at(0, 0), 3.0f) << kernels::isaName(isa);
        EXPECT_FALSE(std::isnan(c.at(0, 1))) << kernels::isaName(isa);
        EXPECT_TRUE(std::isnan(c.at(1, 1))) << kernels::isaName(isa);
    }
}

/**
 * Operands for the double-chain wall: Gaussians mixed with +-0,
 * +-Inf, NaN, denormals, magnitudes near FLT_MAX (so the store to
 * float overflows, or lands just below the overflow threshold) and
 * tie makers (1 + 2^-24 is halfway between two floats, so the store
 * must round to even). Specials get sparser as k grows, so long dot
 * products still end finite often enough to compare real values.
 *
 * The NaN is the one the hardware generates itself (Inf - Inf), so
 * planted and generated NaNs share one encoding. Which NaN operand
 * propagates is left open by IEEE 754, and the compiler may commute
 * the scalar reference's adds, so only NaN placement is contract.
 */
Tensor
doubleChainOperand(Rng &rng, int64_t rows, int64_t cols, int64_t k)
{
    volatile float inf = std::numeric_limits<float>::infinity();
    const float nan = inf - inf;
    const float fmax = std::numeric_limits<float>::max();
    const float tie = std::ldexp(1.0f, -12);  // tie * tie = 2^-24
    const float specials[] = {
        0.0f,  -0.0f,         inf,        -inf,
        nan,   1e-40f,        -3e-42f,    std::ldexp(1.0f, -149),
        fmax,  -0.75f * fmax, 0.5f * fmax, 1.0f,
        -1.0f, tie,           -tie,       1.0f + std::ldexp(1.0f, -23),
    };
    const double p_special = std::min(0.3, 3.0 / (double)(k + 1));
    Tensor t = randn({rows, cols}, rng);
    for (int64_t i = 0; i < t.size(); ++i)
        if (rng.chance(p_special))
            t[i] = specials[rng.integer(0, 15)];
    return t;
}

/**
 * A (k x n) B and an (m x n) C addressed the way a conv chunk is:
 * B rows spread apart, column pairs at uneven gaps, and C columns at
 * gaps too. With b_run == 0 a gap follows each pair at random (so
 * some 4-column groups are one contiguous run and others two separate
 * pairs, as on 2- and 6-wide maps); else one follows every b_run
 * pairs, so b_run = 4, 2 and 1 give 8-float runs, 4-float runs and
 * lone pairs (8-, 4- and 2-wide maps). With c_run == 0 the C columns
 * are stored reversed with a stride; else forward, in runs of c_run.
 */
struct ScatteredOperands
{
    std::vector<float> b, c;
    std::vector<int64_t> bRow, bPair, cCol;
    kernels::DChainOperands op;

    ScatteredOperands(Rng &rng, const Tensor &dense_b, int64_t m,
                      int64_t b_run = 0, int64_t c_run = 0)
    {
        const int64_t k = dense_b.dim(0), n = dense_b.dim(1);
        int64_t span = 0;
        for (int64_t h = 0; h < (n + 1) / 2; ++h) {
            bPair.push_back(span);
            const bool gap = b_run > 0 ? (h + 1) % b_run == 0
                                       : rng.chance(0.5);
            span += 2 + (gap ? rng.integer(1, 5) : 0);
        }
        for (int64_t p = 0; p < k; ++p)
            bRow.push_back(p * (span + 3) + 1);
        b.assign((size_t)(k * (span + 3) + 1), std::nanf(""));
        for (int64_t p = 0; p < k; ++p)
            for (int64_t j = 0; j < n; ++j)
                b[(size_t)(bRow[(size_t)p] + bPair[(size_t)(j / 2)] +
                           j % 2)] = dense_b.at(p, j);
        for (int64_t j = 0; j < n; ++j)
            cCol.push_back(c_run > 0 ? j + j / c_run : 2 * (n - 1 - j));
        c.assign((size_t)(m * (2 * n + 1)), 7.0f);
        // One more pair and C column offset, far out of range: a panel
        // that reads either past its last column faults.
        bPair.push_back(int64_t{1} << 40);
        cCol.push_back(int64_t{1} << 40);
        op.b = b.data();
        op.bRow = bRow.data();
        op.bPair = bPair.data();
        op.c = c.data();
        op.cRow = 2 * n + 1;
        op.cCol = cCol.data();
    }

    /** C read back into an (m x n) tensor. */
    Tensor
    result(int64_t m, int64_t n) const
    {
        Tensor t({m, n});
        for (int64_t i = 0; i < m; ++i)
            for (int64_t j = 0; j < n; ++j)
                t.at(i, j) = c[(size_t)(i * op.cRow + cCol[(size_t)j])];
        return t;
    }
};

TEST(Dispatch, GemmDChainEveryIsaBitIdenticalToScalar)
{
    Rng rng(204);
    int64_t outputs = 0, non_finite = 0;
    // m and n reach past the widest tile (12 rows x 16 columns) and
    // its remainders, on both sides of each edge.
    for (int64_t k : {0, 1, 27, 432})
        for (int64_t m : {1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 19, 24, 25})
            for (int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 15, 16,
                              17, 20, 24, 31, 32, 33, 48, 64}) {
                const Tensor a = doubleChainOperand(rng, m, k, k);
                const Tensor b = doubleChainOperand(rng, k, n, k);
                const Tensor row_bias = doubleChainOperand(rng, 1, m, 0);
                const Tensor col_bias = doubleChainOperand(rng, 1, n, 0);
                std::vector<int64_t> offs(
                    (size_t)kernels::denseOffsetCount(k, n));
                // Bias modes: none, per row (conv), per column
                // (batched Linear).
                for (int mode = 0; mode < 3; ++mode) {
                    const float *rb = mode == 1 ? row_bias.data() : nullptr;
                    const float *cb = mode == 2 ? col_bias.data() : nullptr;
                    auto dense = [&](Tensor &c) {
                        kernels::DChainOperands op = kernels::denseOperands(
                            b.data(), c.data(), k, n, offs.data());
                        op.rowBias = rb;
                        op.colBias = cb;
                        return op;
                    };
                    const std::string what =
                        std::to_string(m) + "x" + std::to_string(k) + "x" +
                        std::to_string(n) + " bias mode " +
                        std::to_string(mode);
                    Tensor want({m, n});
                    {
                        ScopedIsa isa(kernels::KernelIsa::Scalar);
                        kernels::gemmDChain(a.data(), dense(want), m, k, n);
                    }
                    outputs += want.size();
                    for (int64_t i = 0; i < want.size(); ++i)
                        non_finite += !std::isfinite(want[i]);
                    for (kernels::KernelIsa isa :
                         kernels::supportedIsas()) {
                        SCOPED_TRACE(std::string(kernels::isaName(isa)) +
                                     " " + what);
                        Tensor got({m, n});
                        {
                            ScopedIsa forced(isa);
                            kernels::gemmDChain(a.data(), dense(got), m, k,
                                                n);
                        }
                        EXPECT_TRUE(bitEqual(want, got)) << "dense";
                        // Column panels that start off zero, as the
                        // pool splits them (at an even column).
                        const int64_t split = n >= 32 ? 16
                                              : n > 8 ? 8
                                                      : (n / 2) & ~int64_t{1};
                        Tensor halves({m, n});
                        const kernels::KernelOps &o = kernels::opsFor(isa);
                        const kernels::DChainOperands op = dense(halves);
                        o.gemmDChainPanel(a.data(), op, m, k, 0, split);
                        o.gemmDChainPanel(a.data(), op, m, k, split, n);
                        EXPECT_TRUE(bitEqual(want, halves)) << "split";
                        // A first panel that ends 4 columns into a
                        // register group (the AVX-512 masked tail),
                        // run after the panel to its right, so a tail
                        // that stores past its end shows.
                        if (n > 4) {
                            const int64_t at = (n - 5) / 8 * 8 + 4;
                            Tensor tails({m, n});
                            const kernels::DChainOperands ot = dense(tails);
                            o.gemmDChainPanel(a.data(), ot, m, k, at, n);
                            o.gemmDChainPanel(a.data(), ot, m, k, 0, at);
                            EXPECT_TRUE(bitEqual(want, tails))
                                << "4-column tail split at " << at;
                        }
                        // The same product through scattered offsets:
                        // random gaps, then each way a wide tile loads
                        // an 8-column group (8-float runs, 4-float
                        // runs, lone pairs) and stores it (a run of
                        // 8, runs of 4, reversed).
                        for (const auto &[b_run, c_run] :
                             {std::pair<int64_t, int64_t>{0, 0},
                              {4, 8}, {4, 0}, {2, 4}, {1, 8}}) {
                            ScatteredOperands sc(rng, b, m, b_run, c_run);
                            sc.op.rowBias = rb;
                            sc.op.colBias = cb;
                            o.gemmDChainPanel(a.data(), sc.op, m, k, 0, n);
                            EXPECT_TRUE(bitEqual(want, sc.result(m, n)))
                                << "scattered, B runs of " << b_run
                                << " pairs, C runs of " << c_run;
                        }
                    }
                }
            }
    // The operands really mixed finite and non-finite outputs.
    EXPECT_GT(non_finite, outputs / 20);
    EXPECT_LT(non_finite, outputs / 2);
}

TEST(Dispatch, GemmCeBEveryIsaBitIdenticalToScalarAndPanelDecode)
{
    Rng rng(203);
    for (const auto &[rows, cols, n] :
         std::vector<std::tuple<int64_t, int64_t, int64_t>>{
             {1, 1, 1}, {3, 3, 4}, {48, 3, 3}, {130, 5, 7},
             {300, 9, 9}, {257, 4, 6}}) {
        quant::Pow2Alphabet a;
        a.expMax = (int)rng.integer(-4, 4);
        a.numLevels = (int)rng.integer(1, 7);
        Tensor ce = randomCe(rng, rows, cols, a);
        Tensor basis = randn({cols, n}, rng);
        const auto packed = core::packCe(ce, a);
        kernels::ScratchArena arena;

        Tensor want({rows, n});
        {
            ScopedIsa isa(kernels::KernelIsa::Scalar);
            kernels::gemmCeB(packed.rowMask.data(),
                             packed.nibbles.data(), rows, cols,
                             basis.data(), n, a, want.data(), arena);
        }
        // The staged decode-then-sgemm reference agrees with the
        // fused kernel...
        Tensor staged({rows, n});
        reference::gemmCeBPanelDecode(packed.rowMask.data(),
                                      packed.nibbles.data(), rows, cols,
                                      basis.data(), n, a, staged.data(),
                                      arena);
        EXPECT_TRUE(bitEqual(want, staged))
            << rows << "x" << cols << "x" << n;
        // ...and so does every SIMD variant of the fused kernel.
        for (kernels::KernelIsa isa : kernels::supportedIsas()) {
            Tensor got({rows, n});
            ScopedIsa forced(isa);
            kernels::gemmCeB(packed.rowMask.data(),
                             packed.nibbles.data(), rows, cols,
                             basis.data(), n, a, got.data(), arena);
            EXPECT_TRUE(bitEqual(want, got))
                << kernels::isaName(isa) << " " << rows << "x" << cols
                << "x" << n;
        }
    }
}

/**
 * Hand-built packed Ce for the small-n wall: a row mask of the given
 * pattern (0 random, 1 all zero, 2 all set, 3 alternating) and random
 * nibbles over all 16 codes, including the 0x8 sign-on-zero pattern
 * packCe never emits.
 */
struct RawCe
{
    std::vector<uint8_t> mask, nibbles;
};

RawCe
rawCe(Rng &rng, int64_t m, int64_t r, int pattern)
{
    RawCe ce;
    ce.mask.assign((size_t)((m + 7) / 8), 0);
    int64_t set = 0;
    for (int64_t row = 0; row < m; ++row) {
        const bool on = pattern == 0   ? rng.chance(0.6)
                        : pattern == 1 ? false
                        : pattern == 2 ? true
                                       : (row & 1) != 0;
        if (on) {
            ce.mask[(size_t)(row >> 3)] |= (uint8_t)(1u << (row & 7));
            ++set;
        }
    }
    ce.nibbles.resize((size_t)((set * r + 1) / 2));
    for (uint8_t &b : ce.nibbles)
        b = (uint8_t)rng.integer(0, 255);
    return ce;
}

/** A basis with +-0, +-Inf and (hardware-generated) NaN entries. */
Tensor
specialBasis(Rng &rng, int64_t r, int64_t n)
{
    volatile float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {0.0f, -0.0f, inf, -inf, inf - inf};
    Tensor t = randn({r, n}, rng);
    for (int64_t i = 0; i < t.size(); ++i)
        if (rng.chance(0.15))
            t[i] = specials[rng.integer(0, 4)];
    return t;
}

TEST(Dispatch, GemmCeSmallNEveryIsaBitIdenticalToStagedDecode)
{
    Rng rng(206);
    quant::Pow2Alphabet a;
    a.expMax = 1;
    a.numLevels = 7;  // every exponent code 1..7 decodes
    float lut[16];
    kernels::buildCeDecodeLut(a, lut);
    const float sentinel = -12345.0f;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    auto same = [](float x, float y) {
        return std::memcmp(&x, &y, sizeof(float)) == 0;
    };
    bool seen[16] = {};
    for (int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33})
        for (int64_t r = 1; r <= 9; ++r)
            for (int64_t m : {1, 7, 13, 67})
                for (int pattern = 0; pattern < 4; ++pattern) {
                    const RawCe ce = rawCe(rng, m, r, pattern);
                    for (uint8_t b : ce.nibbles)
                        seen[b & 0xF] = seen[b >> 4] = true;
                    const Tensor basis = specialBasis(rng, r, n);
                    const std::string where =
                        std::to_string(m) + "x" + std::to_string(r) +
                        "x" + std::to_string(n) + " mask " +
                        std::to_string(pattern);

                    // The staged reference decodes 0x8 as invalid;
                    // the kernels treat it as the 0x0 it stands for.
                    std::vector<uint8_t> canon = ce.nibbles;
                    for (uint8_t &b : canon) {
                        if ((b & 0xF) == 0x8)
                            b &= 0xF0;
                        if ((b >> 4) == 0x8)
                            b &= 0x0F;
                    }
                    Tensor want({m, n});
                    kernels::ScratchArena arena;
                    reference::gemmCeBPanelDecode(
                        ce.mask.data(), canon.data(), m, r, basis.data(),
                        n, a, want.data(), arena);

                    // B and the output at a row stride ld > n, with
                    // NaN between B's rows: a strip that read past
                    // its columns or ignored ld would show it.
                    const int64_t ld = n + 3;
                    std::vector<float> strided((size_t)(r * ld), nan);
                    for (int64_t p = 0; p < r; ++p)
                        std::copy(basis.data() + p * n,
                                  basis.data() + (p + 1) * n,
                                  strided.begin() + p * ld);

                    for (kernels::KernelIsa isa :
                         kernels::supportedIsas()) {
                        const std::string at =
                            std::string(kernels::isaName(isa)) + " " +
                            where;
                        {
                            ScopedIsa forced(isa);
                            Tensor got({m, n});
                            kernels::gemmCeB(ce.mask.data(),
                                             ce.nibbles.data(), m, r,
                                             basis.data(), n, a,
                                             got.data(), arena);
                            EXPECT_TRUE(bitEqual(want, got)) << at;
                        }
                        // The strips themselves, each with its last
                        // row sent to a staging row: nothing may land
                        // between rows, past the matrix, in the last
                        // row's place or past the strip's columns.
                        std::vector<float> out((size_t)(m * ld + 8),
                                               sentinel);
                        for (int64_t j = 0; j < n;
                             j += kernels::kCeSmallN) {
                            const int64_t w =
                                std::min(kernels::kCeSmallN, n - j);
                            std::vector<float> last(9, sentinel);
                            kernels::opsFor(isa).gemmCeSmallN(
                                ce.mask.data(), ce.nibbles.data(), m, r,
                                strided.data() + j, w, ld, lut,
                                out.data() + j, last.data());
                            for (int64_t jj = 0; jj < w; ++jj)
                                EXPECT_TRUE(same(
                                    last[(size_t)jj],
                                    want.at(m - 1, j + jj)))
                                    << at << " last row col " << j + jj;
                            for (size_t i = (size_t)w; i < last.size();
                                 ++i)
                                EXPECT_EQ(last[i], sentinel) << at;
                        }
                        for (int64_t i = 0; i < m * ld + 8; ++i) {
                            const int64_t row = i / ld, col = i % ld;
                            if (row < m - 1 && col < n)
                                EXPECT_TRUE(same(out[(size_t)i],
                                                 want.at(row, col)))
                                    << at << " at " << row << "," << col;
                            else
                                EXPECT_EQ(out[(size_t)i], sentinel)
                                    << at << " at " << row << "," << col;
                        }
                    }
                }
    for (int code = 0; code < 16; ++code)
        EXPECT_TRUE(seen[code]) << "nibble code " << code;
}

TEST(Dispatch, GemmCeBLayerMatchesPerPieceCalls)
{
    // One layer of pieces written straight into a weight buffer —
    // conv-like (full rows), FC-like with a padded last row, and wide
    // padded pieces that run as several strips — must equal per-piece
    // gemmCeB outputs copied into place, and touch nothing else.
    Rng rng(207);
    quant::Pow2Alphabet a;
    a.expMax = 0;
    a.numLevels = 7;
    float lut[16];
    kernels::buildCeDecodeLut(a, lut);
    struct Spec
    {
        int64_t m, r, n, lastRowCols;
    };
    const std::vector<Spec> specs{
        {9, 3, 3, 3}, {13, 3, 3, 3}, {5, 4, 4, 2},   {6, 4, 4, 4},
        {4, 9, 9, 5}, {3, 2, 8, 1},  {5, 4, 16, 11}, {6, 3, 33, 20},
    };
    std::vector<RawCe> ces;
    std::vector<Tensor> bases;
    for (const Spec &sp : specs) {
        ces.push_back(rawCe(rng, sp.m, sp.r, 0));
        bases.push_back(specialBasis(rng, sp.r, sp.n));
    }
    std::vector<kernels::CeBPiece> pieces;
    int64_t at = 7;  // pieces start off the buffer's first element
    for (size_t k = 0; k < specs.size(); ++k) {
        const Spec &sp = specs[k];
        pieces.push_back({ces[k].mask.data(), ces[k].nibbles.data(),
                          sp.m, sp.r, bases[k].data(), sp.n, lut, at,
                          sp.lastRowCols});
        at += sp.m * sp.n + 2;  // a 2-float gap between pieces
    }
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa forced(isa);
        const float sentinel = 777.0f;
        std::vector<float> want((size_t)at, sentinel);
        kernels::ScratchArena arena;
        for (size_t k = 0; k < specs.size(); ++k) {
            const Spec &sp = specs[k];
            Tensor piece({sp.m, sp.n});
            kernels::gemmCeB(ces[k].mask.data(), ces[k].nibbles.data(),
                             sp.m, sp.r, bases[k].data(), sp.n, a,
                             piece.data(), arena);
            const int64_t cut =
                (sp.m - 1) * sp.n + sp.lastRowCols;
            std::copy(piece.data(), piece.data() + cut,
                      want.begin() + pieces[k].offset);
        }
        std::vector<float> got((size_t)at, sentinel);
        kernels::gemmCeBLayer(pieces.data(), pieces.size(), got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(float)),
                  0)
            << kernels::isaName(isa);
    }
}

TEST(Dispatch, SerialScopeKeepsFusedGemmOffThePool)
{
    // A fused Ce GEMM big enough to clear the parallel threshold
    // (m * r * n >= 2^19 multiplies) must stay inline when the caller
    // holds a SerialScope — the ServeEngine batch path runs exactly
    // this way from pool workers, where re-entering the pool would
    // deadlock it.
    Rng rng(204);
    quant::Pow2Alphabet a;
    a.expMax = 0;
    a.numLevels = 7;
    const int64_t m = 320, r = 8, n = 256;
    Tensor ce = randomCe(rng, m, r, a);
    Tensor basis = randn({r, n}, rng);
    const auto packed = core::packCe(ce, a);
    kernels::ScratchArena arena;

    Tensor want({m, n});
    kernels::gemmCeB(packed.rowMask.data(), packed.nibbles.data(), m,
                     r, basis.data(), n, a, want.data(), arena);

    const uint64_t before = kernels::pool().tasksExecuted();
    Tensor got({m, n});
    {
        kernels::SerialScope serial;
        kernels::gemmCeB(packed.rowMask.data(), packed.nibbles.data(),
                         m, r, basis.data(), n, a, got.data(), arena);
    }
    EXPECT_EQ(kernels::pool().tasksExecuted(), before);
    EXPECT_TRUE(bitEqual(want, got));
}

TEST(Dispatch, NestedFusedGemmFromPoolWorkerStaysInline)
{
    // The same fused GEMM issued FROM a pool worker (no SerialScope)
    // must run inline via the worker-thread guard: only the one
    // submitted task may hit the pool, never nested panel tasks.
    Rng rng(205);
    quant::Pow2Alphabet a;
    a.expMax = 0;
    a.numLevels = 7;
    const int64_t m = 320, r = 8, n = 256;
    Tensor ce = randomCe(rng, m, r, a);
    Tensor basis = randn({r, n}, rng);
    const auto packed = core::packCe(ce, a);

    Tensor want({m, n});
    {
        kernels::ScratchArena arena;
        kernels::gemmCeB(packed.rowMask.data(), packed.nibbles.data(),
                         m, r, basis.data(), n, a, want.data(), arena);
    }

    const uint64_t before = kernels::pool().tasksExecuted();
    Tensor got({m, n});
    kernels::pool()
        .submit([&] {
            kernels::ScratchArena arena;
            kernels::gemmCeB(packed.rowMask.data(),
                             packed.nibbles.data(), m, r,
                             basis.data(), n, a, got.data(), arena);
        })
        .get();
    EXPECT_EQ(kernels::pool().tasksExecuted(), before + 1);
    EXPECT_TRUE(bitEqual(want, got));
}

} // namespace
