/**
 * @file
 * Kernel-layer GFLOP/s tracker. Emits one JSON object timing the hot
 * compute paths three ways — the legacy naive loops of
 * tests/reference, im2col+GEMM on one thread (a kernels::SerialScope),
 * and im2col+GEMM over the process executor — across
 * ResNet/DeepLab-representative conv shapes (reduced spatial scale,
 * paper kernel geometry), a depth-wise shape, a classifier-head
 * Linear and raw square/skinny GEMMs. Every fast result is also
 * checked bit-identical to the naive path (the golden-stability
 * invariant).
 *
 * Usage: ./bench_kernels [--smoke]
 *
 * The executor's width is the SE_THREADS budget (one worker per core
 * when unset); the JSON's "threads" field reports it.
 *
 * --smoke runs only the ResNet 3x3/stride-1 shape with small repeat
 * counts and exits non-zero unless the single-threaded im2col+GEMM
 * path beats naive and matches it bit-exactly — the CI regression
 * gate for this subsystem. The isa_dispatch section (every compiled
 * micro-kernel ISA variant on a raw sgemm against the scalar
 * reference, and on conv forward shapes that run the double-chain
 * panel against the naive conv loop: the six convs of the served
 * VGG19-sim at batch 1, 5 and 8, plus the ResNet 3x3 shape; no speed
 * gate reads their timings) and the gemm_ce_fused section (fused
 * Ce-code decode-in-GEMM vs the staged panel-decode reference) run
 * in smoke mode too, and feed the same gate: any bit-divergence
 * or a fused kernel slower than the staged one fails the run. So do
 * the gemm_ceb rows (every ISA at the serve pieces' real shapes,
 * r = n = 3 and 4): their bit-identity joins the gate, their timings
 * do not.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "base/clock.hh"
#include "bench_util.hh"
#include "base/hash.hh"
#include "base/random.hh"
#include "core/model_file.hh"
#include "kernels/ce_gemm.hh"
#include "kernels/dispatch.hh"
#include "kernels/gemm.hh"
#include "kernels/kernels.hh"
#include "kernels/scratch.hh"
#include "nn/layers.hh"
#include "reference/reference.hh"

namespace {

using namespace se;

struct ConvCase
{
    const char *name;
    int64_t c, m, k, stride, pad, dil, groups, h, w;
};

/**
 * Reduced-spatial-scale stand-ins for the layer geometries the paper
 * workloads spend their time in. Kernel/stride/pad/dilation/groups
 * match the real layers; channel and spatial sizes are scaled so the
 * naive reference stays affordable in CI.
 */
const std::vector<ConvCase> &
convCases()
{
    static const std::vector<ConvCase> cases{
        {"resnet_3x3_s1", 64, 64, 3, 1, 1, 1, 1, 28, 28},
        {"resnet_1x1_s1", 64, 256, 1, 1, 0, 1, 1, 28, 28},
        {"resnet_3x3_s2", 96, 96, 3, 2, 1, 1, 1, 28, 28},
        {"resnet_7x7_s2", 3, 64, 7, 2, 3, 1, 1, 64, 64},
        {"deeplab_3x3_d2", 64, 64, 3, 1, 2, 2, 1, 24, 22},
        {"mobilenet_dw_3x3", 96, 96, 3, 1, 1, 1, 96, 28, 28},
    };
    return cases;
}

double
convFlops(const ConvCase &cc)
{
    const int64_t kext = cc.dil * (cc.k - 1) + 1;
    const int64_t oh = (cc.h + 2 * cc.pad - kext) / cc.stride + 1;
    const int64_t ow = (cc.w + 2 * cc.pad - kext) / cc.stride + 1;
    return 2.0 * (double)cc.m * oh * ow * (cc.c / cc.groups) * cc.k *
           cc.k;
}

/** Wall-clock `reps` calls of forward(), after one warm-up call. */
template <typename F>
double
timeForward(F &&forward, int reps)
{
    forward();  // warm caches and scratch
    const auto t0 = SteadyClock::now();
    for (int r = 0; r < reps; ++r) {
        Tensor y = forward();
        (void)y;
    }
    return msSince(t0) / reps;
}

/** The reference conv loop over a layer's weights and bias. */
Tensor
naiveConv(nn::Conv2d &conv, const ConvCase &cc, const Tensor &x)
{
    const kernels::ConvSpec spec{cc.c,   cc.m,      cc.k,  cc.stride,
                                 cc.pad, cc.groups, cc.dil};
    return reference::conv2dForward(x, conv.weightTensor(),
                                     &conv.biasTensor(), spec);
}

struct ConvResult
{
    double naive_ms, gemm1_ms, gemmN_ms;
    bool identical;
};

ConvResult
runConvCase(const ConvCase &cc, int reps)
{
    Rng rng(7);
    nn::Conv2d conv(cc.c, cc.m, cc.k, cc.stride, cc.pad, cc.groups,
                    rng, /*bias=*/true, cc.dil);
    Tensor x = randn({2, cc.c, cc.h, cc.w}, rng);

    auto naive = [&] { return naiveConv(conv, cc, x); };
    auto gemm = [&] { return conv.forward(x, false); };
    ConvResult res;
    res.naive_ms = timeForward(naive, reps);
    res.identical = hashTensor(naive()) == hashTensor(gemm());

    {
        kernels::SerialScope one_thread;
        res.gemm1_ms = timeForward(gemm, reps * 4);
    }
    res.gemmN_ms = timeForward(gemm, reps * 4);
    return res;
}

/** Best-of-`rounds` ms/call — robust against scheduler noise. */
template <typename F>
double
bestMs(int rounds, int reps, F &&body)
{
    double best = 1e30;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = SteadyClock::now();
        for (int i = 0; i < reps; ++i)
            body();
        best = std::min(best, msSince(t0) / reps);
    }
    return best;
}

/** Random Ce in Omega_P (sparse rows/entries, power-of-2 values). */
Tensor
randomCe(Rng &rng, int64_t rows, int64_t cols,
         const quant::Pow2Alphabet &a)
{
    Tensor ce({rows, cols});
    for (int64_t i = 0; i < rows; ++i) {
        if (rng.chance(0.3))
            continue;
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace se;

    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke")) {
            std::fprintf(stderr,
                         "error: unknown argument '%s' (the only flag "
                         "is --smoke; SE_THREADS sets the width)\n",
                         argv[i]);
            return 2;
        }
        smoke = true;
    }

    std::printf("{\n");
    std::printf("  \"bench\": \"kernels\",\n");
    std::printf("  \"threads\": %d,\n", kernels::threadBudget());
    std::printf("  \"smoke\": %s,\n", bench::jsonBool(smoke));

    bool ok = true;
    double smoke_speedup = 0.0;

    std::printf("  \"conv\": [\n");
    {
        std::vector<ConvCase> cases;
        if (smoke)
            cases.push_back(convCases()[0]);
        else
            cases = convCases();
        for (size_t i = 0; i < cases.size(); ++i) {
            const ConvCase &cc = cases[i];
            const int reps = smoke ? 2 : 3;
            const ConvResult r = runConvCase(cc, reps);
            // The bench batches 2 images per call.
            const double flops = 2.0 * convFlops(cc);
            const double s1 = r.naive_ms / r.gemm1_ms;
            const double sn = r.naive_ms / r.gemmN_ms;
            if (cc.name == std::string("resnet_3x3_s1"))
                smoke_speedup = s1;
            ok = ok && r.identical;
            std::printf(
                "    {\"shape\": \"%s\", \"mflop\": %.1f, "
                "\"naive_ms\": %.3f, \"naive_gflops\": %.2f, "
                "\"gemm1_ms\": %.3f, \"gemm1_gflops\": %.2f, "
                "\"gemmN_ms\": %.3f, \"gemmN_gflops\": %.2f, "
                "\"speedup_1t\": %.2f, \"speedup_nt\": %.2f, "
                "\"bit_identical\": %s}%s\n",
                cc.name, flops / 1e6, r.naive_ms,
                flops / r.naive_ms / 1e6, r.gemm1_ms,
                flops / r.gemm1_ms / 1e6, r.gemmN_ms,
                flops / r.gemmN_ms / 1e6, s1, sn,
                bench::jsonBool(r.identical),
                bench::jsonSep(i, cases.size()));
        }
    }
    std::printf("  ],\n");

    if (!smoke) {
        // --- raw GEMM: legacy loop vs blocked vs threaded ----------
        struct GemmCase
        {
            const char *name;
            int64_t m, k, n;
        };
        const std::vector<GemmCase> gcases{
            {"gemm_256", 256, 256, 256},
            {"gemm_tall_512x64x384", 512, 64, 384},
            {"gemm_ce_basis_2048x9x9", 2048, 9, 9},
        };
        std::printf("  \"gemm\": [\n");
        for (size_t i = 0; i < gcases.size(); ++i) {
            const GemmCase &gc = gcases[i];
            Rng rng(11);
            Tensor a = randn({gc.m, gc.k}, rng);
            Tensor b = randn({gc.k, gc.n}, rng);
            const int reps = 5;

            Tensor c_ref = reference::matmul(a, b);
            auto t0 = SteadyClock::now();
            for (int r = 0; r < reps; ++r)
                reference::matmul(a, b);
            const double naive_ms = msSince(t0) / reps;

            bool identical;
            double gemm1_ms;
            {
                kernels::SerialScope one_thread;
                identical = hashTensor(c_ref) ==
                            hashTensor(kernels::gemm(a, b));
                ok = ok && identical;
                t0 = SteadyClock::now();
                for (int r = 0; r < reps * 4; ++r)
                    kernels::gemm(a, b);
                gemm1_ms = msSince(t0) / (reps * 4);
            }

            t0 = SteadyClock::now();
            for (int r = 0; r < reps * 4; ++r)
                kernels::gemm(a, b);
            const double gemmN_ms = msSince(t0) / (reps * 4);

            const double flops = 2.0 * gc.m * gc.k * gc.n;
            std::printf(
                "    {\"shape\": \"%s\", \"mflop\": %.1f, "
                "\"naive_ms\": %.3f, \"gemm1_ms\": %.3f, "
                "\"gemmN_ms\": %.3f, \"gemm1_gflops\": %.2f, "
                "\"speedup_1t\": %.2f, \"speedup_nt\": %.2f, "
                "\"bit_identical\": %s}%s\n",
                gc.name, flops / 1e6, naive_ms, gemm1_ms, gemmN_ms,
                flops / gemm1_ms / 1e6, naive_ms / gemm1_ms,
                naive_ms / gemmN_ms, bench::jsonBool(identical),
                bench::jsonSep(i, gcases.size()));
        }
        std::printf("  ],\n");

        // --- classifier-head Linear -------------------------------
        {
            Rng rng(13);
            nn::Linear fc(512, 128, rng);
            Tensor x = randn({16, 512}, rng);
            const int reps = 20;

            auto naive = [&] {
                return reference::linearForward(x, fc.weightTensor(),
                                                &fc.biasTensor());
            };
            Tensor y_ref = naive();
            auto t0 = SteadyClock::now();
            for (int r = 0; r < reps; ++r)
                naive();
            const double naive_ms = msSince(t0) / reps;

            Tensor y_fast = fc.forward(x, false);
            const bool identical =
                hashTensor(y_ref) == hashTensor(y_fast);
            ok = ok && identical;
            t0 = SteadyClock::now();
            for (int r = 0; r < reps * 4; ++r)
                fc.forward(x, false);
            const double gemm_ms = msSince(t0) / (reps * 4);
            std::printf(
                "  \"linear_512x128_b16\": {\"naive_ms\": %.3f, "
                "\"gemm_ms\": %.3f, \"speedup\": %.2f, "
                "\"bit_identical\": %s},\n",
                naive_ms, gemm_ms, naive_ms / gemm_ms,
                bench::jsonBool(identical));
        }
    }

    // --- ISA dispatch: per-variant GFLOP/s + differential wall ----
    //
    // Runs in smoke mode too: CI pins SE_KERNEL_ISA=scalar in one job
    // and best-detected in another, and this section is what proves
    // every variant the build carries stays bit-identical.
    kernels::SerialScope one_thread;  // for every section below
    {
        const int64_t m = smoke ? 96 : 256, k = smoke ? 96 : 256,
                      n = smoke ? 96 : 256;
        const int reps = smoke ? 3 : 10;
        Rng rng(17);
        Tensor a = randn({m, k}, rng);
        Tensor b = randn({k, n}, rng);
        Tensor c({m, n});
        const kernels::KernelIsa prev_isa = kernels::activeIsa();

        kernels::setActiveIsa(kernels::KernelIsa::Scalar);
        Tensor c_ref({m, n});
        kernels::sgemm(a.data(), b.data(), c_ref.data(), m, k, n,
                       false);

        const auto isas = kernels::supportedIsas();
        std::printf("  \"isa_dispatch\": {\n");
        std::printf("    \"active\": \"%s\",\n",
                    kernels::isaName(prev_isa));
        std::printf("    \"detected_best\": \"%s\",\n",
                    kernels::isaName(kernels::detectBestIsa()));
        std::printf("    \"variants\": [\n");
        const double flops = 2.0 * m * k * n;
        for (size_t i = 0; i < isas.size(); ++i) {
            kernels::setActiveIsa(isas[i]);
            kernels::sgemm(a.data(), b.data(), c.data(), m, k, n,
                           false);
            const bool identical =
                hashTensor(c_ref) == hashTensor(c);
            ok = ok && identical;
            const double ms = bestMs(3, reps, [&] {
                kernels::sgemm(a.data(), b.data(), c.data(), m, k, n,
                               false);
            });
            std::printf(
                "      {\"isa\": \"%s\", \"gemm_ms\": %.3f, "
                "\"gflops\": %.2f, \"bit_identical\": %s}%s\n",
                kernels::isaName(isas[i]), ms, flops / ms / 1e6,
                bench::jsonBool(identical),
                bench::jsonSep(i, isas.size()));
        }
        std::printf("    ],\n");

        // Conv forward per variant, which lowers onto the double-chain
        // panel with the batch folded into the GEMM columns: the six
        // convs of the served VGG19-sim (base width 12 on 8x8 inputs,
        // so 8x8, 4x4 and 2x2 maps: 1, 4 and 16 samples per 64-column
        // chunk) at batch 1, 5 and 8, and the ResNet 3x3 shape.
        struct IsaConv
        {
            ConvCase cc;
            int64_t batch;
            int reps;
        };
        const ConvCase vgg_convs[] = {
            {"vgg19_sim_layer0", 3, 12, 3, 1, 1, 1, 1, 8, 8},
            {"vgg19_sim_layer3", 12, 12, 3, 1, 1, 1, 1, 8, 8},
            {"vgg19_sim_layer7", 12, 24, 3, 1, 1, 1, 1, 4, 4},
            {"vgg19_sim_layer10", 24, 24, 3, 1, 1, 1, 1, 4, 4},
            {"vgg19_sim_layer14", 24, 48, 3, 1, 1, 1, 1, 2, 2},
            {"vgg19_sim_layer17", 48, 48, 3, 1, 1, 1, 1, 2, 2},
        };
        std::vector<IsaConv> conv_shapes;
        for (const ConvCase &cc : vgg_convs)
            for (int64_t batch : {1, 5, 8})
                conv_shapes.push_back({cc, batch, smoke ? 20 : 100});
        conv_shapes.push_back({convCases()[0], 2, smoke ? 2 : 5});
        std::printf("    \"conv_forward\": [\n");
        const size_t conv_rows = conv_shapes.size() * isas.size();
        size_t row = 0;
        for (const IsaConv &sc : conv_shapes) {
            const ConvCase &cc = sc.cc;
            Rng crng(23);
            nn::Conv2d conv(cc.c, cc.m, cc.k, cc.stride, cc.pad,
                            cc.groups, crng, /*bias=*/true, cc.dil);
            Tensor x = randn({sc.batch, cc.c, cc.h, cc.w}, crng);
            const uint64_t want = hashTensor(naiveConv(conv, cc, x));
            const double cflops = (double)sc.batch * convFlops(cc);
            for (kernels::KernelIsa isa : isas) {
                kernels::setActiveIsa(isa);
                const bool identical =
                    hashTensor(conv.forward(x, false)) == want;
                ok = ok && identical;
                const double ms = bestMs(3, sc.reps, [&] {
                    Tensor y = conv.forward(x, false);
                    (void)y;
                });
                std::printf(
                    "      {\"shape\": \"%s\", \"batch\": %lld, "
                    "\"isa\": \"%s\", \"ms\": %.3f, "
                    "\"gflops\": %.2f, \"bit_identical\": %s}%s\n",
                    cc.name, (long long)sc.batch, kernels::isaName(isa),
                    ms, cflops / ms / 1e6, bench::jsonBool(identical),
                    bench::jsonSep(row++, conv_rows));
            }
        }
        kernels::setActiveIsa(prev_isa);
        std::printf("    ]\n  },\n");
    }

    // --- fused Ce-code GEMM vs the staged panel-decode reference --
    double fused_speedup = 0.0;
    bool fused_identical = true;
    {
        // The serve-layer rebuild geometry: tall packed Ce against a
        // small basis. The fused kernel must at least match the
        // staged variant (it skips the decode-store-reload pass).
        const int64_t m = smoke ? 2048 : 8192, r = 9, n = 9;
        const int reps = smoke ? 20 : 50;
        Rng rng(19);
        quant::Pow2Alphabet alpha;
        alpha.expMax = 0;
        alpha.numLevels = 7;
        Tensor ce = randomCe(rng, m, r, alpha);
        Tensor basis = randn({r, n}, rng);
        const auto packed = core::packCe(ce, alpha);
        kernels::ScratchArena arena;

        Tensor staged({m, n});
        reference::gemmCeBPanelDecode(packed.rowMask.data(),
                                      packed.nibbles.data(), m, r,
                                      basis.data(), n, alpha,
                                      staged.data(), arena);
        Tensor fused({m, n});
        kernels::gemmCeB(packed.rowMask.data(), packed.nibbles.data(),
                         m, r, basis.data(), n, alpha, fused.data(),
                         arena);
        fused_identical = hashTensor(staged) == hashTensor(fused);
        ok = ok && fused_identical;

        const double staged_ms = bestMs(3, reps, [&] {
            reference::gemmCeBPanelDecode(
                packed.rowMask.data(), packed.nibbles.data(), m, r,
                basis.data(), n, alpha, staged.data(), arena);
        });
        const double fused_ms = bestMs(3, reps, [&] {
            kernels::gemmCeB(packed.rowMask.data(),
                             packed.nibbles.data(), m, r,
                             basis.data(), n, alpha, fused.data(),
                             arena);
        });
        fused_speedup = staged_ms / fused_ms;
        const double flops = 2.0 * m * r * n;
        std::printf(
            "  \"gemm_ce_fused\": {\"shape\": \"%lldx%dx%d\", "
            "\"panel_decode_ms\": %.3f, \"fused_ms\": %.3f, "
            "\"fused_gflops\": %.2f, \"speedup\": %.2f, "
            "\"bit_identical\": %s},\n",
            (long long)m, (int)r, (int)n, staged_ms, fused_ms,
            flops / fused_ms / 1e6, fused_speedup,
            bench::jsonBool(fused_identical));
    }

    // --- gemmCeB at the serve pieces' real shapes, per ISA -------
    //
    // A 3x3 conv piece is (Cg*3) x 3 with rank 3, an FC piece
    // ceil(C/4) x 4 with rank 4: these rows time the one-strip Ce
    // body those shapes run. Bit-identity against the staged
    // reference joins all_bit_identical; no speed gate reads them.
    {
        struct RealShape
        {
            int64_t m, rn;
        };
        const RealShape shapes[] = {{48, 3}, {144, 3}, {48, 4}, {144, 4}};
        const int reps = smoke ? 2000 : 20000;
        const kernels::KernelIsa prev_isa = kernels::activeIsa();
        const auto isas = kernels::supportedIsas();
        const size_t rows = std::size(shapes) * isas.size();
        size_t row = 0;
        std::printf("  \"gemm_ceb\": [\n");
        for (const RealShape &sh : shapes) {
            const int64_t m = sh.m, r = sh.rn, n = sh.rn;
            Rng rng(29);
            quant::Pow2Alphabet alpha;
            alpha.expMax = 0;
            alpha.numLevels = 7;
            Tensor ce = randomCe(rng, m, r, alpha);
            Tensor basis = randn({r, n}, rng);
            const auto packed = core::packCe(ce, alpha);
            kernels::ScratchArena arena;
            Tensor want({m, n});
            reference::gemmCeBPanelDecode(packed.rowMask.data(),
                                          packed.nibbles.data(), m, r,
                                          basis.data(), n, alpha,
                                          want.data(), arena);
            const uint64_t want_hash = hashTensor(want);
            Tensor got({m, n});
            auto run = [&] {
                kernels::gemmCeB(packed.rowMask.data(),
                                 packed.nibbles.data(), m, r,
                                 basis.data(), n, alpha, got.data(),
                                 arena);
            };
            for (kernels::KernelIsa isa : isas) {
                kernels::setActiveIsa(isa);
                run();
                const bool identical = hashTensor(got) == want_hash;
                ok = ok && identical;
                const double ms = bestMs(3, reps, run);
                std::printf(
                    "    {\"isa\": \"%s\", \"m\": %lld, \"r\": %lld, "
                    "\"n\": %lld, \"us\": %.4f, \"gflops\": %.2f, "
                    "\"bit_identical\": %s}%s\n",
                    kernels::isaName(isa), (long long)m, (long long)r,
                    (long long)n, ms * 1e3,
                    2.0 * m * r * n / ms / 1e6,
                    bench::jsonBool(identical),
                    bench::jsonSep(row++, rows));
            }
        }
        kernels::setActiveIsa(prev_isa);
        std::printf("  ],\n");
    }

    std::printf("  \"all_bit_identical\": %s", bench::jsonBool(ok));
    if (smoke) {
        std::printf(",\n  \"smoke_speedup_1t\": %.2f,\n",
                    smoke_speedup);
        std::printf("  \"smoke_fused_speedup\": %.2f,\n",
                    fused_speedup);
        // Gate: fast conv path beats naive, fused Ce GEMM at least
        // matches the staged decode (>= 1.0 minus timer noise), and
        // every ISA variant of every checked kernel is bit-identical.
        const bool pass =
            ok && smoke_speedup > 1.0 && fused_speedup >= 0.98;
        std::printf("  \"smoke_pass\": %s\n}\n",
                    bench::jsonBool(pass));
        return pass ? 0 : 1;
    }
    std::printf("\n}\n");
    return ok ? 0 : 1;
}
