/**
 * @file
 * Runtime-layer wall-clock benchmark. Emits JSON (one object to
 * stdout) timing the same multi-layer SmartExchange decomposition
 * sweep three ways — legacy serial path, N-thread CompressionPipeline,
 * and a cache-warm re-run — plus a batched accelerator sweep through
 * SimDriver, a per-piece-shape decomposeMatrix timing and the compress
 * tail (install, quantize, v4 save, eager reopen). Diffing
 * these numbers across changes tracks the perf trajectory. Each
 * pipeline thread count is warmed up once and then timed over several
 * passes (median and min reported).
 *
 * Usage: ./bench_runtime [--smoke] [max_threads]
 *
 * max_threads defaults to the SE_THREADS budget. Every pipeline row
 * fans out on the one process executor, so its "width" is the
 * requested thread count capped at that budget.
 *
 * --smoke runs the serial reference, the masked_refit and the init
 * sections only, and exits non-zero unless the GEMM-backed ALS refit
 * beats the per-row-dot loop of tests/reference by > 1.3x (the median
 * ratio of interleaved rounds; the quartiles are printed) while
 * staying bit-identical — the CI regression gate for the
 * compression-time kernel lowering — and the seeded-init draws equal
 * their std::mt19937_64 reference (init_identical; no timing gate).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include "base/clock.hh"
#include "base/hash.hh"
#include "base/random.hh"
#include "bench_util.hh"
#include "core/apply.hh"
#include "core/model_file.hh"
#include "core/smart_exchange.hh"
#include "core/stream_loader.hh"
#include "kernels/kernels.hh"
#include "linalg/linalg.hh"
#include "reference/reference.hh"
#include "runtime/pipeline.hh"
#include "runtime/sim_driver.hh"

namespace {

using Clock = se::SteadyClock;
using se::msSince;

/** The sweep subject: a reduced-scale VGG19 (16 conv + 1 fc layers). */
std::unique_ptr<se::nn::Sequential>
makeSubject()
{
    se::models::SimConfig mcfg;
    mcfg.baseWidth = 12;
    mcfg.inHeight = mcfg.inWidth = 12;
    mcfg.seed = 99;
    return se::models::buildSim(se::models::ModelId::VGG19, mcfg);
}

/** FNV digest over every conv/fc weight, to prove runs agree. */
uint64_t
weightDigest(se::nn::Sequential &net)
{
    uint64_t h = se::kFnvOffsetBasis;
    net.visit([&](se::nn::Layer &l) {
        if (auto *c = dynamic_cast<se::nn::Conv2d *>(&l))
            h = se::hashTensor(c->weightTensor(), h);
        else if (auto *f = dynamic_cast<se::nn::Linear *>(&l))
            h = se::hashTensor(f->weightTensor(), h);
    });
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace se;

    bool smoke = false;
    int max_threads = kernels::threadBudget();
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else
            max_threads = bench::argCount("max_threads", argv[i]);
    }
    if (max_threads < 1)
        max_threads = 1;

    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;

    // --- serial reference (the legacy path, no runtime layer) -------
    auto serial_net = makeSubject();
    auto t0 = Clock::now();
    auto serial_report =
        core::applySmartExchange(*serial_net, se_opts, apply_opts);
    const double serial_ms = msSince(t0);
    const uint64_t serial_digest = weightDigest(*serial_net);

    std::printf("{\n");
    std::printf("  \"bench\": \"runtime_pipeline\",\n");
    std::printf("  \"decomposed_layers\": %zu,\n",
                serial_report.layers.size());
    std::printf("  \"serial_ms\": %.2f,\n", serial_ms);

    // --- masked ALS refit: legacy per-row dots vs GEMM-backed ------
    // The isolated measurement of what the fitCoefficientsMasked
    // lowering buys: same inputs, the reference loop (recompute every
    // masked Gram dot per row) vs the library (B*B^T and W*B^T once
    // through the double-chain GEMM, per-row gather). Bit-identical
    // Ce required.
    bool refit_identical = false;
    double refit_speedup = 0.0;
    {
        const int64_t m = 1024, r = 9, n = 9;
        Rng rng(23);
        Tensor w = randn({m, n}, rng);
        Tensor b = randn({r, n}, rng);
        for (int64_t i = 0; i < r; ++i)
            b.at(i, i % n) += 2.0f;
        Tensor mask({m, r}, 1.0f);
        for (int64_t i = 0; i < mask.size(); ++i)
            if (rng.chance(0.3))
                mask[i] = 0.0f;
        const int reps = smoke ? 3 : 10;
        // Interleaved rounds, each timing the legacy loop and then the
        // library: a host stall skews one round's ratio, not the
        // median the gate reads.
        constexpr int kRefitRounds = 11;
        const Tensor ce_legacy =
            reference::fitCoefficientsMasked(w, b, mask);
        const Tensor ce_fast = linalg::fitCoefficientsMasked(w, b, mask);
        std::vector<double> legacy_ms, fast_ms, ratios;
        for (int round = 0; round < kRefitRounds; ++round) {
            t0 = Clock::now();
            for (int rep = 0; rep < reps; ++rep)
                reference::fitCoefficientsMasked(w, b, mask);
            legacy_ms.push_back(msSince(t0) / reps);
            t0 = Clock::now();
            for (int rep = 0; rep < reps; ++rep)
                linalg::fitCoefficientsMasked(w, b, mask);
            fast_ms.push_back(msSince(t0) / reps);
            ratios.push_back(legacy_ms.back() / fast_ms.back());
        }
        auto quartile = [](std::vector<double> v, int q) {
            std::sort(v.begin(), v.end());
            return v[(v.size() - 1) * q / 4];
        };

        refit_identical = hashTensor(ce_legacy) == hashTensor(ce_fast);
        refit_speedup = quartile(ratios, 2);
        std::printf("  \"masked_refit\": {\"shape\": \"%dx%dx%d\", "
                    "\"rounds\": %d, \"legacy_ms\": %.3f, "
                    "\"gemm_ms\": %.3f, \"speedup\": %.2f, "
                    "\"speedup_q1\": %.2f, \"speedup_q3\": %.2f, "
                    "\"bit_identical\": %s}%s\n",
                    (int)m, (int)r, (int)n, kRefitRounds,
                    quartile(legacy_ms, 2), quartile(fast_ms, 2),
                    refit_speedup, quartile(ratios, 1),
                    quartile(ratios, 3), bench::jsonBool(refit_identical),
                    ",");
    }

    // --- seeded init: buildSim and randn ----------------------------
    // The cold-start cost of a seeded net: the median ms of building
    // the subject (its conv/fc He init is every draw), and ns per
    // randn value over a tensor of the subject's parameter count.
    // init_identical: a digest of 10^5 Rng normals plus the engine's
    // next draw equals the same digest from std::mt19937_64 with a
    // fresh std::normal_distribution<float> per draw (the reference is
    // libstdc++'s polar method, which Rng reproduces).
    bool init_identical = false;
    {
        constexpr int kInitPasses = 21;
        int64_t params = 0;
        makeSubject()->visit([&](nn::Layer &l) {
            if (auto *c = dynamic_cast<nn::Conv2d *>(&l))
                params += c->weightTensor().size();
            else if (auto *f = dynamic_cast<nn::Linear *>(&l))
                params += f->weightTensor().size();
        });
        std::vector<double> build_ms, randn_ns;
        Rng rng(31);
        for (int pass = -1; pass < kInitPasses; ++pass) {
            t0 = Clock::now();
            auto net = makeSubject();
            const double b_ms = msSince(t0);
            t0 = Clock::now();
            const Tensor t = randn({params}, rng);
            const double r_ns = 1e6 * msSince(t0) / (double)params;
            if (pass >= 0) {
                build_ms.push_back(b_ms);
                randn_ns.push_back(r_ns);
            }
        }
        std::sort(build_ms.begin(), build_ms.end());
        std::sort(randn_ns.begin(), randn_ns.end());

        constexpr int64_t kDraws = 100000;
        std::vector<float> normals((size_t)kDraws);
        Rng ours(901);
        ours.fillGaussian(normals.data(), kDraws, 0.0f, 1.0f);
        const uint64_t ours_digest = hashValue(
            ours.raw()(),
            fnv1a(normals.data(), normals.size() * sizeof(float)));
        std::mt19937_64 ref(901);
        for (float &v : normals) {
            std::normal_distribution<float> d(0.0f, 1.0f);
            v = d(ref);
        }
        const uint64_t ref_digest = hashValue(
            ref(), fnv1a(normals.data(), normals.size() * sizeof(float)));
        init_identical = ours_digest == ref_digest;
        std::printf("  \"init\": {\"params\": %lld, \"passes\": %d, "
                    "\"build_sim_ms\": %.3f, \"randn_ns_per_value\": %.2f, "
                    "\"draws\": %lld, \"init_identical\": %s},\n",
                    (long long)params, kInitPasses,
                    build_ms[build_ms.size() / 2],
                    randn_ns[randn_ns.size() / 2], (long long)kDraws,
                    bench::jsonBool(init_identical));
    }

    if (smoke) {
        const bool pass =
            refit_identical && refit_speedup > 1.3 && init_identical;
        std::printf("  \"smoke_refit_speedup\": %.2f,\n",
                    refit_speedup);
        std::printf("  \"smoke_pass\": %s\n}\n",
                    bench::jsonBool(pass));
        return pass ? 0 : 1;
    }

    // --- pipeline at 1..max_threads ---------------------------------
    // One untimed warm-up pass per thread count (pool spin-up, page
    // faults, allocator growth), then kPipelinePasses timed passes,
    // each on a fresh subject and a fresh cold-cache pipeline. The
    // median and min carry the spread; "speedup" is the serial
    // reference above over the median.
    constexpr int kPipelinePasses = 5;
    std::printf("  \"pipeline\": [\n");
    std::vector<int> thread_counts;
    for (int t = 1; t <= max_threads; t *= 2)
        thread_counts.push_back(t);
    if (thread_counts.back() != max_threads)
        thread_counts.push_back(max_threads);
    for (size_t i = 0; i < thread_counts.size(); ++i) {
        const int threads = thread_counts[i];
        runtime::RuntimeOptions ro;
        ro.threads = threads;
        std::vector<double> samples;
        size_t units = 0;
        int width = 0;
        bool identical = true;
        for (int pass = -1; pass < kPipelinePasses; ++pass) {
            runtime::CompressionPipeline pipe(ro);
            auto net = makeSubject();
            t0 = Clock::now();
            pipe.run(*net, se_opts, apply_opts);
            const double ms = msSince(t0);
            identical = identical && weightDigest(*net) == serial_digest;
            units = pipe.stats().units;
            width = pipe.stats().threadsUsed;
            if (pass >= 0)
                samples.push_back(ms);
        }
        std::sort(samples.begin(), samples.end());
        const double median_ms = samples[samples.size() / 2];
        std::printf("    {\"threads\": %d, \"width\": %d, "
                    "\"units\": %zu, "
                    "\"passes\": %d, \"median_ms\": %.2f, "
                    "\"min_ms\": %.2f, \"speedup\": %.2f, "
                    "\"bit_identical\": %s}%s\n",
                    threads, width, units, kPipelinePasses, median_ms,
                    samples.front(), serial_ms / median_ms,
                    bench::jsonBool(identical),
                    bench::jsonSep(i, thread_counts.size()));
    }
    std::printf("  ],\n");

    // --- cache-warm re-run (the ablation / design-scan pattern) -----
    {
        runtime::RuntimeOptions ro;
        ro.threads = max_threads;
        ro.cacheCapacity = 65536;
        runtime::CompressionPipeline pipe(ro);
        auto warm_net = makeSubject();
        pipe.run(*warm_net, se_opts, apply_opts);  // populate

        auto net = makeSubject();
        t0 = Clock::now();
        pipe.run(*net, se_opts, apply_opts);
        const double ms = msSince(t0);
        std::printf("  \"cache_warm\": {\"ms\": %.2f, "
                    "\"speedup\": %.2f, \"hits\": %zu, "
                    "\"units\": %zu, \"bit_identical\": %s},\n",
                    ms, serial_ms / ms, pipe.stats().cacheHits,
                    pipe.stats().units,
                    bench::jsonBool(weightDigest(*net) ==
                                    serial_digest));
    }

    // --- decomposeMatrix per piece shape (informational) -----------
    // Every unit of the subject grouped by its piece shape, at the
    // perfbench compress operating point (theta 0.01, a 0.5 vector-
    // sparsity floor), serially: the median us per call over a
    // warm-up plus kDecompPasses passes, the mean share of Ce rows
    // each Algorithm 1 iteration visited (SeTrace::liveRows), and
    // "iterations_run": the mean number of iterations the loop really
    // ran per unit (SeTrace::fixedPointAt where it stopped at an exact
    // fixed point, else SeMatrix::iterations).
    {
        constexpr int kDecompPasses = 5;
        core::SeOptions op = se_opts;
        op.minVectorSparsity = 0.5;
        auto net = makeSubject();
        const core::CompressionPlan plan =
            core::planCompression(*net, op, apply_opts);
        std::map<std::pair<int64_t, int64_t>, std::vector<const Tensor *>>
            by_shape;
        for (const core::DecompUnit &u : plan.units)
            by_shape[{u.matrix.dim(0), u.matrix.dim(1)}].push_back(
                &u.matrix);
        std::printf("  \"decompose_shapes\": {\"theta\": %g, "
                    "\"min_vector_sparsity\": %g, \"passes\": %d, "
                    "\"shapes\": [\n",
                    op.vectorThreshold, op.minVectorSparsity,
                    kDecompPasses);
        size_t k = 0;
        for (const auto &[shape, units] : by_shape) {
            std::vector<double> us;
            for (int pass = -1; pass < kDecompPasses; ++pass)
                for (const Tensor *w : units) {
                    t0 = Clock::now();
                    core::decomposeMatrix(*w, op);
                    if (pass >= 0)
                        us.push_back(1000.0 * msSince(t0));
                }
            std::sort(us.begin(), us.end());
            double live = 0.0;
            size_t iters = 0, run = 0;
            for (const Tensor *w : units) {
                core::SeTrace trace;
                const core::SeMatrix se =
                    core::decomposeMatrix(*w, op, &trace);
                for (double f : trace.liveRows)
                    live += f;
                iters += trace.liveRows.size();
                run += (size_t)(trace.fixedPointAt ? trace.fixedPointAt
                                                   : se.iterations);
            }
            std::printf("    {\"shape\": \"%lldx%lld\", \"units\": %zu, "
                        "\"median_us\": %.1f, "
                        "\"live_row_fraction\": %.3f, "
                        "\"iterations_run\": %.2f}%s\n",
                        (long long)shape.first, (long long)shape.second,
                        units.size(), us[us.size() / 2],
                        live / (double)iters,
                        (double)run / (double)units.size(),
                        bench::jsonSep(k++, by_shape.size()));
        }
        std::printf("  ]},\n");
    }

    // --- compress tail (informational) ------------------------------
    // The serial steps after the decomposition, at the same operating
    // point: installing every piece's Ce*B into the net
    // (finishCompression), snapping the bases to 8 bits and
    // reinstalling them (quantizeBasisAtCompress), the v4 save to
    // memory, and an eager StreamedModel reopen of the saved file (its
    // write is not timed). Median ms over a warm-up plus kTailPasses
    // passes; no gate.
    {
        constexpr int kTailPasses = 21;
        core::SeOptions op = se_opts;
        op.minVectorSparsity = 0.5;
        auto net = makeSubject();
        const core::CompressedModel unquantized =
            core::compressToRecords(*net, op, apply_opts);
        const core::CompressionPlan plan =
            core::planCompression(*net, op, apply_opts);
        std::vector<core::SeMatrix> pieces;
        for (const core::SeLayerRecord &rec : unquantized.records)
            pieces.insert(pieces.end(), rec.pieces.begin(),
                          rec.pieces.end());
        const char *path = "/tmp/se_bench_runtime_tail.sexm";
        core::StreamLoaderOptions eager;
        eager.eager = true;
        std::vector<double> install, quantize, save, reopen;
        size_t bytes = 0, reopened_pieces = 0;
        for (int pass = -1; pass < kTailPasses; ++pass) {
            t0 = Clock::now();
            core::finishCompression(plan, pieces, op);
            const double install_ms = msSince(t0);

            core::CompressedModel model = unquantized;
            t0 = Clock::now();
            core::quantizeBasisAtCompress(*net, model, op, apply_opts);
            const double quantize_ms = msSince(t0);

            std::ostringstream os(std::ios::binary);
            t0 = Clock::now();
            core::saveModelV4(os, model.records, model.dense);
            const double save_ms = msSince(t0);
            const std::string image = os.str();
            bytes = image.size();
            std::ofstream(path, std::ios::binary | std::ios::trunc)
                .write(image.data(), (std::streamsize)image.size());

            t0 = Clock::now();
            const core::StreamedModel reopened(path, eager);
            const double reopen_ms = msSince(t0);
            reopened_pieces = reopened.pieceCount();
            if (pass >= 0) {
                install.push_back(install_ms);
                quantize.push_back(quantize_ms);
                save.push_back(save_ms);
                reopen.push_back(reopen_ms);
            }
        }
        std::remove(path);
        auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        std::printf("  \"compress_tail\": {\"units\": %zu, \"passes\": %d, "
                    "\"install_ms\": %.3f, \"quantize_ms\": %.3f, "
                    "\"save_ms\": %.3f, \"reopen_ms\": %.3f, "
                    "\"bundle_bytes\": %zu, \"reopened_pieces\": %zu},\n",
                    pieces.size(), kTailPasses, median(install),
                    median(quantize), median(save), median(reopen), bytes,
                    reopened_pieces);
    }

    // --- batched accelerator sweep through SimDriver ----------------
    {
        auto accs = bench::paperAccelerators();
        auto ids = models::acceleratorBenchmarkModels();
        auto workloads = bench::annotatedWorkloads(ids);
        auto skip = bench::scnnEffNetSkip(accs, ids);
        const int reps = 40;

        runtime::RuntimeOptions serial_ro;
        serial_ro.threads = 0;
        runtime::SimDriver serial_driver(serial_ro);
        t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            serial_driver.sweep(accs, workloads, false, skip);
        const double sweep_serial_ms = msSince(t0);

        runtime::RuntimeOptions par_ro;
        par_ro.threads = max_threads;
        runtime::SimDriver par_driver(par_ro);
        t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            par_driver.sweep(accs, workloads, false, skip);
        const double sweep_par_ms = msSince(t0);

        std::printf("  \"sim_sweep\": {\"cells\": %zu, \"reps\": %d, "
                    "\"serial_ms\": %.2f, \"threads\": %d, "
                    "\"parallel_ms\": %.2f, \"speedup\": %.2f}\n",
                    accs.size() * workloads.size(), reps,
                    sweep_serial_ms, max_threads, sweep_par_ms,
                    sweep_serial_ms / sweep_par_ms);
    }
    std::printf("}\n");
    return 0;
}
