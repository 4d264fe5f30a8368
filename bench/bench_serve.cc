/**
 * @file
 * Serving-layer wall-clock benchmark. Emits one JSON object timing
 * the zoo CNN (reduced-scale VGG19) served from its SmartExchange
 * form:
 *
 *  - rebuild engine: cold (per-slice Ce*B reconstruction) vs warm
 *    (per-layer rebuilt-weight cache) latency per rebuild-all;
 *  - per-call serving (dense weights are transient, rebuilt per
 *    forward — the paper's storage/compute trade-off): serial
 *    one-request-at-a-time vs the micro-batching ServeEngine, where
 *    batching amortizes the rebuild across the batch;
 *  - cached-weight serving: the same comparison when weights persist
 *    after the first rebuild (wins come from batching + threads);
 *  - model file: v2 vs v3 bytes of the same bundle (v3 = packed
 *    4-bit codes + zero-row elision + dense residual);
 *  - quantized serving: a CeDirect (packed-code) engine A/B'd
 *    against the Dense engine of the same bundle behind one
 *    ServeFront, with per-tenant latency stats, cold-start
 *    (pack + first rebuild) cost, and a bit-identity gate;
 *  - multi-model serving: two zoo models behind one ServeFront, each
 *    response checked bit-identical to its single-model session;
 *  - hot reload: 50 reloadModel() generation flips under in-flight
 *    traffic — zero drops, no cross-generation blends, gen == 51;
 *  - admission control: queueCap shed rate under a burst, with the
 *    completed+shed == offered conservation check;
 *  - flush policy: Deadline vs Full p99 at equal paced offered load
 *    (the latency/throughput knob made visible);
 *  - engine stand-up: median cold start of a 3-replica engine and
 *    its factory calls (one per engine: replicas clone the bound
 *    net);
 *  - stream serve: the streamed-v4 CeDirect bundle served by the
 *    serial one-request loop and by the engine, bit-identical, with
 *    the inline piece-decode stall of the lazy bind;
 *  - engine latency percentiles.
 *
 * Usage: ./bench_serve [--smoke] [threads] [requests]
 *
 * --smoke shrinks the run and turns the noise-tolerant invariants
 * into exit gates (batched >= serial, deadline p99 < full p99,
 * v3 <= 60% of v2 bytes, v4 <= 90% of v3 bytes, lazy v4 cold start
 * < eager, one factory call per engine stand-up) on top of the
 * always-gated bit-identity/warm<cold checks — the Release CI job
 * runs it on every PR.
 *
 * SE_SERVE_QUEUE_CAP / SE_SERVE_DEADLINE_MS / SE_SERVE_WEIGHT_SOURCE
 * / SE_MODEL_FORMAT (via RuntimeOptions::fromEnv) override the
 * admission cap, deadline, serving weight source and reported save
 * format used by the respective sections.
 *
 * SE_FAILPOINTS=<spec> switches the whole run into a fault drill:
 * the perf sections are skipped (faults would corrupt their timings)
 * and a quarantine/fallback/recovery scenario is gated instead — the
 * Release CI job runs it with stream_piece_decode:1in8.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "base/clock.hh"
#include "base/failpoint.hh"
#include "base/hash.hh"
#include "bench_util.hh"
#include "core/stream_loader.hh"
#include "nn/blocks.hh"
#include "runtime/pipeline.hh"
#include "serve/engine.hh"
#include "serve/front.hh"

namespace {

using Clock = se::SteadyClock;
using se::msSince;

se::models::SimConfig
subjectConfig()
{
    // Wider channels on a small spatial grid: the serving-relevant
    // regime where weight-rebuild cost is a visible share of a
    // single-request forward (late VGG stages are exactly that).
    se::models::SimConfig cfg;
    cfg.baseWidth = 12;
    cfg.inHeight = cfg.inWidth = 8;
    cfg.seed = 77;
    return cfg;
}

std::unique_ptr<se::nn::Sequential>
makeSubject()
{
    return se::models::buildSim(se::models::ModelId::VGG19,
                                subjectConfig());
}

/** Second tenant for the multi-model section (same input geometry). */
std::unique_ptr<se::nn::Sequential>
makeSecondSubject()
{
    return se::models::buildSim(se::models::ModelId::VGG11,
                                subjectConfig());
}

/**
 * Tiny CNN for the failpoint drill's streamed victim tenant: few
 * enough v4 pieces (two) that a 1-in-N decode fault leaves most
 * stand-up attempts clean, so reload-driven recovery is reachable.
 */
std::unique_ptr<se::nn::Sequential>
makeDrillNet(uint64_t seed)
{
    se::Rng rng(seed);
    const auto cfg = subjectConfig();
    auto net = std::make_unique<se::nn::Sequential>();
    net->add<se::nn::Conv2d>(cfg.inChannels, 4, 3, 1, 1, 1, rng,
                             false);
    net->add<se::nn::ReLU>();
    net->add<se::nn::GlobalAvgPool>();
    net->add<se::nn::Flatten>();
    net->add<se::nn::Linear>(4, 4, rng, false);
    return net;
}

/** Fixed synthetic request stream. */
std::vector<se::Tensor>
makeTraffic(int n)
{
    se::Rng rng(123);
    std::vector<se::Tensor> xs;
    xs.reserve((size_t)n);
    const auto cfg = subjectConfig();
    for (int i = 0; i < n; ++i)
        xs.push_back(se::randn(
            {cfg.inChannels, cfg.inHeight, cfg.inWidth}, rng, 0.0f,
            1.0f));
    return xs;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace se;

    bool smoke = false;
    int max_threads = kernels::threadBudget();
    int requests = 0;  // 0 = default per mode
    int pos = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (pos == 0) {
            max_threads = bench::argCount("max_threads", argv[i]);
            ++pos;
        } else if (pos == 1) {
            requests = bench::argCount("requests", argv[i]);
            ++pos;
        } else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    if (max_threads < 1)
        max_threads = 1;
    if (requests <= 0)
        requests = smoke ? 32 : 128;
    if (requests < 8)
        requests = 8;

    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    // Serve at the paper's operating point: Table II reports 60-87%
    // vector-wise sparsity for the retrained VGG19, which an
    // untrained random-weight subject cannot reach through the
    // threshold alone. The floor keeps the serving workload (and the
    // v3 zero-row elision it feeds) representative.
    se_opts.minVectorSparsity = 0.5;
    core::ApplyOptions apply_opts;

    // Compress the subject (per-matrix work through the pipeline's
    // decomposition cache) and keep the shippable records — the
    // serving-side storage of record.
    auto subject = makeSubject();
    const runtime::RuntimeOptions run_opts =
        runtime::RuntimeOptions::fromEnv();
    run_opts.applyFailpoints();  // arm SE_FAILPOINTS, if any
    runtime::CompressionPipeline pipe(run_opts);
    auto compressed = core::compressToRecords(
        *subject, se_opts, apply_opts,
        [&pipe](const Tensor &w, const core::SeOptions &o) {
            return pipe.cache().getOrCompute(w, o);
        });
    auto records =
        std::make_shared<std::vector<core::SeLayerRecord>>(
            std::move(compressed.records));
    auto dense =
        std::make_shared<const std::vector<core::DenseTensor>>(
            std::move(compressed.dense));
    // SE_SERVE_WEIGHT_SOURCE selects what the serving sections
    // rebuild from; responses are bit-identical either way.
    const serve::WeightSource weight_source =
        run_opts.serveWeightSource ==
                runtime::ServeWeightSource::CeDirect
            ? serve::WeightSource::CeDirect
            : serve::WeightSource::Dense;
    auto traffic = makeTraffic(requests);

    std::printf("{\n");
    std::printf("  \"bench\": \"serve\",\n");
    std::printf("  \"smoke\": %s,\n", bench::jsonBool(smoke));
    std::printf("  \"model\": \"VGG19-sim\",\n");
    std::printf("  \"requests\": %d,\n", requests);
    std::printf("  \"decomposed_layers\": %zu,\n", records->size());
    std::printf("  \"compression_rate\": %.2f,\n",
                compressed.report.compressionRate());
    std::printf("  \"weight_source\": \"%s\",\n",
                weight_source == serve::WeightSource::CeDirect
                    ? "ce"
                    : "dense");

    // --- failpoint drill (replaces the perf run when armed) ---------
    // With SE_FAILPOINTS armed, wall-clock numbers are meaningless (a
    // fault can land mid-measurement), so the run becomes a fault
    // drill: a streamed "victim" tenant absorbs the injected faults
    // through quarantine / fallback / reload recovery while a
    // records-backed "resident" bystander must keep answering
    // bit-identically. Designed for decode/build/exec-class faults
    // (the CI job arms stream_piece_decode:1in8); the exit status
    // gates confinement, conservation and recovery.
    if (failpoint::anyArmed()) {
        std::string armed_json;
        for (const auto &n : failpoint::armedNames()) {
            if (!armed_json.empty())
                armed_json += ", ";
            armed_json += "\"" + n + "\"";
        }

        // Ship the victim as a v4 streaming bundle; every stand-up
        // re-opens the file so piece decode stays on the fault path.
        core::SeOptions drill_se;
        drill_se.vectorThreshold = 0.01;
        auto drill_net = makeDrillNet(5);
        auto drill_comp =
            core::compressToRecords(*drill_net, drill_se, apply_opts);
        core::quantizeBasisAtCompress(drill_comp.records);
        const char *victim_path = "/tmp/se_bench_serve_failpoint.sexm";
        {
            std::ostringstream os(std::ios::binary);
            core::saveModelV4(os, drill_comp.records,
                              drill_comp.dense);
            std::ofstream f(victim_path,
                            std::ios::binary | std::ios::trunc);
            f << os.str();
        }
        const serve::NetFactory drill_factory = [] {
            return makeDrillNet(5);
        };
        const auto openVictim = [&] {
            return serve::makeModelEntry(
                std::make_shared<core::StreamedModel>(victim_path),
                drill_factory, drill_se, apply_opts);
        };

        // Per-input resident references from a plain session (no
        // engine, no stream — the reference path carries no
        // failpoints the drill arms).
        const int offered = 24;
        std::vector<Tensor> resident_ref;
        {
            serve::SessionOptions so;
            so.weightSource = weight_source;
            so.denseState = dense;
            serve::InferenceSession session(makeSubject(), records,
                                            se_opts, apply_opts, so);
            for (int i = 0; i < offered; ++i) {
                const Tensor &x = traffic[(size_t)i % traffic.size()];
                resident_ref.push_back(session.forward(x.reshaped(
                    {1, x.dim(0), x.dim(1), x.dim(2)})));
            }
        }

        // Stand the front up. A fault injected into the eager
        // resident build or the victim's open only advances the
        // policy counters — retry until one attempt gets through.
        serve::ServeOptions fopts;
        fopts.threads = 2;
        fopts.maxBatch = 8;
        fopts.reloadFallback = true;
        std::unique_ptr<serve::ServeFront> front;
        int standup_retries = 0;
        while (!front && standup_retries < 64) {
            try {
                serve::ModelRegistry reg;
                reg.add("resident",
                        serve::ModelEntry{records,
                                          [] { return makeSubject(); },
                                          se_opts, apply_opts, dense,
                                          weight_source});
                reg.add("victim", openVictim());
                front = std::make_unique<serve::ServeFront>(reg,
                                                            fopts);
            } catch (const std::exception &) {
                ++standup_retries;
            }
        }

        int resident_ok = 0, resident_fault = 0;
        int resident_mismatch = 0;
        int victim_ok = 0, victim_fault = 0, victim_mismatch = 0;
        int quarantines = 0, recoveries = 0, churn_failures = 0;
        bool recovered = false, probe_identical = false;
        uint64_t fallbacks = 0, generation = 0;
        if (front) {
            Tensor victim_ref;  // first successful victim response
            const auto checkVictim = [&](const Tensor &y) {
                if (victim_ref.size() == 0)
                    victim_ref = y;
                else if (y.size() != victim_ref.size() ||
                         std::memcmp(y.data(), victim_ref.data(),
                                     (size_t)y.size() *
                                         sizeof(float)) != 0)
                    ++victim_mismatch;
            };

            // Phase 1: mixed traffic. The bystander must answer every
            // request bit-identically; the victim may fault but never
            // answer wrong, and a quarantine must be curable by
            // reloadModel() while traffic keeps flowing.
            for (int i = 0; i < offered; ++i) {
                const Tensor &x = traffic[(size_t)i % traffic.size()];
                try {
                    Tensor y = front->submit("resident", x).get();
                    const Tensor &ref = resident_ref[(size_t)i];
                    if (y.size() != ref.size() ||
                        std::memcmp(y.data(), ref.data(),
                                    (size_t)y.size() *
                                        sizeof(float)) != 0)
                        ++resident_mismatch;
                    else
                        ++resident_ok;
                } catch (const std::exception &) {
                    ++resident_fault;
                }
                // The victim always gets the same probe input so its
                // responses are comparable across generations.
                try {
                    Tensor y =
                        front->submit("victim", traffic[0]).get();
                    checkVictim(y);
                    ++victim_ok;
                } catch (const std::exception &) {
                    ++victim_fault;
                    if (front->health("victim") ==
                        serve::ModelHealth::Unhealthy) {
                        ++quarantines;
                        try {
                            front->reloadModel("victim",
                                               openVictim());
                            ++recoveries;
                        } catch (const std::exception &) {
                        }
                    }
                }
            }

            // Phase 2: reload churn. Failed reloads must fall back to
            // the live generation (reloadFallback) — after every
            // attempt, good or bad, the victim still answers.
            for (int r = 0; r < 16; ++r) {
                try {
                    front->reloadModel("victim", openVictim());
                } catch (const std::exception &) {
                    ++churn_failures;
                }
                try {
                    Tensor y =
                        front->submit("victim", traffic[0]).get();
                    checkVictim(y);
                    ++victim_ok;
                } catch (const std::exception &) {
                    ++victim_fault;
                }
            }
            fallbacks = front->reloadFallbacks("victim");

            // Phase 3: final recovery — a quarantined victim must be
            // nursed back to Healthy by reloading (counters advance
            // every attempt, so a non-1in1 policy lets one through).
            for (int r = 0;
                 r < 64 && front->health("victim") !=
                               serve::ModelHealth::Healthy;
                 ++r) {
                try {
                    front->reloadModel("victim", openVictim());
                } catch (const std::exception &) {
                }
            }
            recovered = front->health("victim") ==
                        serve::ModelHealth::Healthy;
            if (recovered) {
                try {
                    Tensor y =
                        front->submit("victim", traffic[0]).get();
                    probe_identical =
                        victim_ref.size() == y.size() &&
                        std::memcmp(y.data(), victim_ref.data(),
                                    (size_t)y.size() *
                                        sizeof(float)) == 0;
                } catch (const std::exception &) {
                }
            }
            generation = front->generation("victim");
            front->stop();
        }
        std::remove(victim_path);

        const bool drill_pass =
            front != nullptr && resident_ok == offered &&
            resident_fault == 0 && resident_mismatch == 0 &&
            victim_mismatch == 0 && recovered && probe_identical;
        std::printf(
            "  \"failpoint_drill\": {\"armed\": [%s], "
            "\"offered\": %d, "
            "\"resident\": {\"answered\": %d, \"faulted\": %d, "
            "\"mismatched\": %d}, "
            "\"victim\": {\"answered\": %d, \"faulted\": %d, "
            "\"mismatched\": %d, \"quarantines\": %d, "
            "\"recoveries\": %d, \"reload_failures\": %d, "
            "\"fallbacks\": %" PRIu64 ", "
            "\"generation\": %" PRIu64 ", "
            "\"recovered\": %s, \"probe_identical\": %s}, "
            "\"pass\": %s}\n",
            armed_json.c_str(), offered, resident_ok, resident_fault,
            resident_mismatch, victim_ok, victim_fault,
            victim_mismatch, quarantines, recoveries, churn_failures,
            fallbacks, generation, bench::jsonBool(recovered),
            bench::jsonBool(probe_identical),
            bench::jsonBool(drill_pass));
        std::printf("}\n");
        return drill_pass ? 0 : 1;
    }

    // --- model file: v2 vs v3 size on the same bundle ---------------
    // v3 packs Ce codes two per byte with zero rows elided AND ships
    // the dense residual (BN/bias/undecomposed state) — it must still
    // land well under the records-only v2 bytes (the --smoke gate
    // holds it to <= 60%).
    double v3_over_v2;
    bool v3_reload_ok;
    {
        std::ostringstream v2os(std::ios::binary),
            v3os(std::ios::binary);
        core::saveModel(v2os, *records);
        core::saveModelV3(v3os, *records, *dense);
        const size_t v2_bytes = v2os.str().size();
        const size_t v3_bytes = v3os.str().size();
        v3_over_v2 = (double)v3_bytes / (double)v2_bytes;
        std::istringstream reload_is(v3os.str(), std::ios::binary);
        const core::ModelBundle reloaded =
            core::loadModelBundle(reload_is);
        v3_reload_ok = reloaded.records.size() == records->size() &&
                       reloaded.dense.size() == dense->size();
        std::printf(
            "  \"model_file\": {\"save_format_env\": %d, "
            "\"v2_bytes\": %zu, \"v3_bytes\": %zu, "
            "\"v3_over_v2\": %.3f, \"dense_tensors\": %zu, "
            "\"v3_reload_ok\": %s},\n",
            run_opts.modelFormat, v2_bytes, v3_bytes, v3_over_v2,
            dense->size(), bench::jsonBool(v3_reload_ok));
    }

    // --- model file v4: adaptive widths + int8 basis, streamed ------
    // The same bundle with bases pinned to the int8 grid at compress
    // time, shipped as v3 and v4: adaptive per-column Ce widths plus
    // the 4x-smaller basis must beat v3's fixed nibbles even after
    // the directory overhead (--smoke holds v4 <= 90% of v3).
    // Cold start compares a lazy mmap open + first-piece decode
    // against an eager decode-everything open.
    double v4_over_v3;
    bool v4_ok;
    double v4_lazy_cold_ms, v4_eager_cold_ms;
    bool v4_lazy_faster;
    {
        std::vector<core::SeLayerRecord> qrecords = *records;
        core::quantizeBasisAtCompress(qrecords);
        std::ostringstream v3os(std::ios::binary),
            v4os(std::ios::binary);
        core::saveModelV3(v3os, qrecords, *dense);
        core::saveModelV4(v4os, qrecords, *dense);
        const size_t v3_bytes = v3os.str().size();
        const size_t v4_bytes = v4os.str().size();
        v4_over_v3 = (double)v4_bytes / (double)v3_bytes;

        // Reload bit-identity: the eager loader must hand back the
        // quantized records exactly.
        std::istringstream reload_is(v4os.str(), std::ios::binary);
        const core::ModelBundle rb =
            core::loadModelBundle(reload_is);
        bool identical = rb.records.size() == qrecords.size();
        for (size_t r = 0; identical && r < qrecords.size(); ++r) {
            identical = rb.records[r].pieces.size() ==
                        qrecords[r].pieces.size();
            for (size_t p = 0;
                 identical && p < qrecords[r].pieces.size(); ++p) {
                const core::SeMatrix &a = qrecords[r].pieces[p];
                const core::SeMatrix &b = rb.records[r].pieces[p];
                identical =
                    a.ce.size() == b.ce.size() &&
                    a.basis.size() == b.basis.size() &&
                    !std::memcmp(a.ce.data(), b.ce.data(),
                                 (size_t)a.ce.size() *
                                     sizeof(float)) &&
                    !std::memcmp(a.basis.data(), b.basis.data(),
                                 (size_t)a.basis.size() *
                                     sizeof(float));
            }
        }

        const char *path = "/tmp/se_bench_serve_v4.sexm";
        {
            std::ofstream f(path,
                            std::ios::binary | std::ios::trunc);
            f << v4os.str();
        }
        // Lazy cold start: open (O(meta)) + decode of the one piece
        // a first response touches — every other piece stays cold.
        size_t lazy_decoded, lazy_total;
        {
            const auto t0 = SteadyClock::now();
            core::StreamedModel sm(path);
            sm.piece(0);
            v4_lazy_cold_ms = msSince(t0);
            lazy_decoded = sm.decodedPieces();
            lazy_total = sm.pieceCount();
        }
        {
            const auto t0 = SteadyClock::now();
            core::StreamLoaderOptions eager_opts;
            eager_opts.eager = true;
            core::StreamedModel sm(path, eager_opts);
            v4_eager_cold_ms = msSince(t0);
        }
        std::remove(path);
        const bool lazy_partial =
            lazy_decoded == 1 && lazy_total > 1;
        v4_ok = identical && lazy_partial;
        v4_lazy_faster = v4_lazy_cold_ms < v4_eager_cold_ms;

        std::printf(
            "  \"model_file_v4\": {\"v3_bytes\": %zu, "
            "\"v4_bytes\": %zu, \"v4_over_v3\": %.3f, "
            "\"pieces\": %zu, \"lazy_decoded_pieces\": %zu, "
            "\"lazy_cold_start_ms\": %.3f, "
            "\"eager_cold_start_ms\": %.3f, "
            "\"lazy_faster\": %s, \"v4_reload_ok\": %s},\n",
            v3_bytes, v4_bytes, v4_over_v3, lazy_total,
            lazy_decoded, v4_lazy_cold_ms, v4_eager_cold_ms,
            bench::jsonBool(v4_lazy_faster),
            bench::jsonBool(v4_ok));
    }

    // --- rebuild engine: cold vs warm ------------------------------
    double cold_ms, warm_ms;
    {
        const int reps = 20;
        serve::SessionOptions cold_opts;
        cold_opts.rebuildPerCall = true;
        cold_opts.cacheRebuiltWeights = false;
        serve::InferenceSession cold(makeSubject(), records, se_opts,
                                     apply_opts, cold_opts);
        Tensor probe = traffic[0].reshaped(
            {1, traffic[0].dim(0), traffic[0].dim(1),
             traffic[0].dim(2)});
        for (int r = 0; r < reps; ++r)
            cold.forward(probe);
        cold_ms = cold.stats().rebuildMs / reps;

        serve::SessionOptions warm_opts;
        warm_opts.rebuildPerCall = true;
        warm_opts.cacheRebuiltWeights = true;
        serve::InferenceSession warm(makeSubject(), records, se_opts,
                                     apply_opts, warm_opts);
        warm.forward(probe);  // populate the rebuilt-weight cache
        const double after_warmup = warm.stats().rebuildMs;
        for (int r = 0; r < reps; ++r)
            warm.forward(probe);
        warm_ms = (warm.stats().rebuildMs - after_warmup) / reps;

        std::printf("  \"rebuild\": {\"layers\": %zu, "
                    "\"cold_ms\": %.3f, \"warm_ms\": %.3f, "
                    "\"warm_speedup\": %.2f},\n",
                    cold.rebuildableLayers(), cold_ms, warm_ms,
                    cold_ms / warm_ms);
    }

    const auto factory = [] { return makeSubject(); };

    // --- per-call mode: serial one-at-a-time reference -------------
    // Dense weights are transient (the accelerator operating point):
    // every request pays a full Ce*B rebuild before its forward.
    double serial_percall_rps;
    uint64_t serial_digest = kFnvOffsetBasis;
    {
        serve::SessionOptions so;
        so.rebuildPerCall = true;
        so.cacheRebuiltWeights = false;
        so.weightSource = weight_source;
        so.denseState = dense;
        serve::InferenceSession session(makeSubject(), records,
                                        se_opts, apply_opts, so);
        session.forward(traffic[0].reshaped(
            {1, traffic[0].dim(0), traffic[0].dim(1),
             traffic[0].dim(2)}));  // warmup allocation paths
        auto t0 = Clock::now();
        for (const Tensor &x : traffic) {
            Tensor y = session.forward(x.reshaped(
                {1, x.dim(0), x.dim(1), x.dim(2)}));
            // Engine responses come batch-dim-stripped; hash the
            // same 1-D view so the digests are comparable.
            serial_digest =
                hashTensor(y.reshaped({y.size()}), serial_digest);
        }
        const double ms = msSince(t0);
        serial_percall_rps = 1000.0 * requests / ms;
        std::printf("  \"serial_per_call\": {\"ms\": %.2f, "
                    "\"rps\": %.1f},\n",
                    ms, serial_percall_rps);
    }

    // --- per-call mode: micro-batching engine ----------------------
    // One rebuild per batch instead of one per request; with threads,
    // batches also run concurrently.
    std::printf("  \"engine_per_call\": [\n");
    double best_percall_rps = 0.0;
    bool digests_match = true;
    {
        std::vector<int> thread_counts{1};
        if (max_threads > 1)
            thread_counts.push_back(max_threads);
        for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
            serve::ServeOptions opts;
            opts.threads = thread_counts[ti];
            opts.maxBatch = 16;
            opts.session.rebuildPerCall = true;
            opts.session.cacheRebuiltWeights = false;
            opts.session.weightSource = weight_source;
            opts.session.denseState = dense;
            serve::ServeEngine engine(records, factory, se_opts,
                                      apply_opts, opts);
            auto t0 = Clock::now();
            std::vector<std::future<Tensor>> futs;
            futs.reserve(traffic.size());
            for (const Tensor &x : traffic)
                futs.push_back(engine.submit(x));
            engine.drain();
            uint64_t digest = kFnvOffsetBasis;
            for (auto &f : futs)
                digest = hashTensor(f.get(), digest);
            const double ms = msSince(t0);
            const double rps = 1000.0 * requests / ms;
            if (rps > best_percall_rps)
                best_percall_rps = rps;
            digests_match =
                digests_match && digest == serial_digest;
            auto st = engine.stats();
            std::printf(
                "    {\"threads\": %d, \"max_batch\": 16, "
                "\"ms\": %.2f, \"rps\": %.1f, "
                "\"mean_batch\": %.1f, \"p50_ms\": %.2f, "
                "\"p95_ms\": %.2f, \"p99_ms\": %.2f, "
                "\"bit_identical\": %s}%s\n",
                thread_counts[ti], ms, rps,
                st.meanBatchSize, st.p50Ms, st.p95Ms, st.p99Ms,
                bench::jsonBool(digest == serial_digest),
                bench::jsonSep(ti, thread_counts.size()));
        }
    }
    std::printf("  ],\n");
    std::printf("  \"batched_speedup_vs_serial\": %.2f,\n",
                best_percall_rps / serial_percall_rps);

    // --- cached-weight mode ----------------------------------------
    // Weights persist after the first rebuild; gains now come from
    // batching overheads and (on multi-core hosts) replica fan-out.
    {
        serve::InferenceSession session(makeSubject(), records,
                                        se_opts, apply_opts);
        Tensor warm0 = traffic[0].reshaped(
            {1, traffic[0].dim(0), traffic[0].dim(1),
             traffic[0].dim(2)});
        session.forward(warm0);
        auto t0 = Clock::now();
        for (const Tensor &x : traffic)
            session.forward(x.reshaped(
                {1, x.dim(0), x.dim(1), x.dim(2)}));
        const double serial_ms = msSince(t0);

        serve::ServeOptions opts;
        opts.threads = max_threads;
        opts.maxBatch = 16;
        serve::ServeEngine engine(records, factory, se_opts,
                                  apply_opts, opts);
        // Warm the replicas' weight rebuilds out of the timed region.
        for (int i = 0; i < max_threads * 2; ++i)
            engine.submit(traffic[(size_t)i % traffic.size()]);
        engine.drain();
        t0 = Clock::now();
        std::vector<std::future<Tensor>> futs;
        for (const Tensor &x : traffic)
            futs.push_back(engine.submit(x));
        engine.drain();
        for (auto &f : futs)
            f.get();
        const double batched_ms = msSince(t0);
        std::printf(
            "  \"cached_mode\": {\"serial_ms\": %.2f, "
            "\"serial_rps\": %.1f, \"batched_ms\": %.2f, "
            "\"batched_rps\": %.1f},\n",
            serial_ms, 1000.0 * requests / serial_ms, batched_ms,
            1000.0 * requests / batched_ms);
    }

    // --- quantized serving: CeDirect vs Dense A/B -------------------
    // One bundle, two ServeFront tenants — the float engine and the
    // 4-bit-code engine. Responses must be bit-identical (decode
    // order is preserved end to end: nibble decode is exact and the
    // panel split keeps every element's accumulation order, so no
    // tolerance applies); the numbers show what serving at the
    // stored datapath width costs, including the CeDirect cold-start
    // (pack + first rebuild-all).
    bool ce_identical;
    {
        const int per_mode = std::min(requests, 48);

        // Cold-start: one-time pack cost plus the first cold
        // rebuild-all, per weight source.
        double mode_rebuild_ms[2], mode_pack_ms[2];
        for (int v = 0; v < 2; ++v) {
            serve::SessionOptions so;
            so.weightSource = v ? serve::WeightSource::CeDirect
                                : serve::WeightSource::Dense;
            so.denseState = dense;
            so.cacheRebuiltWeights = false;
            serve::InferenceSession session(makeSubject(), records,
                                            se_opts, apply_opts, so);
            Tensor probe = traffic[0].reshaped(
                {1, traffic[0].dim(0), traffic[0].dim(1),
                 traffic[0].dim(2)});
            session.forward(probe);  // the cold rebuild-all
            mode_rebuild_ms[v] = session.stats().rebuildMs;
            mode_pack_ms[v] = session.stats().packMs;
        }

        serve::ModelRegistry reg;
        serve::ModelEntry dense_entry{records, factory, se_opts,
                                      apply_opts, dense,
                                      serve::WeightSource::Dense};
        serve::ModelEntry ce_entry = dense_entry;
        ce_entry.weightSource = serve::WeightSource::CeDirect;
        reg.add("dense", dense_entry);
        reg.add("ce4", ce_entry);
        serve::ServeOptions fopts;
        fopts.threads = max_threads;
        fopts.maxBatch = 16;
        fopts.session.rebuildPerCall = true;  // rebuild every batch:
        fopts.session.cacheRebuiltWeights = false;  // decode visible
        serve::ServeFront front(reg, fopts);

        auto t0 = Clock::now();
        std::vector<std::future<Tensor>> fd, fc;
        for (int i = 0; i < per_mode; ++i) {
            const Tensor &x = traffic[(size_t)i % traffic.size()];
            fd.push_back(front.submit("dense", x));
            fc.push_back(front.submit("ce4", x));
        }
        front.drain();
        const double ms = msSince(t0);
        uint64_t dense_digest = kFnvOffsetBasis;
        uint64_t ce_digest = kFnvOffsetBasis;
        for (auto &f : fd)
            dense_digest = hashTensor(f.get(), dense_digest);
        for (auto &f : fc)
            ce_digest = hashTensor(f.get(), ce_digest);
        ce_identical = ce_digest == dense_digest;
        const auto ds = front.stats("dense");
        const auto cs = front.stats("ce4");
        std::printf(
            "  \"ce_direct\": {\"requests_per_mode\": %d, "
            "\"ms\": %.2f, \"rps\": %.1f, "
            "\"dense_cold_rebuild_ms\": %.3f, "
            "\"ce_cold_rebuild_ms\": %.3f, \"ce_pack_ms\": %.3f, "
            "\"dense\": {\"p50_ms\": %.2f, \"p99_ms\": %.2f, "
            "\"mean_latency_ms\": %.2f}, "
            "\"ce\": {\"p50_ms\": %.2f, \"p99_ms\": %.2f, "
            "\"mean_latency_ms\": %.2f}, "
            "\"bit_identical\": %s},\n",
            per_mode, ms, 1000.0 * 2 * per_mode / ms,
            mode_rebuild_ms[0], mode_rebuild_ms[1], mode_pack_ms[1],
            ds.p50Ms, ds.p99Ms, ds.meanLatencyMs, cs.p50Ms, cs.p99Ms,
            cs.meanLatencyMs, bench::jsonBool(ce_identical));
    }

    // --- multi-model serving: two tenants behind one front ---------
    // Each model's responses must be bit-identical to its own
    // single-model session — tenants never bleed into each other.
    // Second tenant bundle, shared by the multi-model and hot-reload
    // sections.
    auto second = makeSecondSubject();
    auto compressed2 = core::compressToRecords(
        *second, se_opts, apply_opts,
        [&pipe](const Tensor &w, const core::SeOptions &o) {
            return pipe.cache().getOrCompute(w, o);
        });
    auto records2 =
        std::make_shared<std::vector<core::SeLayerRecord>>(
            std::move(compressed2.records));

    bool multi_model_identical;
    {
        // Per-model reference digests from direct sessions.
        uint64_t ref_digest[2] = {kFnvOffsetBasis, kFnvOffsetBasis};
        const int per_model = std::min(requests, 48);
        {
            serve::InferenceSession sa(makeSubject(), records,
                                       se_opts, apply_opts);
            serve::InferenceSession sb(makeSecondSubject(), records2,
                                       se_opts, apply_opts);
            for (int i = 0; i < per_model; ++i) {
                const Tensor &x = traffic[(size_t)i % traffic.size()];
                Tensor xa = x.reshaped(
                    {1, x.dim(0), x.dim(1), x.dim(2)});
                Tensor ya = sa.forward(xa);
                ref_digest[0] = hashTensor(
                    ya.reshaped({ya.size()}), ref_digest[0]);
                Tensor yb = sb.forward(xa);
                ref_digest[1] = hashTensor(
                    yb.reshaped({yb.size()}), ref_digest[1]);
            }
        }

        serve::ModelRegistry reg;
        // The tenants honor SE_SERVE_WEIGHT_SOURCE like the rest of
        // the serving sections (ModelEntry::weightSource is
        // authoritative per engine); their responses must match the
        // Dense reference sessions above either way.
        reg.add("vgg19", {records, [] { return makeSubject(); },
                          se_opts, apply_opts, nullptr,
                          weight_source});
        reg.add("vgg11",
                {records2, [] { return makeSecondSubject(); },
                 se_opts, apply_opts, nullptr, weight_source});
        serve::ServeOptions fopts;
        fopts.threads = max_threads;
        fopts.maxBatch = 16;
        serve::ServeFront front(reg, fopts);

        auto t0 = Clock::now();
        std::vector<std::future<Tensor>> fa, fb;
        for (int i = 0; i < per_model; ++i) {
            const Tensor &x = traffic[(size_t)i % traffic.size()];
            fa.push_back(front.submit("vgg19", x));
            fb.push_back(front.submit("vgg11", x));
        }
        front.drain();
        const double ms = msSince(t0);
        uint64_t got_digest[2] = {kFnvOffsetBasis, kFnvOffsetBasis};
        for (auto &f : fa)
            got_digest[0] = hashTensor(f.get(), got_digest[0]);
        for (auto &f : fb)
            got_digest[1] = hashTensor(f.get(), got_digest[1]);
        multi_model_identical = got_digest[0] == ref_digest[0] &&
                                got_digest[1] == ref_digest[1];
        const auto agg = front.aggregateStats();
        std::printf(
            "  \"multi_model\": {\"models\": 2, \"replicas\": %d, "
            "\"requests_per_model\": %d, \"ms\": %.2f, "
            "\"rps\": %.1f, \"mean_batch\": %.1f, "
            "\"bit_identical_per_model\": %s},\n",
            front.replicaCount(), per_model, ms,
            1000.0 * 2 * per_model / ms, agg.meanBatchSize,
            bench::jsonBool(multi_model_identical));
    }

    // --- hot reload: generation flips under in-flight traffic ------
    // reloadModel() flips one tenant between the VGG19 and VGG11
    // bundles 50 times while a traffic thread keeps submitting. Zero
    // requests may drop (a submit that races the swap is retried on
    // the new generation), every response must be bit-identical to
    // one of the two generations' serial references (a response can
    // never blend generations), and the generation counter must land
    // at flips + 1 (--smoke gates all three).
    bool hot_reload_ok;
    {
        const int flips = 50, ref_n = 8;
        std::vector<Tensor> refA, refB;
        {
            serve::InferenceSession sa(makeSubject(), records,
                                       se_opts, apply_opts);
            serve::InferenceSession sb(makeSecondSubject(), records2,
                                       se_opts, apply_opts);
            for (int i = 0; i < ref_n; ++i) {
                const Tensor &x = traffic[(size_t)i];
                Tensor xb = x.reshaped(
                    {1, x.dim(0), x.dim(1), x.dim(2)});
                refA.push_back(sa.forward(xb));
                refB.push_back(sb.forward(xb));
            }
        }

        serve::ModelRegistry reg;
        reg.add("hot", {records, factory, se_opts, apply_opts,
                        nullptr});
        serve::ServeOptions opts;
        opts.threads = 2;
        opts.maxBatch = 8;
        serve::ServeFront front(reg, opts);

        std::atomic<bool> done{false};
        std::atomic<int> answered{0}, dropped{0}, blended{0};
        std::thread traffic_thread([&] {
            int i = 0;
            while (!done.load()) {
                const size_t k = (size_t)(i++ % ref_n);
                try {
                    Tensor y = front.submit("hot", traffic[k]).get();
                    const Tensor &a = refA[k], &b = refB[k];
                    const bool is_a =
                        y.size() == a.size() &&
                        !std::memcmp(y.data(), a.data(),
                                     (size_t)y.size() *
                                         sizeof(float));
                    const bool is_b =
                        y.size() == b.size() &&
                        !std::memcmp(y.data(), b.data(),
                                     (size_t)y.size() *
                                         sizeof(float));
                    if (!is_a && !is_b)
                        ++blended;
                    ++answered;
                } catch (const serve::EngineStoppedError &) {
                    ++dropped;  // a swap escape = a dropped request
                }
            }
        });

        auto t0 = Clock::now();
        for (int flip = 0; flip < flips; ++flip) {
            serve::ModelEntry next;
            if (flip % 2 == 0) {
                next = serve::ModelEntry{
                    records2, [] { return makeSecondSubject(); },
                    se_opts, apply_opts, nullptr};
            } else {
                next = serve::ModelEntry{records, factory, se_opts,
                                         apply_opts, nullptr};
            }
            front.reloadModel("hot", std::move(next));
        }
        const double ms = msSince(t0);
        done.store(true);
        traffic_thread.join();
        front.drain();

        const uint64_t gen = front.generation("hot");
        hot_reload_ok =
            dropped.load() == 0 && blended.load() == 0 &&
            answered.load() > 0 && gen == (uint64_t)(flips + 1) &&
            front.health("hot") == serve::ModelHealth::Healthy;
        std::printf(
            "  \"hot_reload\": {\"flips\": %d, \"ms\": %.2f, "
            "\"ms_per_reload\": %.2f, \"answered\": %d, "
            "\"dropped\": %d, \"blended\": %d, "
            "\"generation\": %" PRIu64 ", \"zero_downtime\": %s},\n",
            flips, ms, ms / flips, answered.load(), dropped.load(),
            blended.load(), gen, bench::jsonBool(hot_reload_ok));
        front.stop();
    }

    // --- admission control: queueCap shed rate under a burst -------
    // Conservation gate: every offered request either completes or
    // sheds with AdmissionError — never queues forever, never hangs.
    bool shed_accounted;
    {
        const size_t cap = run_opts.serveQueueCap > 0
                               ? run_opts.serveQueueCap
                               : 8;
        serve::ServeOptions opts;
        opts.threads = 1;
        opts.maxBatch = 4;
        opts.queueCap = cap;
        serve::ServeEngine engine(records, factory, se_opts,
                                  apply_opts, opts);
        int shed = 0;
        std::vector<std::future<Tensor>> futs;
        for (const Tensor &x : traffic) {
            try {
                futs.push_back(engine.submit(x));
            } catch (const serve::AdmissionError &) {
                ++shed;
            }
        }
        engine.drain();
        int completed = 0;
        for (auto &f : futs) {
            f.get();
            ++completed;
        }
        const auto st = engine.stats();
        shed_accounted =
            completed + shed == requests &&
            st.requests == (uint64_t)completed &&
            st.shed == (uint64_t)shed && st.failed == 0;
        std::printf(
            "  \"admission\": {\"queue_cap\": %zu, \"offered\": %d, "
            "\"completed\": %d, \"shed\": %d, \"shed_rate\": %.2f, "
            "\"all_accounted\": %s},\n",
            cap, requests, completed, shed,
            (double)shed / (double)requests,
            bench::jsonBool(shed_accounted));
    }

    // --- flush policy: Deadline vs Full p99 at equal offered load --
    // Paced arrivals (one request every pace_ms) against maxBatch 16:
    // under Full the first request of every batch waits for 15 more
    // arrivals (~15*pace_ms); under Deadline its wait is capped at
    // the deadline. Equal load, structurally lower tail latency.
    double full_p99, deadline_p99;
    {
        const double pace_ms = 2.0;
        const double deadline_ms = run_opts.serveDeadlineMs > 0.0
                                       ? run_opts.serveDeadlineMs
                                       : 4.0;
        const int paced_n = std::min(requests, 48);
        const serve::FlushPolicy policies[2] = {
            serve::FlushPolicy::Full, serve::FlushPolicy::Deadline};
        double p99[2], p50[2], mean_batch[2];
        for (int v = 0; v < 2; ++v) {
            serve::ServeOptions opts;
            opts.threads = 1;
            opts.maxBatch = 16;
            opts.flush = policies[v];
            opts.flushDeadlineMs = deadline_ms;
            serve::ServeEngine engine(records, factory, se_opts,
                                      apply_opts, opts);
            std::vector<std::future<Tensor>> futs;
            futs.reserve((size_t)paced_n);
            for (int i = 0; i < paced_n; ++i) {
                futs.push_back(engine.submit(
                    traffic[(size_t)i % traffic.size()]));
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        pace_ms));
            }
            engine.drain();
            for (auto &f : futs)
                f.get();
            const auto st = engine.stats();
            p99[v] = st.p99Ms;
            p50[v] = st.p50Ms;
            mean_batch[v] = st.meanBatchSize;
        }
        full_p99 = p99[0];
        deadline_p99 = p99[1];
        std::printf(
            "  \"flush_policy\": {\"offered\": %d, "
            "\"pace_ms\": %.1f, \"deadline_ms\": %.1f, "
            "\"full\": {\"p50_ms\": %.2f, \"p99_ms\": %.2f, "
            "\"mean_batch\": %.1f}, "
            "\"deadline\": {\"p50_ms\": %.2f, \"p99_ms\": %.2f, "
            "\"mean_batch\": %.1f}, "
            "\"deadline_p99_speedup\": %.2f},\n",
            paced_n, pace_ms, deadline_ms, p50[0], p99[0],
            mean_batch[0], p50[1], p99[1], mean_batch[1],
            full_p99 / deadline_p99);
    }

    // --- engine stand-up -------------------------------------------
    // Cold start of a 3-replica engine: one factory call and one bind,
    // then two clones of the bound net. Reports the median
    // construction wall-clock and the factory calls per engine; --smoke
    // gates only the count (exactly 1), never the time.
    int standup_factory_calls = 0;
    {
        constexpr int kStandupReps = 9;
        std::atomic<int> calls{0};
        const serve::NetFactory counting = [&calls] {
            ++calls;
            return makeSubject();
        };
        serve::ServeOptions opts;
        opts.threads = 3;
        opts.session.rebuildPerCall = true;
        opts.session.cacheRebuiltWeights = false;
        opts.session.weightSource = weight_source;
        opts.session.denseState = dense;
        std::vector<double> ms;
        for (int k = 0; k < kStandupReps; ++k) {
            calls = 0;
            const auto t0 = Clock::now();
            serve::ServeEngine engine(records, counting, se_opts,
                                      apply_opts, opts);
            ms.push_back(msSince(t0));
            standup_factory_calls =
                std::max(standup_factory_calls, calls.load());
        }
        std::sort(ms.begin(), ms.end());
        std::printf(
            "  \"engine_standup\": {\"replicas\": 3, \"reps\": %d, "
            "\"median_ms\": %.3f, \"factory_calls\": %d},\n",
            kStandupReps, ms[ms.size() / 2], standup_factory_calls);
    }

    // --- stream serve ----------------------------------------------
    // The v4 bundle opened lazily and served CeDirect two ways: the
    // serial one-request-at-a-time loop (every request pays a full
    // inline rebuild) and the engine. Responses must be bit-identical;
    // the section also reports the inline piece-decode stall the
    // first bind paid.
    bool pipe_identical;
    {
        const int pipe_n = std::min(requests, 64);
        std::vector<core::SeLayerRecord> qrecords = *records;
        core::quantizeBasisAtCompress(qrecords);
        const char *path = "/tmp/se_bench_serve_pipe.sexm";
        {
            std::ostringstream os(std::ios::binary);
            core::saveModelV4(os, qrecords, *dense);
            std::ofstream f(path,
                            std::ios::binary | std::ios::trunc);
            f << os.str();
        }

        // The serial one-at-a-time loop on the streamed bundle.
        double serial_loop_rps, stall_ms;
        size_t pieces;
        uint64_t pipe_digest[2];
        {
            core::StreamedModel sm(path);
            serve::SessionOptions so;
            so.rebuildPerCall = true;
            so.cacheRebuiltWeights = false;
            so.weightSource = serve::WeightSource::CeDirect;
            so.denseState = std::make_shared<
                const std::vector<core::DenseTensor>>(sm.dense());
            serve::InferenceSession session(makeSubject(),
                                            sm.records(), se_opts,
                                            apply_opts, so);
            stall_ms = sm.streamStats().decodeStallMs;
            pieces = sm.pieceCount();
            session.forward(traffic[0].reshaped(
                {1, traffic[0].dim(0), traffic[0].dim(1),
                 traffic[0].dim(2)}));  // warmup allocation paths
            uint64_t digest = kFnvOffsetBasis;
            auto t0 = Clock::now();
            for (int i = 0; i < pipe_n; ++i) {
                const Tensor &x = traffic[(size_t)i % traffic.size()];
                Tensor y = session.forward(x.reshaped(
                    {1, x.dim(0), x.dim(1), x.dim(2)}));
                digest =
                    hashTensor(y.reshaped({y.size()}), digest);
            }
            const double ms = msSince(t0);
            serial_loop_rps = 1000.0 * pipe_n / ms;
            pipe_digest[0] = digest;
        }

        // The engine on a fresh lazy open of the same bundle.
        double engine_rps;
        serve::ServeStats st;
        {
            core::StreamedModel sm(path);
            serve::ServeOptions opts;
            opts.threads = max_threads;
            opts.maxBatch = 16;
            opts.session.rebuildPerCall = true;
            opts.session.cacheRebuiltWeights = false;
            opts.session.weightSource =
                serve::WeightSource::CeDirect;
            opts.session.denseState = std::make_shared<
                const std::vector<core::DenseTensor>>(sm.dense());
            serve::ServeEngine engine(sm.records(), factory,
                                      se_opts, apply_opts, opts);
            auto t0 = Clock::now();
            std::vector<std::future<Tensor>> futs;
            futs.reserve((size_t)pipe_n);
            for (int i = 0; i < pipe_n; ++i)
                futs.push_back(engine.submit(
                    traffic[(size_t)i % traffic.size()]));
            engine.drain();
            uint64_t digest = kFnvOffsetBasis;
            for (auto &f : futs)
                digest = hashTensor(f.get(), digest);
            const double ms = msSince(t0);
            engine.stop();
            st = engine.stats();
            engine_rps = 1000.0 * pipe_n / ms;
            pipe_digest[1] = digest;
        }
        std::remove(path);

        pipe_identical = pipe_digest[0] == pipe_digest[1];
        std::printf(
            "  \"stream_serve\": {\"requests\": %d, "
            "\"stream_decode\": {\"pieces\": %zu, "
            "\"inline_stall_ms\": %.3f}, "
            "\"serial_loop_rps\": %.1f,\n"
            "    \"engine\": {\"rps\": %.1f, \"rebuild_ms\": %.3f, "
            "\"form_ms\": %.3f, \"exec_ms\": %.3f, "
            "\"complete_ms\": %.3f},\n"
            "    \"bit_identical\": %s},\n",
            pipe_n, pieces, stall_ms, serial_loop_rps, engine_rps,
            st.decodeStallMs, st.formMs, st.execMs, st.completeMs,
            bench::jsonBool(pipe_identical));
    }

    std::printf("  \"responses_bit_identical\": %s\n",
                bench::jsonBool(digests_match));
    std::printf("}\n");
    // Exit status always gates the noise-immune invariants (response
    // fidelity across engines, tenants and weight
    // sources — CeDirect must match Dense bit for bit; warm rebuild
    // beating cold at a ~50x margin; admission conservation; the v3
    // bundle reloading cleanly; the v4 bundle reloading bit-identical
    // with a first response that decodes exactly one piece). --smoke
    // additionally gates the structural margins — batched per-call
    // serving >= serial (the rebuild amortization), Deadline p99 <
    // Full p99 at paced load (a ~5-10x margin), the v3 bundle at
    // <= 60% of the v2 bytes, the v4 bundle at <= 90% of the v3
    // bytes, the lazy v4 cold start under the eager one, and one
    // factory call per 3-replica engine stand-up — so the
    // Release CI job enforces them on every PR; the unflagged run
    // keeps reporting them without gating (a loaded 1-2 core runner
    // could flake an unrelated PR otherwise).
    bool pass = digests_match && warm_ms < cold_ms && multi_model_identical &&
                shed_accounted && ce_identical && v3_reload_ok &&
                v4_ok && pipe_identical;
    if (smoke)
        pass = pass && best_percall_rps >= serial_percall_rps &&
               deadline_p99 < full_p99 && v3_over_v2 <= 0.60 &&
               v4_over_v3 <= 0.90 && v4_lazy_faster &&
               hot_reload_ok && standup_factory_calls == 1;
    return pass ? 0 : 1;
}
