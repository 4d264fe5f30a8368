/**
 * @file
 * End-to-end serving demo: train-free compression of zoo models into
 * SmartExchange form, ship them through the binary model file, then
 * stand up a multi-model ServeFront and push synthetic traffic
 * through it — the software mirror of deploying Ce*B weights to a
 * fleet of accelerators.
 *
 * Also tours the failure semantics: a malformed request fails only
 * itself, a full queue sheds with AdmissionError, and a stopped
 * engine refuses with EngineStoppedError — nothing panics.
 *
 * Usage: ./serve_demo [models] [requests] [threads] [max_batch]
 *   models: comma-separated from {vgg11, vgg19, resnet50,
 *           resnet164, mobilenetv2}, e.g. "vgg19,mobilenetv2"
 *   requests, max_batch: whole numbers >= 0; threads: >= -1
 *           (-1, the default, = one per core). Anything else, or a
 *           "--" flag, exits with status 2.
 *
 * Environment: SE_SERVE_QUEUE_CAP bounds admission (0 = unbounded),
 * SE_SERVE_DEADLINE_MS > 0 selects the Deadline flush policy,
 * SE_MODEL_FORMAT picks the bundle format shipped through /tmp
 * (3 = packed 4-bit + dense residual, 2 = legacy records-only), and
 * SE_SERVE_WEIGHT_SOURCE=ce serves from the packed codes directly.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/env.hh"
#include "base/hash.hh"
#include "base/random.hh"
#include "core/stream_loader.hh"
#include "models/zoo.hh"
#include "runtime/pipeline.hh"
#include "serve/front.hh"

using namespace se;

namespace {

models::ModelId
parseModel(const std::string &name)
{
    const struct
    {
        const char *key;
        models::ModelId id;
    } table[] = {
        {"vgg11", models::ModelId::VGG11},
        {"vgg19", models::ModelId::VGG19},
        {"resnet50", models::ModelId::ResNet50},
        {"resnet164", models::ModelId::ResNet164},
        {"mobilenetv2", models::ModelId::MobileNetV2},
    };
    for (const auto &e : table)
        if (name == e.key)
            return e.id;
    std::fprintf(stderr, "unknown model '%s', using vgg19\n",
                 name.c_str());
    return models::ModelId::VGG19;
}

std::vector<std::string>
splitModels(const char *arg)
{
    std::vector<std::string> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const size_t b = item.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        item = item.substr(b, item.find_last_not_of(" \t") - b + 1);
        // Model ids must be unique in the registry; keep the first.
        if (std::find(out.begin(), out.end(), item) == out.end())
            out.push_back(item);
        else
            std::fprintf(stderr, "duplicate model '%s' ignored\n",
                         item.c_str());
    }
    if (out.empty())
        out.push_back("vgg19");
    return out;
}

/**
 * argv[i] as a whole integer >= min_value (base::envIntNarrow), or
 * `fallback` when it is absent. A malformed or out-of-range value
 * exits with status 2 before anything starts; in particular a
 * negative max_batch never reaches the size_t cast.
 */
int
argInt(int argc, char **argv, int i, const char *what, int min_value,
       int fallback)
{
    if (argc <= i)
        return fallback;
    try {
        const int v = base::envIntNarrow(what, argv[i]);
        if (v < min_value)
            throw std::invalid_argument(std::string(what) + " must be >= " +
                                        std::to_string(min_value) +
                                        ", got '" + argv[i] + "'");
        return v;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (!std::strncmp(argv[i], "--", 2)) {
            std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
            return 2;
        }
    const std::vector<std::string> names =
        splitModels(argc > 1 ? argv[1] : "vgg19,mobilenetv2");
    const int requests = argInt(argc, argv, 2, "requests", 0, 48);
    serve::ServeOptions serve_opts;
    serve_opts.threads = argInt(argc, argv, 3, "threads", -1, -1);
    serve_opts.maxBatch =
        (size_t)argInt(argc, argv, 4, "max_batch", 0, 8);

    models::SimConfig cfg;
    cfg.inHeight = cfg.inWidth = 12;
    cfg.baseWidth = 8;
    cfg.seed = 7;

    // The serving knobs from the environment.
    const runtime::RuntimeOptions run_opts =
        runtime::RuntimeOptions::fromEnv();
    run_opts.applyFailpoints();  // honour SE_FAILPOINTS fault drills
    serve_opts.queueCap = run_opts.serveQueueCap;
    if (run_opts.serveDeadlineMs > 0.0) {
        serve_opts.flush = serve::FlushPolicy::Deadline;
        serve_opts.flushDeadlineMs = run_opts.serveDeadlineMs;
    }
    serve_opts.expectedSample = {cfg.inChannels, cfg.inHeight,
                                 cfg.inWidth};

    std::printf("=== se::serve demo: %zu model(s) ===\n",
                names.size());

    // 1. Compress each zoo model into shippable records, ship it
    //    (save + reload the checksummed binary bundle), and register
    //    it under its name.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    runtime::CompressionPipeline pipe(run_opts);
    const serve::WeightSource source =
        run_opts.serveWeightSource ==
                runtime::ServeWeightSource::CeDirect
            ? serve::WeightSource::CeDirect
            : serve::WeightSource::Dense;
    serve::ModelRegistry registry;
    // Streamed handles kept aside so the decode counters can be
    // reported after the traffic (the registry owns one ref too).
    std::vector<std::shared_ptr<core::StreamedModel>> streams(
        names.size());
    // The bundles written below are removed when main returns.
    struct RemoveOnExit
    {
        std::vector<std::string> paths;
        ~RemoveOnExit()
        {
            for (const std::string &p : paths)
                std::remove(p.c_str());
        }
    } written;
    for (size_t ni = 0; ni < names.size(); ++ni) {
        const std::string &name = names[ni];
        const models::ModelId id = parseModel(name);
        auto net = models::buildSim(id, cfg);
        auto compressed = core::compressToRecords(
            *net, se_opts, apply_opts,
            [&pipe](const Tensor &w, const core::SeOptions &o) {
                return pipe.cache().getOrCompute(w, o);
            });
        const std::string path = "/tmp/serve_demo_" + name + ".sexm";
        written.paths.push_back(path);
        if (run_opts.modelFormat >= 4) {
            // v4 requires the compress-time int8 basis pin so the
            // bundle serves the same bits as the live net.
            core::quantizeBasisAtCompress(*net, compressed, se_opts,
                                          apply_opts);
            core::saveModelV4File(path, compressed.bundle());
        } else if (run_opts.modelFormat == 3) {
            core::saveModelV3File(path, compressed.bundle());
        } else {
            core::saveModelFile(path, compressed.records);
        }
        std::ifstream probe(path, std::ios::binary | std::ios::ate);
        std::printf(
            "[%s] compressed %zu layers, CR %.2fx -> %s (v%d, %lld "
            "bytes)\n",
            name.c_str(), compressed.records.size(),
            compressed.report.compressionRate(), path.c_str(),
            run_opts.modelFormat, (long long)probe.tellg());
        auto factory = [id, cfg] { return models::buildSim(id, cfg); };
        if (run_opts.modelFormat >= 4) {
            // Streamed entry: the mmap open verifies only the meta;
            // piece decode (and the engine build) waits for this
            // model's first request. SE_STREAM_LOADER=eager opts
            // out.
            core::StreamLoaderOptions lo;
            lo.eager = run_opts.streamEager;
            auto streamed =
                std::make_shared<core::StreamedModel>(path, lo);
            streams[ni] = streamed;
            registry.add(name, serve::makeModelEntry(
                                   std::move(streamed), factory,
                                   se_opts, apply_opts, source));
        } else {
            registry.add(name, serve::makeModelEntry(
                                   core::loadModelBundleFile(path),
                                   factory, se_opts, apply_opts,
                                   source));
        }
    }

    // 2. One front, one engine per model, the thread budget split.
    serve::ServeFront front(registry, serve_opts);
    std::printf("front: %zu engine(s), %d replica(s) total, max "
                "batch %zu, queue cap %zu, flush %s\n",
                front.modelCount(), front.replicaCount(),
                serve_opts.maxBatch, serve_opts.queueCap,
                serve_opts.flush == serve::FlushPolicy::Deadline
                    ? "deadline"
                    : "greedy");

    // 3. Serve synthetic traffic round-robin across the tenants.
    Rng rng(99);
    std::vector<std::vector<std::future<Tensor>>> futs(names.size());
    int shed = 0;
    for (int i = 0; i < requests; ++i) {
        for (size_t m = 0; m < names.size(); ++m) {
            try {
                futs[m].push_back(front.submit(
                    names[m],
                    randn({cfg.inChannels, cfg.inHeight,
                           cfg.inWidth},
                          rng, 0.0f, 1.0f)));
            } catch (const serve::AdmissionError &) {
                ++shed;  // queueCap at work: fail fast, no hang
            }
        }
    }
    front.drain();

    for (size_t m = 0; m < names.size(); ++m) {
        uint64_t digest = kFnvOffsetBasis;
        for (auto &f : futs[m])
            digest = hashTensor(f.get(), digest);
        const auto st = front.stats(names[m]);
        std::printf("[%s] served %llu in %llu batches (mean %.1f)  "
                    "latency ms: mean %.2f p50 %.2f p95 %.2f p99 "
                    "%.2f max %.2f  digest %016llx\n",
                    names[m].c_str(),
                    (unsigned long long)st.requests,
                    (unsigned long long)st.batches, st.meanBatchSize,
                    st.meanLatencyMs, st.p50Ms, st.p95Ms, st.p99Ms,
                    st.maxMs, (unsigned long long)digest);
        if (streams[m]) {
            const auto ss = streams[m]->streamStats();
            std::printf("[%s] stream: %zu/%zu pieces decoded, "
                        "decode stall %.3f ms\n",
                        names[m].c_str(),
                        streams[m]->decodedPieces(),
                        streams[m]->pieceCount(), ss.decodeStallMs);
        }
    }
    if (shed > 0)
        std::printf("admission: %d request(s) shed at queue cap "
                    "%zu\n",
                    shed, serve_opts.queueCap);

    // 4. Failure-semantics tour: every failure is catchable.
    {
        auto bad = front.submit(
            names[0], randn({cfg.inChannels, cfg.inHeight + 3,
                             cfg.inWidth},
                            rng));
        front.drain();
        try {
            bad.get();
        } catch (const std::invalid_argument &e) {
            std::printf("malformed request failed only itself: %s\n",
                        e.what());
        }
        try {
            front.submit("no-such-model",
                         randn({cfg.inChannels, cfg.inHeight,
                                cfg.inWidth},
                               rng));
        } catch (const serve::UnknownModelError &e) {
            std::printf("unknown model refused: %s\n", e.what());
        }
        front.stop();
        try {
            front.submit(names[0],
                         randn({cfg.inChannels, cfg.inHeight,
                                cfg.inWidth},
                               rng));
        } catch (const serve::EngineStoppedError &e) {
            std::printf("stopped front refused (no panic): %s\n",
                        e.what());
        }
    }
    const auto agg = front.aggregateStats();
    std::printf("aggregate: %llu served, %llu rejected, %llu shed, "
                "%llu failed\n",
                (unsigned long long)agg.requests,
                (unsigned long long)agg.rejected,
                (unsigned long long)agg.shed,
                (unsigned long long)agg.failed);
    return 0;
}
