/**
 * @file
 * The compress workload: the write side of the storage format.
 */

#include <algorithm>
#include <sstream>

#include "core/stream_loader.hh"
#include "inputs.hh"
#include "probes.hh"
#include "runtime/pipeline.hh"
#include "trace.hh"
#include "workloads.hh"

namespace pb {

namespace {

/** One compression pass, split at the public calls it makes. */
struct Pass
{
    double setupMs = 0.0;  ///< subject nets + pipeline, before any unit
    double totalMs = 0.0;  ///< plan through reopen
    double quantizeMs = 0.0, saveMs = 0.0, reopenMs = 0.0;
    size_t units = 0;
    size_t cacheHits = 0;
    size_t bytes = 0;
    uint64_t digest = 0;
    bool ok = false;
};

/**
 * A fresh, cold-cache CompressionPipeline pass over the subject, then
 * quantize, v4 save to memory, and an eager StreamedModel reopen that
 * must hand back the quantized records bit for bit.
 * CompressionPipeline::run returns only the report, so the shippable
 * records are assembled by compressToRecords reading the pipeline's
 * cache, which the run just filled.
 */
Pass
compressPass(const Subject &subject, int threads, const std::string &path,
             Tracer *tracer)
{
    using namespace se;
    const core::SeOptions se_opts = seOptions();
    const core::ApplyOptions apply;
    Pass p;

    const auto s0 = Clock::now();
    auto net = subject.build();
    auto shipNet = subject.build();
    runtime::RuntimeOptions ro;
    ro.threads = threads;
    ro.cacheCapacity = 4096;
    runtime::CompressionPipeline pipe(ro);
    const auto t0 = Clock::now();
    p.setupMs = msBetween(s0, t0);

    {
        Span span(tracer, "runtime.CompressionPipeline.run");
        pipe.run(*net, se_opts, apply);
    }
    core::CompressedModel model;
    {
        Span span(tracer, "core.compressToRecords");
        model = core::compressToRecords(
            *shipNet, se_opts, apply,
            [&pipe](const Tensor &w, const core::SeOptions &o) {
                return pipe.cache().getOrCompute(w, o);
            });
    }
    auto t = Clock::now();
    {
        Span span(tracer, "core.quantizeBasisAtCompress");
        core::quantizeBasisAtCompress(*shipNet, model, se_opts, apply);
    }
    p.quantizeMs = msBetween(t, Clock::now());
    t = Clock::now();
    std::string bytes;
    {
        Span span(tracer, "core.saveModelV4");
        bytes = saveV4(model);
    }
    p.saveMs = msBetween(t, Clock::now());
    t = Clock::now();
    core::StreamLoaderOptions eager;
    eager.eager = true;
    std::unique_ptr<core::StreamedModel> reopened;
    {
        Span span(tracer, "core.StreamedModel.open_eager");
        writeFile(path, bytes);
        reopened = std::make_unique<core::StreamedModel>(path, eager);
    }
    p.reopenMs = msBetween(t, Clock::now());
    p.totalMs = msBetween(t0, Clock::now());

    p.units = pipe.stats().units;
    p.cacheHits = pipe.stats().cacheHits;
    p.bytes = bytes.size();
    p.digest = digestBytes(bytes);
    p.ok = reopened->pieceCount() == p.units && p.cacheHits == 0 &&
           sameRecords(*reopened->records(), model.records) &&
           sameDense(reopened->dense(), model.dense);
    return p;
}

/** Passes until the phase's time is spent: one warm-up, then at least
 *  three timed. */
std::vector<Pass>
runPasses(const Subject &subject, int threads, const std::string &path,
          double timedMs, Tracer *tracer)
{
    compressPass(subject, threads, path, nullptr);
    std::vector<Pass> passes;
    const auto start = Clock::now();
    while (passes.size() < 3 || msBetween(start, Clock::now()) < timedMs)
        passes.push_back(compressPass(subject, threads, path, tracer));
    return passes;
}

template <typename F>
Summary
over(const std::vector<Pass> &passes, F f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(f(p));
    return summarize(std::move(v));
}

} // namespace

RunResult
runCompress(const RunConfig &cfg)
{
    RunResult res;
    const int threads = hostCpus();
    const Subject subject =
        makeSubject(se::models::ModelId::VGG19, cfg.seed);
    const std::string path =
        cfg.workDir + "/compress-" + std::to_string(cfg.seed) + ".sexm";
    const double timedMs = 1000.0 * cfg.seconds;

    Tracer tracer;
    const std::vector<Pass> plain =
        runPasses(subject, threads, path, timedMs, nullptr);
    std::vector<Pass> all = plain;
    std::vector<Pass> traced;
    if (cfg.trace) {
        traced = runPasses(subject, threads, path, timedMs, &tracer);
        all.insert(all.end(), traced.begin(), traced.end());
    }

    size_t bad = 0, hits = 0;
    for (const Pass &p : all) {
        bad += !p.ok || p.digest != all[0].digest;
        hits += p.cacheHits;
    }
    res.attempted = all.size();
    res.failed = bad;
    res.correct = bad == 0;

    const size_t units = plain[0].units;
    const auto unitsPerS = [](const Pass &p) {
        return 1000.0 * (double)p.units / p.totalMs;
    };
    const Summary ups = over(plain, unitsPerS);
    const Summary passMs = over(plain, [](const Pass &p) { return p.totalMs; });
    const Summary setupS =
        over(plain, [](const Pass &p) { return p.setupMs / 1000.0; });
    std::vector<double> passTimes;
    for (const Pass &p : plain)
        passTimes.push_back(p.totalMs);

    std::ostringstream d;
    d << "\"workload\": \"compress\", \"threads\": " << threads
      << ", \"units_per_pass\": " << units
      << ", \"passes\": " << plain.size()
      << ", \"bundle_digest\": " << jsonHex(plain[0].digest) << ", "
      << jsonSummary("units_per_s", ups) << ", "
      << jsonSummary("pass_ms", passMs) << ", "
      << jsonSummary("setup_s", setupS);

    if (!cfg.trace) {
        res.put("rps", 1000.0 / passMs.median, "req/s");
        res.put("p50_ms", passMs.median, "ms");
        res.put("p99_ms", percentile(passTimes, 0.99), "ms");
        res.put("setup_s", setupS.median, "s");
        res.put("peak_rss_mb", peakRssMb(), "MB");
        res.put("units_per_s", ups.median, "units/s");
        res.put("bundle_bytes", (double)plain[0].bytes, "bytes");
    } else {
        const UnitProbe up = probeUnits(subject, threads, &tracer);
        res.put("pipeline.unit_p50_ms", up.unitP50Ms, "ms");
        res.put("pipeline.unit_max_ms", up.unitMaxMs, "ms");
        res.put("pipeline.busy_share", up.busyShare, "ratio");
        res.put("pipeline.cache_hits", (double)hits, "count");
        res.put("compress.plan_ms", up.planMs, "ms");
        res.put("compress.finish_ms", up.finishMs, "ms");
        res.put("compress.quantize_ms",
                over(traced, [](const Pass &p) { return p.quantizeMs; })
                    .median,
                "ms");
        res.put("model_file.save_ms",
                over(traced, [](const Pass &p) { return p.saveMs; }).median,
                "ms");
        res.put("model_file.reopen_ms",
                over(traced, [](const Pass &p) { return p.reopenMs; })
                    .median,
                "ms");
        res.put("kernels.sgemm_peak_gflop_s", sgemmPeakGflops(256, 200.0),
                "GFLOP/s");
        res.put("loadgen.offered", (double)traced.size(), "requests");
        res.put("trace.overhead_ratio",
                over(traced, unitsPerS).median / ups.median, "ratio");
        res.put("fail_ratio", (double)bad / (double)all.size(), "ratio");

        d << ", \"traced\": {\"passes\": " << traced.size() << ", "
          << tracer.writeAndSummarize(cfg.workDir + "/compress-" +
                                      std::to_string(cfg.seed) +
                                      ".trace.json")
          << "}";
    }
    res.details = d.str();
    return res;
}

} // namespace pb
