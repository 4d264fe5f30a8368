/**
 * @file
 * perfbench — the repository benchmark driver.
 *
 * Usage:
 *   perfbench --workload <percall_v4|cached_open|compress> --seed <n>
 *             --seconds <s> --trace <0|1> [--work-dir <dir>]
 *
 * Prints one details line (host fingerprint, input digests, median and
 * quartiles of every sampled metric) and, last, the result line:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer ones
 * (and a Chrome trace is written to the work directory). Exits 0 only
 * when the run finished; a failed check still prints its result with
 * "correct": false.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "inputs.hh"
#include "workloads.hh"

namespace pb {

const std::vector<Metric> &
perLayerCatalog()
{
    static const std::vector<Metric> catalog = [] {
        std::vector<Metric> c;
        const auto add = [&c](const std::string &n, const char *u) {
            c.push_back({n, 0.0, u});
        };
        add("serve.mean_batch", "requests");
        add("serve.batches", "count");
        add("serve.occupancy", "ratio");
        add("serve.decode_stall_ms", "ms");
        add("serve.exec_ms", "ms");
        add("serve.queue_ms", "ms");
        add("serve.form_ms", "ms");
        add("serve.complete_ms", "ms");
        add("serve.replicas", "count");
        add("session.rebuild_ms", "ms");
        add("session.forward_ms", "ms");
        add("session.pack_ms", "ms");
        add("session.cold_rebuilds", "count");
        add("session.accounted_ratio", "ratio");
        // The conv/linear top-level children of the VGG19-sim subject.
        auto net = makeSubject(se::models::ModelId::VGG19, 0).build();
        for (size_t i = 0; i < net->size(); ++i) {
            const auto *l = net->layer(i);
            if (!dynamic_cast<const se::nn::Conv2d *>(l) &&
                !dynamic_cast<const se::nn::Linear *>(l))
                continue;
            const std::string tag = "layer." + std::to_string(i);
            add(tag + ".forward_ms", "ms");
            add(tag + ".gflop_s", "GFLOP/s");
            add(tag + ".rebuild_ms", "ms");
            add(tag + ".accel_cycles", "cycles");
        }
        add("kernels.sgemm_peak_gflop_s", "GFLOP/s");
        add("kernels.gemmceb_gflop_s", "GFLOP/s");
        add("stream.open_ms", "ms");
        add("stream.decode_ms", "ms");
        add("stream.decode_stall_ms", "ms");
        add("stream.prefetch_hits", "count");
        add("stream.prefetch_misses", "count");
        add("pipeline.unit_p50_ms", "ms");
        add("pipeline.unit_max_ms", "ms");
        add("pipeline.busy_share", "ratio");
        add("pipeline.cache_hits", "count");
        add("compress.plan_ms", "ms");
        add("compress.finish_ms", "ms");
        add("compress.quantize_ms", "ms");
        add("model_file.save_ms", "ms");
        add("model_file.reopen_ms", "ms");
        add("loadgen.late_p99_ms", "ms");
        add("loadgen.offered", "requests");
        add("trace.overhead_ratio", "ratio");
        add("fail_ratio", "ratio");
        return c;
    }();
    return catalog;
}

void
completePerLayer(RunResult &r)
{
    std::vector<Metric> ordered;
    for (const Metric &want : perLayerCatalog()) {
        Metric m = want;
        for (const Metric &got : r.metrics)
            if (got.name == want.name) {
                m.value = got.value;
                m.unit = got.unit;
            }
        ordered.push_back(m);
    }
    r.metrics = std::move(ordered);
}

} // namespace pb

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<percall_v4|cached_open|compress> --seed <n> --seconds "
                 "<s> --trace <0|1> [--work-dir <dir>]\n",
                 why);
    std::exit(2);
}

/** Strict integer parse: the whole string, in range. */
long long
parseInt(const char *flag, const char *s, long long lo, long long hi)
{
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || v < lo || v > hi)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    pb::RunConfig cfg;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            cfg.workload = value();
            haveWorkload = true;
        } else if (a == "--seed") {
            cfg.seed = (uint64_t)parseInt("--seed", value(), 0,
                                          (1LL << 62));
        } else if (a == "--seconds") {
            cfg.seconds = (int)parseInt("--seconds", value(), 1, 600);
        } else if (a == "--trace") {
            cfg.trace = parseInt("--trace", value(), 0, 1) == 1;
        } else if (a == "--work-dir") {
            cfg.workDir = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");

    pb::RunResult r;
    try {
        if (cfg.workload == "percall_v4")
            r = pb::runPercallV4(cfg);
        else if (cfg.workload == "cached_open")
            r = pb::runCachedOpen(cfg);
        else if (cfg.workload == "compress")
            r = pb::runCompress(cfg);
        else
            usage(("unknown workload " + cfg.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     cfg.workload.c_str(), e.what());
        return 1;
    }
    if (cfg.trace)
        pb::completePerLayer(r);
    std::printf("{\"details\": {%s, %s}}\n", pb::hostFingerprint().c_str(),
                r.details.c_str());
    std::printf("%s\n", pb::resultLine(r).c_str());
    return 0;
}
