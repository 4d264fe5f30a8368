/**
 * @file
 * The two serve workloads and the load generators they share.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <sstream>
#include <thread>

#include "core/stream_loader.hh"
#include "inputs.hh"
#include "probes.hh"
#include "runtime/options.hh"
#include "serve/front.hh"
#include "trace.hh"
#include "workloads.hh"

namespace pb {

namespace {

using se::Tensor;
using se::serve::ServeFront;

/** Distinct request tensors every run draws from. */
constexpr size_t kTrafficPool = 64;
/** Stand-ups per run; setup_s is their median. */
constexpr int kSetupReps = 9;
/** Length of one sample window of the timed phase. */
constexpr double kWindowMs = 500.0;
/** cached_open arrival rate, requests per second: about half the
 *  ~5000 req/s the same configuration sustains in a closed loop on a
 *  4-CPU host (see README.md). */
constexpr double kOpenRate = 2500.0;
/** How far session.accounted_ratio may stray from 1 on percall_v4
 *  before the traced run counts a failure. */
constexpr double kAccountedTolerance = 0.3;
/** Minimum timed replay per batch size in the session probe. */
constexpr double kReplayMs = 1000.0;

/** Warm-up then timed phase, and the sample windows of the latter. */
struct Phase
{
    double warmMs = 0.0;
    double timedMs = 0.0;
    size_t windows = 1;
    double endMs() const { return warmMs + timedMs; }
};

Phase
phaseFor(int seconds)
{
    Phase p;
    p.timedMs = 1000.0 * seconds;
    p.warmMs = std::max(500.0, 0.1 * p.timedMs);
    p.windows = std::max<size_t>(1, (size_t)(p.timedMs / kWindowMs));
    return p;
}

/**
 * SE_PIPELINE and SE_PREFETCH_DEPTH, parsed as the serve drivers parse
 * them, for one-off comparisons. The gated runs leave both unset, so
 * the library defaults (serial stages, no prefetch lane) apply.
 */
void
applyServeEnv(se::serve::ServeOptions &so,
              se::core::StreamLoaderOptions &lo)
{
    const se::runtime::RuntimeOptions env =
        se::runtime::RuntimeOptions::fromEnv();
    so.pipeline = env.servePipeline;
    so.session.pipelineRebuild = env.servePipeline;
    lo.prefetchDepth = env.prefetchDepth;
}

std::string
serveEnvDetails(const se::serve::ServeOptions &so,
                const se::core::StreamLoaderOptions &lo)
{
    return std::string("\"pipeline\": ") + (so.pipeline ? "true" : "false") +
           ", \"prefetch_depth\": " + std::to_string(lo.prefetchDepth);
}

/** One model behind the front plus the references its answers must
 *  match. */
struct Tenant
{
    std::string id;
    const ResponseChecker *checker = nullptr;
};

Tensor
asBatchOfOne(const Tensor &x)
{
    return x.reshaped({1, x.dim(0), x.dim(1), x.dim(2)});
}

/** Reference outputs of every traffic input through a plain session. */
ResponseChecker
referencesFor(const Subject &s,
              const se::core::CompressedModel &m,
              const std::vector<Tensor> &traffic)
{
    se::serve::SessionOptions so;
    so.denseState =
        std::make_shared<const std::vector<se::core::DenseTensor>>(m.dense);
    se::serve::InferenceSession session(
        s.build(),
        std::make_shared<const std::vector<se::core::SeLayerRecord>>(
            m.records),
        seOptions(), se::core::ApplyOptions{}, so);
    std::vector<Tensor> refs;
    for (const Tensor &x : traffic)
        refs.push_back(session.forward(asBatchOfOne(x)));
    return ResponseChecker(std::move(refs));
}

/** `n` traffic inputs stacked into one (n, C, H, W) batch. */
Tensor
stackBatch(const std::vector<Tensor> &traffic, size_t n)
{
    const Tensor &x0 = traffic[0];
    Tensor b({(int64_t)n, x0.dim(0), x0.dim(1), x0.dim(2)});
    for (size_t i = 0; i < n; ++i)
        std::copy(traffic[i % traffic.size()].vec().begin(),
                  traffic[i % traffic.size()].vec().end(),
                  b.vec().begin() + (int64_t)i * x0.size());
    return b;
}

/** Submit one request, folding admission refusals into the tally. */
bool
trySubmit(ServeFront &front, const std::string &model, const Tensor &x,
          std::future<Tensor> &fut, FailTally &tally, Tracer *tracer)
{
    ++tally.offered;
    try {
        Span span(tracer, "serve.ServeFront.submit");
        fut = front.submit(model, x);
        return true;
    } catch (const se::serve::AdmissionError &) {
        ++tally.shed;
    } catch (const std::invalid_argument &) {
        ++tally.rejected;
    } catch (const std::exception &) {
        ++tally.failed;
    }
    return false;
}

/** One request in flight. */
struct Pending
{
    std::future<Tensor> fut;
    double dueMs = 0.0;
    double submitMs = 0.0;
    uint32_t input = 0;
    size_t tenant = 0;
    uint64_t id = 0;
};

/** How long a waiter blocks on its oldest request before rescanning. */
constexpr auto kPoll = std::chrono::microseconds(50);

Clock::time_point
atMs(Clock::time_point t0, double ms)
{
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

/**
 * Wait for the oldest request (at most one poll interval when `poll`),
 * then collect every answered one, in any order. Polling observes a
 * response within a poll interval of its batch publishing, whichever
 * replica ran it; a blocking wait costs no wake-ups and is exact when
 * requests complete in order (one replica per model).
 */
void
collectReady(std::deque<Pending> &pending,
             const std::vector<Tenant> &tenants, Clock::time_point t0,
             bool poll, LoadLog &log, FailTally &tally, Tracer *tracer)
{
    if (poll)
        pending.front().fut.wait_for(kPoll);
    else
        pending.front().fut.wait();
    const auto now = Clock::now();
    for (auto it = pending.begin(); it != pending.end();) {
        if (it->fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            ++it;
            continue;
        }
        const bool ok = collectResponse(
            it->fut, *tenants[it->tenant].checker, it->input, tally);
        log.add({it->dueMs, it->submitMs, msBetween(t0, now), ok});
        if (tracer)
            tracer->async("request." + tenants[it->tenant].id, it->id,
                          atMs(t0, it->dueMs), now);
        it = pending.erase(it);
    }
}

/**
 * Closed loop from the calling thread: keep `inflight` requests
 * outstanding, tenants in turn, refilling as soon as any answer lands,
 * until the phase ends; then drain. `atTimed` runs once when the
 * warm-up ends.
 */
LoadLog
closedLoop(ServeFront &front, const std::vector<Tenant> &tenants,
           const std::vector<Tensor> &traffic,
           const std::vector<uint32_t> &picks, size_t inflight,
           const Phase &phase, const std::function<void()> &atTimed,
           FailTally &tally, Tracer *tracer)
{
    LoadLog log(phase.warmMs, phase.endMs(), phase.windows);
    std::deque<Pending> pending;
    uint64_t next = 0;
    bool timed = false;
    const auto t0 = Clock::now();
    for (;;) {
        const double nowMs = msBetween(t0, Clock::now());
        if (!timed && nowMs >= phase.warmMs) {
            timed = true;
            atTimed();
        }
        const bool open = nowMs < phase.endMs();
        while (open && pending.size() < inflight) {
            Pending p;
            p.id = next++;
            p.tenant = (size_t)(p.id % tenants.size());
            p.input = picks[p.id % picks.size()];
            p.submitMs = p.dueMs = msBetween(t0, Clock::now());
            if (trySubmit(front, tenants[p.tenant].id, traffic[p.input],
                          p.fut, tally, tracer))
                pending.push_back(std::move(p));
        }
        if (pending.empty()) {
            if (!open)
                break;
            continue;
        }
        collectReady(pending, tenants, t0, true, log, tally, tracer);
    }
    return log;
}

/**
 * Open loop: the calling thread sleeps until each arrival's due time
 * (with the minimum timer slack, so wake-ups land within microseconds)
 * and sends it; one collector thread per tenant gathers that tenant's
 * answers. Latency runs from the due time, so generator lateness is
 * charged to the requests.
 */
LoadLog
openLoop(ServeFront &front, const std::vector<Tenant> &tenants,
         const std::vector<Tensor> &traffic,
         const std::vector<Arrival> &schedule, const Phase &phase,
         const std::function<void()> &atTimed, FailTally &tally,
         Tracer *tracer)
{
    struct Lane
    {
        explicit Lane(const Phase &p) : log(p.warmMs, p.endMs(), p.windows)
        {}
        se::base::Mutex mu;
        se::base::CondVar cv;
        std::deque<Pending> incoming SE_GUARDED_BY(mu);
        bool closed SE_GUARDED_BY(mu) = false;
        LoadLog log;
        FailTally tally;
    };
    std::vector<std::unique_ptr<Lane>> lanes;
    for (size_t i = 0; i < tenants.size(); ++i)
        lanes.push_back(std::make_unique<Lane>(phase));

    const unsigned long slack = (unsigned long)prctl(PR_GET_TIMERSLACK);
    prctl(PR_SET_TIMERSLACK, 1UL);
    const auto t0 = Clock::now();
    std::vector<std::thread> collectors;
    for (size_t li = 0; li < lanes.size(); ++li)
        collectors.emplace_back([&, li] {
            Lane &lane = *lanes[li];
            std::deque<Pending> pending;
            for (;;) {
                {
                    se::base::LockGuard lk(lane.mu);
                    while (pending.empty() && lane.incoming.empty() &&
                           !lane.closed)
                        lane.cv.wait(lk);
                    for (Pending &p : lane.incoming)
                        pending.push_back(std::move(p));
                    lane.incoming.clear();
                    if (pending.empty() && lane.closed)
                        return;
                }
                if (!pending.empty())
                    collectReady(pending, tenants, t0, false, lane.log,
                                 lane.tally, tracer);
            }
        });

    bool timed = false;
    uint64_t id = 0;
    for (const Arrival &a : schedule) {
        if (!timed && a.dueMs >= phase.warmMs) {
            timed = true;
            atTimed();
        }
        std::this_thread::sleep_until(atMs(t0, a.dueMs));
        Pending p;
        p.dueMs = a.dueMs;
        p.input = a.input;
        p.tenant = a.tenant;
        p.id = id++;
        p.submitMs = msBetween(t0, Clock::now());
        if (trySubmit(front, tenants[a.tenant].id, traffic[a.input], p.fut,
                      tally, tracer)) {
            Lane &lane = *lanes[a.tenant];
            {
                se::base::LockGuard lk(lane.mu);
                lane.incoming.push_back(std::move(p));
            }
            lane.cv.notifyOne();
        }
    }
    for (auto &lane : lanes) {
        {
            se::base::LockGuard lk(lane->mu);
            lane->closed = true;
        }
        lane->cv.notifyAll();
    }
    for (auto &t : collectors)
        t.join();
    prctl(PR_SET_TIMERSLACK, slack);

    // This thread counted the offers; the lanes counted the outcomes.
    LoadLog log(phase.warmMs, phase.endMs(), phase.windows);
    for (auto &lane : lanes) {
        log.merge(lane->log);
        tally.add(lane->tally);
    }
    return log;
}

/** ServeStats summed over the front's models. */
struct StatsSnap
{
    double requests = 0, batches = 0, latencyWeighted = 0;
    double formMs = 0, execMs = 0, completeMs = 0, stallMs = 0;
    double overlapped = 0;
};

StatsSnap
snapshot(ServeFront &front)
{
    StatsSnap s;
    for (const std::string &id : front.modelIds()) {
        const se::serve::ServeStats st = front.stats(id);
        s.requests += (double)st.requests;
        s.batches += (double)st.batches;
        s.latencyWeighted += st.meanLatencyMs * (double)st.requests;
        s.formMs += st.formMs;
        s.execMs += st.execMs;
        s.completeMs += st.completeMs;
        s.stallMs += st.decodeStallMs;
        s.overlapped += (double)st.overlappedBatches;
    }
    return s;
}

/** What one load phase measured. */
struct PhaseResult
{
    Summary rps, p50, p99;
    size_t answeredPerWindow = 0;  ///< median sample size of p50/p99
    double lateP99Ms = 0.0;
    size_t offered = 0;
    StatsSnap before, after;
    /** VmHWM when the timed phase began: set-up and warm serving, not
     *  the harness's own per-request bookkeeping. */
    double peakRssMb = 0.0;
};

PhaseResult
summarizePhase(const LoadLog &log)
{
    PhaseResult r;
    std::vector<double> rps, p50, p99, n;
    for (const WindowStats &w : log.windows()) {
        rps.push_back(w.rps);
        p50.push_back(w.p50Ms);
        p99.push_back(w.p99Ms);
        n.push_back((double)w.answered);
    }
    r.rps = summarize(rps);
    r.p50 = summarize(p50);
    r.p99 = summarize(p99);
    r.answeredPerWindow = (size_t)summarize(n).median;
    r.lateP99Ms = log.lateness(0.99);
    r.offered = log.offered();
    return r;
}

/** Per-layer serve.* metrics: stats deltas over the timed phase. */
void
putServeLayer(RunResult &r, const PhaseResult &p, int replicas)
{
    const StatsSnap &a = p.before, &b = p.after;
    const double batches = std::max(1.0, b.batches - a.batches);
    const double requests = std::max(1.0, b.requests - a.requests);
    const double execPerBatch = (b.execMs - a.execMs) / batches;
    const double meanLatency =
        (b.latencyWeighted - a.latencyWeighted) / requests;
    r.put("serve.mean_batch", requests / batches, "requests");
    r.put("serve.batches", b.batches - a.batches, "count");
    r.put("serve.occupancy", (b.overlapped - a.overlapped) / batches,
          "ratio");
    r.put("serve.decode_stall_ms", (b.stallMs - a.stallMs) / batches, "ms");
    r.put("serve.exec_ms", execPerBatch, "ms");
    r.put("serve.queue_ms", meanLatency - execPerBatch, "ms");
    r.put("serve.form_ms", (b.formMs - a.formMs) / batches, "ms");
    r.put("serve.complete_ms", (b.completeMs - a.completeMs) / batches,
          "ms");
    r.put("serve.replicas", replicas, "count");
}

void
putLayerProbes(RunResult &r, const std::vector<LayerProbe> &layers,
               bool rebuild, bool accel)
{
    for (const LayerProbe &l : layers) {
        const std::string tag = "layer." + std::to_string(l.child);
        r.put(tag + ".forward_ms", l.forwardMs, "ms");
        r.put(tag + ".gflop_s", l.gflopS, "GFLOP/s");
        if (rebuild)
            r.put(tag + ".rebuild_ms", l.rebuildMs, "ms");
        if (accel)
            r.put(tag + ".accel_cycles", (double)l.accelCycles, "cycles");
    }
}

std::string
phaseDetails(const PhaseResult &p)
{
    return jsonSummary("rps", p.rps) + ", " + jsonSummary("p50_ms", p.p50) +
           ", " + jsonSummary("p99_ms", p.p99) +
           ", \"answered_per_window\": " +
           std::to_string(p.answeredPerWindow) +
           ", \"offered\": " + std::to_string(p.offered) +
           ", \"late_p99_ms\": " + jsonNumber(p.lateP99Ms);
}

/** What putServeProbes measured beyond the metrics it put. */
struct ServeProbes
{
    std::vector<LayerProbe> layers;
    size_t batch = 1;  ///< the layer probes' batch size
    /** (session.rebuild_ms + session.forward_ms) / serve.exec_ms */
    double accountedRatio = 0.0;
};

/**
 * The per-layer metrics both serve workloads take from their traced
 * phase: serve stats deltas, the session replay at the served batch
 * size (on as many threads as the front has replicas), probes of each
 * conv/linear child (with gemmCeB and the accelerator model when
 * `rebuildAndAccel`), the GEMM ceiling and the harness's health.
 */
ServeProbes
putServeProbes(RunResult &res, const PhaseResult &plain,
               const PhaseResult &traced, int replicas,
               const SessionFactory &make,
               const std::vector<se::core::SeLayerRecord> &records,
               const std::vector<Tensor> &traffic, bool rebuildAndAccel,
               const FailTally &tally, Tracer *tracer)
{
    putServeLayer(res, traced, replicas);
    const double batches =
        std::max(1.0, traced.after.batches - traced.before.batches);
    const double meanBatch =
        (traced.after.requests - traced.before.requests) / batches;
    const double execPerBatch =
        (traced.after.execMs - traced.before.execMs) / batches;
    const size_t b = std::max<size_t>(1, (size_t)std::lround(meanBatch));
    const Tensor batch = stackBatch(traffic, b);

    // Replay the two whole batch sizes around the served mean and
    // interpolate, so the replay runs the batch the engine ran.
    const size_t lo = std::max<size_t>(1, (size_t)meanBatch);
    const double w = std::min(1.0, std::max(0.0, meanBatch - (double)lo));
    const SessionProbe sp = probeSession(make, stackBatch(traffic, lo),
                                         replicas, kReplayMs, tracer);
    const SessionProbe up =
        w > 0.0 ? probeSession(make, stackBatch(traffic, lo + 1), replicas,
                               kReplayMs, tracer)
                : sp;
    const double rebuildMs = (1.0 - w) * sp.rebuildMs + w * up.rebuildMs;
    const double forwardMs = (1.0 - w) * sp.forwardMs + w * up.forwardMs;
    res.put("session.rebuild_ms", rebuildMs, "ms");
    res.put("session.forward_ms", forwardMs, "ms");
    res.put("session.pack_ms", sp.packMs, "ms");
    res.put("session.cold_rebuilds", sp.coldRebuilds, "count");
    ServeProbes out;
    out.accountedRatio = (rebuildMs + forwardMs) / execPerBatch;
    res.put("session.accounted_ratio", out.accountedRatio, "ratio");

    const auto session = make();
    out.layers = probeLayers(*session, batch, records, rebuildAndAccel,
                             rebuildAndAccel, 30.0, tracer);
    out.batch = b;
    putLayerProbes(res, out.layers, rebuildAndAccel, rebuildAndAccel);
    res.put("kernels.sgemm_peak_gflop_s", sgemmPeakGflops(256, 200.0),
            "GFLOP/s");

    res.put("loadgen.late_p99_ms", traced.lateP99Ms, "ms");
    res.put("loadgen.offered", (double)traced.offered, "requests");
    res.put("trace.overhead_ratio",
            traced.rps.median / std::max(1e-9, plain.rps.median), "ratio");
    res.put("fail_ratio", tally.ratio(), "ratio");
    return out;
}

/** Result bookkeeping shared by both serve workloads. */
void
finishServe(RunResult &r, const FailTally &tally, bool bundlesOk)
{
    r.attempted = std::max<uint64_t>(1, tally.offered);
    r.failed = tally.failures() + (bundlesOk ? 0 : 1);
    r.correct = r.failed == 0;
}

} // namespace

// ------------------------------------------------------------ percall_v4

RunResult
runPercallV4(const RunConfig &cfg)
{
    using namespace se;
    RunResult res;
    const Phase phase = phaseFor(cfg.seconds);
    const int budget = std::max(1, hostCpus() - 1);
    const core::SeOptions se_opts = seOptions();
    const core::ApplyOptions apply;

    // Inputs, all before the clock starts.
    const Subject subject = makeSubject(models::ModelId::VGG19, cfg.seed);
    const core::CompressedModel shipped = compressSubject(subject, true);
    const std::string bytes = saveV4(shipped);
    const std::string path = cfg.workDir + "/percall_v4-" +
                             std::to_string(cfg.seed) + ".sexm";
    writeFile(path, bytes);
    const std::vector<Tensor> traffic = makeTraffic(cfg.seed, kTrafficPool);
    const std::vector<uint32_t> picks =
        makePicks(cfg.seed, 1u << 16, kTrafficPool);
    const ResponseChecker checker = referencesFor(subject, shipped, traffic);
    // peak_rss_mb covers stand-up and serving, not the input generation.
    const bool rssReset = resetPeakRss();

    serve::ServeOptions so;
    so.threads = budget;
    so.session.rebuildPerCall = true;
    so.session.cacheRebuiltWeights = false;
    core::StreamLoaderOptions lo;
    applyServeEnv(so, lo);

    Tracer tracer;
    Tracer *tr = cfg.trace ? &tracer : nullptr;
    FailTally tally;

    // setup_s: bundle open + front build + first answered request.
    std::unique_ptr<ServeFront> front;
    std::shared_ptr<core::StreamedModel> streamed;
    std::vector<double> setupS, openMs;
    bool bundleOk = true;
    for (int k = 0; k < kSetupReps; ++k) {
        front.reset();
        streamed.reset();
        const auto t0 = Clock::now();
        {
            Span span(tr, "core.StreamedModel.open");
            streamed = std::make_shared<core::StreamedModel>(path, lo);
        }
        openMs.push_back(msBetween(t0, Clock::now()));
        serve::ModelRegistry reg;
        reg.add("vgg19",
                serve::makeModelEntry(streamed, subject.factory(), se_opts,
                                      apply, serve::WeightSource::CeDirect));
        {
            Span span(tr, "serve.ServeFront.build");
            front = std::make_unique<ServeFront>(reg, so);
        }
        std::future<Tensor> fut;
        bool ok = false;
        {
            Span span(tr, "serve.first_request");
            ok = trySubmit(*front, "vgg19", traffic[0], fut, tally, nullptr) &&
                 collectResponse(fut, checker, 0, tally);
        }
        setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
        bundleOk = bundleOk && ok;
    }
    bundleOk = bundleOk &&
               sameRecords(*streamed->records(), shipped.records) &&
               sameDense(streamed->dense(), shipped.dense);

    const std::vector<Tenant> tenants{{"vgg19", &checker}};
    const size_t inflight =
        (size_t)front->replicaCount() * so.maxBatch;
    const auto runPhase = [&](Tracer *t) {
        StatsSnap before;
        double rss = 0.0;
        const LoadLog log = closedLoop(
            *front, tenants, traffic, picks, inflight, phase,
            [&] {
                before = snapshot(*front);
                rss = peakRssMb();
            },
            tally, t);
        PhaseResult s = summarizePhase(log);
        s.before = before;
        s.after = snapshot(*front);
        s.peakRssMb = rss;
        return s;
    };

    const PhaseResult plain = runPhase(nullptr);
    const size_t pieces = streamed->pieceCount();
    std::string details =
        "\"workload\": \"percall_v4\", " + serveEnvDetails(so, lo) +
        ", \"thread_budget\": " + std::to_string(budget) +
        ", \"replicas\": " + std::to_string(front->replicaCount()) +
        ", \"max_batch\": " + std::to_string(so.maxBatch) +
        ", \"inflight\": " + std::to_string(inflight) +
        ", \"pieces\": " + std::to_string(pieces) +
        ", \"rss_reset\": " + (rssReset ? "true" : "false") +
        ", \"traffic_digest\": " + jsonHex(digestTraffic(traffic)) +
        ", \"bundle_digest\": " + jsonHex(digestBytes(bytes)) + ", " +
        jsonSummary("setup_s", summarize(setupS)) + ", " +
        phaseDetails(plain);

    bool accountedOk = true;
    if (!cfg.trace) {
        res.put("rps", plain.rps.median, "req/s");
        res.put("p50_ms", plain.p50.median, "ms");
        res.put("p99_ms", plain.p99.median, "ms");
        res.put("setup_s", summarize(setupS).median, "s");
        res.put("peak_rss_mb", plain.peakRssMb, "MB");
        res.put("units_per_s", plain.rps.median * (double)pieces, "units/s");
        res.put("bundle_bytes", (double)bytes.size(), "bytes");
    } else {
        const PhaseResult traced = runPhase(tr);
        serve::SessionOptions sopts = so.session;
        sopts.weightSource = serve::WeightSource::CeDirect;
        sopts.denseState =
            std::make_shared<const std::vector<core::DenseTensor>>(
                streamed->dense());
        const auto records = streamed->records();
        const SessionFactory make = [&] {
            return std::make_unique<serve::InferenceSession>(
                subject.build(), records, se_opts, apply, sopts);
        };
        const ServeProbes probes = putServeProbes(
            res, plain, traced, front->replicaCount(), make, *records,
            traffic, true, tally, tr);
        accountedOk =
            std::fabs(probes.accountedRatio - 1.0) <= kAccountedTolerance;
        double gflop = 0.0, ms = 0.0;
        for (const LayerProbe &l : probes.layers) {
            gflop += l.rebuildGflop;
            ms += l.rebuildMs;
        }
        res.put("kernels.gemmceb_gflop_s", ms > 0 ? gflop * 1000.0 / ms : 0,
                "GFLOP/s");

        // A fresh lazy open decoding every piece inline, next to the
        // counters of the bundle the front actually served from.
        std::vector<double> decodeMs;
        for (int k = 0; k < 3; ++k) {
            core::StreamedModel sm(path);
            const auto t0 = Clock::now();
            Span span(tr, "core.StreamedModel.records");
            sm.records();
            decodeMs.push_back(msBetween(t0, Clock::now()));
        }
        const core::StreamStats ss = streamed->streamStats();
        res.put("stream.open_ms", summarize(openMs).median, "ms");
        res.put("stream.decode_ms", summarize(decodeMs).median, "ms");
        res.put("stream.decode_stall_ms", ss.decodeStallMs, "ms");
        res.put("stream.prefetch_hits", (double)ss.prefetchHits, "count");
        res.put("stream.prefetch_misses", (double)ss.prefetchMisses,
                "count");

        details += ", \"traced\": {" + phaseDetails(traced) +
                   ", \"probe_batch\": " + std::to_string(probes.batch) +
                   ", \"accounted_ok\": " + (accountedOk ? "true" : "false") +
                   ", " +
                   tracer.writeAndSummarize(cfg.workDir + "/percall_v4-" +
                                            std::to_string(cfg.seed) +
                                            ".trace.json") +
                   "}";
    }
    front->stop();
    finishServe(res, tally, bundleOk);
    // A replay that does not account for the engine's execute stage
    // means a per-layer attribution is missing or double-counted.
    if (!accountedOk) {
        ++res.failed;
        res.correct = false;
    }
    res.details = details;
    return res;
}

// ----------------------------------------------------------- cached_open

RunResult
runCachedOpen(const RunConfig &cfg)
{
    using namespace se;
    RunResult res;
    const Phase phase = phaseFor(cfg.seconds);
    const int budget = std::max(1, hostCpus() - 1);
    const core::SeOptions se_opts = seOptions();
    const core::ApplyOptions apply;

    const Subject subjects[2] = {
        makeSubject(models::ModelId::VGG19, cfg.seed),
        makeSubject(models::ModelId::VGG11, cfg.seed)};
    const char *ids[2] = {"vgg19", "vgg11"};
    std::vector<core::CompressedModel> shipped;
    std::vector<std::string> bytes;
    for (const Subject &s : subjects) {
        shipped.push_back(compressSubject(s, false));
        bytes.push_back(saveV3(shipped.back()));
    }
    const std::vector<Tensor> traffic = makeTraffic(cfg.seed, kTrafficPool);
    const std::vector<Arrival> schedule = poissonSchedule(
        cfg.seed, kOpenRate, phase.endMs(), 2, kTrafficPool);
    std::vector<ResponseChecker> checkers;
    for (size_t i = 0; i < 2; ++i)
        checkers.push_back(referencesFor(subjects[i], shipped[i], traffic));
    const bool rssReset = resetPeakRss();

    serve::ServeOptions so;
    so.threads = budget;
    core::StreamLoaderOptions lo;
    applyServeEnv(so, lo);

    Tracer tracer;
    Tracer *tr = cfg.trace ? &tracer : nullptr;
    FailTally tally;

    // setup_s: both bundles opened from their bytes, the front built,
    // and each model's first request answered.
    std::unique_ptr<ServeFront> front;
    std::vector<double> setupS;
    bool bundlesOk = true;
    for (int k = 0; k < kSetupReps; ++k) {
        front.reset();
        const auto t0 = Clock::now();
        serve::ModelRegistry reg;
        for (size_t i = 0; i < 2; ++i) {
            core::ModelBundle b;
            {
                Span span(tr, "core.loadModelBundle");
                std::istringstream is(bytes[i], std::ios::binary);
                b = core::loadModelBundle(is);
            }
            if (k == 0)
                bundlesOk = bundlesOk &&
                            sameRecords(b.records, shipped[i].records) &&
                            sameDense(b.dense, shipped[i].dense);
            reg.add(ids[i], serve::makeModelEntry(std::move(b),
                                                  subjects[i].factory(),
                                                  se_opts, apply));
        }
        {
            Span span(tr, "serve.ServeFront.build");
            front = std::make_unique<ServeFront>(reg, so);
        }
        for (size_t i = 0; i < 2; ++i) {
            Span span(tr, "serve.first_request");
            std::future<Tensor> fut;
            bundlesOk = bundlesOk &&
                        trySubmit(*front, ids[i], traffic[0], fut, tally,
                                  nullptr) &&
                        collectResponse(fut, checkers[i], 0, tally);
        }
        setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }

    const std::vector<Tenant> tenants{{ids[0], &checkers[0]},
                                      {ids[1], &checkers[1]}};
    const auto runPhase = [&](Tracer *t) {
        StatsSnap before;
        double rss = 0.0;
        const LoadLog log = openLoop(
            *front, tenants, traffic, schedule, phase,
            [&] {
                before = snapshot(*front);
                rss = peakRssMb();
            },
            tally, t);
        PhaseResult s = summarizePhase(log);
        s.before = before;
        s.after = snapshot(*front);
        s.peakRssMb = rss;
        return s;
    };

    const PhaseResult plain = runPhase(nullptr);
    size_t units = 0;
    for (const core::CompressedModel &m : shipped)
        for (const core::SeLayerRecord &r : m.records)
            units += r.pieces.size();
    std::string details =
        "\"workload\": \"cached_open\", " + serveEnvDetails(so, lo) +
        ", \"rate\": " + jsonNumber(kOpenRate) +
        ", \"rss_reset\": " + (rssReset ? "true" : "false") +
        ", \"thread_budget\": " + std::to_string(budget) +
        ", \"replicas\": " + std::to_string(front->replicaCount()) +
        ", \"max_batch\": " + std::to_string(so.maxBatch) +
        ", \"traffic_digest\": " + jsonHex(digestTraffic(traffic)) +
        ", \"schedule_digest\": " + jsonHex(digestSchedule(schedule)) +
        ", \"bundle_digest\": " +
        jsonHex(digestBytes(bytes[0] + bytes[1])) + ", " +
        jsonSummary("setup_s", summarize(setupS)) + ", " +
        phaseDetails(plain);

    if (!cfg.trace) {
        res.put("rps", plain.rps.median, "req/s");
        res.put("p50_ms", plain.p50.median, "ms");
        res.put("p99_ms", plain.p99.median, "ms");
        res.put("setup_s", summarize(setupS).median, "s");
        res.put("peak_rss_mb", plain.peakRssMb, "MB");
        // Requests alternate tenants, so each answer reads the mean
        // of the two models' unit counts.
        res.put("units_per_s", plain.rps.median * (double)units / 2.0,
                "units/s");
        res.put("bundle_bytes", (double)(bytes[0].size() + bytes[1].size()),
                "bytes");
    } else {
        const PhaseResult traced = runPhase(tr);
        // Replay and layer probes on the VGG19 tenant, with the
        // workload's (default, cached) session options.
        serve::SessionOptions sopts = so.session;
        sopts.denseState =
            std::make_shared<const std::vector<core::DenseTensor>>(
                shipped[0].dense);
        const auto records =
            std::make_shared<const std::vector<core::SeLayerRecord>>(
                shipped[0].records);
        const SessionFactory make = [&] {
            return std::make_unique<serve::InferenceSession>(
                subjects[0].build(), records, se_opts, apply, sopts);
        };
        const size_t b = putServeProbes(res, plain, traced,
                                        front->replicaCount(), make,
                                        *records, traffic, false, tally, tr)
                             .batch;
        // One thread at batch 1: the serial one-request loop the
        // engine's batching and replicas are compared against.
        const SessionProbe single =
            probeSession(make, stackBatch(traffic, 1), 1, 300.0, tr);
        details += ", \"session_forward_ms_batch1\": " +
                   jsonNumber(single.forwardMs) + ", \"traced\": {" +
                   phaseDetails(traced) +
                   ", \"probe_batch\": " + std::to_string(b) + ", " +
                   tracer.writeAndSummarize(cfg.workDir + "/cached_open-" +
                                            std::to_string(cfg.seed) +
                                            ".trace.json") +
                   "}";
    }
    front->stop();
    finishServe(res, tally, bundlesOk);
    res.details = details;
    return res;
}

} // namespace pb
