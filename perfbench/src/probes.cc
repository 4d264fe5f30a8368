#include "probes.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "accel/smartexchange_accel.hh"
#include "base/random.hh"
#include "base/thread_pool.hh"
#include "harness.hh"
#include "inputs.hh"
#include "kernels/ce_gemm.hh"
#include "kernels/gemm.hh"
#include "kernels/kernels.hh"

namespace pb {

namespace {

/** Median per-call ms of fn(), repeated for at least minMs and 5 calls
 *  after one untimed warm-up call. */
template <typename Fn>
double
medianCallMs(double minMs, Fn &&fn)
{
    fn();
    std::vector<double> ms;
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(msBetween(t0, Clock::now()));
    } while (ms.size() < 5 || msBetween(start, Clock::now()) < minMs);
    return summarize(std::move(ms)).median;
}

double
zeroShare(const se::Tensor &t)
{
    if (t.empty())
        return 0.0;
    int64_t z = 0;
    for (int64_t i = 0; i < t.size(); ++i)
        z += t[i] == 0.0f;
    return (double)z / (double)t.size();
}

} // namespace

SessionProbe
probeSession(const SessionFactory &make, const se::Tensor &batch,
             int threads, double minMs, Tracer *tracer)
{
    threads = std::max(1, threads);
    std::vector<std::unique_ptr<se::serve::InferenceSession>> sessions;
    for (int i = 0; i < threads; ++i)
        sessions.push_back(make());
    std::vector<SessionProbe> per((size_t)threads);
    std::vector<std::exception_ptr> errors((size_t)threads);
    std::atomic<int> ready{0};

    const auto body = [&](int i) {
        try {
            // Serve replicas run their batches under a SerialScope; so
            // does the replay, or the rebuild would fan out over the
            // kernel pool here and nowhere in the engine.
            se::kernels::SerialScope serial;
            se::serve::InferenceSession &session = *sessions[(size_t)i];
            SessionProbe &p = per[(size_t)i];
            p.packMs = session.stats().packMs;
            {
                Span span(tracer, "session.forward.first");
                session.forward(batch);
            }
            p.coldRebuilds = (double)session.stats().coldRebuilds;
            session.forward(batch);
            // Start the timed loops together, so they overlap as the
            // replicas of a busy engine do.
            ready.fetch_add(1);
            while (ready.load() < threads)
                std::this_thread::yield();

            const double rebuild0 = session.stats().rebuildMs;
            int calls = 0;
            const auto start = Clock::now();
            do {
                Span span(tracer, "session.forward");
                session.forward(batch);
                ++calls;
            } while (calls < 5 || msBetween(start, Clock::now()) < minMs);
            const double wall = msBetween(start, Clock::now());
            p.rebuildMs = (session.stats().rebuildMs - rebuild0) / calls;
            p.forwardMs = wall / calls - p.rebuildMs;
        } catch (...) {
            errors[(size_t)i] = std::current_exception();
            ready.fetch_add(1);  // never leave the others waiting
        }
    };
    std::vector<std::thread> others;
    for (int i = 1; i < threads; ++i)
        others.emplace_back(body, i);
    body(0);
    for (auto &t : others)
        t.join();
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);

    SessionProbe mean = per[0];
    mean.rebuildMs = mean.forwardMs = 0.0;
    for (const SessionProbe &p : per) {
        mean.rebuildMs += p.rebuildMs / threads;
        mean.forwardMs += p.forwardMs / threads;
    }
    return mean;
}

std::vector<LayerProbe>
probeLayers(se::serve::InferenceSession &session, const se::Tensor &batch,
            const std::vector<se::core::SeLayerRecord> &records,
            bool rebuild, bool accel, double minMs, Tracer *tracer)
{
    se::kernels::SerialScope serial;
    session.forward(batch);  // every weight is now rebuilt and live
    se::nn::Sequential &net = session.net();

    // Map each decomposed weight tensor to its shipped record.
    se::core::ApplyOptions plan_opts;
    const se::core::CompressionPlan plan =
        se::core::planCompression(net, seOptions(), plan_opts);
    std::map<const se::Tensor *, const se::core::SeLayerRecord *> recordOf;
    for (const auto &b : se::core::matchRecordsToPlan(plan, records))
        recordOf[plan.layers[b.layerIndex].weight] = b.record;

    const se::accel::SmartExchangeAccel accelModel;
    std::vector<LayerProbe> out;
    se::Tensor h = batch;
    for (size_t c = 0; c < net.size(); ++c) {
        se::nn::Layer *layer = net.layer(c);
        auto *conv = dynamic_cast<se::nn::Conv2d *>(layer);
        auto *fc = dynamic_cast<se::nn::Linear *>(layer);
        if (!conv && !fc) {
            h = layer->forward(h, false);
            continue;
        }
        LayerProbe lp;
        lp.child = c;
        const std::string tag = "layer." + std::to_string(c);
        se::Tensor y;
        {
            Span span(tracer, tag + ".forward");
            lp.forwardMs =
                medianCallMs(minMs, [&] { y = layer->forward(h, false); });
        }

        se::sim::LayerShape shape;
        shape.name = tag;
        const se::Tensor *weight;
        double flops;
        if (conv) {
            weight = &conv->weightTensor();
            flops = 2.0 * (double)y.size() *
                    (double)(conv->inChannels() / conv->groupCount()) *
                    (double)(conv->kernelSize() * conv->kernelSize());
            shape.kind = se::sim::LayerKind::Conv;
            shape.c = conv->inChannels();
            shape.m = conv->outChannels();
            shape.h = h.dim(2);
            shape.w = h.dim(3);
            shape.r = shape.s = conv->kernelSize();
            shape.stride = conv->strideLen();
            shape.pad = conv->padLen();
        } else {
            weight = &fc->weightTensor();
            flops = 2.0 * (double)y.size() * (double)fc->inFeatures();
            shape.kind = se::sim::LayerKind::FullyConnected;
            shape.c = fc->inFeatures();
            shape.m = fc->outFeatures();
        }
        lp.gflopS = flops / (lp.forwardMs * 1e6);

        const auto it = recordOf.find(weight);
        if (it != recordOf.end()) {
            const se::core::SeLayerRecord &rec = *it->second;
            if (rebuild) {
                std::vector<se::core::PackedCe> packed;
                std::vector<se::Tensor> recon;
                for (const se::core::SeMatrix &p : rec.pieces) {
                    packed.push_back(se::core::packCe(p.ce, p.alphabet));
                    recon.emplace_back(
                        se::Shape{p.ce.dim(0), p.basis.dim(1)});
                    lp.rebuildGflop += 2.0 * (double)p.ce.dim(0) *
                                       (double)p.ce.dim(1) *
                                       (double)p.basis.dim(1) / 1e9;
                }
                se::kernels::ScratchArena arena;
                Span span(tracer, tag + ".gemmCeB");
                lp.rebuildMs = medianCallMs(minMs, [&] {
                    for (size_t k = 0; k < packed.size(); ++k) {
                        const se::core::PackedCe &p = packed[k];
                        se::kernels::gemmCeB(
                            p.rowMask.data(), p.nibbles.data(), p.rows,
                            p.cols, rec.pieces[k].basis.data(),
                            rec.pieces[k].basis.dim(1), p.alphabet,
                            recon[k].data(), arena);
                    }
                });
            }
            if (accel) {
                double rows = 0.0, vs = 0.0, es = 0.0;
                for (const se::core::SeMatrix &p : rec.pieces) {
                    const double r = (double)p.ce.dim(0);
                    rows += r;
                    vs += r * p.vectorSparsity();
                    es += r * p.elementSparsity();
                }
                shape.weightVectorSparsity = rows > 0 ? vs / rows : 0.0;
                shape.weightElementSparsity = rows > 0 ? es / rows : 0.0;
            }
        }
        if (accel) {
            shape.actValueSparsity = zeroShare(h);
            Span span(tracer, tag + ".accel.runLayer");
            lp.accelCycles = accelModel.runLayer(shape).cycles;
        }
        out.push_back(lp);
        h = std::move(y);
    }
    return out;
}

double
sgemmPeakGflops(int64_t n, double minMs)
{
    se::kernels::SerialScope serial;
    se::Rng rng(5);
    const se::Tensor a = se::randn({n, n}, rng);
    const se::Tensor b = se::randn({n, n}, rng);
    se::Tensor c({n, n});
    const double ms = medianCallMs(minMs, [&] {
        se::kernels::sgemm(a.data(), b.data(), c.data(), n, n, n, false);
    });
    return 2.0 * (double)n * (double)n * (double)n / (ms * 1e6);
}

UnitProbe
probeUnits(const Subject &subject, int threads, Tracer *tracer)
{
    UnitProbe p;
    const se::core::SeOptions se_opts = seOptions();
    const se::core::ApplyOptions apply;
    auto net = subject.build();

    auto t0 = Clock::now();
    se::core::CompressionPlan plan;
    {
        Span span(tracer, "core.planCompression");
        plan = se::core::planCompression(*net, se_opts, apply);
    }
    p.planMs = msBetween(t0, Clock::now());

    const size_t n = plan.units.size();
    std::vector<se::core::SeMatrix> results(n);
    std::vector<double> unitMs(n, 0.0);
    se::ThreadPool pool(threads);
    t0 = Clock::now();
    pool.parallelFor((int64_t)n, [&](int64_t i) {
        se::kernels::SerialScope serial;
        Span span(tracer, "core.decomposeMatrix");
        const auto u0 = Clock::now();
        results[(size_t)i] =
            se::core::decomposeMatrix(plan.units[(size_t)i].matrix, se_opts);
        unitMs[(size_t)i] = msBetween(u0, Clock::now());
    });
    const double wall = msBetween(t0, Clock::now());
    double busy = 0.0;
    for (double ms : unitMs)
        busy += ms;
    p.busyShare = busy / ((double)pool.threadCount() * wall);
    p.unitP50Ms = percentile(unitMs, 0.5);
    p.unitMaxMs = percentile(unitMs, 1.0);

    t0 = Clock::now();
    {
        Span span(tracer, "core.finishCompression");
        se::core::finishCompression(plan, std::move(results), se_opts);
    }
    p.finishMs = msBetween(t0, Clock::now());
    return p;
}

} // namespace pb
