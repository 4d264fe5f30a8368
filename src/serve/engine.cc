#include "serve/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "base/clock.hh"
#include "base/failpoint.hh"
#include "kernels/kernels.hh"

namespace se {
namespace serve {

namespace {
using Clock = SteadyClock;

/** Nearest-rank percentile of a sorted series. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const size_t n = sorted.size();
    size_t idx = (size_t)std::ceil(q * (double)n);
    idx = idx > 0 ? idx - 1 : 0;
    return sorted[std::min(idx, n - 1)];
}

} // namespace

ServeEngine::ServeEngine(
    std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
    const NetFactory &factory, const core::SeOptions &se_opts,
    const core::ApplyOptions &apply_opts, ServeOptions opts)
    : opts_(opts), expected_(opts.expectedSample),
      latency_(opts.latencyReservoirCap)
{
    if (opts_.pipeline || opts_.session.pipelineRebuild)
        throw std::invalid_argument(
            "ServeEngine: pipeline and session.pipelineRebuild are "
            "unsupported and must be false");
    // Written as !(x <= cap) so NaN is rejected too; an uncapped
    // value would overflow the deadline's integer-nanosecond cast.
    if (!(opts_.flushDeadlineMs <= kMaxFlushDeadlineMs))
        throw std::invalid_argument(
            "ServeEngine: flushDeadlineMs must be a number of ms no "
            "larger than one hour");
    if (opts_.maxBatch < 1)
        opts_.maxBatch = 1;
    if (opts_.flushDeadlineMs < 0.0)
        opts_.flushDeadlineMs = 0.0;
    const int nrep = std::max(1, opts_.resolvedThreads());
    // One factory call and one bind per model: the bound template net
    // becomes replica 0 and every other replica is a deep copy of it,
    // taken after the bind so it carries the installed dense state.
    // The clones are taken first so the template is moved, not kept.
    std::unique_ptr<nn::Sequential> net = factory();
    const auto bound = std::make_shared<const BoundModel>(
        *net, std::move(model), se_opts, apply_opts, opts_.session);
    std::vector<std::unique_ptr<nn::Sequential>> nets((size_t)nrep);
    for (size_t i = 1; i < nets.size(); ++i)
        nets[i] = std::make_unique<nn::Sequential>(*net);
    nets[0] = std::move(net);
    replicas_.reserve(nets.size());
    for (auto &n : nets)
        replicas_.push_back(std::make_unique<InferenceSession>(
            std::move(n), bound, opts_.session));
    workers_.reserve(replicas_.size());
    try {
        for (size_t i = 0; i < replicas_.size(); ++i)
            workers_.emplace_back([this, i] { replicaLoop(i); });
    } catch (...) {
        stop();  // join the threads already started
        throw;
    }
}

ServeEngine::~ServeEngine()
{
    stop();
}

void
ServeEngine::stop()
{
    base::LockGuard sl(stop_mu_);
    {
        base::LockGuard lk(mu_);
        stopping_ = true;
    }
    work_cv_.notifyAll();
    // Each replica thread empties the queue and finishes its batch
    // before it returns, so this answers every accepted request while
    // the members the batches touch are still alive.
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

std::future<Tensor>
ServeEngine::submit(Tensor sample)
{
    Request r;
    r.input = std::move(sample);
    r.enqueued = Clock::now();
    std::future<Tensor> fut = r.promise.get_future();

    // Validate the shape before admission so one malformed request
    // can only ever fail itself, never the batch it would have
    // joined.
    Shape shape;
    std::exception_ptr malformed;
    try {
        shape = sampleShape(r.input);
    } catch (...) {
        malformed = std::current_exception();
    }

    {
        base::LockGuard lk(mu_);
        if (stopping_)
            throw EngineStoppedError(
                "submit() on a stopped ServeEngine");
        if (!malformed) {
            if (expected_.empty()) {
                expected_ = shape;  // first well-formed request locks
            } else if (shape != expected_) {
                try {
                    throw std::invalid_argument(
                        "sample shape does not match the shape this "
                        "engine serves");
                } catch (...) {
                    malformed = std::current_exception();
                }
            }
        }
        if (!malformed) {
            if (opts_.queueCap > 0 &&
                queue_.size() >= opts_.queueCap) {
                {
                    base::LockGuard sk(stats_mu_);
                    ++shed_;
                }
                throw AdmissionError(
                    "serve queue at capacity (" +
                    std::to_string(opts_.queueCap) +
                    "), request shed");
            }
            queue_.push_back(std::move(r));
            ++pending_;
        }
    }
    if (malformed) {
        r.promise.set_exception(malformed);
        base::LockGuard sk(stats_mu_);
        ++rejected_;
        return fut;
    }
    work_cv_.notifyOne();
    return fut;
}

void
ServeEngine::replicaLoop(size_t replica)
{
    // Replicas already occupy one core each; keep the kernel layer
    // from fanning GEMM panels out under them and doubling up.
    kernels::SerialScope serial;
    for (;;) {
        std::vector<Request> batch;
        bool more;
        {
            base::LockGuard lk(mu_);
            // Only a free replica forms a batch: while every replica
            // is busy the queue keeps growing, so the batch taken is
            // as large as the backlog allows (adaptive batching).
            for (;;) {
                if (queue_.empty()) {
                    if (stopping_)
                        return;  // nothing left to serve
                    work_cv_.wait(lk);
                    continue;
                }
                if (stopping_ || drainers_ > 0 ||
                    opts_.flush == FlushPolicy::Greedy ||
                    queue_.size() >= opts_.maxBatch)
                    break;
                if (opts_.flush == FlushPolicy::Deadline) {
                    // Close the batch when the oldest queued request
                    // has aged past the deadline; otherwise sleep at
                    // most until that moment (a notify on new work or
                    // a drain re-evaluates sooner).
                    const auto flushAt =
                        queue_.front().enqueued +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double,
                                                  std::milli>(
                                opts_.flushDeadlineMs));
                    if (Clock::now() >= flushAt)
                        break;
                    work_cv_.waitUntil(lk, flushAt);
                    continue;
                }
                work_cv_.wait(lk);  // Full: hold for a complete batch
            }
            const size_t k =
                std::min(queue_.size(), opts_.maxBatch);
            batch.reserve(k);
            for (size_t i = 0; i < k; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            more = !queue_.empty();
        }
        // A submit wakes one replica; pass what this batch left on
        // to another idle one.
        if (more)
            work_cv_.notifyOne();
        runBatch(replica, batch);
    }
}

void
ServeEngine::runBatch(size_t replica, std::vector<Request> &batch)
{
    const size_t n = batch.size();
    size_t fulfilled = 0;  // promises already satisfied
    try {
        // Injected faults take the same path as a throwing model
        // forward: unanswered requests fail, the replica survives.
        SE_FAILPOINT("serve_batch_exec");
        // Admission already rejected mismatched shapes; this is an
        // internal invariant, not a reachable request-error path.
        const auto f0 = Clock::now();
        const Shape sample = sampleShape(batch[0].input);
        const int64_t sample_elems = numel(sample);
        for (const Request &r : batch)
            if (sampleShape(r.input) != sample)
                throw std::logic_error(
                    "mixed sample shapes leaked into one serve "
                    "batch");

        Shape in_shape;
        in_shape.push_back((int64_t)n);
        in_shape.insert(in_shape.end(), sample.begin(), sample.end());
        Tensor in(in_shape);
        for (size_t i = 0; i < n; ++i)
            std::memcpy(in.data() + (int64_t)i * sample_elems,
                        batch[i].input.data(),
                        (size_t)sample_elems * sizeof(float));
        const double formMs = msSince(f0);

        const auto e0 = Clock::now();
        const double stall0 = replicas_[replica]->stats().rebuildMs;
        Tensor out = replicas_[replica]->forward(in);
        const double stallDelta =
            replicas_[replica]->stats().rebuildMs - stall0;
        const double execMs = msSince(e0);
        if (out.ndim() < 1 || out.dim(0) != (int64_t)n)
            throw std::runtime_error(
                "model output lost the batch dimension");
        Shape out_sample(out.shape().begin() + 1, out.shape().end());
        if (out_sample.empty())
            out_sample.push_back(1);
        const int64_t out_elems = numel(out_sample);

        // Commit stats BEFORE fulfilling any promise: a caller that
        // has seen its future become ready must also see itself in
        // stats() (a waiter preempting this thread between set_value
        // and a later stats commit used to read requests == 0 after
        // a successful get() — a real flake under machine load).
        const auto c0 = Clock::now();
        {
            base::LockGuard lk(stats_mu_);
            for (size_t i = 0; i < n; ++i)
                latency_.add(msSince(batch[i].enqueued));
            ++batches_;
            batchedRequests_ += n;
            formMs_ += formMs;
            execMs_ += execMs;
            stallMs_ += stallDelta;
        }
        for (size_t i = 0; i < n; ++i) {
            Tensor resp(out_sample);
            std::memcpy(resp.data(),
                        out.data() + (int64_t)i * out_elems,
                        (size_t)out_elems * sizeof(float));
            batch[i].promise.set_value(std::move(resp));
            ++fulfilled;
        }
        // Schedule-perturbation failpoint: armed, the worker sleeps
        // 1ms right after publishing this batch's responses —
        // simulating preemption at the publish instant, the window
        // the stats-before-publish ordering above exists to close.
        if (failpoint::evaluate("serve_publish_delay"))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        {
            base::LockGuard lk(stats_mu_);
            completeMs_ += msSince(c0);
        }
    } catch (...) {
        // Fail only the requests whose promise is still pending —
        // set_exception on a satisfied promise would itself throw,
        // escape this handler and leak the replica.
        for (size_t i = fulfilled; i < n; ++i)
            batch[i].promise.set_exception(std::current_exception());
        base::LockGuard lk(stats_mu_);
        failed_ += n - fulfilled;
    }
    bool idle;
    {
        base::LockGuard lk(mu_);
        pending_ -= n;
        idle = pending_ == 0;
    }
    if (idle)
        done_cv_.notifyAll();
}

void
ServeEngine::drain()
{
    base::LockGuard lk(mu_);
    // A counter, not a flag: with two concurrent drainers a flag
    // would be reset by whichever caller wakes first, leaving the
    // other stuck behind a Full/Deadline hold.
    ++drainers_;
    work_cv_.notifyAll();
    while (pending_ != 0)
        done_cv_.wait(lk);
    --drainers_;
}

ServeStats
ServeEngine::stats() const
{
    std::vector<double> lat;
    ServeStats s;
    {
        base::LockGuard lk(stats_mu_);
        lat = latency_.sortedSample();  // bounded by the reservoir cap
        s.requests = latency_.count();
        s.meanLatencyMs = latency_.mean();
        s.maxMs = latency_.max();
        s.batches = batches_;
        s.failed = failed_;
        s.rejected = rejected_;
        s.shed = shed_;
        s.meanBatchSize =
            batches_ > 0 ? (double)batchedRequests_ / (double)batches_
                         : 0.0;
        s.formMs = formMs_;
        s.execMs = execMs_;
        s.completeMs = completeMs_;
        s.decodeStallMs = stallMs_;
    }
    s.p50Ms = percentile(lat, 0.50);
    s.p95Ms = percentile(lat, 0.95);
    s.p99Ms = percentile(lat, 0.99);
    return s;
}

} // namespace serve
} // namespace se
