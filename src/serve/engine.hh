/**
 * @file
 * ServeEngine — an async micro-batching front end over
 * InferenceSession replicas.
 *
 * submit() validates and admits one sample, wakes one idle replica
 * thread and returns a future. Each session replica has one thread
 * of its own, and nothing else: a replica thread that is free takes
 * the next batch off the shared queue itself (up to maxBatch, per the
 * flush policy) and runs it on its replica, so sessions are never
 * shared across threads and no dispatcher hop sits between a request
 * and the forward. The replica threads are not the process executor:
 * stop() lets each of them empty the queue and finish its batch,
 * which a FIFO shared with the rest of the process could not promise.
 * Batches run under a kernels::SerialScope, so they never fan out
 * onto the executor either.
 *
 * Responses are bit-identical regardless of thread count, batch size
 * or flush policy: every replica rebuilds the same dense weights from
 * one shared BoundModel, and each sample's arithmetic inside a
 * batched forward is independent of its batch-mates.
 *
 * Stand-up calls the NetFactory once and binds once: the bound net
 * becomes replica 0 and the others are deep copies of it (a copy of a
 * tensor is exact, so clones serve bit-identically).
 *
 * Batching is also where the paper's storage/compute trade-off pays
 * off at serving time: in rebuild-per-call sessions the Ce*B rebuild
 * cost is paid once per batch, not once per request.
 *
 * Failure semantics (nothing in here panics the process):
 *  - malformed request (bad batch dim, or a per-sample shape that
 *    differs from the engine's locked shape): the returned future
 *    carries std::invalid_argument; batch-mates are unaffected and
 *    the request is counted in ServeStats::rejected;
 *  - queue at queueCap: submit() throws AdmissionError (fail fast,
 *    nothing is enqueued); counted in ServeStats::shed;
 *  - submit() after stop() (or mid-destruction): submit() throws
 *    EngineStoppedError;
 *  - model forward throws: every still-unanswered request of that
 *    batch fails with the model's exception; counted in
 *    ServeStats::failed.
 */

#ifndef SE_SERVE_ENGINE_HH
#define SE_SERVE_ENGINE_HH

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/mutex.hh"
#include "kernels/kernels.hh"
#include "serve/latency.hh"
#include "serve/session.hh"

namespace se {
namespace serve {

/** submit() rejected a request because the queue is at queueCap. */
class AdmissionError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** submit() was called on a stopped (or stopping) engine. */
class EngineStoppedError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** When a free replica closes a batch. */
enum class FlushPolicy
{
    /** Take whatever is queued as soon as a replica frees up. */
    Greedy,
    /** Hold until maxBatch requests queue up (drain() flushes). */
    Full,
    /**
     * Hold like Full, but close the batch once the oldest queued
     * request has waited flushDeadlineMs — the latency/throughput
     * knob: large deadlines approach Full's batch sizes, deadline 0
     * degenerates to Greedy.
     */
    Deadline,
};

/** Largest accepted ServeOptions::flushDeadlineMs: one hour. */
constexpr double kMaxFlushDeadlineMs = 3.6e6;

/** Engine configuration. */
struct ServeOptions
{
    /**
     * Session replicas, each with one thread that serves it; 0 means
     * one replica thread, like 1. Negative (the default) means one
     * replica per unit of the thread budget, kernels::threadBudget()
     * — SE_THREADS, else one per core. ServeFront splits this count
     * across its models.
     */
    int threads = -1;
    /** Micro-batch size cap. */
    size_t maxBatch = 8;
    FlushPolicy flush = FlushPolicy::Greedy;
    /**
     * Oldest-request age that closes a batch under Deadline.
     * Negative clamps to 0; above kMaxFlushDeadlineMs (or NaN) the
     * constructor throws std::invalid_argument.
     */
    double flushDeadlineMs = 5.0;
    /**
     * Admission cap on queued requests no replica has taken; submit()
     * beyond it throws AdmissionError. 0 = unbounded (accept all).
     */
    size_t queueCap = 0;
    /**
     * Latency-reservoir capacity: stats() percentiles are estimated
     * from a uniform sample of at most this many requests, so a
     * million-request soak holds constant memory.
     */
    size_t latencyReservoirCap = 4096;
    /**
     * Per-sample input shape every request must match. Empty (the
     * default) locks to the first well-formed submitted sample.
     */
    Shape expectedSample;
    /** Kept only for the benchmark driver; true throws. */
    bool pipeline = false;
    /** Rebuild policy handed to every replica. */
    SessionOptions session;
    /**
     * Consumed by ServeFront, ignored by a bare engine: when a
     * reloadModel() build fails, keep the previous healthy
     * generation serving (counted in reloadFallbacks()) instead of
     * quarantining the model.
     */
    bool reloadFallback = false;

    int
    resolvedThreads() const
    {
        return threads >= 0 ? threads : kernels::threadBudget();
    }
};

/** Aggregate serving statistics (latency is enqueue -> response). */
struct ServeStats
{
    uint64_t requests = 0;  ///< successfully answered
    uint64_t failed = 0;    ///< answered with an exception mid-serve
    uint64_t rejected = 0;  ///< malformed, refused at admission
    uint64_t shed = 0;      ///< refused at admission (queue full)
    uint64_t batches = 0;   ///< successful batches
    double meanBatchSize = 0.0;
    double meanLatencyMs = 0.0;  ///< exact running mean
    double p50Ms = 0.0;          ///< reservoir-estimated
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;  ///< exact running max

    // Stage accounting.
    double formMs = 0.0;      ///< batch-assembly wall-clock
    double execMs = 0.0;      ///< replica-forward wall-clock
    double completeMs = 0.0;  ///< slice-and-publish wall-clock
    /** Wall-clock replicas spent rebuilding weights (the fold of
     *  SessionStats::rebuildMs deltas per batch). */
    double decodeStallMs = 0.0;
    /** Kept only for the benchmark driver; always 0. */
    uint64_t overlappedBatches = 0;
};

/**
 * Builds the architecture instance a model generation is bound to
 * (deterministic). ServeEngine calls it once per engine, whatever the
 * replica count; the other replicas are clones of the bound net.
 */
using NetFactory = std::function<std::unique_ptr<nn::Sequential>()>;

class ServeEngine
{
  public:
    /**
     * Throws std::invalid_argument if flushDeadlineMs is NaN or above
     * kMaxFlushDeadlineMs, or if pipeline / session.pipelineRebuild
     * is set.
     */
    ServeEngine(
        std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
        const NetFactory &factory, const core::SeOptions &se_opts,
        const core::ApplyOptions &apply_opts, ServeOptions opts = {});

    /** Equivalent to stop(). */
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /**
     * Enqueue one sample — (C, H, W), (1, C, H, W) or any shape the
     * model accepts with a leading batch dim of 1. The future carries
     * the per-sample output (batch dim stripped) or the error that
     * occurred while serving it. See the class comment for the
     * admission-failure semantics (AdmissionError /
     * EngineStoppedError throw; malformed shapes fail the future).
     */
    std::future<Tensor> submit(Tensor sample) SE_EXCLUDES(mu_);

    /** Block until every accepted request has been answered (flushes
     *  partial batches under Full/Deadline). Concurrent drainers each
     *  observe an empty engine before returning. */
    void drain() SE_EXCLUDES(mu_);

    /**
     * Answer every accepted request, then stop accepting: subsequent
     * submit() calls throw EngineStoppedError instead of killing the
     * process. Idempotent and safe to race with submit().
     */
    void stop() SE_EXCLUDES(stop_mu_, mu_);

    ServeStats stats() const SE_EXCLUDES(stats_mu_);
    int replicaCount() const { return (int)replicas_.size(); }
    /** The bind replica i serves from; every replica shares one. */
    const BoundModel &
    boundModel(int i) const
    {
        return replicas_[(size_t)i]->boundModel();
    }

  private:
    struct Request
    {
        Tensor input;
        std::promise<Tensor> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    /** Replica `replica`'s thread: take batches until stopped. */
    void replicaLoop(size_t replica) SE_EXCLUDES(mu_);
    void runBatch(size_t replica, std::vector<Request> &batch)
        SE_EXCLUDES(mu_, stats_mu_);

    ServeOptions opts_;
    /** Immutable after construction; replica i is used only by
     *  replica thread i. */
    std::vector<std::unique_ptr<InferenceSession>> replicas_;

    /** Serializes stop() callers. House lock order:
     *  stop_mu_ -> mu_ -> stats_mu_ (documented here, spot-enforced
     *  by the SE_ACQUIRED_AFTER annotations below under clang's
     *  -Wthread-safety-beta, and dynamically by TSan's deadlock
     *  detector in the `-L concurrency` CI job). */
    base::Mutex stop_mu_;

    mutable base::Mutex mu_ SE_ACQUIRED_AFTER(stop_mu_);
    /** Replica threads wait here for work, a flush or stop(). */
    base::CondVar work_cv_;
    /** drain() waits here for pending_ to reach 0. */
    base::CondVar done_cv_;
    std::deque<Request> queue_ SE_GUARDED_BY(mu_);
    /** Locked per-sample shape. */
    Shape expected_ SE_GUARDED_BY(mu_);
    /** Accepted but not yet answered. */
    uint64_t pending_ SE_GUARDED_BY(mu_) = 0;
    /** Concurrent drain() callers. */
    int drainers_ SE_GUARDED_BY(mu_) = 0;
    bool stopping_ SE_GUARDED_BY(mu_) = false;

    mutable base::Mutex stats_mu_ SE_ACQUIRED_AFTER(mu_);
    LatencyReservoir latency_ SE_GUARDED_BY(stats_mu_);
    uint64_t batches_ SE_GUARDED_BY(stats_mu_) = 0;
    uint64_t batchedRequests_ SE_GUARDED_BY(stats_mu_) = 0;
    uint64_t failed_ SE_GUARDED_BY(stats_mu_) = 0;
    uint64_t rejected_ SE_GUARDED_BY(stats_mu_) = 0;
    uint64_t shed_ SE_GUARDED_BY(stats_mu_) = 0;
    double formMs_ SE_GUARDED_BY(stats_mu_) = 0.0;
    double execMs_ SE_GUARDED_BY(stats_mu_) = 0.0;
    double completeMs_ SE_GUARDED_BY(stats_mu_) = 0.0;
    double stallMs_ SE_GUARDED_BY(stats_mu_) = 0.0;

    /** One per replica; set in ctor, joined under stop_mu_. */
    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace se

#endif // SE_SERVE_ENGINE_HH
