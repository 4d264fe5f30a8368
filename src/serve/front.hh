/**
 * @file
 * Multi-model serving: ModelRegistry + ServeFront.
 *
 * The paper ships one compressed Ce*B bundle per model; a deployment
 * serves many models at once. ModelRegistry maps a model id to
 * everything needed to stand a model up (records bundle, net factory,
 * compression/apply options). ServeFront instantiates one ServeEngine
 * per registered model and routes submit(modelId, sample) to it, so
 * several compressed models serve concurrently behind one facade —
 * each with its own replicas, queue, admission cap and flush policy,
 * and with responses bit-identical to a single-model session of the
 * same bundle.
 *
 * Generations and hot reload: every model slot serves from a
 * numbered Generation (entry + engine). reloadModel() builds
 * generation N+1 completely off to the side — the live generation
 * keeps serving, untouched, while the new engine decodes and binds —
 * then atomically swaps it in and retires generation N (every
 * accepted request answered first). submit() rides the swap with a
 * retry: a request that races the flip and hits the retiring engine's
 * stop is resubmitted to the new generation, so a reload drops zero
 * requests and every response is bit-identical to whichever
 * generation's bundle answered it.
 *
 * Quarantine: a failure while standing a generation up (piece decode
 * of a streamed bundle, engine build, an injected fault) marks only
 * that model Unhealthy — submits to it throw ModelUnhealthyError,
 * every other model keeps serving. With
 * ServeOptions::reloadFallback set, a failed reload instead keeps
 * the previous healthy generation serving (counted in
 * reloadFallbacks). A later successful reloadModel() returns the
 * model to Healthy.
 *
 * Thread budget: a front splits ServeOptions::threads evenly across
 * its engines (at least one replica each) so registering more models
 * doesn't multiply the worker count; threads == 0 gives every engine
 * one replica thread.
 *
 * Failure semantics are ServeEngine's, plus: submit() with an
 * unregistered model id throws UnknownModelError, and submit() to a
 * quarantined model throws ModelUnhealthyError.
 */

#ifndef SE_SERVE_FRONT_HH
#define SE_SERVE_FRONT_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/mutex.hh"
#include "serve/engine.hh"

namespace se {
namespace core {
class StreamedModel;
}

namespace serve {

/** submit()/stats() named a model id the registry does not hold. */
class UnknownModelError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** submit() named a model whose current generation failed to stand
 *  up; the message carries the original build error. A successful
 *  reloadModel() clears the condition. */
class ModelUnhealthyError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Per-model serving health (see the quarantine rules above). */
enum class ModelHealth
{
    Healthy,
    Unhealthy,
};

/** Everything needed to stand up one servable model. */
struct ModelEntry
{
    std::shared_ptr<const std::vector<core::SeLayerRecord>> records;
    NetFactory factory;
    core::SeOptions seOpts;
    core::ApplyOptions applyOpts;
    /**
     * Model-file v3 dense residual (BN/bias/undecomposed state),
     * installed into every replica at bind time. Null (the default)
     * keeps the legacy v2 contract: the factory must bit-reproduce
     * the compression-time non-decomposed state. Required to serve a
     * channel-pruned bundle.
     */
    std::shared_ptr<const std::vector<core::DenseTensor>> dense;
    /**
     * Per-model weight storage the engine serves from. Authoritative
     * for this entry's engine: it overrides whatever
     * ServeOptions::session.weightSource says, so one front can A/B
     * a CeDirect engine against a Dense engine of the same bundle.
     */
    WeightSource weightSource = WeightSource::Dense;
    /**
     * Lazy alternative to `records`: an open v4 streaming bundle.
     * When set (and `records` is null) the front defers the engine —
     * and with it the bundle's piece decode — until the model's first
     * submit, so a fleet of mostly-cold models pays open-time O(meta)
     * per model instead of decoding every piece of every bundle.
     * Responses are bit-identical to the eager path (same decoder,
     * same bits, just later).
     */
    std::shared_ptr<core::StreamedModel> streamed;
};

/**
 * Wrap a loaded bundle (v2, v3 or v4) as a registrable entry: the
 * records and the dense residual move into shared ownership.
 */
ModelEntry makeModelEntry(core::ModelBundle bundle, NetFactory factory,
                          const core::SeOptions &se_opts,
                          const core::ApplyOptions &apply_opts,
                          WeightSource source = WeightSource::Dense);

/**
 * Wrap an open v4 streaming bundle as a lazily-decoded entry. The
 * dense residual (needed to build replica nets) is copied out of the
 * meta section up front; piece decode waits for the first submit.
 */
ModelEntry makeModelEntry(std::shared_ptr<core::StreamedModel> streamed,
                          NetFactory factory,
                          const core::SeOptions &se_opts,
                          const core::ApplyOptions &apply_opts,
                          WeightSource source = WeightSource::Dense);

/**
 * An ordered id -> ModelEntry map (registration order is the serving
 * order everywhere: ids(), per-engine thread split, stats). Entries
 * are generation-tagged: replace() bumps the tag so a caller can tell
 * which bundle revision a registry snapshot holds.
 */
class ModelRegistry
{
  public:
    /** Throws std::invalid_argument on an empty or duplicate id. */
    void add(std::string id, ModelEntry entry);

    /** Swap a registered id's entry in place (same serving order),
     *  bumping its generation tag. Throws UnknownModelError when the
     *  id is absent and std::invalid_argument on an invalid entry. */
    void replace(const std::string &id, ModelEntry entry);

    bool contains(const std::string &id) const;
    /** Throws UnknownModelError when absent. */
    const ModelEntry &at(const std::string &id) const;
    /** 1 after add(), +1 per replace(). Throws UnknownModelError. */
    uint64_t generationOf(const std::string &id) const;
    std::vector<std::string> ids() const;
    size_t size() const { return entries_.size(); }

  private:
    struct Row
    {
        std::string id;
        ModelEntry entry;
        uint64_t generation = 1;
    };
    std::vector<Row> entries_;
};

class ServeFront
{
  public:
    /**
     * Builds one engine per records-backed registered model (the
     * registry is only read during construction — entries are copied
     * in); engines of streamed (v4) entries are deferred to the
     * model's first submit. `opts` is applied to every engine, except
     * that a positive/per-core thread budget is split evenly across
     * models.
     */
    explicit ServeFront(const ModelRegistry &registry,
                        ServeOptions opts = {});

    ~ServeFront();
    ServeFront(const ServeFront &) = delete;
    ServeFront &operator=(const ServeFront &) = delete;

    /**
     * Route one sample to the named model's current generation
     * (building the engine first when this is a streamed model's
     * first submit). Rides generation swaps transparently: a request
     * that races reloadModel() is retried on the new generation, so
     * reloads drop nothing. Throws ModelUnhealthyError for a
     * quarantined model.
     */
    std::future<Tensor> submit(const std::string &modelId,
                               Tensor sample) SE_EXCLUDES(mu_);

    /**
     * Hot-swap `modelId` to a new generation serving `entry` with
     * zero downtime: generation N+1 is built entirely off to the side
     * (decode + engine up; the `serve_engine_build` failpoint and any
     * piece-decode fault fire here, before anything is touched), then
     * swapped in atomically; generation N answers everything it
     * accepted and is retired, its counters folded into stats().
     *
     * On a build failure the live generation is untouched; with
     * ServeOptions::reloadFallback it simply keeps serving (counted
     * in reloadFallbacks()), otherwise the model is quarantined. The
     * build error is rethrown either way. A successful reload also
     * recovers a quarantined model (Unhealthy -> Healthy).
     */
    void reloadModel(const std::string &modelId, ModelEntry entry)
        SE_EXCLUDES(mu_);

    /** Drain every built engine (all accepted requests answered). */
    void drain() SE_EXCLUDES(mu_);

    /** Stop every engine; later submits throw EngineStoppedError
     *  (including first submits to still-unbuilt streamed models). */
    void stop() SE_EXCLUDES(mu_);

    /** Per-model statistics (latency percentiles included), merged
     *  across every generation the model has served: counters sum,
     *  the latency mean is request-weighted, percentiles are the
     *  current generation's (reservoirs don't merge exactly). A
     *  streamed model that never saw a submit reports all zeros. */
    ServeStats stats(const std::string &modelId) const
        SE_EXCLUDES(mu_);

    /**
     * Counters summed across models, mean latency weighted by
     * request count, max latency the overall max. Percentiles are a
     * per-model quantity (per-engine reservoirs can't be merged
     * exactly) and stay 0 here — read stats(modelId) for them.
     */
    ServeStats aggregateStats() const SE_EXCLUDES(mu_);

    /** Direct engine access (e.g. per-model drain or replica count).
     *  Forces a deferred streamed engine to build. The pointer is
     *  only stable until the model's next reloadModel(). */
    ServeEngine &engine(const std::string &modelId)
        SE_EXCLUDES(mu_);

    /** True once the model's engine exists — the lazy-serving
     *  observable: false for a streamed model nobody submitted to
     *  (and for a quarantined model, whose engine is retired). */
    bool engineBuilt(const std::string &modelId) const
        SE_EXCLUDES(mu_);

    /** Current generation number: 0 before the first build, 1 after
     *  it, +1 per successful reloadModel(). A quarantined model keeps
     *  the number of the last generation that became current. */
    uint64_t generation(const std::string &modelId) const
        SE_EXCLUDES(mu_);

    /** Healthy unless the model's last stand-up attempt failed. */
    ModelHealth health(const std::string &modelId) const
        SE_EXCLUDES(mu_);

    /** Failed reloads absorbed by falling back to the previous
     *  healthy generation (only grows under reloadFallback). */
    uint64_t reloadFallbacks(const std::string &modelId) const
        SE_EXCLUDES(mu_);

    std::vector<std::string> modelIds() const { return ids_; }
    size_t modelCount() const { return ids_.size(); }
    int replicaCount() const SE_EXCLUDES(mu_);  ///< BUILT engines

  private:
    /** One numbered (entry, engine) pair; engines_ of old. */
    struct Generation
    {
        uint64_t number = 0;
        ModelEntry entry;
        std::unique_ptr<ServeEngine> engine;
    };

    /** Retired-generation counters folded into stats(). */
    struct RetiredStats
    {
        uint64_t requests = 0;
        uint64_t failed = 0;
        uint64_t rejected = 0;
        uint64_t shed = 0;
        uint64_t batches = 0;
        double latencyWeighted = 0.0;  ///< sum of mean * requests
        double batchWeighted = 0.0;    ///< sum of meanBatch * batches
        double maxMs = 0.0;
    };

    struct Slot
    {
        ModelEntry entry;  ///< registered entry (generation-1 source)
        std::shared_ptr<Generation> current;  ///< null until built
        bool building = false;  ///< a stand-up is in flight off-lock
        ModelHealth health = ModelHealth::Healthy;
        std::string reason;       ///< last stand-up error (Unhealthy)
        uint64_t generation = 0;  ///< newest number that went live
        uint64_t fallbacks = 0;
        RetiredStats retired;
    };

    size_t indexOf(const std::string &modelId) const;
    /** Current generation of slot i, standing one up (outside the
     *  lock) on first touch. Throws on stopped/unhealthy. */
    std::shared_ptr<Generation> generationFor(size_t i)
        SE_EXCLUDES(mu_);
    /** Decode + construct one generation. Runs with no front lock
     *  held; the `serve_engine_build` failpoint fires here. */
    std::shared_ptr<Generation> buildGeneration(const ModelEntry &e,
                                                uint64_t number) const
        SE_EXCLUDES(mu_);
    void mergeRetiredLocked(Slot &s, const ServeStats &st) const
        SE_REQUIRES(mu_);
    /** Stop `gen`'s engine and fold its counters into slot i. */
    void retireGeneration(size_t i, std::shared_ptr<Generation> gen)
        SE_EXCLUDES(mu_);
    std::vector<std::shared_ptr<Generation>> builtGenerations() const
        SE_EXCLUDES(mu_);

    std::vector<std::string> ids_;  ///< immutable after construction
    ServeOptions perEngineOpts_;    ///< immutable after construction
    mutable base::Mutex mu_;
    base::CondVar cv_;  ///< building-flag waiters
    bool stopped_ SE_GUARDED_BY(mu_) = false;
    /** Slot state (entry, current generation, health, counters) is
     *  all mu_-guarded; a slot's `building` flag grants its one
     *  stand-up thread the right to read the ENTRY COPY it took
     *  under the lock, never to touch the slot itself off-lock. */
    std::vector<Slot> slots_ SE_GUARDED_BY(mu_);
};

} // namespace serve
} // namespace se

#endif // SE_SERVE_FRONT_HH
