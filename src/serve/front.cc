#include "serve/front.hh"

#include <algorithm>

#include "base/failpoint.hh"
#include "core/stream_loader.hh"

namespace se {
namespace serve {

namespace {

void
validateEntry(const std::string &id, const ModelEntry &entry)
{
    if (!entry.records && !entry.streamed)
        throw std::invalid_argument("model '" + id +
                                    "' has no records bundle");
    if (!entry.factory)
        throw std::invalid_argument("model '" + id +
                                    "' has no net factory");
}

std::string
describeException(std::exception_ptr err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

} // namespace

void
ModelRegistry::add(std::string id, ModelEntry entry)
{
    if (id.empty())
        throw std::invalid_argument("model id must be non-empty");
    for (const auto &e : entries_)
        if (e.id == id)
            throw std::invalid_argument("model id '" + id +
                                        "' already registered");
    validateEntry(id, entry);
    entries_.push_back(Row{std::move(id), std::move(entry), 1});
}

void
ModelRegistry::replace(const std::string &id, ModelEntry entry)
{
    validateEntry(id, entry);
    for (auto &e : entries_)
        if (e.id == id) {
            e.entry = std::move(entry);
            ++e.generation;
            return;
        }
    throw UnknownModelError("model '" + id + "' is not registered");
}

bool
ModelRegistry::contains(const std::string &id) const
{
    for (const auto &e : entries_)
        if (e.id == id)
            return true;
    return false;
}

const ModelEntry &
ModelRegistry::at(const std::string &id) const
{
    for (const auto &e : entries_)
        if (e.id == id)
            return e.entry;
    throw UnknownModelError("model '" + id + "' is not registered");
}

uint64_t
ModelRegistry::generationOf(const std::string &id) const
{
    for (const auto &e : entries_)
        if (e.id == id)
            return e.generation;
    throw UnknownModelError("model '" + id + "' is not registered");
}

std::vector<std::string>
ModelRegistry::ids() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e.id);
    return out;
}

ServeFront::ServeFront(const ModelRegistry &registry,
                       ServeOptions opts)
{
    if (registry.size() == 0)
        throw std::invalid_argument(
            "ServeFront needs at least one registered model");
    // Split the worker budget across models instead of multiplying
    // it: N models on a T-thread budget get max(1, T/N) replicas
    // each (threads == 0 gives every engine one). Streamed models
    // count toward the split even while unbuilt, so a late first
    // submit can't change anyone else's replica count.
    const int total = opts.resolvedThreads();
    perEngineOpts_ = opts;
    if (total > 0)
        perEngineOpts_.threads =
            std::max(1, total / (int)registry.size());
    ids_ = registry.ids();
    slots_.resize(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i)
        slots_[i].entry = registry.at(ids_[i]);
    // Records-backed entries build eagerly (their pieces are already
    // decoded — deferring would only delay failures; a construction
    // failure here throws rather than quarantines, because nothing is
    // serving yet and a dead-on-arrival front helps nobody). Streamed
    // (v4) entries wait for their first submit; until then the
    // bundle's pieces stay undecoded bytes on disk.
    for (size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].entry.records) {
            slots_[i].current = buildGeneration(slots_[i].entry, 1);
            slots_[i].generation = 1;
        }
}

ServeFront::~ServeFront()
{
    stop();
}

std::shared_ptr<ServeFront::Generation>
ServeFront::buildGeneration(const ModelEntry &e, uint64_t number) const
{
    SE_FAILPOINT("serve_engine_build");
    auto gen = std::make_shared<Generation>();
    gen->number = number;
    gen->entry = e;
    // The entry decides its model's storage: weight source and
    // (when shipped) the v3/v4 dense residual are per-model, so
    // quantized and float engines coexist behind one front.
    ServeOptions eopts = perEngineOpts_;
    eopts.session.weightSource = e.weightSource;
    eopts.session.denseState = e.dense;
    // For a streamed entry this records() call is where the bundle's
    // pieces actually decode — the lazy loader's first touch (and
    // where a corrupt piece or the stream_piece_decode failpoint
    // surfaces, quarantining only this model).
    auto records = e.records ? e.records : e.streamed->records();
    gen->engine = std::make_unique<ServeEngine>(
        records, e.factory, e.seOpts, e.applyOpts, eopts);
    return gen;
}

std::shared_ptr<ServeFront::Generation>
ServeFront::generationFor(size_t i)
{
    base::LockGuard lk(mu_);
    for (;;) {
        Slot &s = slots_[i];
        if (stopped_)
            throw EngineStoppedError(
                "ServeFront is stopped; model '" + ids_[i] +
                "' cannot serve");
        if (s.health == ModelHealth::Unhealthy)
            throw ModelUnhealthyError("model '" + ids_[i] +
                                      "' is quarantined: " + s.reason);
        if (s.current)
            return s.current;
        if (s.building) {
            // Someone else's first touch is already standing the
            // engine up; wait for the verdict instead of building a
            // second copy (the old build-under-lock path both
            // double-built here and deadlocked stop() behind a slow
            // decode).
            cv_.wait(lk);
            continue;
        }
        s.building = true;
        break;
    }

    const uint64_t number = slots_[i].generation + 1;
    // Copy the entry while still locked. The building flag does keep
    // every other stand-up (including reloadModel's move-assign of
    // slots_[i].entry) out until we re-lock, but that exclusion is a
    // protocol spanning two functions; the copy makes the off-lock
    // build's safety local and checkable (no slots_ touch off-lock).
    ModelEntry entry = slots_[i].entry;
    lk.unlock();
    std::shared_ptr<Generation> gen;
    std::exception_ptr err;
    try {
        gen = buildGeneration(entry, number);
    } catch (...) {
        err = std::current_exception();
    }
    lk.lock();
    Slot &s = slots_[i];
    s.building = false;
    cv_.notifyAll();
    if (err) {
        s.health = ModelHealth::Unhealthy;
        s.reason = describeException(err);
        throw ModelUnhealthyError("model '" + ids_[i] +
                                  "' is quarantined: " + s.reason);
    }
    if (stopped_) {
        // stop() ran while we were building off-lock: it could not
        // see this engine, so retire it here and refuse like any
        // other post-stop submit.
        lk.unlock();
        gen->engine->stop();
        throw EngineStoppedError("ServeFront is stopped; model '" +
                                 ids_[i] + "' cannot serve");
    }
    s.current = gen;
    s.generation = number;
    s.health = ModelHealth::Healthy;
    s.reason.clear();
    return gen;
}

void
ServeFront::mergeRetiredLocked(Slot &s, const ServeStats &st) const
{
    RetiredStats &r = s.retired;
    r.requests += st.requests;
    r.failed += st.failed;
    r.rejected += st.rejected;
    r.shed += st.shed;
    r.batches += st.batches;
    r.latencyWeighted += st.meanLatencyMs * (double)st.requests;
    r.batchWeighted += st.meanBatchSize * (double)st.batches;
    r.maxMs = std::max(r.maxMs, st.maxMs);
}

void
ServeFront::retireGeneration(size_t i, std::shared_ptr<Generation> gen)
{
    if (!gen || !gen->engine)
        return;
    // stop() answers every request the engine accepted, then refuses;
    // racing submitters see EngineStoppedError and retry on the new
    // generation (see submit()), so retirement drops nothing.
    gen->engine->stop();
    const ServeStats st = gen->engine->stats();
    base::LockGuard lk(mu_);
    mergeRetiredLocked(slots_[i], st);
}

void
ServeFront::reloadModel(const std::string &modelId, ModelEntry entry)
{
    validateEntry(modelId, entry);
    const size_t i = indexOf(modelId);

    base::LockGuard lk(mu_);
    // One stand-up per slot at a time: wait out a racing first-touch
    // build (or another reload) instead of numbering generations
    // against a moving target.
    while (slots_[i].building)
        cv_.wait(lk);
    if (stopped_)
        throw EngineStoppedError(
            "reloadModel() on a stopped ServeFront");
    slots_[i].building = true;
    const uint64_t number = slots_[i].generation + 1;
    lk.unlock();

    // Build generation N+1 entirely off to the side: the live
    // generation keeps serving, untouched, while the new bundle
    // decodes and its engine spins up. Any failure lands here,
    // before anything swapped.
    std::shared_ptr<Generation> gen;
    std::exception_ptr err;
    try {
        gen = buildGeneration(entry, number);
    } catch (...) {
        err = std::current_exception();
    }

    lk.lock();
    Slot &s = slots_[i];
    s.building = false;
    cv_.notifyAll();
    if (err) {
        if (perEngineOpts_.reloadFallback && s.current &&
            s.health == ModelHealth::Healthy) {
            // The previous healthy generation just keeps serving;
            // the operator still learns the reload failed.
            ++s.fallbacks;
            std::rethrow_exception(err);
        }
        s.health = ModelHealth::Unhealthy;
        s.reason = describeException(err);
        auto old = std::move(s.current);
        lk.unlock();
        retireGeneration(i, std::move(old));
        std::rethrow_exception(err);
    }
    if (stopped_) {
        lk.unlock();
        gen->engine->stop();
        throw EngineStoppedError(
            "reloadModel() on a stopped ServeFront");
    }
    auto old = std::move(s.current);
    s.current = std::move(gen);
    s.entry = std::move(entry);
    s.generation = number;
    s.health = ModelHealth::Healthy;
    s.reason.clear();
    lk.unlock();
    // Swap done: new submits already route to N+1. Now retire N —
    // it answers everything it accepted first.
    retireGeneration(i, std::move(old));
}

ModelEntry
makeModelEntry(core::ModelBundle bundle, NetFactory factory,
               const core::SeOptions &se_opts,
               const core::ApplyOptions &apply_opts,
               WeightSource source)
{
    ModelEntry e;
    e.records =
        std::make_shared<const std::vector<core::SeLayerRecord>>(
            std::move(bundle.records));
    e.factory = std::move(factory);
    e.seOpts = se_opts;
    e.applyOpts = apply_opts;
    e.dense =
        std::make_shared<const std::vector<core::DenseTensor>>(
            std::move(bundle.dense));
    e.weightSource = source;
    return e;
}

ModelEntry
makeModelEntry(std::shared_ptr<core::StreamedModel> streamed,
               NetFactory factory, const core::SeOptions &se_opts,
               const core::ApplyOptions &apply_opts,
               WeightSource source)
{
    if (!streamed)
        throw std::invalid_argument(
            "makeModelEntry: null streamed model");
    ModelEntry e;
    e.factory = std::move(factory);
    e.seOpts = se_opts;
    e.applyOpts = apply_opts;
    // The dense residual lives in the (already validated) meta
    // section: copying it out now costs nothing piece-related and
    // lets replica nets build before any piece decodes.
    e.dense = std::make_shared<const std::vector<core::DenseTensor>>(
        streamed->dense());
    e.weightSource = source;
    e.streamed = std::move(streamed);
    return e;
}

size_t
ServeFront::indexOf(const std::string &modelId) const
{
    for (size_t i = 0; i < ids_.size(); ++i)
        if (ids_[i] == modelId)
            return i;
    throw UnknownModelError("model '" + modelId +
                            "' is not registered");
}

std::future<Tensor>
ServeFront::submit(const std::string &modelId, Tensor sample)
{
    const size_t i = indexOf(modelId);
    for (;;) {
        std::shared_ptr<Generation> gen = generationFor(i);
        try {
            // Pass a copy: a submit that loses the race against a
            // generation swap is retried with the original sample.
            return gen->engine->submit(sample);
        } catch (const EngineStoppedError &) {
            base::LockGuard lk(mu_);
            if (slots_[i].current == gen)
                throw;  // the front itself stopped this engine
            // Reload flipped the generation between our snapshot and
            // the enqueue: retry on the new one. This is the
            // zero-dropped-requests half of hot reload.
        }
    }
}

std::vector<std::shared_ptr<ServeFront::Generation>>
ServeFront::builtGenerations() const
{
    // Snapshot under the lock (generations are swapped by concurrent
    // reloads), then operate outside it so a long drain can't block
    // an unrelated model's engine build. The shared_ptrs keep the
    // engines alive across the walk even if a reload retires them.
    base::LockGuard lk(mu_);
    std::vector<std::shared_ptr<Generation>> out;
    out.reserve(slots_.size());
    for (const auto &s : slots_)
        if (s.current && s.current->engine)
            out.push_back(s.current);
    return out;
}

void
ServeFront::drain()
{
    for (const auto &gen : builtGenerations())
        gen->engine->drain();
}

void
ServeFront::stop()
{
    {
        base::LockGuard lk(mu_);
        stopped_ = true;
    }
    // Wake first-touch waiters so they observe stopped_ instead of
    // sleeping on a build that may be about to refuse its engine.
    cv_.notifyAll();
    for (const auto &gen : builtGenerations())
        gen->engine->stop();
}

ServeStats
ServeFront::stats(const std::string &modelId) const
{
    const size_t i = indexOf(modelId);
    std::shared_ptr<Generation> cur;
    RetiredStats retired;
    {
        base::LockGuard lk(mu_);
        cur = slots_[i].current;
        retired = slots_[i].retired;
    }
    // Live generation first: its percentiles are the ones reported
    // (retired reservoirs are gone; counters and means merge).
    ServeStats s = cur && cur->engine ? cur->engine->stats()
                                      : ServeStats{};
    double latWeighted = s.meanLatencyMs * (double)s.requests +
                         retired.latencyWeighted;
    double batchWeighted = s.meanBatchSize * (double)s.batches +
                           retired.batchWeighted;
    s.requests += retired.requests;
    s.failed += retired.failed;
    s.rejected += retired.rejected;
    s.shed += retired.shed;
    s.batches += retired.batches;
    s.maxMs = std::max(s.maxMs, retired.maxMs);
    s.meanLatencyMs =
        s.requests > 0 ? latWeighted / (double)s.requests : 0.0;
    s.meanBatchSize =
        s.batches > 0 ? batchWeighted / (double)s.batches : 0.0;
    return s;
}

ServeStats
ServeFront::aggregateStats() const
{
    ServeStats agg;
    double latWeighted = 0.0;
    double batchWeighted = 0.0;
    for (const std::string &id : ids_) {
        const ServeStats s = stats(id);  // per-model, all generations
        agg.requests += s.requests;
        agg.failed += s.failed;
        agg.rejected += s.rejected;
        agg.shed += s.shed;
        agg.batches += s.batches;
        latWeighted += s.meanLatencyMs * (double)s.requests;
        batchWeighted += s.meanBatchSize * (double)s.batches;
        if (s.maxMs > agg.maxMs)
            agg.maxMs = s.maxMs;
    }
    if (agg.requests > 0)
        agg.meanLatencyMs = latWeighted / (double)agg.requests;
    if (agg.batches > 0)
        agg.meanBatchSize = batchWeighted / (double)agg.batches;
    return agg;
}

ServeEngine &
ServeFront::engine(const std::string &modelId)
{
    return *generationFor(indexOf(modelId))->engine;
}

bool
ServeFront::engineBuilt(const std::string &modelId) const
{
    const size_t i = indexOf(modelId);
    base::LockGuard lk(mu_);
    return slots_[i].current && slots_[i].current->engine;
}

uint64_t
ServeFront::generation(const std::string &modelId) const
{
    const size_t i = indexOf(modelId);
    base::LockGuard lk(mu_);
    return slots_[i].generation;
}

ModelHealth
ServeFront::health(const std::string &modelId) const
{
    const size_t i = indexOf(modelId);
    base::LockGuard lk(mu_);
    return slots_[i].health;
}

uint64_t
ServeFront::reloadFallbacks(const std::string &modelId) const
{
    const size_t i = indexOf(modelId);
    base::LockGuard lk(mu_);
    return slots_[i].fallbacks;
}

int
ServeFront::replicaCount() const
{
    int n = 0;
    for (const auto &gen : builtGenerations())
        n += gen->engine->replicaCount();
    return n;
}

} // namespace serve
} // namespace se
