/**
 * @file
 * StreamedModel — mmap-backed lazy access to a v4 model bundle.
 *
 * loadModelBundle() decodes every piece of every record before the
 * caller sees a byte; fine for one model, hostile to a multi-model
 * fleet where most models are cold at process start. StreamedModel
 * opens a v4 bundle by mmapping it and validating only the header +
 * checksummed meta section (record table, dense residual, piece
 * directory) — O(meta), independent of how many gigabytes of piece
 * payloads follow. Pieces are checksum-verified and decoded on first
 * touch and cached; a model nobody submits to never pays its decode.
 *
 * The dense residual lives in the meta section and is available
 * immediately after open (it is small and the serve factory needs it
 * to build a net before any piece decodes).
 *
 * Laziness is an access policy, not a validation loophole: every
 * byte that IS read is checksummed first, so a corrupt piece fails
 * loudly at first touch with its index and offset, exactly like the
 * eager loader. Opening with StreamLoaderOptions::eager decodes (and
 * fully validates, padding included) everything up front — same
 * guarantees as loadModelBundleFile, same decoded bits.
 *
 * Async lookahead (StreamLoaderOptions::prefetchDepth > 0): a
 * one-thread prefetch lane checksum+decodes the next N pieces behind
 * every touch while the consumer serves earlier ones — the software
 * mirror of the paper's rebuild engine streaming Ce-code decode ahead
 * of the PE array. Each piece moves Cold -> Queued -> Decoding ->
 * Ready under the internal mutex, with the decode itself running
 * off-lock (it reads only the immutable mapping and meta). A consumer
 * touching a piece the lane already finished counts a prefetch hit;
 * one that arrives mid-decode waits (the wait is decode-stall time);
 * one that beats the lane claims the piece and decodes it inline (a
 * miss). The decoded bits are identical on every path — prefetch
 * moves wall-clock, never values.
 *
 * A lane decode failure (including the `stream_prefetch` failpoint)
 * is swallowed: the piece reverts to Cold and the first real touch
 * retries on the consumer path, where corruption surfaces with the
 * full ModelFileError context exactly as if prefetch were off. The
 * consumer decode path keeps the `stream_piece_decode` failpoint;
 * the lane deliberately does not evaluate it, so drills that target
 * consumer decode keep their arithmetic regardless of lookahead.
 *
 * Thread safety: all accessors are safe to call concurrently after
 * construction; piece state is serialized by an internal mutex.
 */

#ifndef SE_CORE_STREAM_LOADER_HH
#define SE_CORE_STREAM_LOADER_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.hh"
#include "base/thread_pool.hh"
#include "core/model_file.hh"

namespace se {
namespace core {

struct StreamLoaderOptions
{
    /** Decode and validate every piece (and every padding byte) at
     *  open — the eager fallback with mmap residency. */
    bool eager = false;
    /** Skip mmap and read the file into an owned buffer (platforms
     *  without mmap get this automatically; tests use it to pin both
     *  backends to identical bits). */
    bool forceRead = false;
    /**
     * Lookahead window of the async prefetch lane: behind every piece
     * touch, the next `prefetchDepth` still-cold pieces are queued
     * for background checksum+decode (SE_PREFETCH_DEPTH in the serve
     * drivers). 0 (the default) disables the lane — every decode runs
     * inline on the consumer, the pre-pipelining behaviour.
     */
    size_t prefetchDepth = 0;
};

/** Prefetch-lane observables of one StreamedModel. */
struct StreamStats
{
    /** Consumer touches served by a lane-decoded piece. */
    uint64_t prefetchHits = 0;
    /** Consumer touches that decoded the piece inline themselves. */
    uint64_t prefetchMisses = 0;
    /** Pieces handed to the lane (some may be reclaimed by faster
     *  consumers; those end up counted as misses). */
    uint64_t prefetchScheduled = 0;
    /** Lane decodes dropped (fault or `stream_prefetch` injection);
     *  the piece reverted to Cold for the consumer to retry. */
    uint64_t prefetchErrors = 0;
    /** Wall-clock consumers spent blocked on piece decode — inline
     *  decodes plus waits on an in-flight lane decode. The number the
     *  prefetch lane drives toward ~0. */
    double decodeStallMs = 0.0;
};

class StreamedModel
{
  public:
    explicit StreamedModel(const std::string &path,
                           StreamLoaderOptions opts = {});
    ~StreamedModel();

    StreamedModel(const StreamedModel &) = delete;
    StreamedModel &operator=(const StreamedModel &) = delete;

    /** True when the bundle is mmapped (false on the read fallback). */
    bool mapped() const { return mapped_; }

    size_t pieceCount() const { return meta_.directory.size(); }

    /** Pieces decoded so far — the lazy-loading observable: after a
     *  lazy open it is 0, and it only grows when something actually
     *  touches a piece (or the prefetch lane runs ahead of one). */
    size_t decodedPieces() const
    {
        return decoded_.load(std::memory_order_relaxed);
    }

    const std::vector<std::string> &
    recordNames() const
    {
        return meta_.recordNames;
    }

    /** Dense residual — available at open, no piece decode. */
    const std::vector<DenseTensor> &dense() const { return meta_.dense; }

    const modelv4::Meta &meta() const { return meta_; }

    /**
     * Piece `index` (flat directory order), checksum-verified and
     * decoded on first touch, cached thereafter. Throws ModelFileError
     * (with the piece index and byte offset) on corruption.
     */
    const SeMatrix &piece(size_t index) const SE_EXCLUDES(mu_);

    /**
     * Decode pieces [first, first+count) ahead of a consumer —
     * clamped to the directory (overflow-safe: first+count past
     * SIZE_MAX still prefetches the tail), never an error to
     * over-ask. Returns the number of pieces this call actually
     * decoded. A piece that fails mid-range surfaces as a
     * ModelFileError naming that piece, whatever the underlying
     * decode threw.
     */
    size_t prefetch(size_t first, size_t count) const
        SE_EXCLUDES(mu_);

    /**
     * The full record vector (grouped per layer, piece order
     * preserved) — decodes every remaining piece on first call (the
     * prefetch lane, when enabled, splits that decode with the
     * caller), then serves the cached copy. This is what a serve
     * engine binds against; shared_ptr so a caller can hold the
     * records across a registry swap without copying them.
     */
    std::shared_ptr<const std::vector<SeLayerRecord>> records() const
        SE_EXCLUDES(mu_);

    /** records() + dense() as an eager-equivalent bundle (decodes
     *  everything). */
    ModelBundle bundle() const;

    /** Prefetch-lane counters (zeroes when the lane is off). */
    StreamStats streamStats() const SE_EXCLUDES(mu_);

    /** Block until the lane has no queued or in-flight decode — the
     *  deterministic settle point for tests and benches. */
    void drainPrefetch() const SE_EXCLUDES(mu_);

  private:
    /** Lifecycle of one piece under mu_. Decode bytes are produced
     *  off-lock; only the state transitions are serialized. */
    enum class PieceState : uint8_t
    {
        Cold,      ///< untouched (or a dropped lane decode)
        Queued,    ///< handed to the lane, not yet started
        Decoding,  ///< someone (lane or consumer) is decoding it
        Ready,     ///< cached in cache_
    };

    const uint8_t *filePtr() const;
    const SeMatrix &fetchPiece(size_t index,
                               bool *freshly = nullptr) const
        SE_EXCLUDES(mu_);
    void schedulePrefetchLocked(size_t first) const SE_REQUIRES(mu_);
    void prefetchTask(size_t index) const SE_EXCLUDES(mu_);

    std::string path_;
    bool mapped_ = false;
    void *map_ = nullptr;     ///< mmap base (mapped_ == true)
    size_t mapLen_ = 0;
    std::string buffer_;      ///< read fallback (mapped_ == false)
    modelv4::Meta meta_;
    size_t prefetchDepth_ = 0;

    /** Serializes piece state; guards the decode cache and the
     *  assembled record vector. decoded_ stays an atomic so the
     *  decodedPieces() observable needs no lock. */
    mutable base::Mutex mu_;
    mutable base::CondVar cv_;
    mutable std::vector<std::unique_ptr<SeMatrix>> cache_
        SE_GUARDED_BY(mu_);
    mutable std::vector<PieceState> state_ SE_GUARDED_BY(mu_);
    /** Lane-decoded and not yet claimed as a hit (counted once). */
    mutable std::vector<uint8_t> laneFilled_ SE_GUARDED_BY(mu_);
    /** Lane tasks queued or decoding (drainPrefetch waits on 0). */
    mutable size_t laneOutstanding_ SE_GUARDED_BY(mu_) = 0;
    mutable StreamStats sstats_ SE_GUARDED_BY(mu_);
    mutable std::shared_ptr<const std::vector<SeLayerRecord>> records_
        SE_GUARDED_BY(mu_);
    mutable std::atomic<size_t> decoded_{0};

    /** One-thread prefetch lane; null when prefetchDepth == 0.
     *  Declared last so no task can outlive the state it touches;
     *  the destructor additionally resets it before unmapping. */
    std::unique_ptr<ThreadPool> prefetcher_;
};

} // namespace core
} // namespace se

#endif // SE_CORE_STREAM_LOADER_HH
