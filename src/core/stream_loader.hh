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
 * Every decode runs on the consuming thread that first touches the
 * piece. Each piece moves Cold -> Decoding -> Ready under the
 * internal mutex, with the decode itself running off-lock (it reads
 * only the immutable mapping and meta). A second consumer touching a
 * piece that is mid-decode waits for it (the wait is decode-stall
 * time) instead of decoding it again, so each piece decodes exactly
 * once however many threads race on it. A failed decode (corruption
 * or the `stream_piece_decode` failpoint) reverts the piece to Cold,
 * wakes its waiters and throws to the touching caller; the next touch
 * retries.
 *
 * Thread safety: all accessors are safe to call concurrently after
 * construction; piece state is serialized by an internal mutex. The
 * mapping has one owner, which releases it on every exit — a failed
 * eager open included.
 */

#ifndef SE_CORE_STREAM_LOADER_HH
#define SE_CORE_STREAM_LOADER_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.hh"
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
    /** Kept only for the benchmark driver; non-zero throws
     *  std::invalid_argument. */
    size_t prefetchDepth = 0;
};

/** Decode observables of one StreamedModel. */
struct StreamStats
{
    /** Kept only for the benchmark driver; always 0. */
    uint64_t prefetchHits = 0;
    /** Pieces decoded, each inline on the consumer that first
     *  touched it. */
    uint64_t prefetchMisses = 0;
    /** Wall-clock consumers spent blocked on piece decode — their
     *  own inline decodes plus waits on another consumer's. */
    double decodeStallMs = 0.0;
};

class StreamedModel
{
  public:
    explicit StreamedModel(const std::string &path,
                           StreamLoaderOptions opts = {});

    StreamedModel(const StreamedModel &) = delete;
    StreamedModel &operator=(const StreamedModel &) = delete;

    /** True when the bundle is mmapped (false on the read fallback). */
    bool mapped() const { return bytes_.mapped(); }

    size_t pieceCount() const { return meta_.directory.size(); }

    /** Pieces decoded so far — the lazy-loading observable: after a
     *  lazy open it is 0, and it only grows when something actually
     *  touches a piece. */
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
     * The full record vector (grouped per layer, piece order
     * preserved) — decodes every remaining piece on first call, then
     * serves the cached copy. This is what a serve engine binds
     * against; shared_ptr so a caller can hold the records across a
     * registry swap without copying them.
     */
    std::shared_ptr<const std::vector<SeLayerRecord>> records() const
        SE_EXCLUDES(mu_);

    /** records() + dense() as an eager-equivalent bundle (decodes
     *  everything). */
    ModelBundle bundle() const;

    /** Decode counters. */
    StreamStats streamStats() const SE_EXCLUDES(mu_);

  private:
    /**
     * The bundle's bytes: an mmap of the file, or (forceRead,
     * platforms without mmap, or a failed map) an owned copy read
     * into memory. The destructor unmaps, so neither ~StreamedModel
     * nor a constructor that throws after the open can leak the
     * mapping.
     */
    class Bytes
    {
      public:
        Bytes(const std::string &path, bool force_read);
        ~Bytes();

        Bytes(const Bytes &) = delete;
        Bytes &operator=(const Bytes &) = delete;

        bool mapped() const { return map_ != nullptr; }
        const uint8_t *data() const;
        size_t size() const;

      private:
        void *map_ = nullptr;  ///< mmap base; null on the read fallback
        size_t mapLen_ = 0;
        std::string buffer_;   ///< read fallback
    };

    /** Lifecycle of one piece under mu_. Decode bytes are produced
     *  off-lock; only the state transitions are serialized. */
    enum class PieceState : uint8_t
    {
        Cold,      ///< untouched, or its last decode failed
        Decoding,  ///< a consumer is decoding it
        Ready,     ///< cached in cache_
    };

    Bytes bytes_;
    modelv4::Meta meta_;

    /** Serializes piece state; guards the decode cache and the
     *  assembled record vector. decoded_ stays an atomic so the
     *  decodedPieces() observable needs no lock. */
    mutable base::Mutex mu_;
    mutable base::CondVar cv_;
    mutable std::vector<std::unique_ptr<SeMatrix>> cache_
        SE_GUARDED_BY(mu_);
    mutable std::vector<PieceState> state_ SE_GUARDED_BY(mu_);
    mutable StreamStats sstats_ SE_GUARDED_BY(mu_);
    mutable std::shared_ptr<const std::vector<SeLayerRecord>> records_
        SE_GUARDED_BY(mu_);
    mutable std::atomic<size_t> decoded_{0};
};

} // namespace core
} // namespace se

#endif // SE_CORE_STREAM_LOADER_HH
