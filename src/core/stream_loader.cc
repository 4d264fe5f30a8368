#include "core/stream_loader.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/clock.hh"
#include "base/failpoint.hh"
#include "base/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define SE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SE_HAVE_MMAP 0
#endif

namespace se {
namespace core {

namespace {

std::string
readWholeFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        throw ModelFileError("cannot open " + path + " for reading");
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

StreamedModel::Bytes::Bytes(const std::string &path, bool force_read)
{
    SE_FAILPOINT_THROW("stream_open", ModelFileError);
#if SE_HAVE_MMAP
    if (!force_read) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            throw ModelFileError("cannot open " + path +
                                 " for reading");
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            throw ModelFileError("cannot stat " + path);
        }
        // mmap refuses empty files; an empty bundle is invalid
        // anyway, so route it through the parser for the real error.
        void *m = st.st_size ? ::mmap(nullptr, (size_t)st.st_size,
                                      PROT_READ, MAP_PRIVATE, fd, 0)
                             : MAP_FAILED;
        ::close(fd);
        if (m != MAP_FAILED) {
            map_ = m;
            mapLen_ = (size_t)st.st_size;
            return;
        }
    }
#else
    (void)force_read;
#endif
    buffer_ = readWholeFile(path);
}

StreamedModel::Bytes::~Bytes()
{
#if SE_HAVE_MMAP
    if (map_)
        ::munmap(map_, mapLen_);
#endif
}

const uint8_t *
StreamedModel::Bytes::data() const
{
    return map_ ? (const uint8_t *)map_
                : (const uint8_t *)buffer_.data();
}

size_t
StreamedModel::Bytes::size() const
{
    return map_ ? mapLen_ : buffer_.size();
}

StreamedModel::StreamedModel(const std::string &path,
                             StreamLoaderOptions opts)
    : bytes_(path, opts.forceRead),
      meta_(modelv4::parseMeta(bytes_.data(), bytes_.size()))
{
    if (opts.prefetchDepth != 0)
        throw std::invalid_argument(
            "StreamLoaderOptions::prefetchDepth must be 0: pieces "
            "decode on the consuming thread only");
    cache_.resize(meta_.directory.size());
    state_.assign(meta_.directory.size(), PieceState::Cold);

    if (opts.eager) {
        // Full validation, matching loadModelBundle: padding bytes
        // between pieces must be zero, and every piece must decode.
        const uint8_t *file = bytes_.data();
        uint64_t expect = modelv4::kHeaderBytes + meta_.metaBytes;
        for (const auto &e : meta_.directory) {
            for (uint64_t b = expect; b < e.offset; ++b)
                if (file[b] != 0)
                    throw ModelFileError(
                        "non-zero padding byte at offset " +
                        std::to_string(b));
            expect = e.offset + e.length;
        }
        records();
    }
}

const SeMatrix &
StreamedModel::piece(size_t index) const
{
    SE_ASSERT(index < cache_.size(), "piece index out of range");
    base::LockGuard lk(mu_);
    for (;;) {
        switch (state_[index]) {
        case PieceState::Ready:
            return *cache_[index];

        case PieceState::Decoding: {
            // Another consumer has it in flight; wait for its result
            // instead of decoding the piece a second time.
            const auto t0 = SteadyClock::now();
            while (state_[index] == PieceState::Decoding)
                cv_.wait(lk);
            sstats_.decodeStallMs += msSince(t0);
            continue;  // Ready, or Cold if that decode failed
        }

        case PieceState::Cold: {
            // Claim it and decode inline. Everything below the unlock
            // touches only the immutable mapping and meta.
            state_[index] = PieceState::Decoding;
            lk.unlock();
            std::unique_ptr<SeMatrix> m;
            const auto t0 = SteadyClock::now();
            try {
                if (failpoint::evaluate("stream_piece_decode"))
                    throw ModelFileError(
                        std::string(failpoint::kInjectedPrefix) +
                        " 'stream_piece_decode': piece " +
                        std::to_string(index));
                m.reset(new SeMatrix(
                    modelv4::decodePiece(bytes_.data(), meta_, index)));
            } catch (...) {
                lk.lock();
                state_[index] = PieceState::Cold;
                cv_.notifyAll();
                throw;
            }
            const double ms = msSince(t0);
            lk.lock();
            cache_[index] = std::move(m);
            state_[index] = PieceState::Ready;
            sstats_.decodeStallMs += ms;
            ++sstats_.prefetchMisses;
            decoded_.fetch_add(1, std::memory_order_relaxed);
            cv_.notifyAll();
            return *cache_[index];
        }
        }
    }
}

std::shared_ptr<const std::vector<SeLayerRecord>>
StreamedModel::records() const
{
    {
        base::LockGuard lk(mu_);
        if (records_)
            return records_;
    }
    // Decode everything through the piece state machine; the lock is
    // NOT held across decodes, so concurrent callers split the work.
    size_t flat = 0;
    for (size_t ri = 0; ri < meta_.recordNames.size(); ++ri) {
        for (uint32_t k = 0; k < meta_.pieceCounts[ri]; ++k) {
            try {
                piece(flat++);
            } catch (const ModelFileError &e) {
                throw ModelFileError("record '" +
                                     meta_.recordNames[ri] + "': " +
                                     e.what());
            }
        }
    }

    base::LockGuard lk(mu_);
    if (records_)  // another thread assembled while we decoded
        return records_;
    auto out = std::make_shared<std::vector<SeLayerRecord>>();
    out->resize(meta_.recordNames.size());
    flat = 0;
    for (size_t ri = 0; ri < meta_.recordNames.size(); ++ri) {
        SeLayerRecord &rec = (*out)[ri];
        rec.name = meta_.recordNames[ri];
        rec.pieces.reserve(meta_.pieceCounts[ri]);
        for (uint32_t k = 0; k < meta_.pieceCounts[ri]; ++k)
            rec.pieces.push_back(*cache_[flat++]);
    }
    records_ = std::move(out);
    return records_;
}

ModelBundle
StreamedModel::bundle() const
{
    ModelBundle b;
    b.records = *records();
    b.dense = meta_.dense;
    return b;
}

StreamStats
StreamedModel::streamStats() const
{
    base::LockGuard lk(mu_);
    return sstats_;
}

} // namespace core
} // namespace se
