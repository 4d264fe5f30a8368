/**
 * @file
 * BitWriter / BitReader — the sub-byte serialization layer under the
 * model-file v4 adaptive-width coefficient codec (tthresh-style
 * per-column bit widths, cf. Ballester-Ripoll et al.).
 *
 * Bit order is LSB-first within each byte: bit k of the stream lives
 * at bit (k & 7) of byte (k >> 3), and a multi-bit field's least
 * significant bit is written first. This matches the nibble order of
 * the v3 packed-Ce form (low nibble first), so a 4-bit field written
 * at a byte boundary lands exactly where v3 would put it.
 *
 * The writer never pads silently: alignToByte() is the only way bits
 * are skipped, and the reader's alignToByte() returns the pad bits it
 * consumed so a decoder can enforce zero padding (the model-file
 * canonical-encoding rule: two different byte streams must never
 * decode to the same value).
 *
 * Reads past the end of the buffer throw BitstreamError — a truncated
 * stream can never yield data.
 *
 * Both directions move a whole field per call, not a bit per loop
 * iteration: writeBits ORs the field, shifted to the open bit
 * position, into the open byte and appends the bytes it spills into;
 * readBits gathers the (at most five) bytes a field touches into one
 * word and shifts it out. Both are inline; their argument and bounds
 * checks throw from out-of-line cold paths, and a call that throws
 * leaves bitsWritten() / bitsConsumed() unchanged.
 */

#ifndef SE_ENCODE_BITSTREAM_HH
#define SE_ENCODE_BITSTREAM_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace se {
namespace encode {

/** Thrown on any malformed bitstream operation (over-read, bad width,
 *  out-of-range value). Mirrors core::ModelFileError one layer down:
 *  decode either returns valid data or throws, never crashes. */
class BitstreamError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Append-only bit sink backed by a byte vector. */
class BitWriter
{
  public:
    BitWriter() = default;

    /**
     * Continue after `prefix`: the new bits start on the byte boundary
     * that ends it, and bitsWritten() counts the prefix too. Lets a
     * caller append a bitstream to a buffer it is already filling.
     */
    explicit BitWriter(std::vector<uint8_t> prefix)
        : bytes_(std::move(prefix)), bits_(bytes_.size() * 8)
    {
    }

    /**
     * Append the low `width` bits of `value`, LSB first. width must be
     * in [0, 32] and value must fit in width bits (writeBits(v, 0)
     * requires v == 0 and appends nothing) — anything else throws
     * BitstreamError, because silently masking would corrupt the
     * stream instead of the call site that produced the bad value.
     */
    void
    writeBits(uint32_t value, int width)
    {
        if ((unsigned)width > 32u || (width < 32 && (value >> width) != 0))
            badWrite(value, width);
        const int off = (int)(bits_ & 7);
        uint64_t v = (uint64_t)value << off;
        if (off != 0) {
            bytes_.back() |= (uint8_t)v;
            v >>= 8;
        }
        bits_ += (size_t)width;
        for (size_t end = (bits_ + 7) >> 3; bytes_.size() < end; v >>= 8)
            bytes_.push_back((uint8_t)v);
    }

    void writeBit(bool bit) { writeBits(bit ? 1u : 0u, 1); }

    /** Pad the current byte with zero bits (no-op when aligned). */
    void alignToByte();

    size_t bitsWritten() const { return bits_; }
    bool aligned() const { return (bits_ & 7) == 0; }

    /**
     * The serialized bytes. Must be byte-aligned (call alignToByte()
     * first) — handing out a buffer whose tail byte is still open
     * would let the caller concatenate streams mid-byte; throws
     * BitstreamError instead.
     */
    const std::vector<uint8_t> &bytes() const;

    /** bytes(), destructively (resets the writer to empty). */
    std::vector<uint8_t> take();

  private:
    [[noreturn]] static void badWrite(uint32_t value, int width);

    std::vector<uint8_t> bytes_;  ///< the open byte's unwritten bits are 0
    size_t bits_ = 0;  ///< total bits written
};

/** Bounded bit source over caller-owned bytes (not copied). */
class BitReader
{
  public:
    BitReader(const uint8_t *data, size_t size)
        : data_(data), size_bits_(size * 8)
    {
    }

    /**
     * Read `width` bits (LSB first), width in [0, 32]. Throws
     * BitstreamError when fewer than `width` bits remain — a
     * truncated stream fails loudly at the exact read that crossed
     * the end, never returns fabricated zeros.
     */
    uint32_t
    readBits(int width)
    {
        if ((unsigned)width > 32u || (size_t)width > bitsRemaining())
            badRead(width);
        if (width == 0)
            return 0;
        const uint8_t *p = data_ + (pos_ >> 3);
        const int off = (int)(pos_ & 7);
        const int nbytes = (off + width + 7) >> 3;
        uint64_t v = 0;
        for (int k = 0; k < nbytes; ++k)
            v |= (uint64_t)p[k] << (8 * k);
        pos_ += (size_t)width;
        return (uint32_t)((v >> off) & ((1ull << width) - 1));
    }

    bool readBit() { return readBits(1) != 0; }

    /**
     * Skip to the next byte boundary and return the pad bits consumed
     * (as a value, LSB first; 0 when already aligned). Callers that
     * require canonical streams check the result is zero.
     */
    uint32_t alignToByte();

    size_t bitsConsumed() const { return pos_; }
    size_t bitsRemaining() const { return size_bits_ - pos_; }
    bool atEnd() const { return pos_ == size_bits_; }

  private:
    [[noreturn]] void badRead(int width) const;

    const uint8_t *data_;
    size_t size_bits_;
    size_t pos_ = 0;  ///< bits consumed
};

} // namespace encode
} // namespace se

#endif // SE_ENCODE_BITSTREAM_HH
