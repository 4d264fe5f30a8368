#include "encode/bitstream.hh"

#include <string>

namespace se {
namespace encode {

void
BitWriter::badWrite(uint32_t value, int width)
{
    if (width < 0 || width > 32)
        throw BitstreamError("bit width " + std::to_string(width) +
                             " outside [0, 32]");
    throw BitstreamError("value " + std::to_string(value) +
                         " does not fit in " + std::to_string(width) +
                         " bits");
}

void
BitWriter::alignToByte()
{
    bits_ = (bits_ + 7) & ~(size_t)7;
    // The open byte was zero-initialized on push, so the pad bits are
    // already zero — only the counter moves.
}

const std::vector<uint8_t> &
BitWriter::bytes() const
{
    if (!aligned())
        throw BitstreamError(
            "bytes() on an unaligned BitWriter (call alignToByte())");
    return bytes_;
}

std::vector<uint8_t>
BitWriter::take()
{
    if (!aligned())
        throw BitstreamError(
            "take() on an unaligned BitWriter (call alignToByte())");
    std::vector<uint8_t> out = std::move(bytes_);
    bytes_.clear();
    bits_ = 0;
    return out;
}

void
BitReader::badRead(int width) const
{
    if (width < 0 || width > 32)
        throw BitstreamError("bit width " + std::to_string(width) +
                             " outside [0, 32]");
    throw BitstreamError(
        "bitstream ends " +
        std::to_string((size_t)width - bitsRemaining()) +
        " bit(s) short of a " + std::to_string(width) + "-bit read");
}

uint32_t
BitReader::alignToByte()
{
    const int pad = (int)((8 - (pos_ & 7)) & 7);
    return readBits(pad);
}

} // namespace encode
} // namespace se
