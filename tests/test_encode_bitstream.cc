/**
 * @file
 * Property tests of the encode::BitWriter / BitReader pair under the
 * model-file v4 adaptive-width codec, plus differential tests pinning
 * the v4 decode bit-identical to the v3 decode of the same model.
 *
 * The bitstream layer is the one place a single off-by-one bit would
 * silently skew every coefficient after it, so the walls here are
 * exhaustive in spirit: random width sequences round-trip exactly,
 * the writer refuses values that do not fit and unaligned handoffs,
 * the reader refuses reads past the end, and the LSB-first layout is
 * pinned against the v3 nibble order byte for byte.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "base/random.hh"
#include "core/model_file.hh"
#include "core/smart_exchange.hh"
#include "encode/bitstream.hh"
#include "linalg/linalg.hh"

namespace se {
namespace {

TEST(Bitstream, RandomWidthSequencesRoundTrip)
{
    Rng rng(1);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::pair<uint32_t, int>> fields;
        encode::BitWriter bw;
        const int n = (int)rng.integer(0, 200);
        size_t bits = 0;
        for (int k = 0; k < n; ++k) {
            const int w = (int)rng.integer(0, 32);
            const uint32_t mask =
                w == 32 ? ~0u : ((1u << w) - 1u);
            const uint32_t v = (uint32_t)rng.integer(0, 1 << 30) & mask;
            bw.writeBits(v, w);
            bits += (size_t)w;
            fields.emplace_back(v, w);
        }
        EXPECT_EQ(bw.bitsWritten(), bits);
        bw.alignToByte();
        const std::vector<uint8_t> bytes = bw.bytes();
        EXPECT_EQ(bytes.size(), (bits + 7) / 8);

        encode::BitReader br(bytes.data(), bytes.size());
        for (const auto &[v, w] : fields)
            EXPECT_EQ(br.readBits(w), v) << "width " << w;
        EXPECT_EQ(br.alignToByte(), 0u);  // writer pad is zero
        EXPECT_TRUE(br.atEnd());
    }
}

TEST(Bitstream, WriterRejectsBadWidthsAndOversizedValues)
{
    encode::BitWriter bw;
    EXPECT_THROW(bw.writeBits(0, -1), encode::BitstreamError);
    EXPECT_THROW(bw.writeBits(0, 33), encode::BitstreamError);
    // A value that does not fit must throw, not be silently masked.
    EXPECT_THROW(bw.writeBits(2, 1), encode::BitstreamError);
    EXPECT_THROW(bw.writeBits(1, 0), encode::BitstreamError);
    EXPECT_THROW(bw.writeBits(8, 3), encode::BitstreamError);
    EXPECT_EQ(bw.bitsWritten(), 0u);  // failed writes left no bits
    bw.writeBits(0, 0);               // zero-width zero is legal
    EXPECT_EQ(bw.bitsWritten(), 0u);
}

TEST(Bitstream, WriterFlushAlignment)
{
    encode::BitWriter bw;
    bw.writeBits(0x5, 3);
    EXPECT_FALSE(bw.aligned());
    // Handing out a buffer whose tail byte is still open is an error.
    EXPECT_THROW(bw.bytes(), encode::BitstreamError);
    EXPECT_THROW(bw.take(), encode::BitstreamError);
    bw.alignToByte();
    EXPECT_TRUE(bw.aligned());
    EXPECT_EQ(bw.bitsWritten(), 8u);
    ASSERT_EQ(bw.bytes().size(), 1u);
    EXPECT_EQ(bw.bytes()[0], 0x05);  // pad bits are zero
    bw.alignToByte();                // idempotent when aligned
    EXPECT_EQ(bw.bitsWritten(), 8u);

    const std::vector<uint8_t> taken = bw.take();
    EXPECT_EQ(taken.size(), 1u);
    EXPECT_EQ(bw.bitsWritten(), 0u);  // take() resets the writer
}

TEST(Bitstream, ReaderRefusesReadsPastEnd)
{
    const uint8_t one = 0xFF;
    encode::BitReader br(&one, 1);
    EXPECT_EQ(br.bitsRemaining(), 8u);
    EXPECT_EQ(br.readBits(5), 0x1Fu);
    EXPECT_THROW(br.readBits(4), encode::BitstreamError);
    // A failed read consumes nothing.
    EXPECT_EQ(br.bitsRemaining(), 3u);
    EXPECT_EQ(br.readBits(3), 0x7u);
    EXPECT_TRUE(br.atEnd());
    EXPECT_THROW(br.readBits(1), encode::BitstreamError);
    EXPECT_THROW(br.readBits(-1), encode::BitstreamError);
    EXPECT_THROW(br.readBits(33), encode::BitstreamError);

    encode::BitReader empty(nullptr, 0);
    EXPECT_TRUE(empty.atEnd());
    EXPECT_EQ(empty.readBits(0), 0u);
    EXPECT_THROW(empty.readBits(1), encode::BitstreamError);
}

TEST(Bitstream, ReaderAlignReturnsDirtyPadBits)
{
    // 0b1011'0101: read 5 bits, the 3 pad bits are 0b101 = 5.
    const uint8_t byte = 0xB5;
    encode::BitReader br(&byte, 1);
    EXPECT_EQ(br.readBits(5), 0x15u);
    EXPECT_EQ(br.alignToByte(), 5u);  // caller can enforce == 0
    EXPECT_TRUE(br.atEnd());
    EXPECT_EQ(br.alignToByte(), 0u);  // aligned: no-op
}

TEST(Bitstream, LsbFirstLayoutMatchesV3NibbleOrder)
{
    // Two 4-bit fields per byte, first field in the LOW nibble —
    // exactly core::PackedCe's packing. Pin the bit order by writing
    // nibble values through the BitWriter and packing the same values
    // the v3 way.
    Rng rng(2);
    std::vector<uint8_t> nibbles;
    encode::BitWriter bw;
    for (int k = 0; k < 31; ++k) {  // odd count exercises the pad
        const uint8_t v = (uint8_t)rng.integer(0, 15);
        nibbles.push_back(v);
        bw.writeBits(v, 4);
    }
    bw.alignToByte();
    const std::vector<uint8_t> &got = bw.bytes();

    std::vector<uint8_t> expect((nibbles.size() + 1) / 2, 0);
    for (size_t k = 0; k < nibbles.size(); ++k)
        expect[k / 2] |= (uint8_t)(nibbles[k] << ((k & 1) ? 4 : 0));
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(std::memcmp(got.data(), expect.data(), got.size()), 0);
}

// ------------------------------- word-level vs bit-at-a-time wall

/** The bit-at-a-time writer the word-level BitWriter must match. */
struct RefWriter
{
    std::vector<uint8_t> bytes;
    size_t bits = 0;

    void
    writeBits(uint32_t value, int width)
    {
        if (width < 0 || width > 32)
            throw encode::BitstreamError("width");
        if (width < 32 && (value >> width) != 0)
            throw encode::BitstreamError("value");
        for (int k = 0; k < width; ++k, ++bits) {
            if ((bits & 7) == 0)
                bytes.push_back(0);
            bytes.back() |= (uint8_t)(((value >> k) & 1u) << (bits & 7));
        }
    }
};

/** The bit-at-a-time reader the word-level BitReader must match. */
struct RefReader
{
    const uint8_t *data;
    size_t sizeBits;
    size_t pos = 0;

    uint32_t
    readBits(int width)
    {
        if (width < 0 || width > 32 || (size_t)width > sizeBits - pos)
            throw encode::BitstreamError("read");
        uint32_t out = 0;
        for (int k = 0; k < width; ++k, ++pos)
            out |= (uint32_t)((data[pos >> 3] >> (pos & 7)) & 1u) << k;
        return out;
    }
};

TEST(BitstreamWall, WordLevelMatchesBitAtATimeAtEveryOffset)
{
    Rng rng(24);
    for (int start = 0; start < 8; ++start) {
        for (int round = 0; round < 40; ++round) {
            encode::BitWriter bw;
            RefWriter ref;
            std::vector<std::pair<uint32_t, int>> fields;
            // Lead-in bits put every field after it at `start` mod 8.
            const uint32_t lead = (uint32_t)rng.integer(0, 255) &
                                  ((1u << start) - 1u);
            bw.writeBits(lead, start);
            ref.writeBits(lead, start);
            fields.emplace_back(lead, start);
            for (int k = 0, n = (int)rng.integer(1, 60); k < n; ++k) {
                const int w = (int)rng.integer(0, 32);
                const uint32_t mask = w == 32 ? ~0u : (1u << w) - 1u;
                const uint32_t v =
                    ((uint32_t)rng.integer(0, 0xFFFF) << 16 |
                     (uint32_t)rng.integer(0, 0xFFFF)) & mask;
                bw.writeBits(v, w);
                ref.writeBits(v, w);
                fields.emplace_back(v, w);

                // A bad call throws on both, at the same call, and
                // leaves the stream where it was.
                const size_t before = bw.bitsWritten();
                if (w < 32) {
                    EXPECT_THROW(bw.writeBits(mask + 1u, w),
                                 encode::BitstreamError);
                    EXPECT_THROW(ref.writeBits(mask + 1u, w),
                                 encode::BitstreamError);
                }
                EXPECT_THROW(bw.writeBits(0, 33), encode::BitstreamError);
                EXPECT_THROW(bw.writeBits(0, -1), encode::BitstreamError);
                EXPECT_EQ(bw.bitsWritten(), before);
                ASSERT_EQ(bw.bitsWritten(), ref.bits);
            }
            bw.alignToByte();
            const std::vector<uint8_t> got = bw.take();
            ASSERT_EQ(got, ref.bytes) << "start " << start;

            encode::BitReader br(got.data(), got.size());
            RefReader rr{got.data(), got.size() * 8};
            for (const auto &[v, w] : fields) {
                ASSERT_EQ(br.readBits(w), v);
                ASSERT_EQ(rr.readBits(w), v);
            }
            ASSERT_EQ(br.bitsConsumed(), rr.pos);
            // Over-reads throw on both, at the same call, and consume
            // nothing; the reads that fit still return the same bits.
            for (int w = 0; w <= 32; ++w) {
                const size_t at = br.bitsConsumed();
                if ((size_t)w > br.bitsRemaining()) {
                    EXPECT_THROW(br.readBits(w), encode::BitstreamError);
                    EXPECT_THROW(rr.readBits(w), encode::BitstreamError);
                    EXPECT_EQ(br.bitsConsumed(), at);
                } else {
                    EXPECT_EQ(br.readBits(w), rr.readBits(w));
                }
                EXPECT_EQ(br.bitsConsumed(), rr.pos);
            }
            EXPECT_THROW(br.readBits(-1), encode::BitstreamError);
            EXPECT_THROW(br.readBits(33), encode::BitstreamError);
        }
    }
}

TEST(BitstreamWall, WriterContinuesAfterAPrefix)
{
    // Appending to a buffer equals writing the prefix bytes first.
    const std::vector<uint8_t> prefix = {0xA5, 0x00, 0x7F};
    encode::BitWriter cont(prefix);
    encode::BitWriter fresh;
    for (uint8_t b : prefix)
        fresh.writeBits(b, 8);
    EXPECT_EQ(cont.bitsWritten(), 24u);
    for (uint32_t v : {5u, 0u, 1u, 77u}) {
        cont.writeBits(v, 7);
        fresh.writeBits(v, 7);
    }
    cont.alignToByte();
    fresh.alignToByte();
    EXPECT_EQ(cont.take(), fresh.take());
}

// ------------------------------------------- v4 vs v3 differential

/** A random SmartExchange-form matrix built directly (no ALS). */
core::SeMatrix
randomSeMatrix(Rng &rng)
{
    core::SeMatrix m;
    const int64_t rows = rng.integer(1, 40);
    const int64_t rank = rng.integer(1, 6);
    const int64_t cols = rng.integer(1, 6);
    m.alphabet.expMax = (int)rng.integer(-8, 8);
    m.alphabet.numLevels = (int)rng.integer(1, 7);
    m.iterations = (int)rng.integer(0, 30);
    m.reconRelError = rng.uniform(0.0f, 0.5f);
    m.ce = Tensor({rows, rank});
    for (int64_t i = 0; i < m.ce.size(); ++i) {
        if (rng.chance(0.4))
            continue;
        const int exp = (int)rng.integer(m.alphabet.expMin(),
                                         m.alphabet.expMax);
        const float mag = std::ldexp(1.0f, exp);
        m.ce[i] = rng.chance(0.5) ? mag : -mag;
    }
    m.basis = randn({rank, cols}, rng, 0.0f, 1.0f);
    return m;
}

void
expectRecordsBitIdentical(
    const std::vector<core::SeLayerRecord> &a,
    const std::vector<core::SeLayerRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t r = 0; r < a.size(); ++r) {
        EXPECT_EQ(a[r].name, b[r].name);
        ASSERT_EQ(a[r].pieces.size(), b[r].pieces.size());
        for (size_t k = 0; k < a[r].pieces.size(); ++k) {
            const core::SeMatrix &x = a[r].pieces[k];
            const core::SeMatrix &y = b[r].pieces[k];
            ASSERT_EQ(x.ce.shape(), y.ce.shape());
            ASSERT_EQ(x.basis.shape(), y.basis.shape());
            EXPECT_EQ(std::memcmp(x.ce.data(), y.ce.data(),
                                  (size_t)x.ce.size() * sizeof(float)),
                      0);
            EXPECT_EQ(
                std::memcmp(y.basis.data(), x.basis.data(),
                            (size_t)x.basis.size() * sizeof(float)),
                0);
            EXPECT_EQ(x.alphabet.expMax, y.alphabet.expMax);
            EXPECT_EQ(x.alphabet.numLevels, y.alphabet.numLevels);
        }
    }
}

TEST(BitstreamDifferential, V4DecodeBitIdenticalToV3)
{
    // Same records (bases quantized once, shared by both saves),
    // shipped as v3 and as v4: the two loaders must hand back the
    // same bits, coefficient for coefficient, basis for basis.
    Rng rng(3);
    for (int round = 0; round < 10; ++round) {
        std::vector<core::SeLayerRecord> records;
        records.push_back({"a", {randomSeMatrix(rng)}});
        records.push_back(
            {"b", {randomSeMatrix(rng), randomSeMatrix(rng)}});
        core::quantizeBasisAtCompress(records);

        std::stringstream v3, v4;
        core::saveModelV3(v3, records);
        core::saveModelV4(v4, records);
        const core::ModelBundle b3 = core::loadModelBundle(v3);
        const core::ModelBundle b4 = core::loadModelBundle(v4);
        expectRecordsBitIdentical(b3.records, b4.records);
        expectRecordsBitIdentical(records, b4.records);

        // And the reconstructions (what serving actually computes)
        // are bitwise equal as a consequence.
        for (size_t r = 0; r < b3.records.size(); ++r)
            for (size_t k = 0; k < b3.records[r].pieces.size(); ++k) {
                const Tensor w3 =
                    b3.records[r].pieces[k].reconstruct();
                const Tensor w4 =
                    b4.records[r].pieces[k].reconstruct();
                EXPECT_EQ(std::memcmp(w3.data(), w4.data(),
                                      (size_t)w3.size() *
                                          sizeof(float)),
                          0);
            }
    }
}

TEST(BitstreamDifferential, V4DenseResidualMatchesV3)
{
    Rng rng(4);
    std::vector<core::SeLayerRecord> records;
    records.push_back({"conv", {randomSeMatrix(rng)}});
    core::quantizeBasisAtCompress(records);
    const std::vector<core::DenseTensor> dense{
        {"0:bn:gamma", randn({8}, rng)},
        {"1:conv:bias", randn({4}, rng)}};

    std::stringstream v3, v4;
    core::saveModelV3(v3, records, dense);
    core::saveModelV4(v4, records, dense);
    const core::ModelBundle b3 = core::loadModelBundle(v3);
    const core::ModelBundle b4 = core::loadModelBundle(v4);
    ASSERT_EQ(b3.dense.size(), b4.dense.size());
    for (size_t i = 0; i < b3.dense.size(); ++i) {
        EXPECT_EQ(b3.dense[i].name, b4.dense[i].name);
        ASSERT_EQ(b3.dense[i].value.shape(), b4.dense[i].value.shape());
        EXPECT_EQ(std::memcmp(b3.dense[i].value.data(),
                              b4.dense[i].value.data(),
                              (size_t)b3.dense[i].value.size() *
                                  sizeof(float)),
                  0);
    }
}

} // namespace
} // namespace se
