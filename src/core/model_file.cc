#include "core/model_file.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "base/failpoint.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "encode/bitstream.hh"
#include "nn/layers.hh"

namespace se {
namespace core {

namespace {

constexpr uint32_t kMagic = 0x5345584Du;  // "SEXM"
constexpr uint32_t kVersion = 2;
constexpr uint32_t kVersionV3 = 3;
constexpr uint32_t kVersionV4 = 4;
/** Widest alphabet a 4-bit nibble (1 sign + 3 code bits) can carry. */
constexpr int kMaxPackedLevels = 7;
/** Hard ceiling on any stored dimension / count (anti-corruption). */
constexpr int64_t kMaxDim = 1 << 24;
constexpr int64_t kMaxElems = 1 << 26;
constexpr uint64_t kMaxBodyBytes = 1ull << 31;

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is.good())
        throw ModelFileError(
            "unexpected end of SmartExchange model stream");
    return v;
}

void
writeString(std::ostream &os, const std::string &s)
{
    writePod<uint32_t>(os, (uint32_t)s.size());
    os.write(s.data(), (std::streamsize)s.size());
}

std::string
readString(std::istream &is)
{
    const uint32_t len = readPod<uint32_t>(is);
    if (len >= (1u << 20))
        throw ModelFileError("implausible string length in model file");
    std::string s((size_t)len, '\0');
    is.read(s.data(), len);
    if ((uint32_t)is.gcount() != len)
        throw ModelFileError("truncated string in model file");
    return s;
}

/** Encode a power-of-2 coefficient as one byte. */
uint8_t
encodeCoef(float v, const quant::Pow2Alphabet &a)
{
    if (v == 0.0f)
        return 0;
    int exp;
    const float frac = std::frexp(std::abs(v), &exp);
    SE_ASSERT(frac == 0.5f, "non-power-of-2 coefficient in file save");
    const int code = (exp - 1) - a.expMin() + 1;  // 1..numLevels
    SE_ASSERT(code >= 1 && code <= a.numLevels,
              "coefficient exponent outside alphabet");
    return (uint8_t)((v < 0 ? 0x80 : 0x00) | code);
}

float
decodeCoef(uint8_t byte, const quant::Pow2Alphabet &a)
{
    if (byte == 0)
        return 0.0f;
    const bool neg = (byte & 0x80) != 0;
    const int code = byte & 0x7F;
    // code 0 with the sign bit set (byte 0x80) is not a legal
    // encoding either — it would decode below the alphabet.
    if (code < 1 || code > a.numLevels)
        throw ModelFileError(
            "coefficient code outside the stored alphabet");
    return quant::pow2CodeValue(a.expMin(), code, neg);
}

void
checkDim(int64_t d, const char *what)
{
    if (d < 0 || d > kMaxDim)
        throw ModelFileError(std::string("implausible ") + what +
                             " in model file");
}

/** Convert a v2 coefficient byte to a v3 nibble (codes are codes). */
uint8_t
byteToNibble(uint8_t byte)
{
    if (byte == 0)
        return 0;
    const uint8_t code = byte & 0x7F;
    SE_ASSERT(code >= 1 && code <= kMaxPackedLevels,
              "coefficient code too wide for 4-bit packing");
    return (uint8_t)(((byte & 0x80) ? 0x8 : 0x0) | code);
}

float
decodeNibble(uint8_t nib, const quant::Pow2Alphabet &a)
{
    if (nib == 0)
        return 0.0f;
    const int code = nib & 0x7;
    // Nibble 0x8 (sign bit with exponent code 0) is the packed
    // sibling of the v2 byte 0x80 — not a legal encoding.
    if (code < 1 || code > a.numLevels)
        throw ModelFileError(
            "packed coefficient nibble outside the stored alphabet");
    return quant::pow2CodeValue(a.expMin(), code, (nib & 0x8) != 0);
}

} // namespace

PackedCe
packCe(const Tensor &ce, const quant::Pow2Alphabet &alphabet)
{
    SE_ASSERT(ce.ndim() == 2, "packCe expects a 2-D Ce matrix");
    if (alphabet.numLevels < 1 ||
        alphabet.numLevels > kMaxPackedLevels)
        throw ModelFileError(
            "alphabet has " + std::to_string(alphabet.numLevels) +
            " levels; 4-bit packing carries at most " +
            std::to_string(kMaxPackedLevels) +
            " (save this model as v2)");
    PackedCe p;
    p.rows = ce.dim(0);
    p.cols = ce.dim(1);
    p.alphabet = alphabet;
    p.rowMask.assign((size_t)((p.rows + 7) / 8), 0);

    std::vector<uint8_t> codes;  // nibbles of non-zero rows, in order
    codes.reserve((size_t)ce.size());
    for (int64_t i = 0; i < p.rows; ++i) {
        bool nz = false;
        for (int64_t j = 0; j < p.cols && !nz; ++j)
            nz = ce.at(i, j) != 0.0f;
        if (!nz)
            continue;
        p.rowMask[(size_t)(i >> 3)] |= (uint8_t)(1u << (i & 7));
        ++p.nonZeroRows;
        for (int64_t j = 0; j < p.cols; ++j)
            codes.push_back(
                byteToNibble(encodeCoef(ce.at(i, j), alphabet)));
    }
    p.nibbles.assign((codes.size() + 1) / 2, 0);
    for (size_t k = 0; k < codes.size(); ++k)
        p.nibbles[k / 2] |=
            (uint8_t)(codes[k] << ((k & 1) ? 4 : 0));
    return p;
}

Tensor
unpackCe(const PackedCe &p)
{
    Tensor ce({p.rows, p.cols});
    int64_t nz_seen = 0;
    for (int64_t i = 0; i < p.rows; ++i) {
        if (!(p.rowMask[(size_t)(i >> 3)] & (1u << (i & 7))))
            continue;
        for (int64_t j = 0; j < p.cols; ++j) {
            const int64_t k = nz_seen * p.cols + j;
            uint8_t nib = p.nibbles[(size_t)(k >> 1)];
            nib = (k & 1) ? (uint8_t)(nib >> 4) : (uint8_t)(nib & 0xF);
            ce.at(i, j) = decodeNibble(nib, p.alphabet);
        }
        ++nz_seen;
    }
    return ce;
}

namespace {

/**
 * v3 piece: a 27-byte metadata header (a third of the v2-style one —
 * with a piece per conv filter, header bytes are a visible share of
 * the bundle), then row mask + packed nibbles + float basis. Rank
 * and basis width are u16: the reshape rules only ever produce
 * kernel- or group-sized widths, and a wider matrix belongs in v2.
 */
void
saveSeMatrixV3(std::ostream &os, const SeMatrix &m)
{
    const PackedCe p = packCe(m.ce, m.alphabet);
    if (m.ce.dim(1) > 0xFFFF || m.basis.dim(1) > 0xFFFF ||
        m.alphabet.expMax < -32768 || m.alphabet.expMax > 32767)
        throw ModelFileError(
            "matrix too wide for the v3 piece header (save as v2)");
    writePod<uint32_t>(os, (uint32_t)m.ce.dim(0));
    writePod<uint16_t>(os, (uint16_t)m.ce.dim(1));
    writePod<uint16_t>(os, (uint16_t)m.basis.dim(1));
    writePod<int16_t>(os, (int16_t)m.alphabet.expMax);
    writePod<uint8_t>(os, (uint8_t)m.alphabet.numLevels);
    writePod<int32_t>(os, m.iterations);
    writePod<double>(os, m.reconRelError);
    writePod<uint32_t>(os, (uint32_t)p.nonZeroRows);
    os.write(reinterpret_cast<const char *>(p.rowMask.data()),
             (std::streamsize)p.rowMask.size());
    os.write(reinterpret_cast<const char *>(p.nibbles.data()),
             (std::streamsize)p.nibbles.size());
    for (int64_t i = 0; i < m.basis.size(); ++i)
        writePod<float>(os, m.basis[i]);
}

SeMatrix
loadSeMatrixV3(std::istream &is)
{
    SeMatrix m;
    const int64_t rows = (int64_t)readPod<uint32_t>(is);
    const int64_t rank = (int64_t)readPod<uint16_t>(is);
    const int64_t cols = (int64_t)readPod<uint16_t>(is);
    checkDim(rows, "row count");
    checkDim(rank, "rank");
    checkDim(cols, "column count");
    if (rows * rank > kMaxElems || rank * cols > kMaxElems)
        throw ModelFileError("implausible matrix size in model file");
    m.alphabet.expMax = readPod<int16_t>(is);
    m.alphabet.numLevels = readPod<uint8_t>(is);
    if (m.alphabet.numLevels < 1 ||
        m.alphabet.numLevels > kMaxPackedLevels ||
        m.alphabet.expMax < -1000 || m.alphabet.expMax > 1000)
        throw ModelFileError("implausible alphabet in model file");
    m.iterations = readPod<int32_t>(is);
    if (m.iterations < 0 || m.iterations > (1 << 20))
        throw ModelFileError("implausible iteration count");
    m.reconRelError = readPod<double>(is);
    if (!std::isfinite(m.reconRelError))
        throw ModelFileError("non-finite metadata in model file");

    PackedCe p;
    p.rows = rows;
    p.cols = rank;
    p.alphabet = m.alphabet;
    p.nonZeroRows = (int64_t)readPod<uint32_t>(is);
    if (p.nonZeroRows < 0 || p.nonZeroRows > rows)
        throw ModelFileError(
            "implausible non-zero row count in model file");
    p.rowMask.resize((size_t)((rows + 7) / 8));
    is.read(reinterpret_cast<char *>(p.rowMask.data()),
            (std::streamsize)p.rowMask.size());
    if ((size_t)is.gcount() != p.rowMask.size())
        throw ModelFileError("truncated row mask in model file");
    p.nibbles.resize((size_t)((p.nonZeroRows * rank + 1) / 2));
    is.read(reinterpret_cast<char *>(p.nibbles.data()),
            (std::streamsize)p.nibbles.size());
    if ((size_t)is.gcount() != p.nibbles.size())
        throw ModelFileError("truncated coefficients in model file");

    // Structural validation: the mask must agree with the stored
    // non-zero count (tail bits clear), and a padded odd code count
    // must end in a zero nibble — otherwise two different byte
    // streams could decode to the same matrix.
    int64_t mask_bits = 0;
    for (int64_t i = 0; i < rows; ++i)
        mask_bits +=
            (p.rowMask[(size_t)(i >> 3)] >> (i & 7)) & 1;
    if (mask_bits != p.nonZeroRows)
        throw ModelFileError(
            "row mask does not match non-zero row count");
    if (rows & 7) {
        const uint8_t tail = p.rowMask.empty() ? 0 : p.rowMask.back();
        if (tail >> (rows & 7))
            throw ModelFileError("row mask has bits past the last row");
    }
    if ((p.nonZeroRows * rank) & 1) {
        if (!p.nibbles.empty() && (p.nibbles.back() >> 4))
            throw ModelFileError(
                "non-zero padding nibble in model file");
    }

    m.ce = unpackCe(p);  // throws on 0x8-style invalid nibbles
    // A row the mask flags non-zero must actually carry a non-zero
    // code, or save/load would not round-trip.
    for (int64_t i = 0; i < rows; ++i) {
        if (!(p.rowMask[(size_t)(i >> 3)] & (1u << (i & 7))))
            continue;
        bool nz = false;
        for (int64_t j = 0; j < rank && !nz; ++j)
            nz = m.ce.at(i, j) != 0.0f;
        if (!nz)
            throw ModelFileError(
                "all-zero row flagged non-zero in model file");
    }
    m.basis = Tensor({rank, cols});
    for (int64_t i = 0; i < m.basis.size(); ++i)
        m.basis[i] = readPod<float>(is);
    return m;
}

void
saveDenseTensor(std::ostream &os, const DenseTensor &d)
{
    writeString(os, d.name);
    writePod<uint32_t>(os, (uint32_t)d.value.ndim());
    for (int i = 0; i < d.value.ndim(); ++i)
        writePod<int64_t>(os, d.value.dim(i));
    for (int64_t i = 0; i < d.value.size(); ++i)
        writePod<float>(os, d.value[i]);
}

DenseTensor
loadDenseTensor(std::istream &is)
{
    DenseTensor d;
    d.name = readString(is);
    const uint32_t ndim = readPod<uint32_t>(is);
    if (ndim > 8)
        throw ModelFileError("implausible dense tensor rank");
    Shape shape;
    int64_t elems = 1;
    for (uint32_t i = 0; i < ndim; ++i) {
        const int64_t dim = readPod<int64_t>(is);
        checkDim(dim, "dense tensor dimension");
        shape.push_back(dim);
        elems *= dim;
        if (elems > kMaxElems)
            throw ModelFileError(
                "implausible dense tensor size in model file");
    }
    d.value = Tensor(shape);
    for (int64_t i = 0; i < d.value.size(); ++i)
        d.value[i] = readPod<float>(is);
    return d;
}

/**
 * Bounds-checked cursor over an in-memory byte span — the buffer
 * sibling of the readPod/readString istream helpers, shared by the
 * v4 meta parser and piece decoder so the eager loadModelBundle path
 * and the mmap-backed StreamedModel run the exact same code.
 */
class BufReader
{
  public:
    BufReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    template <typename T>
    T
    pod()
    {
        if (size_ - at_ < sizeof(T))
            throw ModelFileError(
                "unexpected end of SmartExchange model stream");
        T v{};
        std::memcpy(&v, data_ + at_, sizeof(T));
        at_ += sizeof(T);
        return v;
    }

    std::string
    str()
    {
        const uint32_t len = pod<uint32_t>();
        if (len >= (1u << 20))
            throw ModelFileError(
                "implausible string length in model file");
        if (size_ - at_ < len)
            throw ModelFileError("truncated string in model file");
        std::string s(reinterpret_cast<const char *>(data_ + at_),
                      (size_t)len);
        at_ += len;
        return s;
    }

    const uint8_t *cursor() const { return data_ + at_; }
    size_t remaining() const { return size_ - at_; }

    void
    skip(size_t n)
    {
        if (remaining() < n)
            throw ModelFileError(
                "unexpected end of SmartExchange model stream");
        at_ += n;
    }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t at_ = 0;
};

DenseTensor
loadDenseTensorBuf(BufReader &r)
{
    DenseTensor d;
    d.name = r.str();
    const uint32_t ndim = r.pod<uint32_t>();
    if (ndim > 8)
        throw ModelFileError("implausible dense tensor rank");
    Shape shape;
    int64_t elems = 1;
    for (uint32_t i = 0; i < ndim; ++i) {
        const int64_t dim = r.pod<int64_t>();
        checkDim(dim, "dense tensor dimension");
        shape.push_back(dim);
        elems *= dim;
        if (elems > kMaxElems)
            throw ModelFileError(
                "implausible dense tensor size in model file");
    }
    d.value = Tensor(shape);
    for (int64_t i = 0; i < d.value.size(); ++i)
        d.value[i] = r.pod<float>();
    return d;
}

} // namespace

void
saveSeMatrix(std::ostream &os, const SeMatrix &m)
{
    writePod<int64_t>(os, m.ce.dim(0));
    writePod<int64_t>(os, m.ce.dim(1));
    writePod<int64_t>(os, m.basis.dim(1));
    writePod<int32_t>(os, m.alphabet.expMax);
    writePod<int32_t>(os, m.alphabet.numLevels);
    writePod<int32_t>(os, m.iterations);
    writePod<double>(os, m.reconRelError);
    for (int64_t i = 0; i < m.ce.size(); ++i)
        writePod<uint8_t>(os, encodeCoef(m.ce[i], m.alphabet));
    for (int64_t i = 0; i < m.basis.size(); ++i)
        writePod<float>(os, m.basis[i]);
}

SeMatrix
loadSeMatrix(std::istream &is)
{
    SeMatrix m;
    const int64_t rows = readPod<int64_t>(is);
    const int64_t rank = readPod<int64_t>(is);
    const int64_t cols = readPod<int64_t>(is);
    checkDim(rows, "row count");
    checkDim(rank, "rank");
    checkDim(cols, "column count");
    if (rows * rank > kMaxElems || rank * cols > kMaxElems)
        throw ModelFileError("implausible matrix size in model file");
    m.alphabet.expMax = readPod<int32_t>(is);
    m.alphabet.numLevels = readPod<int32_t>(is);
    if (m.alphabet.numLevels < 1 || m.alphabet.numLevels > 126 ||
        m.alphabet.expMax < -1000 || m.alphabet.expMax > 1000)
        throw ModelFileError("implausible alphabet in model file");
    m.iterations = readPod<int32_t>(is);
    if (m.iterations < 0 || m.iterations > (1 << 20))
        throw ModelFileError("implausible iteration count");
    m.reconRelError = readPod<double>(is);
    if (!std::isfinite(m.reconRelError))
        throw ModelFileError("non-finite metadata in model file");
    m.ce = Tensor({rows, rank});
    for (int64_t i = 0; i < m.ce.size(); ++i)
        m.ce[i] = decodeCoef(readPod<uint8_t>(is), m.alphabet);
    m.basis = Tensor({rank, cols});
    for (int64_t i = 0; i < m.basis.size(); ++i)
        m.basis[i] = readPod<float>(is);
    return m;
}

namespace {

/**
 * Bundle checksum. v2 hashes the body alone (the format predates
 * multiple versions and stays byte-compatible); v3 seeds the hash
 * with the version word so a bit flip that turns one valid version
 * into another can never hand a body to the wrong parser with a
 * still-matching checksum.
 */
uint64_t
bodyChecksum(uint32_t version, const std::string &body)
{
    const uint64_t seed = version == kVersion
                              ? kFnvOffsetBasis
                              : hashValue(version);
    return fnv1a(body.data(), body.size(), seed);
}

/**
 * Frame a serialized body with the shared header (magic, version,
 * size, FNV-1a checksum); load verifies all four before parsing a
 * byte of the body.
 */
void
writeFramedBody(std::ostream &os, uint32_t version,
                const std::string &body)
{
    writePod<uint32_t>(os, kMagic);
    writePod<uint32_t>(os, version);
    writePod<uint64_t>(os, (uint64_t)body.size());
    writePod<uint64_t>(os, bodyChecksum(version, body));
    os.write(body.data(), (std::streamsize)body.size());
}

/**
 * Verify the rest of a v2/v3 frame (magic and version words already
 * consumed by loadModelBundle's dispatch) and return the body.
 */
std::string
readFramedBodyRest(std::istream &is, uint32_t version)
{
    const uint64_t body_size = readPod<uint64_t>(is);
    const uint64_t checksum = readPod<uint64_t>(is);
    if (body_size > kMaxBodyBytes)
        throw ModelFileError("implausible model file size");
    // On seekable streams, reject a corrupted size field before
    // allocating body_size bytes for it.
    const std::streampos at = is.tellg();
    if (at != std::streampos(-1)) {
        is.seekg(0, std::ios::end);
        const std::streampos end = is.tellg();
        is.seekg(at);
        if (end != std::streampos(-1) &&
            (uint64_t)(end - at) < body_size)
            throw ModelFileError("truncated model file");
    }
    std::string body((size_t)body_size, '\0');
    is.read(body.data(), (std::streamsize)body_size);
    if ((uint64_t)is.gcount() != body_size)
        throw ModelFileError("truncated model file");
    if (bodyChecksum(version, body) != checksum)
        throw ModelFileError("model file checksum mismatch "
                             "(corrupted stream)");
    return body;
}

std::vector<SeLayerRecord>
loadRecords(std::istream &body_is, uint32_t version)
{
    const uint32_t n = readPod<uint32_t>(body_is);
    if (n > (1u << 20))
        throw ModelFileError("implausible layer count in model file");
    std::vector<SeLayerRecord> layers((size_t)n);
    for (auto &l : layers) {
        l.name = readString(body_is);
        const uint32_t pieces = readPod<uint32_t>(body_is);
        if (pieces > (1u << 24))
            throw ModelFileError("implausible piece count");
        l.pieces.reserve(pieces);
        for (uint32_t i = 0; i < pieces; ++i) {
            // A bundle can hold thousands of pieces; name the one
            // that failed or a corruption report is undebuggable.
            try {
                l.pieces.push_back(version == kVersionV3
                                       ? loadSeMatrixV3(body_is)
                                       : loadSeMatrix(body_is));
            } catch (const ModelFileError &e) {
                throw ModelFileError(
                    "record '" + l.name + "' piece " +
                    std::to_string(i) + ": " + e.what());
            }
        }
    }
    return layers;
}

} // namespace

// ------------------------------------------------- v4 streaming codec

namespace {

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) & ~(a - 1);
}

/** Every v4 checksum (meta and per piece) is seeded with the version
 *  word, like the v3 body checksum — a flip that changes the version
 *  can never keep a matching digest. */
uint64_t
v4Seed()
{
    return hashValue(kVersionV4);
}

/** Bits needed for the value: 0 for 0, else position of the top set
 *  bit plus one. The adaptive column width is this, over the column's
 *  surviving codes. */
int
codeBitWidth(uint32_t v)
{
    int w = 0;
    while (v) {
        ++w;
        v >>= 1;
    }
    return w;
}

/** v4 piece header: the v3 header plus the basis scale, minus the
 *  non-zero-row count (derived from the row mask at decode). */
constexpr size_t kV4PieceHeaderBytes = 27;

/**
 * Serialize one piece at v4 width: 27-byte header, row mask (v3
 * rules), a 2-bit-packed width table, the adaptive sign+magnitude
 * bitstream (byte-aligned flush), then the basis as int8. Throws
 * unless the basis sits exactly on its own 8-bit fixed-point grid —
 * shipping a rounded basis would serve different bits than the
 * compression-time net.
 */
std::vector<uint8_t>
encodePieceV4(const SeMatrix &m)
{
    const int64_t rows = m.ce.dim(0);
    const int64_t rank = m.ce.dim(1);
    const int64_t cols = m.basis.dim(1);
    if (rank > 0xFFFF || cols > 0xFFFF ||
        m.alphabet.expMax < -32768 || m.alphabet.expMax > 32767)
        throw ModelFileError(
            "matrix too wide for the v4 piece header (save as v2)");
    if (m.alphabet.numLevels < 1 ||
        m.alphabet.numLevels > kMaxPackedLevels)
        throw ModelFileError(
            "alphabet has " + std::to_string(m.alphabet.numLevels) +
            " levels; adaptive packing carries at most " +
            std::to_string(kMaxPackedLevels) +
            " (save this model as v2)");

    // Surviving rows and their sign|code bytes, v2 byte encoding.
    std::vector<uint8_t> row_mask((size_t)((rows + 7) / 8), 0);
    std::vector<uint8_t> codes;
    codes.reserve((size_t)m.ce.size());
    for (int64_t i = 0; i < rows; ++i) {
        bool nz = false;
        for (int64_t j = 0; j < rank && !nz; ++j)
            nz = m.ce.at(i, j) != 0.0f;
        if (!nz)
            continue;
        row_mask[(size_t)(i >> 3)] |= (uint8_t)(1u << (i & 7));
        for (int64_t j = 0; j < rank; ++j)
            codes.push_back(encodeCoef(m.ce.at(i, j), m.alphabet));
    }

    // Per-column width: exactly the bits the column's occupied
    // alphabet needs (0 when the column is all zero over the
    // surviving rows — such a column spends no bits at all).
    std::vector<uint8_t> widths((size_t)rank, 0);
    for (size_t k = 0; k < codes.size(); ++k) {
        const size_t j = k % (size_t)rank;
        widths[j] = (uint8_t)std::max<int>(
            widths[j], codeBitWidth(codes[k] & 0x7Fu));
    }

    // Basis at 8-bit fixed point, exact-recovery check per value.
    const auto fq = quant::FixedPointQuantizer::calibrate(m.basis, 8);
    std::vector<int8_t> q((size_t)(rank * cols));
    for (int64_t i = 0; i < m.basis.size(); ++i) {
        const float orig = m.basis[i];
        const int32_t v = fq.toInt(orig);
        const float back = fq.toFloat(v);
        if (std::memcmp(&back, &orig, sizeof(float)) != 0)
            throw ModelFileError(
                "basis is not at an 8-bit fixed point; run "
                "quantizeBasisAtCompress() before saveModelV4, or "
                "ship this model as v3");
        q[(size_t)i] = (int8_t)v;
    }

    std::ostringstream os(std::ios::binary);
    writePod<uint32_t>(os, (uint32_t)rows);
    writePod<uint16_t>(os, (uint16_t)rank);
    writePod<uint16_t>(os, (uint16_t)cols);
    writePod<int16_t>(os, (int16_t)m.alphabet.expMax);
    writePod<uint8_t>(os, (uint8_t)m.alphabet.numLevels);
    writePod<int32_t>(os, m.iterations);
    writePod<double>(os, m.reconRelError);
    writePod<float>(os, fq.scale);
    os.write(reinterpret_cast<const char *>(row_mask.data()),
             (std::streamsize)row_mask.size());
    // The width table itself is bit-packed: widths are 0..3, so two
    // bits per column, byte-aligned zero-padded flush.
    encode::BitWriter wbw;
    for (const uint8_t w : widths)
        wbw.writeBits(w, 2);
    wbw.alignToByte();
    const std::vector<uint8_t> &wbytes = wbw.bytes();
    os.write(reinterpret_cast<const char *>(wbytes.data()),
             (std::streamsize)wbytes.size());

    encode::BitWriter bw;
    for (size_t k = 0; k < codes.size(); ++k) {
        const uint32_t code = codes[k] & 0x7Fu;
        const int w = widths[k % (size_t)rank];
        if (w == 0)
            continue;
        bw.writeBits(code, w);
        if (code != 0)
            bw.writeBit((codes[k] & 0x80u) != 0);
    }
    bw.alignToByte();
    const std::vector<uint8_t> &bits = bw.bytes();
    os.write(reinterpret_cast<const char *>(bits.data()),
             (std::streamsize)bits.size());
    os.write(reinterpret_cast<const char *>(q.data()),
             (std::streamsize)q.size());

    const std::string s = os.str();
    return std::vector<uint8_t>(s.begin(), s.end());
}

/**
 * Exact inverse of encodePieceV4 over one checksum-verified payload.
 * Enforces the canonical-encoding rules (mask tail clear, minimal
 * column widths, zero pad bits, no spare bytes, flagged rows
 * non-zero, positive finite scale, scale 1.0 for an all-zero basis)
 * so two different payloads never decode identically.
 */
SeMatrix
decodePieceV4Payload(const uint8_t *p, size_t len)
{
    BufReader r(p, len);
    SeMatrix m;
    const int64_t rows = (int64_t)r.pod<uint32_t>();
    const int64_t rank = (int64_t)r.pod<uint16_t>();
    const int64_t cols = (int64_t)r.pod<uint16_t>();
    checkDim(rows, "row count");
    checkDim(rank, "rank");
    checkDim(cols, "column count");
    if (rows * rank > kMaxElems || rank * cols > kMaxElems)
        throw ModelFileError("implausible matrix size in model file");
    m.alphabet.expMax = r.pod<int16_t>();
    m.alphabet.numLevels = r.pod<uint8_t>();
    if (m.alphabet.numLevels < 1 ||
        m.alphabet.numLevels > kMaxPackedLevels ||
        m.alphabet.expMax < -1000 || m.alphabet.expMax > 1000)
        throw ModelFileError("implausible alphabet in model file");
    m.iterations = r.pod<int32_t>();
    if (m.iterations < 0 || m.iterations > (1 << 20))
        throw ModelFileError("implausible iteration count");
    m.reconRelError = r.pod<double>();
    if (!std::isfinite(m.reconRelError))
        throw ModelFileError("non-finite metadata in model file");
    const float scale = r.pod<float>();
    if (!std::isfinite(scale) || scale <= 0.0f)
        throw ModelFileError("implausible basis scale in model file");

    const size_t mask_bytes = (size_t)((rows + 7) / 8);
    const size_t width_bytes = (size_t)((rank + 3) / 4);
    if (r.remaining() < mask_bytes + width_bytes)
        throw ModelFileError("truncated piece payload in model file");
    const uint8_t *mask = r.cursor();
    r.skip(mask_bytes);
    encode::BitReader wbr(r.cursor(), width_bytes);
    r.skip(width_bytes);

    if ((rows & 7) && mask_bytes &&
        (mask[mask_bytes - 1] >> (rows & 7)))
        throw ModelFileError("row mask has bits past the last row");
    // Two bits per column can only spell 0..3, so the 3-bit-alphabet
    // bound holds by construction; only the pad bits need checking.
    std::vector<uint8_t> widths((size_t)rank, 0);
    for (int64_t j = 0; j < rank; ++j)
        widths[(size_t)j] = (uint8_t)wbr.readBits(2);
    if (wbr.alignToByte() != 0)
        throw ModelFileError(
            "non-zero padding bits in the column width table");

    // Everything between here and the int8 basis is the bitstream;
    // its byte length is implied by the payload length, and the
    // decode below must consume it exactly.
    const size_t basis_bytes = (size_t)(rank * cols);
    if (r.remaining() < basis_bytes)
        throw ModelFileError("truncated piece payload in model file");
    const size_t bs_bytes = r.remaining() - basis_bytes;
    encode::BitReader br(r.cursor(), bs_bytes);
    r.skip(bs_bytes);

    m.ce = Tensor({rows, rank});
    std::vector<uint8_t> col_max((size_t)rank, 0);
    for (int64_t i = 0; i < rows; ++i) {
        if (!(mask[(size_t)(i >> 3)] & (1u << (i & 7))))
            continue;
        bool row_nz = false;
        for (int64_t j = 0; j < rank; ++j) {
            const int w = widths[(size_t)j];
            if (w == 0)
                continue;
            const uint32_t code = br.readBits(w);
            if ((int)code > m.alphabet.numLevels)
                throw ModelFileError(
                    "coefficient code outside the stored alphabet");
            if (code == 0)
                continue;
            const bool neg = br.readBit();
            m.ce.at(i, j) = quant::pow2CodeValue(
                m.alphabet.expMin(), (int)code, neg);
            col_max[(size_t)j] =
                (uint8_t)std::max<uint32_t>(col_max[(size_t)j], code);
            row_nz = true;
        }
        if (!row_nz)
            throw ModelFileError(
                "all-zero row flagged non-zero in model file");
    }
    if (br.alignToByte() != 0)
        throw ModelFileError(
            "non-zero padding bits in piece bitstream");
    if (!br.atEnd())
        throw ModelFileError(
            "piece bitstream has trailing bytes");
    for (int64_t j = 0; j < rank; ++j)
        if (widths[(size_t)j] != 0 &&
            codeBitWidth(col_max[(size_t)j]) != widths[(size_t)j])
            throw ModelFileError(
                "column width is not minimal for its codes");

    m.basis = Tensor({rank, cols});
    const uint8_t *qb = r.cursor();
    r.skip(basis_bytes);
    bool any_q = false;
    for (int64_t i = 0; i < m.basis.size(); ++i) {
        const int8_t q = (int8_t)qb[(size_t)i];
        any_q = any_q || q != 0;
        m.basis[i] = (float)q * scale;  // == FixedPointQuantizer::toFloat
    }
    if (!any_q && basis_bytes > 0 && scale != 1.0f)
        throw ModelFileError(
            "non-canonical scale for an all-zero basis");
    if (r.remaining() != 0)
        throw ModelFileError("trailing bytes in piece payload");
    return m;
}

} // namespace

namespace modelv4 {

Meta
parseMeta(const uint8_t *file, size_t size)
{
    if (size < kHeaderBytes)
        throw ModelFileError("truncated model file");
    BufReader h(file, kHeaderBytes);
    if (h.pod<uint32_t>() != kMagic)
        throw ModelFileError("not a SmartExchange model file");
    const uint32_t version = h.pod<uint32_t>();
    if (version != kVersionV4)
        throw ModelFileError(
            "model file version " + std::to_string(version) +
            " is not a v4 streaming bundle");
    Meta meta;
    meta.metaBytes = h.pod<uint64_t>();
    meta.fileBytes = h.pod<uint64_t>();
    const uint64_t checksum = h.pod<uint64_t>();
    if (meta.fileBytes < kHeaderBytes ||
        meta.fileBytes > kMaxBodyBytes)
        throw ModelFileError("implausible model file size");
    if (meta.metaBytes > meta.fileBytes - kHeaderBytes)
        throw ModelFileError(
            "meta section overruns the model file");
    if ((uint64_t)size != meta.fileBytes)
        throw ModelFileError(
            "model file size does not match its header "
            "(truncated or trailing bytes)");
    if (fnv1a(file + kHeaderBytes, (size_t)meta.metaBytes, v4Seed()) !=
        checksum)
        throw ModelFileError(
            "model file meta checksum mismatch (corrupted stream)");

    BufReader r(file + kHeaderBytes, (size_t)meta.metaBytes);
    const uint32_t nrec = r.pod<uint32_t>();
    if (nrec > (1u << 20))
        throw ModelFileError("implausible layer count in model file");
    meta.recordNames.reserve(nrec);
    meta.pieceCounts.reserve(nrec);
    uint64_t sum = 0;
    for (uint32_t i = 0; i < nrec; ++i) {
        meta.recordNames.push_back(r.str());
        const uint32_t pieces = r.pod<uint32_t>();
        if (pieces > (1u << 24))
            throw ModelFileError("implausible piece count");
        meta.pieceCounts.push_back(pieces);
        sum += pieces;
    }
    const uint32_t ndense = r.pod<uint32_t>();
    if (ndense > (1u << 20))
        throw ModelFileError(
            "implausible dense tensor count in model file");
    meta.dense.reserve(ndense);
    for (uint32_t i = 0; i < ndense; ++i) {
        try {
            meta.dense.push_back(loadDenseTensorBuf(r));
        } catch (const ModelFileError &e) {
            throw ModelFileError("dense tensor " + std::to_string(i) +
                                 ": " + e.what());
        }
    }
    const uint32_t total = r.pod<uint32_t>();
    if (total > (1u << 24))
        throw ModelFileError("implausible piece count");
    if ((uint64_t)total != sum)
        throw ModelFileError(
            "piece directory count does not match the record table");
    meta.directory.reserve(total);
    // Offsets are derived, not stored: the piece region starts on the
    // first 64-byte boundary past the meta and payloads are packed
    // back-to-back in directory order. An 8-byte row (u32 length +
    // u32 truncated FNV-1a) is all the directory carries per piece —
    // the whole directory sits under the u64 meta checksum anyway.
    uint64_t expect = kHeaderBytes + meta.metaBytes;
    if (total > 0)
        expect = alignUp(expect, kPieceAlign);
    for (uint32_t i = 0; i < total; ++i) {
        PieceDirEntry e;
        e.length = r.pod<uint32_t>();
        e.checksum = r.pod<uint32_t>();
        e.offset = expect;
        if (e.length > meta.fileBytes ||
            e.offset > meta.fileBytes - e.length)
            throw ModelFileError(
                "piece " + std::to_string(i) + " at offset " +
                std::to_string(e.offset) +
                " overruns the model file");
        expect = e.offset + e.length;
        meta.directory.push_back(e);
    }
    if (r.remaining() != 0)
        throw ModelFileError("trailing bytes in model file meta");
    if (expect != meta.fileBytes)
        throw ModelFileError(
            "model file has " +
            std::to_string(meta.fileBytes - expect) +
            " byte(s) past the last piece");
    return meta;
}

SeMatrix
decodePiece(const uint8_t *file, const Meta &meta, size_t index)
{
    SE_ASSERT(index < meta.directory.size(),
              "piece index out of range");
    const PieceDirEntry &e = meta.directory[index];
    try {
        if ((uint32_t)fnv1a(file + e.offset, (size_t)e.length,
                            v4Seed()) != e.checksum)
            throw ModelFileError(
                "piece checksum mismatch (corrupted stream)");
        return decodePieceV4Payload(file + e.offset,
                                    (size_t)e.length);
    } catch (const std::exception &ex) {
        throw ModelFileError("piece " + std::to_string(index) +
                             " at offset " + std::to_string(e.offset) +
                             ": " + ex.what());
    }
}

} // namespace modelv4

void
saveModelV4(std::ostream &os, const std::vector<SeLayerRecord> &layers,
            const std::vector<DenseTensor> &dense)
{
    std::vector<std::vector<uint8_t>> payloads;
    std::ostringstream meta_os(std::ios::binary);
    writePod<uint32_t>(meta_os, (uint32_t)layers.size());
    for (const auto &l : layers) {
        writeString(meta_os, l.name);
        writePod<uint32_t>(meta_os, (uint32_t)l.pieces.size());
        for (const auto &p : l.pieces)
            payloads.push_back(encodePieceV4(p));
    }
    writePod<uint32_t>(meta_os, (uint32_t)dense.size());
    for (const auto &d : dense)
        saveDenseTensor(meta_os, d);
    writePod<uint32_t>(meta_os, (uint32_t)payloads.size());

    // The directory has a fixed 8-byte row, so metaBytes — and with
    // it every derived piece offset — is known before the rows are
    // written. Only the region start is aligned; payloads pack
    // back-to-back so tiny pieces carry no per-piece padding tax.
    const std::string meta_prefix = meta_os.str();
    const uint64_t meta_bytes =
        meta_prefix.size() + 8ull * payloads.size();
    std::vector<modelv4::PieceDirEntry> dir;
    dir.reserve(payloads.size());
    uint64_t end = modelv4::kHeaderBytes + meta_bytes;
    if (!payloads.empty())
        end = alignUp(end, modelv4::kPieceAlign);
    for (const auto &pl : payloads) {
        modelv4::PieceDirEntry e;
        if (pl.size() > UINT32_MAX)
            throw ModelFileError("piece too large for a v4 bundle");
        e.offset = end;
        e.length = pl.size();
        e.checksum = (uint32_t)fnv1a(pl.data(), pl.size(), v4Seed());
        end = e.offset + e.length;
        dir.push_back(e);
    }
    if (end > kMaxBodyBytes)
        throw ModelFileError("model too large for a v4 bundle");

    std::ostringstream dir_os(std::ios::binary);
    for (const auto &e : dir) {
        writePod<uint32_t>(dir_os, (uint32_t)e.length);
        writePod<uint32_t>(dir_os, (uint32_t)e.checksum);
    }
    const std::string meta = meta_prefix + dir_os.str();
    SE_ASSERT(meta.size() == meta_bytes, "v4 meta size mismatch");

    writePod<uint32_t>(os, kMagic);
    writePod<uint32_t>(os, kVersionV4);
    writePod<uint64_t>(os, meta_bytes);
    writePod<uint64_t>(os, end);
    writePod<uint64_t>(os, fnv1a(meta.data(), meta.size(), v4Seed()));
    os.write(meta.data(), (std::streamsize)meta.size());
    uint64_t at = modelv4::kHeaderBytes + meta_bytes;
    for (size_t i = 0; i < payloads.size(); ++i) {
        for (; at < dir[i].offset; ++at)
            os.put('\0');
        os.write(reinterpret_cast<const char *>(payloads[i].data()),
                 (std::streamsize)payloads[i].size());
        at += payloads[i].size();
    }
}

namespace {

/** Eager v4 load over a complete in-memory image: validate the meta,
 *  every padding byte, and every piece. */
ModelBundle
loadBundleV4(const uint8_t *file, size_t size)
{
    const modelv4::Meta meta = modelv4::parseMeta(file, size);
    // The only padding run sits between the meta and the aligned
    // piece-region start; it must be zero so an eager load validates
    // every byte and two different files never load identically.
    uint64_t expect = modelv4::kHeaderBytes + meta.metaBytes;
    for (const auto &e : meta.directory) {
        for (uint64_t b = expect; b < e.offset; ++b)
            if (file[b] != 0)
                throw ModelFileError(
                    "non-zero padding byte at offset " +
                    std::to_string(b));
        expect = e.offset + e.length;
    }
    ModelBundle bundle;
    bundle.dense = meta.dense;
    bundle.records.resize(meta.recordNames.size());
    size_t flat = 0;
    for (size_t ri = 0; ri < meta.recordNames.size(); ++ri) {
        SeLayerRecord &rec = bundle.records[ri];
        rec.name = meta.recordNames[ri];
        rec.pieces.reserve(meta.pieceCounts[ri]);
        for (uint32_t k = 0; k < meta.pieceCounts[ri]; ++k) {
            try {
                rec.pieces.push_back(
                    modelv4::decodePiece(file, meta, flat++));
            } catch (const ModelFileError &e) {
                throw ModelFileError("record '" + rec.name + "': " +
                                     e.what());
            }
        }
    }
    return bundle;
}

/** Continue a v4 load after loadModelBundle consumed magic+version:
 *  rebuild the full image and run the shared buffer path. */
ModelBundle
loadBundleV4Stream(std::istream &is)
{
    std::string file(modelv4::kHeaderBytes, '\0');
    std::memcpy(&file[0], &kMagic, sizeof(kMagic));
    std::memcpy(&file[4], &kVersionV4, sizeof(kVersionV4));
    is.read(&file[8], 24);
    if (is.gcount() != 24)
        throw ModelFileError("truncated model file");
    uint64_t file_bytes = 0;
    std::memcpy(&file_bytes, file.data() + 16, sizeof(file_bytes));
    if (file_bytes < modelv4::kHeaderBytes ||
        file_bytes > kMaxBodyBytes)
        throw ModelFileError("implausible model file size");
    // On seekable streams, reject a corrupted size field before
    // allocating for it (same policy as the v2/v3 frame reader).
    const std::streampos at = is.tellg();
    if (at != std::streampos(-1)) {
        is.seekg(0, std::ios::end);
        const std::streampos stream_end = is.tellg();
        is.seekg(at);
        if (stream_end != std::streampos(-1) &&
            (uint64_t)(stream_end - at) <
                file_bytes - modelv4::kHeaderBytes)
            throw ModelFileError("truncated model file");
    }
    file.resize((size_t)file_bytes);
    is.read(&file[modelv4::kHeaderBytes],
            (std::streamsize)(file_bytes - modelv4::kHeaderBytes));
    if ((uint64_t)is.gcount() != file_bytes - modelv4::kHeaderBytes)
        throw ModelFileError("truncated model file");
    // The header's fileBytes is not under the meta checksum, so a
    // flip there must be caught structurally: the stream must end
    // exactly where the header says the file does.
    if (is.peek() != std::char_traits<char>::eof())
        throw ModelFileError("trailing bytes past the model file");
    return loadBundleV4(
        reinterpret_cast<const uint8_t *>(file.data()), file.size());
}

} // namespace

void
saveModel(std::ostream &os, const std::vector<SeLayerRecord> &layers)
{
    std::ostringstream body_os(std::ios::binary);
    writePod<uint32_t>(body_os, (uint32_t)layers.size());
    for (const auto &l : layers) {
        writeString(body_os, l.name);
        writePod<uint32_t>(body_os, (uint32_t)l.pieces.size());
        for (const auto &p : l.pieces)
            saveSeMatrix(body_os, p);
    }
    writeFramedBody(os, kVersion, body_os.str());
}

void
saveModelV3(std::ostream &os,
            const std::vector<SeLayerRecord> &layers,
            const std::vector<DenseTensor> &dense)
{
    std::ostringstream body_os(std::ios::binary);
    writePod<uint32_t>(body_os, (uint32_t)layers.size());
    for (const auto &l : layers) {
        writeString(body_os, l.name);
        writePod<uint32_t>(body_os, (uint32_t)l.pieces.size());
        for (const auto &p : l.pieces)
            saveSeMatrixV3(body_os, p);
    }
    writePod<uint32_t>(body_os, (uint32_t)dense.size());
    for (const auto &d : dense)
        saveDenseTensor(body_os, d);
    writeFramedBody(os, kVersionV3, body_os.str());
}

ModelBundle
loadModelBundle(std::istream &is)
{
    if (readPod<uint32_t>(is) != kMagic)
        throw ModelFileError("not a SmartExchange model file");
    const uint32_t version = readPod<uint32_t>(is);
    if (version == kVersionV4)
        return loadBundleV4Stream(is);
    if (version != kVersion && version != kVersionV3)
        throw ModelFileError("unsupported model file version");
    const std::string body = readFramedBodyRest(is, version);
    std::istringstream body_is(body, std::ios::binary);
    ModelBundle bundle;
    bundle.records = loadRecords(body_is, version);
    if (version == kVersionV3) {
        const uint32_t n = readPod<uint32_t>(body_is);
        if (n > (1u << 20))
            throw ModelFileError(
                "implausible dense tensor count in model file");
        bundle.dense.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
            try {
                bundle.dense.push_back(loadDenseTensor(body_is));
            } catch (const ModelFileError &e) {
                throw ModelFileError("dense tensor " +
                                     std::to_string(i) + ": " +
                                     e.what());
            }
        }
    }
    // Trailing garbage inside a checksummed body is still damage: two
    // different byte streams must never load as the same bundle.
    if (body_is.peek() != std::char_traits<char>::eof())
        throw ModelFileError("trailing bytes in model file body");
    return bundle;
}

std::vector<SeLayerRecord>
loadModel(std::istream &is)
{
    ModelBundle bundle = loadModelBundle(is);
    if (!bundle.dense.empty())
        throw ModelFileError(
            "bundle carries dense residual state; load it with "
            "loadModelBundle() instead of the records-only view");
    return std::move(bundle.records);
}

void
saveModelFile(const std::string &path,
              const std::vector<SeLayerRecord> &layers)
{
    // The failpoint takes the exact path a full disk / yanked volume
    // would: ModelFileError out of the save, nothing half-installed.
    SE_FAILPOINT_THROW("model_file_save_io", ModelFileError);
    std::ofstream os(path, std::ios::binary);
    if (!os.good())
        throw ModelFileError("cannot open " + path + " for writing");
    saveModel(os, layers);
}

std::vector<SeLayerRecord>
loadModelFile(const std::string &path)
{
    SE_FAILPOINT_THROW("model_file_load_io", ModelFileError);
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        throw ModelFileError("cannot open " + path + " for reading");
    return loadModel(is);
}

void
saveModelV3File(const std::string &path, const ModelBundle &b)
{
    SE_FAILPOINT_THROW("model_file_save_io", ModelFileError);
    std::ofstream os(path, std::ios::binary);
    if (!os.good())
        throw ModelFileError("cannot open " + path + " for writing");
    saveModelV3(os, b.records, b.dense);
}

void
saveModelV4File(const std::string &path, const ModelBundle &b)
{
    SE_FAILPOINT_THROW("model_file_save_io", ModelFileError);
    std::ofstream os(path, std::ios::binary);
    if (!os.good())
        throw ModelFileError("cannot open " + path + " for writing");
    saveModelV4(os, b.records, b.dense);
    os.flush();
    if (!os.good())
        throw ModelFileError("write to " + path + " failed");
}

ModelBundle
loadModelBundleFile(const std::string &path)
{
    SE_FAILPOINT_THROW("model_file_load_io", ModelFileError);
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        throw ModelFileError("cannot open " + path + " for reading");
    return loadModelBundle(is);
}

// ------------------------------------------------- nn <-> record glue

namespace {

/**
 * The one walk both sides of the dense-residual contract share:
 * visit every leaf in depth-first order and emit (name, tensor)
 * pairs for the state the Ce*B records do not carry.
 */
void
visitDenseState(
    nn::Sequential &net,
    const std::vector<const Tensor *> &decomposed_weights,
    const std::function<void(const std::string &, Tensor &)> &fn)
{
    std::unordered_set<const Tensor *> decomposed(
        decomposed_weights.begin(), decomposed_weights.end());
    size_t idx = 0;
    net.visit([&](nn::Layer &l) {
        const std::string prefix =
            std::to_string(idx++) + ":" + l.name() + ":";
        if (auto *c = dynamic_cast<nn::Conv2d *>(&l)) {
            if (!decomposed.count(&c->weightTensor()))
                fn(prefix + "weight", c->weightTensor());
            if (!c->biasTensor().empty())
                fn(prefix + "bias", c->biasTensor());
        } else if (auto *f = dynamic_cast<nn::Linear *>(&l)) {
            if (!decomposed.count(&f->weightTensor()))
                fn(prefix + "weight", f->weightTensor());
            if (!f->biasTensor().empty())
                fn(prefix + "bias", f->biasTensor());
        } else if (auto *b = dynamic_cast<nn::BatchNorm2d *>(&l)) {
            fn(prefix + "gamma", b->gammaTensor());
            fn(prefix + "beta", b->betaTensor());
            fn(prefix + "running_mean", b->runningMeanTensor());
            fn(prefix + "running_var", b->runningVarTensor());
        }
    });
}

} // namespace

std::vector<DenseTensor>
collectDenseState(nn::Sequential &net,
                  const std::vector<const Tensor *> &decomposed_weights)
{
    std::vector<DenseTensor> out;
    visitDenseState(net, decomposed_weights,
                    [&](const std::string &name, Tensor &t) {
                        out.push_back({name, t});
                    });
    return out;
}

void
installDenseState(
    nn::Sequential &net, const std::vector<DenseTensor> &dense,
    const std::vector<const Tensor *> &decomposed_weights)
{
    size_t at = 0;
    visitDenseState(
        net, decomposed_weights,
        [&](const std::string &name, Tensor &t) {
            if (at >= dense.size())
                throw ModelFileError(
                    "dense residual ends before tensor '" + name +
                    "'");
            const DenseTensor &d = dense[at++];
            if (d.name != name)
                throw ModelFileError(
                    "dense tensor '" + d.name +
                    "' does not match expected '" + name + "'");
            if (d.value.shape() != t.shape())
                throw ModelFileError("dense tensor '" + name +
                                     "' has a mismatched shape");
            t = d.value;
        });
    if (at != dense.size())
        throw ModelFileError(
            "dense residual has " +
            std::to_string(dense.size() - at) + " extra tensor(s)");
}

CompressedModel
compressToRecords(nn::Sequential &net, const SeOptions &se_opts,
                  const ApplyOptions &apply_opts,
                  const DecomposeFn &decomp)
{
    if (apply_opts.channelGammaThreshold > 0.0)
        SE_WARN("compressToRecords: channel pruning mutates BN "
                "gamma/beta in THIS net; the mutated state ships in "
                "CompressedModel::dense and only saveModelV3 writes "
                "it — a records-only v2 save of this model serves "
                "diverged outputs from a fresh factory net.");
    CompressionPlan plan = planCompression(net, se_opts, apply_opts);

    std::vector<SeMatrix> results;
    results.reserve(plan.units.size());
    for (const DecompUnit &u : plan.units)
        results.push_back(decomp ? decomp(u.matrix, se_opts)
                                 : decomposeMatrix(u.matrix, se_opts));

    // Group the pieces per decomposed layer before finishCompression
    // consumes the originals. The copy is deliberate: records and the
    // finish pass both need the pieces, and a compressed bundle is
    // small (Ce codes + tiny bases), so transiently holding two
    // copies is cheaper than contorting finishCompression's
    // ownership for every caller.
    CompressedModel out;
    size_t ui = 0;
    for (size_t li = 0; li < plan.layers.size(); ++li) {
        SeLayerRecord rec;
        rec.name = plan.layers[li].report.name;
        while (ui < plan.units.size() &&
               plan.units[ui].layerIndex == li)
            rec.pieces.push_back(results[ui++]);
        if (!rec.pieces.empty())
            out.records.push_back(std::move(rec));
    }

    // The dense residual (what the old "BN not shipped" warning was
    // about): snapshot AFTER planCompression, so channel pruning's
    // BN gamma/beta mutations ship with the model, and biases /
    // running stats / undecomposed weights come along too.
    std::vector<const Tensor *> decomposed_weights;
    for (const PlannedLayer &pl : plan.layers)
        if (pl.weight)
            decomposed_weights.push_back(pl.weight);
    out.dense = collectDenseState(net, decomposed_weights);

    out.report = finishCompression(plan, std::move(results), se_opts);
    return out;
}

std::vector<RecordBinding>
matchRecordsToPlan(const CompressionPlan &plan,
                   const std::vector<SeLayerRecord> &records)
{
    std::vector<RecordBinding> bindings;
    size_t ri = 0, ui = 0;
    for (size_t li = 0; li < plan.layers.size(); ++li) {
        size_t unit_count = 0;
        while (ui + unit_count < plan.units.size() &&
               plan.units[ui + unit_count].layerIndex == li)
            ++unit_count;
        if (unit_count == 0)
            continue;
        const std::string &name = plan.layers[li].report.name;
        if (ri >= records.size())
            throw ModelFileError("model records end before layer " +
                                 name);
        const SeLayerRecord &rec = records[ri++];
        if (rec.name != name)
            throw ModelFileError("record '" + rec.name +
                                 "' does not match planned layer '" +
                                 name + "'");
        if (rec.pieces.size() != unit_count)
            throw ModelFileError("record '" + rec.name + "' has " +
                                 std::to_string(rec.pieces.size()) +
                                 " pieces, expected " +
                                 std::to_string(unit_count));
        for (size_t k = 0; k < unit_count; ++k) {
            const SeMatrix &p = rec.pieces[k];
            const Tensor &m = plan.units[ui + k].matrix;
            if (p.ce.ndim() != 2 || p.basis.ndim() != 2 ||
                p.ce.dim(0) != m.dim(0) || p.basis.dim(1) != m.dim(1))
                throw ModelFileError(
                    "piece shape mismatch in record '" + rec.name +
                    "'");
            // The Ce*B kernels read ce.dim(1) basis rows: a rank
            // mismatch would read past the basis.
            if (p.ce.dim(1) != p.basis.dim(0))
                throw ModelFileError(
                    "piece rank mismatch in record '" + rec.name +
                    "': Ce has " + std::to_string(p.ce.dim(1)) +
                    " columns, basis " + std::to_string(p.basis.dim(0)) +
                    " rows");
        }
        bindings.push_back({li, ui, unit_count, &rec});
        ui += unit_count;
    }
    if (ri != records.size())
        throw ModelFileError("model bundle has " +
                             std::to_string(records.size() - ri) +
                             " extra record(s)");
    return bindings;
}

namespace {

CompressionReport
installRecordsImpl(nn::Sequential &net,
                   const std::vector<SeLayerRecord> &records,
                   const std::vector<DenseTensor> *dense,
                   const SeOptions &se_opts,
                   const ApplyOptions &apply_opts)
{
    // Never re-prune: the threshold rule must not fire on the
    // factory net's unrelated gamma values. Pruned CONV channels
    // arrive zeroed through the records themselves; pruned BN
    // gamma/beta state arrives through the dense residual when the
    // caller ships one (v3) — without it, the factory net must
    // bit-reproduce the compression-time non-decomposed state.
    ApplyOptions install_opts = apply_opts;
    install_opts.channelGammaThreshold = 0.0;
    CompressionPlan plan = planCompression(net, se_opts, install_opts);

    // Bindings are in unit order and cover every planned unit, so
    // flattening their pieces reassembles finishCompression's input.
    std::vector<SeMatrix> results;
    results.reserve(plan.units.size());
    for (const RecordBinding &b : matchRecordsToPlan(plan, records))
        for (size_t k = 0; k < b.unitCount; ++k)
            results.push_back(b.record->pieces[k]);

    if (dense && !dense->empty()) {
        std::vector<const Tensor *> decomposed_weights;
        for (const PlannedLayer &pl : plan.layers)
            if (pl.weight)
                decomposed_weights.push_back(pl.weight);
        installDenseState(net, *dense, decomposed_weights);
    }

    return finishCompression(plan, std::move(results), se_opts);
}

} // namespace

CompressionReport
installLayerRecords(nn::Sequential &net,
                    const std::vector<SeLayerRecord> &records,
                    const SeOptions &se_opts,
                    const ApplyOptions &apply_opts)
{
    return installRecordsImpl(net, records, nullptr, se_opts,
                              apply_opts);
}

CompressionReport
installModelBundle(nn::Sequential &net, const ModelBundle &bundle,
                   const SeOptions &se_opts,
                   const ApplyOptions &apply_opts)
{
    return installRecordsImpl(net, bundle.records, &bundle.dense,
                              se_opts, apply_opts);
}

namespace {

bool
tensorBitsEqual(const Tensor &a, const Tensor &b)
{
    if (a.shape() != b.shape())
        return false;
    return a.empty() ||
           std::memcmp(a.data(), b.data(),
                       (size_t)a.size() * sizeof(float)) == 0;
}

} // namespace

size_t
quantizeBasisAtCompress(std::vector<SeLayerRecord> &records, int bits)
{
    size_t changed = 0;
    for (auto &rec : records)
        for (auto &p : rec.pieces) {
            bool touched = false;
            // Iterate to a BITWISE fixed point. One fakeQuantize pass
            // is not idempotent: recalibrating on the quantized
            // tensor can move the scale by an ulp (the new max |x| is
            // the rounded one), which would make saveModelV4's
            // recalibrate-and-recover check flake. At a fixed point
            // that check holds by construction.
            for (int iter = 0;; ++iter) {
                if (iter >= 8)
                    throw ModelFileError(
                        "basis quantization did not reach a fixed "
                        "point for record '" + rec.name + "'");
                const auto fq =
                    quant::FixedPointQuantizer::calibrate(p.basis,
                                                          bits);
                Tensor next = fq.fakeQuantize(p.basis);
                if (tensorBitsEqual(next, p.basis))
                    break;
                p.basis = std::move(next);
                touched = true;
            }
            if (touched)
                ++changed;
        }
    return changed;
}

void
quantizeBasisAtCompress(nn::Sequential &net, CompressedModel &model,
                        const SeOptions &se_opts,
                        const ApplyOptions &apply_opts, int bits)
{
    if (quantizeBasisAtCompress(model.records, bits) == 0)
        return;
    // The bases moved, so the Ce*B reconstructions sitting in the live
    // net's weights are stale: reinstall so the compression-time net
    // is bit-identical to what a v4 bundle will serve.
    installLayerRecords(net, model.records, se_opts, apply_opts);
}

} // namespace core
} // namespace se
