#include "core/model_file.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "base/failpoint.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "encode/bitstream.hh"
#include "kernels/kernels.hh"
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

/** Longest record or tensor name a reader accepts, exclusive. */
constexpr uint32_t kMaxNameBytes = 1u << 20;
/** Widest dense tensor a reader accepts. */
constexpr uint32_t kMaxDenseRank = 8;
/** Most records, and most dense tensors, in one bundle. */
constexpr uint32_t kMaxRecords = 1u << 20;
/** Most pieces in one record, and in one bundle. */
constexpr uint32_t kMaxPieces = 1u << 24;
/** Bounds of a stored alphabet's |expMax| and iteration count. */
constexpr int kMaxExpMagnitude = 1000;
constexpr int32_t kMaxIterations = 1 << 20;

std::string
readString(std::istream &is)
{
    const uint32_t len = readPod<uint32_t>(is);
    if (len >= kMaxNameBytes)
        throw ModelFileError("implausible string length in model file");
    std::string s((size_t)len, '\0');
    is.read(s.data(), len);
    if ((uint32_t)is.gcount() != len)
        throw ModelFileError("truncated string in model file");
    return s;
}

/**
 * Encode a power-of-2 coefficient as one byte. A normal power of two
 * (zero mantissa, exponent field neither 0 nor 255) reads its exponent
 * straight from the float's bits; anything else takes frexp, whose
 * assert rejects every value that is not a power of two.
 */
uint8_t
encodeCoef(float v, const quant::Pow2Alphabet &a)
{
    if (v == 0.0f)
        return 0;
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const uint32_t biased = (bits >> 23) & 0xFFu;
    int exp;  // frexp's: v = 0.5 * 2^exp
    if ((bits & 0x7FFFFFu) == 0 && biased != 0 && biased != 0xFFu) {
        exp = (int)biased - 126;
    } else {
        const float frac = std::frexp(std::abs(v), &exp);
        SE_ASSERT(frac == 0.5f, "non-power-of-2 coefficient in file save");
    }
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

/** Longest alphabet a v2 coefficient byte (sign + 7-bit code) holds. */
constexpr int kMaxByteLevels = 126;

/** Refuse, at save, a string the reader would reject. */
void
checkName(const std::string &name, const char *what)
{
    if (name.size() >= kMaxNameBytes)
        throw ModelFileError(std::string(what) + " name of " +
                             std::to_string(name.size()) +
                             " bytes is too long for a model file");
}

/** Refuse, at save, a dense tensor the reader would reject. */
void
checkDenseForSave(const DenseTensor &d)
{
    checkName(d.name, "dense tensor");
    const std::string where = "dense tensor '" + d.name.substr(0, 64) + "'";
    if ((uint32_t)d.value.ndim() > kMaxDenseRank)
        throw ModelFileError(where + " has rank " +
                             std::to_string(d.value.ndim()) +
                             "; a model file carries at most " +
                             std::to_string(kMaxDenseRank));
    int64_t elems = 1;
    for (int i = 0; i < d.value.ndim(); ++i) {
        if (d.value.dim(i) > kMaxDim)
            throw ModelFileError(where + " has a dimension above 2^24");
        elems *= d.value.dim(i);
        if (elems > kMaxElems)
            throw ModelFileError(where + " has more than 2^26 elements");
    }
}

/**
 * Refuse, at save, a bundle whose counts, names or dense tensors the
 * reader would reject (every format; pieces are checked as they are
 * written).
 */
void
checkBundleForSave(const std::vector<SeLayerRecord> &layers,
                   const std::vector<DenseTensor> &dense)
{
    if (layers.size() > kMaxRecords || dense.size() > kMaxRecords)
        throw ModelFileError(
            "too many records or dense tensors for a model file");
    for (const auto &l : layers) {
        checkName(l.name, "record");
        if (l.pieces.size() > kMaxPieces)
            throw ModelFileError("too many pieces in record '" +
                                 l.name.substr(0, 64) + "'");
    }
    for (const auto &d : dense)
        checkDenseForSave(d);
}

/** Refuse, at save, piece metadata the reader would reject. */
void
checkPieceForSave(const SeMatrix &m)
{
    const int64_t rows = m.ce.dim(0);
    const int64_t rank = m.ce.dim(1);
    const int64_t cols = m.basis.dim(1);
    if (rows > kMaxDim || rank > kMaxDim || cols > kMaxDim ||
        rows * rank > kMaxElems || rank * cols > kMaxElems)
        throw ModelFileError("matrix too large for a model file");
    if (m.alphabet.expMax < -kMaxExpMagnitude ||
        m.alphabet.expMax > kMaxExpMagnitude)
        throw ModelFileError("alphabet exponent outside [-1000, 1000]");
    if (m.iterations < 0 || m.iterations > kMaxIterations)
        throw ModelFileError("iteration count outside [0, 2^20]");
    if (!std::isfinite(m.reconRelError))
        throw ModelFileError("non-finite reconstruction error");
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
    checkPieceForSave(m);
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
        m.alphabet.expMax < -kMaxExpMagnitude ||
        m.alphabet.expMax > kMaxExpMagnitude)
        throw ModelFileError("implausible alphabet in model file");
    m.iterations = readPod<int32_t>(is);
    if (m.iterations < 0 || m.iterations > kMaxIterations)
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
    os.write(reinterpret_cast<const char *>(d.value.data()),
             (std::streamsize)(d.value.size() * sizeof(float)));
}

DenseTensor
loadDenseTensor(std::istream &is)
{
    DenseTensor d;
    d.name = readString(is);
    const uint32_t ndim = readPod<uint32_t>(is);
    if (ndim > kMaxDenseRank)
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
    const std::streamsize bytes =
        (std::streamsize)(d.value.size() * sizeof(float));
    is.read(reinterpret_cast<char *>(d.value.data()), bytes);
    if (is.gcount() != bytes)
        throw ModelFileError(
            "unexpected end of SmartExchange model stream");
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
        if (len >= kMaxNameBytes)
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
    if (ndim > kMaxDenseRank)
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
    const size_t bytes = (size_t)d.value.size() * sizeof(float);
    if (r.remaining() < bytes)
        throw ModelFileError(
            "unexpected end of SmartExchange model stream");
    if (bytes > 0)
        std::memcpy(d.value.data(), r.cursor(), bytes);
    r.skip(bytes);
    return d;
}

} // namespace

void
saveSeMatrix(std::ostream &os, const SeMatrix &m)
{
    checkPieceForSave(m);
    if (m.alphabet.numLevels < 1 || m.alphabet.numLevels > kMaxByteLevels)
        throw ModelFileError("alphabet has " +
                             std::to_string(m.alphabet.numLevels) +
                             " levels; a v2 coefficient byte carries at "
                             "most " + std::to_string(kMaxByteLevels));
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
    if (m.alphabet.numLevels < 1 || m.alphabet.numLevels > kMaxByteLevels ||
        m.alphabet.expMax < -kMaxExpMagnitude ||
        m.alphabet.expMax > kMaxExpMagnitude)
        throw ModelFileError("implausible alphabet in model file");
    m.iterations = readPod<int32_t>(is);
    if (m.iterations < 0 || m.iterations > kMaxIterations)
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
    if (n > kMaxRecords)
        throw ModelFileError("implausible layer count in model file");
    std::vector<SeLayerRecord> layers((size_t)n);
    for (auto &l : layers) {
        l.name = readString(body_is);
        const uint32_t pieces = readPod<uint32_t>(body_is);
        if (pieces > kMaxPieces)
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

/** Append a trivially copyable value's bytes to a byte image. */
template <typename T>
void
putPod(std::vector<uint8_t> &out, const T &v)
{
    const size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &v, sizeof(T));
}

/**
 * Append one piece at v4 width to `out`: 27-byte header, row mask (v3
 * rules), a 2-bit-packed width table, the adaptive sign+magnitude
 * bitstream (byte-aligned flush), then the basis as int8. Throws
 * unless the basis sits exactly on its own 8-bit fixed-point grid —
 * shipping a rounded basis would serve different bits than the
 * compression-time net — or the piece is outside a limit the reader
 * enforces.
 */
void
encodePieceV4(const SeMatrix &m, std::vector<uint8_t> &out)
{
    const int64_t rows = m.ce.dim(0);
    const int64_t rank = m.ce.dim(1);
    const int64_t cols = m.basis.dim(1);
    if (rank > 0xFFFF || cols > 0xFFFF)
        throw ModelFileError(
            "matrix too wide for the v4 piece header (save as v2)");
    if (m.alphabet.numLevels < 1 ||
        m.alphabet.numLevels > kMaxPackedLevels)
        throw ModelFileError(
            "alphabet has " + std::to_string(m.alphabet.numLevels) +
            " levels; adaptive packing carries at most " +
            std::to_string(kMaxPackedLevels) +
            " (save this model as v2)");
    // The reader's limits, so a saved bundle always loads.
    checkPieceForSave(m);

    // Surviving rows and their sign|code bytes, v2 byte encoding, and
    // per column exactly the bits its occupied alphabet needs (0 when
    // the column is all zero over the surviving rows — such a column
    // spends no bits at all).
    std::vector<uint8_t> row_mask((size_t)((rows + 7) / 8), 0);
    std::vector<uint8_t> codes;
    codes.reserve((size_t)m.ce.size());
    std::vector<uint8_t> widths((size_t)rank, 0);
    const float *ce = m.ce.data();
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = ce + i * rank;
        bool nz = false;
        for (int64_t j = 0; j < rank && !nz; ++j)
            nz = row[j] != 0.0f;
        if (!nz)
            continue;
        row_mask[(size_t)(i >> 3)] |= (uint8_t)(1u << (i & 7));
        for (int64_t j = 0; j < rank; ++j) {
            const uint8_t c = encodeCoef(row[j], m.alphabet);
            codes.push_back(c);
            widths[(size_t)j] = (uint8_t)std::max<int>(
                widths[(size_t)j], codeBitWidth(c & 0x7Fu));
        }
    }

    // Basis at 8-bit fixed point, exact-recovery check per value.
    const auto fq = quant::FixedPointQuantizer::calibrate(m.basis, 8);
    const size_t basis_bytes = (size_t)(rank * cols);
    putPod<uint32_t>(out, (uint32_t)rows);
    putPod<uint16_t>(out, (uint16_t)rank);
    putPod<uint16_t>(out, (uint16_t)cols);
    putPod<int16_t>(out, (int16_t)m.alphabet.expMax);
    putPod<uint8_t>(out, (uint8_t)m.alphabet.numLevels);
    putPod<int32_t>(out, m.iterations);
    putPod<double>(out, m.reconRelError);
    putPod<float>(out, fq.scale);
    out.insert(out.end(), row_mask.begin(), row_mask.end());

    // The width table itself is bit-packed: widths are 0..3, so two
    // bits per column, byte-aligned zero-padded flush. The bitstream
    // follows: per surviving code of a non-zero-width column, its
    // magnitude then (when non-zero) its sign bit, as one field.
    encode::BitWriter bw(std::move(out));
    for (const uint8_t w : widths)
        bw.writeBits(w, 2);
    bw.alignToByte();
    for (size_t k = 0, j = 0; k < codes.size(); ++k) {
        const uint32_t code = codes[k] & 0x7Fu;
        const int w = widths[j];
        if (++j == (size_t)rank)
            j = 0;
        if (w == 0)
            continue;
        const uint32_t sign = code != 0 && (codes[k] & 0x80u) ? 1u : 0u;
        bw.writeBits(code | sign << w, w + (code != 0));
    }
    bw.alignToByte();
    out = bw.take();

    const size_t q_at = out.size();
    out.resize(q_at + basis_bytes);
    for (size_t i = 0; i < basis_bytes; ++i) {
        const float orig = m.basis[(int64_t)i];
        const int32_t v = fq.toInt(orig);
        const float back = fq.toFloat(v);
        if (std::memcmp(&back, &orig, sizeof(float)) != 0)
            throw ModelFileError(
                "basis is not at an 8-bit fixed point; run "
                "quantizeBasisAtCompress() before saveModelV4, or "
                "ship this model as v3");
        out[q_at + i] = (uint8_t)(int8_t)v;
    }
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
        m.alphabet.expMax < -kMaxExpMagnitude ||
        m.alphabet.expMax > kMaxExpMagnitude)
        throw ModelFileError("implausible alphabet in model file");
    m.iterations = r.pod<int32_t>();
    if (m.iterations < 0 || m.iterations > kMaxIterations)
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

    // Every value a code can spell, [sign][code], made once per piece.
    float values[2][kMaxPackedLevels + 1] = {};
    for (int code = 1; code <= m.alphabet.numLevels; ++code)
        for (int neg = 0; neg < 2; ++neg)
            values[neg][code] = quant::pow2CodeValue(
                m.alphabet.expMin(), code, neg != 0);

    m.ce = Tensor({rows, rank});
    float *ce = m.ce.data();
    std::vector<uint8_t> col_max((size_t)rank, 0);
    // Visit the flagged rows only (the mask has no bits past the last
    // row, checked above), one mask byte at a time.
    for (int64_t row0 = 0; row0 < rows; row0 += 8) {
        for (unsigned b = mask[row0 >> 3]; b; b &= b - 1) {
            bool row_nz = false;
            float *row = ce + (row0 + __builtin_ctz(b)) * rank;
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
                row[j] = values[br.readBit()][code];
                col_max[(size_t)j] =
                    (uint8_t)std::max<uint32_t>(col_max[(size_t)j], code);
                row_nz = true;
            }
            if (!row_nz)
                throw ModelFileError(
                    "all-zero row flagged non-zero in model file");
        }
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
    float *basis = m.basis.data();
    bool any_q = false;
    for (size_t i = 0; i < basis_bytes; ++i) {
        const int8_t q = (int8_t)qb[i];
        any_q = any_q || q != 0;
        basis[i] = (float)q * scale;  // == FixedPointQuantizer::toFloat
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
    if (nrec > kMaxRecords)
        throw ModelFileError("implausible layer count in model file");
    meta.recordNames.reserve(nrec);
    meta.pieceCounts.reserve(nrec);
    uint64_t sum = 0;
    for (uint32_t i = 0; i < nrec; ++i) {
        meta.recordNames.push_back(r.str());
        const uint32_t pieces = r.pod<uint32_t>();
        if (pieces > kMaxPieces)
            throw ModelFileError("implausible piece count");
        meta.pieceCounts.push_back(pieces);
        sum += pieces;
    }
    const uint32_t ndense = r.pod<uint32_t>();
    if (ndense > kMaxRecords)
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
    if (total > kMaxPieces)
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
    // The meta first: every limit the reader enforces is checked here
    // (pieces as they encode), so a saved bundle always loads.
    checkBundleForSave(layers, dense);
    std::vector<const SeMatrix *> pieces;
    std::ostringstream meta_os(std::ios::binary);
    writePod<uint32_t>(meta_os, (uint32_t)layers.size());
    for (const auto &l : layers) {
        writeString(meta_os, l.name);
        writePod<uint32_t>(meta_os, (uint32_t)l.pieces.size());
        for (const auto &p : l.pieces)
            pieces.push_back(&p);
    }
    if (pieces.size() > kMaxPieces)
        throw ModelFileError("too many pieces for a v4 bundle");
    writePod<uint32_t>(meta_os, (uint32_t)dense.size());
    for (const auto &d : dense)
        saveDenseTensor(meta_os, d);
    writePod<uint32_t>(meta_os, (uint32_t)pieces.size());

    // Pieces encode independently, each into its own slot. A failing
    // piece's error is kept in its slot and the lowest index's is
    // rethrown, so the message never depends on scheduling.
    const size_t count = pieces.size();
    std::vector<std::vector<uint8_t>> payloads(count);
    std::vector<std::exception_ptr> errors(count);
    kernels::parallelFor((int64_t)count, [&](int64_t i) {
        try {
            encodePieceV4(*pieces[(size_t)i], payloads[(size_t)i]);
        } catch (...) {
            errors[(size_t)i] = std::current_exception();
        }
    });
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

    // The directory has a fixed 8-byte row, so metaBytes — and with
    // it every derived piece offset — is known before the rows are
    // written. Only the region start is aligned; payloads pack
    // back-to-back so tiny pieces carry no per-piece padding tax.
    const uint64_t meta_bytes = (uint64_t)meta_os.tellp() + 8ull * count;
    const uint64_t start =
        count > 0 ? alignUp(modelv4::kHeaderBytes + meta_bytes,
                            modelv4::kPieceAlign)
                  : modelv4::kHeaderBytes + meta_bytes;
    uint64_t end = start;
    for (const auto &pl : payloads) {
        if (pl.size() > UINT32_MAX)
            throw ModelFileError("piece too large for a v4 bundle");
        writePod<uint32_t>(meta_os, (uint32_t)pl.size());
        writePod<uint32_t>(
            meta_os, (uint32_t)fnv1a(pl.data(), pl.size(), v4Seed()));
        end += pl.size();
    }
    if (end > kMaxBodyBytes)
        throw ModelFileError("model too large for a v4 bundle");
    const std::string meta = meta_os.str();
    SE_ASSERT(meta.size() == meta_bytes, "v4 meta size mismatch");

    writePod<uint32_t>(os, kMagic);
    writePod<uint32_t>(os, kVersionV4);
    writePod<uint64_t>(os, meta_bytes);
    writePod<uint64_t>(os, end);
    writePod<uint64_t>(os, fnv1a(meta.data(), meta.size(), v4Seed()));
    os.write(meta.data(), (std::streamsize)meta.size());
    static const char kZeros[modelv4::kPieceAlign] = {};
    os.write(kZeros, (std::streamsize)(start - modelv4::kHeaderBytes -
                                       meta_bytes));
    for (const auto &pl : payloads)
        os.write(reinterpret_cast<const char *>(pl.data()),
                 (std::streamsize)pl.size());
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
    checkBundleForSave(layers, {});
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
    checkBundleForSave(layers, dense);
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
        if (n > kMaxRecords)
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

namespace {

/**
 * The one file writer every save*File shares: failpoint, open, write,
 * flush, check. The failpoint takes the exact path a full disk /
 * yanked volume would: ModelFileError out of the save, nothing
 * half-installed. A stream that went bad anywhere in the write or the
 * flush is that same error, never a silent short file.
 */
template <class Write>
void
saveToFile(const std::string &path, Write &&write)
{
    SE_FAILPOINT_THROW("model_file_save_io", ModelFileError);
    std::ofstream os(path, std::ios::binary);
    if (!os.good())
        throw ModelFileError("cannot open " + path + " for writing");
    write(os);
    os.flush();
    if (!os.good())
        throw ModelFileError("write to " + path + " failed");
}

} // namespace

void
saveModelFile(const std::string &path,
              const std::vector<SeLayerRecord> &layers)
{
    saveToFile(path, [&](std::ostream &os) { saveModel(os, layers); });
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
    saveToFile(path, [&](std::ostream &os) {
        saveModelV3(os, b.records, b.dense);
    });
}

void
saveModelV4File(const std::string &path, const ModelBundle &b)
{
    saveToFile(path, [&](std::ostream &os) {
        saveModelV4(os, b.records, b.dense);
    });
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

    // The dense residual (what the old "BN not shipped" warning was
    // about): snapshot AFTER planCompression, so channel pruning's
    // BN gamma/beta mutations ship with the model, and biases /
    // running stats / undecomposed weights come along too.
    CompressedModel out;
    std::vector<const Tensor *> decomposed_weights;
    for (const PlannedLayer &pl : plan.layers)
        if (pl.weight)
            decomposed_weights.push_back(pl.weight);
    out.dense = collectDenseState(net, decomposed_weights);

    out.report = finishCompression(plan, results, se_opts);

    // Then move the pieces, grouped per decomposed layer, into the
    // records.
    size_t ui = 0;
    for (size_t li = 0; li < plan.layers.size(); ++li) {
        SeLayerRecord rec;
        rec.name = plan.layers[li].report.name;
        while (ui < plan.units.size() &&
               plan.units[ui].layerIndex == li)
            rec.pieces.push_back(std::move(results[ui++]));
        if (!rec.pieces.empty())
            out.records.push_back(std::move(rec));
    }
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

    return finishCompression(plan, results, se_opts);
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
