/**
 * @file
 * Tests of the SmartExchange model-file format: exact round-trips of
 * coefficients (via their power-of-2 codes), basis matrices and
 * metadata; bundle save/load; property/fuzz coverage (random
 * matrices, truncated prefixes, single-bit corruption — every damaged
 * stream must raise ModelFileError, never crash or silently
 * mis-load); and the nn <-> record glue (compressToRecords /
 * installLayerRecords).
 *
 * The v3 wall mirrors the v2 one at the packed 4-bit width: exact
 * round trips with zero-row elision (including odd code counts),
 * dense-residual round trips of channel-pruned models with no
 * out-of-band restore, truncation/bit-flip rejection, and — behind a
 * checksum-fixup helper — the structural validation the checksum
 * alone cannot exercise (0x80-style invalid nibbles, codes outside
 * the alphabet, dirty padding, mask/count disagreement).
 *
 * The v4 wall extends the same discipline to the streaming format:
 * adaptive-width round trips (all-zero columns, single-row pieces,
 * 1/2/3-bit alphabets), the quantize-at-compress contract, full
 * truncation/bit-flip rejection across header + meta + directory +
 * payloads + padding, structural corruption behind BOTH fixed-up
 * checksums (piece and meta), error messages that name the offending
 * record/piece/offset, and the StreamedModel lazy loader (O(meta)
 * open, decode-on-touch, corrupt-piece containment, and no mapping
 * left behind by a failed eager open).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "base/hash.hh"
#include "base/random.hh"
#include "core/apply.hh"
#include "core/model_file.hh"
#include "core/stream_loader.hh"
#include "kernels/kernels.hh"
#include "linalg/linalg.hh"
#include "models/zoo.hh"
#include "nn/blocks.hh"
#include "temp_path.hh"

namespace se {
namespace {

core::SeMatrix
makeMatrix(uint64_t seed, double sparsity = 0.3)
{
    Rng rng(seed);
    Tensor w = randn({48, 3}, rng, 0.0f, 0.1f);
    core::SeOptions opts;
    opts.minVectorSparsity = sparsity;
    return core::decomposeMatrix(w, opts);
}

/**
 * A random SmartExchange-form matrix built directly (no ALS), so the
 * property tests can sweep many shapes/alphabets cheaply. Every
 * coefficient is 0 or +-2^p with p in the alphabet — exactly what a
 * legal file can carry.
 */
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
            continue;  // zero coefficient
        const int exp = (int)rng.integer(m.alphabet.expMin(),
                                         m.alphabet.expMax);
        const float mag = std::ldexp(1.0f, exp);
        m.ce[i] = rng.chance(0.5) ? mag : -mag;
    }
    m.basis = randn({rank, cols}, rng, 0.0f, 1.0f);
    return m;
}

void
expectBitIdentical(const core::SeMatrix &a, const core::SeMatrix &b)
{
    ASSERT_EQ(a.ce.shape(), b.ce.shape());
    ASSERT_EQ(a.basis.shape(), b.basis.shape());
    EXPECT_EQ(std::memcmp(a.ce.data(), b.ce.data(),
                          (size_t)a.ce.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(a.basis.data(), b.basis.data(),
                          (size_t)a.basis.size() * sizeof(float)),
              0);
    EXPECT_EQ(a.alphabet.expMax, b.alphabet.expMax);
    EXPECT_EQ(a.alphabet.numLevels, b.alphabet.numLevels);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_DOUBLE_EQ(a.reconRelError, b.reconRelError);
}

TEST(ModelFile, SeMatrixExactRoundTrip)
{
    auto m = makeMatrix(1);
    std::stringstream ss;
    core::saveSeMatrix(ss, m);
    auto back = core::loadSeMatrix(ss);
    expectBitIdentical(m, back);
}

TEST(ModelFile, ReconstructionIdenticalAfterRoundTrip)
{
    auto m = makeMatrix(2, 0.5);
    std::stringstream ss;
    core::saveSeMatrix(ss, m);
    auto back = core::loadSeMatrix(ss);
    EXPECT_LT(linalg::frobDiff(m.reconstruct(), back.reconstruct()),
              1e-6);
}

TEST(ModelFile, BundleRoundTrip)
{
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"conv1", {makeMatrix(3), makeMatrix(4)}});
    layers.push_back({"conv2", {makeMatrix(5)}});

    std::stringstream ss;
    core::saveModel(ss, layers);
    auto back = core::loadModel(ss);

    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, "conv1");
    EXPECT_EQ(back[0].pieces.size(), 2u);
    EXPECT_EQ(back[1].name, "conv2");
    for (int64_t i = 0; i < layers[0].pieces[1].ce.size(); ++i)
        EXPECT_FLOAT_EQ(back[0].pieces[1].ce[i],
                        layers[0].pieces[1].ce[i]);
}

TEST(ModelFile, FileRoundTripOnDisk)
{
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"layer", {makeMatrix(6)}});
    const test::TempPath file("se_model_test.sexm");
    const std::string &path = file.path;
    core::saveModelFile(path, layers);
    auto back = core::loadModelFile(path);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].name, "layer");
}

TEST(ModelFile, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "this is not a model file at all";
    EXPECT_THROW(core::loadModel(ss), core::ModelFileError);
}

TEST(ModelFile, WholeConvLayerRoundTrip)
{
    // Decompose a real conv layer, ship it, rebuild the weights from
    // the loaded form: same tensor as rebuilding from the original.
    Rng rng(7);
    nn::Conv2d conv(4, 6, 3, 1, 1, 1, rng, false);
    core::SeOptions opts;
    opts.minVectorSparsity = 0.3;
    auto pieces = core::decomposeConvWeight(conv.weightTensor(), opts,
                                            core::ApplyOptions{});
    std::stringstream ss;
    core::saveModel(ss, {{"conv", pieces}});
    auto back = core::loadModel(ss);
    ASSERT_EQ(back[0].pieces.size(), pieces.size());
    for (size_t i = 0; i < pieces.size(); ++i)
        EXPECT_LT(linalg::frobDiff(pieces[i].reconstruct(),
                                   back[0].pieces[i].reconstruct()),
                  1e-6);
}

TEST(ModelFile, StorageIsCompact)
{
    // The on-disk size must be far below FP32 for a sparse layer.
    auto m = makeMatrix(8, 0.6);
    std::stringstream ss;
    core::saveSeMatrix(ss, m);
    const int64_t file_bytes = (int64_t)ss.str().size();
    const int64_t fp32_bytes = m.ce.dim(0) * m.basis.dim(1) * 4;
    EXPECT_LT(file_bytes, fp32_bytes);
}

// ------------------------------------------------ property/fuzz wall

TEST(ModelFileProperty, RandomMatricesRoundTripExactly)
{
    Rng rng(1234);
    for (int trial = 0; trial < 60; ++trial) {
        auto m = randomSeMatrix(rng);
        std::stringstream ss;
        core::saveSeMatrix(ss, m);
        auto back = core::loadSeMatrix(ss);
        expectBitIdentical(m, back);
    }
}

TEST(ModelFileProperty, RandomBundlesRoundTripExactly)
{
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<core::SeLayerRecord> layers;
        const int64_t n = rng.integer(0, 5);
        for (int64_t l = 0; l < n; ++l) {
            core::SeLayerRecord rec;
            rec.name = "layer_" + std::to_string(trial) + "_" +
                       std::to_string(l);
            const int64_t pieces = rng.integer(1, 4);
            for (int64_t p = 0; p < pieces; ++p)
                rec.pieces.push_back(randomSeMatrix(rng));
            layers.push_back(std::move(rec));
        }
        std::stringstream ss;
        core::saveModel(ss, layers);
        auto back = core::loadModel(ss);
        ASSERT_EQ(back.size(), layers.size());
        for (size_t l = 0; l < layers.size(); ++l) {
            EXPECT_EQ(back[l].name, layers[l].name);
            ASSERT_EQ(back[l].pieces.size(), layers[l].pieces.size());
            for (size_t p = 0; p < layers[l].pieces.size(); ++p)
                expectBitIdentical(layers[l].pieces[p],
                                   back[l].pieces[p]);
        }
    }
}

TEST(ModelFileProperty, EveryTruncatedPrefixFailsCleanly)
{
    Rng rng(7);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {randomSeMatrix(rng)}});
    layers.push_back({"b", {randomSeMatrix(rng), randomSeMatrix(rng)}});
    std::stringstream ss;
    core::saveModel(ss, layers);
    const std::string full = ss.str();

    for (size_t cut = 0; cut < full.size(); ++cut) {
        std::istringstream damaged(full.substr(0, cut),
                                   std::ios::binary);
        EXPECT_THROW(core::loadModel(damaged), core::ModelFileError)
            << "prefix of " << cut << "/" << full.size()
            << " bytes was accepted";
    }
}

TEST(ModelFileProperty, EverySingleBitFlipFailsCleanly)
{
    // The header carries the body size and an FNV-1a checksum, so NO
    // single-bit corruption anywhere in the stream may load — not as
    // the original bundle, not as a different one.
    Rng rng(8);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"layer", {randomSeMatrix(rng)}});
    std::stringstream ss;
    core::saveModel(ss, layers);
    const std::string full = ss.str();

    for (size_t byte = 0; byte < full.size(); ++byte) {
        const int bit = (int)rng.integer(0, 7);
        std::string damaged = full;
        damaged[byte] = (char)(damaged[byte] ^ (1 << bit));
        std::istringstream is(damaged, std::ios::binary);
        EXPECT_THROW(core::loadModel(is), core::ModelFileError)
            << "bit " << bit << " of byte " << byte
            << " flipped and the bundle still loaded";
    }
}

TEST(ModelFileProperty, SignBitOnZeroCoefCodeRejected)
{
    // Byte 0x80 (sign bit set, exponent code 0) is not a legal
    // coefficient encoding — it must throw, not decode to a value
    // below the alphabet. The first coefficient byte sits right
    // after the fixed header: 3x int64 dims + 3x int32 + 1 double.
    auto m = makeMatrix(10);
    std::stringstream ss;
    core::saveSeMatrix(ss, m);
    std::string bytes = ss.str();
    const size_t first_coef = 3 * 8 + 3 * 4 + 8;
    ASSERT_GT(bytes.size(), first_coef);
    bytes[first_coef] = (char)0x80;
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(core::loadSeMatrix(is), core::ModelFileError);
}

TEST(ModelFileProperty, GarbageStreamsNeverCrash)
{
    Rng rng(9);
    for (int trial = 0; trial < 40; ++trial) {
        const int64_t len = rng.integer(0, 512);
        std::string junk((size_t)len, '\0');
        for (auto &c : junk)
            c = (char)rng.integer(0, 255);
        std::istringstream is(junk, std::ios::binary);
        EXPECT_THROW(core::loadModel(is), core::ModelFileError);
    }
}

// ------------------------------------------------ v3: packed 4-bit

/**
 * A hand-built SeMatrix whose on-stream v3 layout is fully known:
 * `rows` x 3 Ce with every row non-zero, alphabet {numLevels, expMax
 * 0} — the fixture the structural-corruption tests patch bytes of.
 */
core::SeMatrix
craftedMatrix(int64_t rows, int num_levels)
{
    core::SeMatrix m;
    m.alphabet.expMax = 0;
    m.alphabet.numLevels = num_levels;
    m.ce = Tensor({rows, 3});
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < 3; ++j) {
            const int code = (int)((i + j) % num_levels) + 1;
            const int exp = m.alphabet.expMin() + code - 1;
            const float mag = std::ldexp(1.0f, exp);
            m.ce.at(i, j) = ((i + j) % 2) ? -mag : mag;
        }
    Rng rng(5);
    m.basis = randn({3, 4}, rng);
    return m;
}

/** v3 header is magic + version + body size + checksum. */
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;

/**
 * Patch one body byte of a framed bundle and fix up the header
 * checksum, so the load reaches the structural validation instead of
 * stopping at the checksum gate.
 */
std::string
patchBody(std::string stream, size_t body_off,
          const std::function<char(char)> &edit)
{
    const size_t at = kHeaderBytes + body_off;
    EXPECT_LT(at, stream.size());
    stream[at] = edit(stream[at]);
    // v3 checksums are seeded with the version word.
    const uint64_t sum =
        fnv1a(stream.data() + kHeaderBytes,
              stream.size() - kHeaderBytes, hashValue(3u));
    std::memcpy(stream.data() + 16, &sum, sizeof(sum));
    return stream;
}

/**
 * Body offset of the row mask for a single-record, single-piece v3
 * bundle whose record name is `name_len` bytes: record count (4) +
 * name (4 + len) + piece count (4) + the 27-byte piece header
 * (rows u32, rank u16, cols u16, expMax i16, numLevels u8,
 * iterations i32, reconRelError f64, nonZeroRows u32).
 */
size_t
maskOffset(size_t name_len)
{
    return 4 + (4 + name_len) + 4 + (4 + 2 + 2 + 2 + 1 + 4 + 8 + 4);
}

TEST(ModelFileV3, RandomMatricesRoundTripExactly)
{
    Rng rng(4321);
    for (int trial = 0; trial < 60; ++trial) {
        auto m = randomSeMatrix(rng);
        std::stringstream ss;
        core::saveModelV3(ss, {{"m", {m}}});
        auto back = core::loadModelBundle(ss);
        ASSERT_EQ(back.records.size(), 1u);
        ASSERT_EQ(back.records[0].pieces.size(), 1u);
        expectBitIdentical(m, back.records[0].pieces[0]);
        EXPECT_TRUE(back.dense.empty());
    }
}

TEST(ModelFileV3, OddCodeCountsAndAllZeroRowsRoundTrip)
{
    // Odd non-zero-code counts exercise the pad nibble; matrices of
    // only zero rows exercise an empty nibble stream.
    Rng rng(77);
    for (const auto &[rows, cols] : std::vector<std::pair<
             int64_t, int64_t>>{{1, 1}, {3, 3}, {5, 1}, {7, 3},
                                {9, 5}, {2, 2}}) {
        core::SeMatrix m;
        m.alphabet.expMax = 2;
        m.alphabet.numLevels = 7;
        m.ce = Tensor({rows, cols});
        for (int64_t i = 0; i < m.ce.size(); ++i)
            if (rng.chance(0.5)) {
                const int exp = (int)rng.integer(
                    m.alphabet.expMin(), m.alphabet.expMax);
                m.ce[i] = rng.chance(0.5) ? std::ldexp(1.0f, exp)
                                          : -std::ldexp(1.0f, exp);
            }
        m.basis = randn({cols, 3}, rng);
        std::stringstream ss;
        core::saveModelV3(ss, {{"m", {m}}});
        auto back = core::loadModelBundle(ss);
        expectBitIdentical(m, back.records[0].pieces[0]);

        // The packed form itself round-trips exactly too.
        const auto packed = core::packCe(m.ce, m.alphabet);
        const Tensor unpacked = core::unpackCe(packed);
        EXPECT_EQ(std::memcmp(unpacked.data(), m.ce.data(),
                              (size_t)m.ce.size() * sizeof(float)),
                  0)
            << rows << "x" << cols;
    }
}

TEST(ModelFileV3, DenseResidualRoundTripsExactly)
{
    Rng rng(88);
    std::vector<core::DenseTensor> dense;
    dense.push_back({"0:bn:gamma", randn({8}, rng)});
    dense.push_back({"0:bn:beta", randn({8}, rng)});
    dense.push_back({"1:conv:weight", randn({4, 3, 3, 3}, rng)});
    std::stringstream ss;
    core::saveModelV3(ss, {{"layer", {makeMatrix(31)}}}, dense);
    auto back = core::loadModelBundle(ss);
    ASSERT_EQ(back.dense.size(), dense.size());
    for (size_t i = 0; i < dense.size(); ++i) {
        EXPECT_EQ(back.dense[i].name, dense[i].name);
        ASSERT_EQ(back.dense[i].value.shape(),
                  dense[i].value.shape());
        EXPECT_EQ(std::memcmp(
                      back.dense[i].value.data(),
                      dense[i].value.data(),
                      (size_t)dense[i].value.size() * sizeof(float)),
                  0);
    }
}

TEST(ModelFileV3, RecordsOnlyViewRefusesToDropDenseState)
{
    std::stringstream ss;
    core::saveModelV3(ss, {{"layer", {makeMatrix(32)}}},
                      {{"0:bn:gamma", Tensor({4}, 1.0f)}});
    EXPECT_THROW(core::loadModel(ss), core::ModelFileError);

    // Without a dense section the records-only view stays usable.
    std::stringstream plain;
    core::saveModelV3(plain, {{"layer", {makeMatrix(32)}}});
    EXPECT_EQ(core::loadModel(plain).size(), 1u);
}

TEST(ModelFileV3, V2BundlesStillLoadThroughTheBundleApi)
{
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"conv1", {makeMatrix(33)}});
    std::stringstream ss;
    core::saveModel(ss, layers);
    auto back = core::loadModelBundle(ss);
    ASSERT_EQ(back.records.size(), 1u);
    EXPECT_TRUE(back.dense.empty());
    expectBitIdentical(layers[0].pieces[0],
                       back.records[0].pieces[0]);
}

TEST(ModelFileV3, PacksSmallerThanV2)
{
    // The point of v3: true 4-bit codes + zero-row elision. On a
    // sparse matrix the coefficient payload must shrink by > 2x.
    auto m = makeMatrix(34, 0.5);
    std::stringstream v2, v3;
    core::saveModel(v2, {{"m", {m}}});
    core::saveModelV3(v3, {{"m", {m}}});
    EXPECT_LT(v3.str().size(), v2.str().size());
}

TEST(ModelFileV3, WideAlphabetsRefuseToPack)
{
    core::SeMatrix m = craftedMatrix(4, 7);
    m.alphabet.numLevels = 9;  // coefBits > 4 territory
    std::stringstream ss;
    EXPECT_THROW(core::saveModelV3(ss, {{"m", {m}}}),
                 core::ModelFileError);
    EXPECT_THROW(core::packCe(m.ce, m.alphabet),
                 core::ModelFileError);
}

TEST(ModelFileV3Property, EveryTruncatedPrefixFailsCleanly)
{
    Rng rng(17);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {randomSeMatrix(rng)}});
    layers.push_back(
        {"b", {randomSeMatrix(rng), randomSeMatrix(rng)}});
    std::stringstream ss;
    core::saveModelV3(ss, layers,
                      {{"2:bn:gamma", Tensor({6}, 1.0f)}});
    const std::string full = ss.str();

    for (size_t cut = 0; cut < full.size(); ++cut) {
        std::istringstream damaged(full.substr(0, cut),
                                   std::ios::binary);
        EXPECT_THROW(core::loadModelBundle(damaged),
                     core::ModelFileError)
            << "prefix of " << cut << "/" << full.size()
            << " bytes was accepted";
    }
}

TEST(ModelFileV3Property, EverySingleBitFlipFailsCleanly)
{
    Rng rng(18);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"layer", {randomSeMatrix(rng)}});
    std::stringstream ss;
    core::saveModelV3(ss, layers,
                      {{"1:conv:bias", Tensor({3}, 0.5f)}});
    const std::string full = ss.str();

    for (size_t byte = 0; byte < full.size(); ++byte) {
        const int bit = (int)rng.integer(0, 7);
        std::string damaged = full;
        damaged[byte] = (char)(damaged[byte] ^ (1 << bit));
        std::istringstream is(damaged, std::ios::binary);
        EXPECT_THROW(core::loadModelBundle(is), core::ModelFileError)
            << "bit " << bit << " of byte " << byte
            << " flipped and the bundle still loaded";
    }
}

TEST(ModelFileV3Property, StructuralCorruptionBehindAValidChecksum)
{
    // The deep validation the bit-flip wall cannot reach (it stops at
    // the checksum): re-checksummed streams with targeted damage.
    const core::SeMatrix m = craftedMatrix(3, 3);
    std::stringstream ss;
    core::saveModelV3(ss, {{"m", {m}}});
    const std::string good = ss.str();
    {
        std::istringstream is(good, std::ios::binary);
        EXPECT_NO_THROW(core::loadModelBundle(is));  // fixture sane
    }
    const size_t mask_off = maskOffset(1);  // name "m"
    const size_t nib_off = mask_off + 1;    // 3 rows -> 1 mask byte

    struct Case
    {
        const char *what;
        size_t off;
        std::function<char(char)> edit;
    };
    const std::vector<Case> cases{
        // 0x80-style invalid nibble: sign bit with exponent code 0.
        {"sign-on-zero nibble", nib_off,
         [](char c) { return (char)((c & 0xF0) | 0x8); }},
        // Exponent code above the stored 3-level alphabet.
        {"code outside alphabet", nib_off,
         [](char c) { return (char)((c & 0xF0) | 0x5); }},
        // Mask claims a row past the last one (tail bits dirty).
        {"mask tail bit", mask_off,
         [](char c) { return (char)(c | 0x10); }},
        // Mask population no longer matches the stored count.
        {"mask popcount drift", mask_off,
         [](char c) { return (char)(c & ~0x1); }},
    };
    for (const Case &c : cases) {
        const std::string bad = patchBody(good, c.off, c.edit);
        std::istringstream is(bad, std::ios::binary);
        EXPECT_THROW(core::loadModelBundle(is), core::ModelFileError)
            << c.what;
    }

    // A flagged row whose codes all decode to zero (nibbles zeroed)
    // must be rejected, not silently re-sparsified.
    std::string zeroed = good;
    zeroed = patchBody(zeroed, nib_off, [](char) { return 0; });
    zeroed = patchBody(zeroed, nib_off + 1,
                       [](char c) { return (char)(c & 0xF0); });
    std::istringstream is(zeroed, std::ios::binary);
    EXPECT_THROW(core::loadModelBundle(is), core::ModelFileError);

    // And the pad nibble of an odd code count must stay zero: 3x3
    // fully dense = 9 codes = 4.5 bytes.
    const size_t last_nib = nib_off + 4;
    const std::string dirty_pad = patchBody(
        good, last_nib, [](char c) { return (char)(c | 0x30); });
    std::istringstream is2(dirty_pad, std::ios::binary);
    EXPECT_THROW(core::loadModelBundle(is2), core::ModelFileError);
}

// ------------------------------------------------ nn <-> record glue

/** A small CNN exercising conv KxK, 1x1 and FC reshape rules. */
std::unique_ptr<nn::Sequential>
makeCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(3, 8, 3, 1, 1, 1, rng, false);
    net->add<nn::BatchNorm2d>(8);
    net->add<nn::Conv2d>(8, 16, 1, 1, 0, 1, rng, false);
    net->add<nn::Linear>(64, 10, rng, false);
    return net;
}

std::vector<const Tensor *>
collectWeights(nn::Sequential &net)
{
    std::vector<const Tensor *> ws;
    net.visit([&](nn::Layer &l) {
        if (auto *c = dynamic_cast<nn::Conv2d *>(&l))
            ws.push_back(&c->weightTensor());
        else if (auto *f = dynamic_cast<nn::Linear *>(&l))
            ws.push_back(&f->weightTensor());
    });
    return ws;
}

TEST(ModelRecords, CompressSaveLoadInstallRoundTrip)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;

    // Compress net A in place, keeping the shippable records.
    auto a = makeCnn(21);
    auto compressed = core::compressToRecords(*a, se_opts, apply_opts);
    EXPECT_FALSE(compressed.records.empty());
    EXPECT_GT(compressed.report.compressionRate(), 1.0);

    // Ship through the binary format.
    std::stringstream ss;
    core::saveModel(ss, compressed.records);
    auto shipped = core::loadModel(ss);

    // Install into a fresh instance of the same architecture: the
    // dense weights must equal net A's bit for bit.
    auto b = makeCnn(21);
    auto report =
        core::installLayerRecords(*b, shipped, se_opts, apply_opts);

    auto wa = collectWeights(*a), wb = collectWeights(*b);
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(std::memcmp(wa[i]->data(), wb[i]->data(),
                              (size_t)wa[i]->size() * sizeof(float)),
                  0)
            << "weight " << i;
    EXPECT_EQ(report.compressedBits(),
              compressed.report.compressedBits());
}

TEST(ModelRecords, InstallRejectsWrongArchitecture)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    auto a = makeCnn(22);
    auto compressed =
        core::compressToRecords(*a, se_opts, core::ApplyOptions{});

    // Different conv widths -> different slice geometry.
    Rng rng(23);
    auto wrong = std::make_unique<nn::Sequential>();
    wrong->add<nn::Conv2d>(3, 4, 3, 1, 1, 1, rng, false);
    wrong->add<nn::Linear>(64, 10, rng, false);
    EXPECT_THROW(core::installLayerRecords(*wrong, compressed.records,
                                           se_opts,
                                           core::ApplyOptions{}),
                 core::ModelFileError);
}

/** CNN with BN (prunable) plus a biased conv and a tiny dense conv. */
std::unique_ptr<nn::Sequential>
makePrunableCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(3, 8, 3, 1, 1, 1, rng, false);
    net->add<nn::BatchNorm2d>(8);
    net->add<nn::ReLU>();
    net->add<nn::Conv2d>(8, 12, 3, 1, 1, 1, rng, /*bias=*/true);
    net->add<nn::BatchNorm2d>(12);
    net->add<nn::ReLU>();
    net->add<nn::Conv2d>(12, 2, 1, 1, 0, 1, rng, false);  // tiny:
    net->add<nn::GlobalAvgPool>();                        // stays dense
    net->add<nn::Flatten>();
    net->add<nn::Linear>(2, 10, rng, /*bias=*/true);
    return net;
}

/** Force deterministic prunable channels and non-trivial BN stats. */
void
perturbBn(nn::Sequential &net, uint64_t seed)
{
    Rng rng(seed);
    net.visit([&](nn::Layer &l) {
        if (auto *bn = dynamic_cast<nn::BatchNorm2d *>(&l)) {
            Tensor &g = bn->gammaTensor();
            for (int64_t c = 0; c < g.size(); ++c) {
                g[c] = rng.chance(0.3) ? 1e-4f
                                       : rng.uniform(0.5f, 1.5f);
                bn->betaTensor()[c] = rng.uniform(-0.2f, 0.2f);
                bn->runningMeanTensor()[c] =
                    rng.uniform(-0.5f, 0.5f);
                bn->runningVarTensor()[c] = rng.uniform(0.5f, 2.0f);
            }
        }
    });
}

void
expectNetsBitIdentical(nn::Sequential &a, nn::Sequential &b)
{
    std::vector<std::pair<std::string, const Tensor *>> ta, tb;
    const auto collect = [](nn::Sequential &net, auto &out) {
        net.visit([&](nn::Layer &l) {
            if (auto *c = dynamic_cast<nn::Conv2d *>(&l)) {
                out.emplace_back("conv.w", &c->weightTensor());
                out.emplace_back("conv.b", &c->biasTensor());
            } else if (auto *f = dynamic_cast<nn::Linear *>(&l)) {
                out.emplace_back("linear.w", &f->weightTensor());
                out.emplace_back("linear.b", &f->biasTensor());
            } else if (auto *bn =
                           dynamic_cast<nn::BatchNorm2d *>(&l)) {
                out.emplace_back("bn.g", &bn->gammaTensor());
                out.emplace_back("bn.b", &bn->betaTensor());
                out.emplace_back("bn.rm", &bn->runningMeanTensor());
                out.emplace_back("bn.rv", &bn->runningVarTensor());
            }
        });
    };
    collect(a, ta);
    collect(b, tb);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
        ASSERT_EQ(ta[i].second->shape(), tb[i].second->shape())
            << ta[i].first << " #" << i;
        if (ta[i].second->empty())
            continue;  // bias-less layers carry an empty tensor
        EXPECT_EQ(std::memcmp(ta[i].second->data(),
                              tb[i].second->data(),
                              (size_t)ta[i].second->size() *
                                  sizeof(float)),
                  0)
            << ta[i].first << " #" << i;
    }
}

TEST(ModelBundleV3, PrunedModelRoundTripsWithNoOutOfBandRestore)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    apply_opts.channelGammaThreshold = 1e-3;  // pruning ON

    auto a = makePrunableCnn(41);
    perturbBn(*a, 42);
    auto compressed = core::compressToRecords(*a, se_opts, apply_opts);
    EXPECT_FALSE(compressed.dense.empty());

    // Ship as v3 and install into a PRISTINE factory net — crucially,
    // one that never saw perturbBn, so nothing about the pruned BN
    // state can leak in out of band.
    std::stringstream ss;
    core::saveModelV3(ss, compressed.records, compressed.dense);
    auto bundle = core::loadModelBundle(ss);
    auto b = makePrunableCnn(41);
    core::installModelBundle(*b, bundle, se_opts, apply_opts);

    expectNetsBitIdentical(*a, *b);
    Rng rng(43);
    Tensor x = randn({2, 3, 6, 6}, rng);
    Tensor ya = a->forward(x, false);
    Tensor yb = b->forward(x, false);
    EXPECT_EQ(std::memcmp(ya.data(), yb.data(),
                          (size_t)ya.size() * sizeof(float)),
              0);
}

TEST(ModelBundleV3Property, RandomPrunedModelsRoundTrip)
{
    for (uint64_t seed = 60; seed < 66; ++seed) {
        core::SeOptions se_opts;
        se_opts.vectorThreshold = 0.02;
        core::ApplyOptions apply_opts;
        apply_opts.channelGammaThreshold = 1e-3;

        auto a = makePrunableCnn(seed);
        perturbBn(*a, seed * 31 + 1);
        auto compressed =
            core::compressToRecords(*a, se_opts, apply_opts);
        std::stringstream ss;
        core::saveModelV3(ss, compressed.records, compressed.dense);
        auto bundle = core::loadModelBundle(ss);
        auto b = makePrunableCnn(seed);
        core::installModelBundle(*b, bundle, se_opts, apply_opts);

        Rng rng(seed + 7);
        Tensor x = randn({1, 3, 6, 6}, rng);
        Tensor ya = a->forward(x, false);
        Tensor yb = b->forward(x, false);
        EXPECT_EQ(std::memcmp(ya.data(), yb.data(),
                              (size_t)ya.size() * sizeof(float)),
                  0)
            << "seed " << seed;
    }
}

TEST(ModelBundleV3, DenseStateInstallRejectsDrift)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto a = makePrunableCnn(45);
    auto compressed = core::compressToRecords(*a, se_opts, apply_opts);
    ASSERT_FALSE(compressed.dense.empty());

    // Renamed tensor: wrong architecture or wrong walk order.
    {
        auto bundle = compressed.bundle();
        bundle.dense[0].name = "999:bogus:gamma";
        auto b = makePrunableCnn(45);
        EXPECT_THROW(core::installModelBundle(*b, bundle, se_opts,
                                              apply_opts),
                     core::ModelFileError);
    }
    // Mis-shaped tensor.
    {
        auto bundle = compressed.bundle();
        bundle.dense[0].value = Tensor({1}, 0.0f);
        auto b = makePrunableCnn(45);
        EXPECT_THROW(core::installModelBundle(*b, bundle, se_opts,
                                              apply_opts),
                     core::ModelFileError);
    }
    // Missing and extra tensors.
    {
        auto bundle = compressed.bundle();
        bundle.dense.pop_back();
        auto b = makePrunableCnn(45);
        EXPECT_THROW(core::installModelBundle(*b, bundle, se_opts,
                                              apply_opts),
                     core::ModelFileError);
    }
    {
        auto bundle = compressed.bundle();
        bundle.dense.push_back({"ghost", Tensor({2}, 1.0f)});
        auto b = makePrunableCnn(45);
        EXPECT_THROW(core::installModelBundle(*b, bundle, se_opts,
                                              apply_opts),
                     core::ModelFileError);
    }
}

TEST(ModelRecords, InstallRejectsExtraRecords)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    auto a = makeCnn(24);
    auto compressed =
        core::compressToRecords(*a, se_opts, core::ApplyOptions{});
    compressed.records.push_back({"ghost", {makeMatrix(25)}});

    auto b = makeCnn(24);
    EXPECT_THROW(core::installLayerRecords(*b, compressed.records,
                                           se_opts,
                                           core::ApplyOptions{}),
                 core::ModelFileError);
}

// ====================================================== model file v4

std::string
saveV4String(const std::vector<core::SeLayerRecord> &records,
             const std::vector<core::DenseTensor> &dense = {})
{
    std::stringstream ss;
    core::saveModelV4(ss, records, dense);
    return ss.str();
}

core::ModelBundle
loadFromString(const std::string &s)
{
    std::istringstream is(s);
    return core::loadModelBundle(is);
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), (std::streamsize)bytes.size());
    EXPECT_TRUE(os.good());
}

/**
 * v4 piece-payload header offsets (27 bytes): rows u32 @0, rank u16
 * @4, cols u16 @6, expMax i16 @8, numLevels u8 @10, iterations i32
 * @11, reconRelError f64 @15, basisScale f32 @23; row mask @27, then
 * the 2-bit-packed width table, bitstream, int8 basis.
 */
constexpr size_t kV4NumLevelsOff = 10;
constexpr size_t kV4ScaleOff = 23;
constexpr size_t kV4MaskOff = 27;

/**
 * Patch one byte of piece `piece`'s payload and fix up BOTH checksums
 * behind it — the piece checksum in the directory row and the meta
 * checksum in the header — so the load reaches the structural
 * validation instead of stopping at a checksum gate.
 */
std::string
patchV4Piece(std::string stream, size_t piece, size_t payload_off,
             const std::function<char(char)> &edit)
{
    namespace v4 = core::modelv4;
    const v4::Meta meta = v4::parseMeta(
        reinterpret_cast<const uint8_t *>(stream.data()),
        stream.size());
    const v4::PieceDirEntry &e = meta.directory.at(piece);
    EXPECT_LT(payload_off, (size_t)e.length);
    stream[(size_t)e.offset + payload_off] =
        edit(stream[(size_t)e.offset + payload_off]);
    const uint32_t psum =
        (uint32_t)fnv1a(stream.data() + e.offset, (size_t)e.length,
                        hashValue(4u));
    // Directory rows (u32 length + u32 checksum) are the last
    // 8 * pieces bytes of the meta section; the checksum sits 4
    // bytes into a row.
    const size_t dir_at = v4::kHeaderBytes + (size_t)meta.metaBytes -
                          8 * meta.directory.size() + 8 * piece + 4;
    std::memcpy(stream.data() + dir_at, &psum, sizeof(psum));
    const uint64_t msum =
        fnv1a(stream.data() + v4::kHeaderBytes,
              (size_t)meta.metaBytes, hashValue(4u));
    std::memcpy(stream.data() + 24, &msum, sizeof(msum));
    return stream;
}

TEST(ModelFileV4, RandomBundlesRoundTripExactly)
{
    Rng rng(60);
    for (int round = 0; round < 20; ++round) {
        std::vector<core::SeLayerRecord> layers;
        const int n_layers = (int)rng.integer(1, 3);
        for (int l = 0; l < n_layers; ++l) {
            core::SeLayerRecord rec;
            rec.name = "layer" + std::to_string(l);
            const int n_pieces = (int)rng.integer(1, 3);
            for (int p = 0; p < n_pieces; ++p)
                rec.pieces.push_back(randomSeMatrix(rng));
            layers.push_back(std::move(rec));
        }
        core::quantizeBasisAtCompress(layers);

        const core::ModelBundle back =
            loadFromString(saveV4String(layers));
        ASSERT_EQ(back.records.size(), layers.size());
        for (size_t l = 0; l < layers.size(); ++l) {
            EXPECT_EQ(back.records[l].name, layers[l].name);
            ASSERT_EQ(back.records[l].pieces.size(),
                      layers[l].pieces.size());
            for (size_t p = 0; p < layers[l].pieces.size(); ++p)
                expectBitIdentical(layers[l].pieces[p],
                                   back.records[l].pieces[p]);
        }
    }
}

TEST(ModelFileV4, EdgeShapesRoundTrip)
{
    Rng rng(61);
    std::vector<core::SeLayerRecord> layers;

    // An all-zero Ce: zero surviving rows, zero bitstream bytes.
    core::SeMatrix zero = randomSeMatrix(rng);
    zero.ce = Tensor({zero.ce.dim(0), zero.ce.dim(1)});
    layers.push_back({"zero", {zero}});

    // A single-row piece.
    core::SeMatrix one_row = randomSeMatrix(rng);
    one_row.alphabet.expMax = 0;
    one_row.alphabet.numLevels = 1;
    one_row.ce = Tensor({1, 3});
    one_row.ce.at(0, 1) = 1.0f;  // 2^0, the alphabet's only level
    one_row.basis = randn({3, 2}, rng);
    layers.push_back({"one_row", {one_row}});

    // An all-zero COLUMN among live ones: that column's width is 0
    // and it spends no bits at all.
    core::SeMatrix dead_col = craftedMatrix(5, 3);
    for (int64_t i = 0; i < dead_col.ce.dim(0); ++i)
        dead_col.ce.at(i, 1) = 0.0f;
    layers.push_back({"dead_col", {dead_col}});

    // The width extremes: 1-level alphabet (1-bit codes) and the
    // 7-level maximum (3-bit codes).
    layers.push_back({"w1", {craftedMatrix(5, 1)}});
    layers.push_back({"w3", {craftedMatrix(5, 7)}});

    // An all-zero basis (scale canonically 1).
    core::SeMatrix zero_basis = craftedMatrix(3, 3);
    zero_basis.basis = Tensor({3, 4});
    layers.push_back({"zero_basis", {zero_basis}});

    core::quantizeBasisAtCompress(layers);
    const core::ModelBundle back = loadFromString(saveV4String(layers));
    ASSERT_EQ(back.records.size(), layers.size());
    for (size_t l = 0; l < layers.size(); ++l)
        expectBitIdentical(layers[l].pieces[0],
                           back.records[l].pieces[0]);
}

/**
 * The benchmark's operating point (theta = 0.01, a 0.5 vector-sparsity
 * floor) on the VGG19 sim at base width 12 and 8 x 8 inputs: the model
 * the compress workload saves, compressed and basis-quantized.
 */
core::CompressedModel
operatingPointModel()
{
    models::SimConfig cfg;
    cfg.baseWidth = 12;
    cfg.inHeight = cfg.inWidth = 8;
    cfg.seed = 901;
    auto net = models::buildSim(models::ModelId::VGG19, cfg);
    core::SeOptions o;
    o.vectorThreshold = 0.01;
    o.minVectorSparsity = 0.5;
    const core::ApplyOptions apply;
    core::CompressedModel m = core::compressToRecords(*net, o, apply);
    core::quantizeBasisAtCompress(*net, m, o, apply);
    return m;
}

/**
 * Random records at every rank 1-8 plus the codec's edge shapes: an
 * all-zero column, an all-zero Ce, an all-zero basis, and a real FC
 * decomposition whose last Ce row covers the zero padding (C % s != 0).
 */
std::vector<core::SeLayerRecord>
edgeRecords()
{
    Rng rng(2424);
    std::vector<core::SeLayerRecord> layers;
    for (int64_t rank = 1; rank <= 8; ++rank) {
        core::SeLayerRecord rec;
        rec.name = "rank" + std::to_string(rank);
        for (int p = 0; p < 3; ++p) {
            core::SeMatrix m = randomSeMatrix(rng);
            const int64_t rows = m.ce.dim(0);
            m.ce = Tensor({rows, rank});
            for (int64_t i = 0; i < m.ce.size(); ++i) {
                if (rng.chance(0.4))
                    continue;
                const float mag = std::ldexp(
                    1.0f, (int)rng.integer(m.alphabet.expMin(),
                                           m.alphabet.expMax));
                m.ce[i] = rng.chance(0.5) ? mag : -mag;
            }
            m.basis = randn({rank, m.basis.dim(1)}, rng);
            rec.pieces.push_back(std::move(m));
        }
        layers.push_back(std::move(rec));
    }
    core::SeMatrix dead_col = craftedMatrix(9, 5);
    for (int64_t i = 0; i < dead_col.ce.dim(0); ++i)
        dead_col.ce.at(i, 2) = 0.0f;
    core::SeMatrix zero_ce = craftedMatrix(6, 3);
    zero_ce.ce = Tensor({6, 3});
    core::SeMatrix zero_basis = craftedMatrix(4, 2);
    zero_basis.basis = Tensor({3, 4});
    layers.push_back({"edges", {dead_col, zero_ce, zero_basis}});

    // Two 18-feature rows, each planned as a 5 x 4 matrix whose last
    // row is half padding.
    core::SeOptions o;
    o.minVectorSparsity = 0.3;
    const Tensor fc_w = randn({2, 18}, rng, 0.0f, 0.1f);
    nn::Sequential fc_net;
    Rng fc_rng(0);
    fc_net.add<nn::Linear>(18, 2, fc_rng, false)->weightTensor() = fc_w;
    core::SeLayerRecord fc_padded{"fc_padded", {}};
    for (const core::DecompUnit &u :
         core::planCompression(fc_net, o, core::ApplyOptions{}).units)
        fc_padded.pieces.push_back(core::decomposeMatrix(u.matrix, o));
    layers.push_back(std::move(fc_padded));
    core::quantizeBasisAtCompress(layers);
    return layers;
}

std::vector<core::DenseTensor>
edgeDense()
{
    Rng rng(2425);
    return {{"scalar", randn({1}, rng)},
            {"bias", randn({7}, rng)},
            {"empty", Tensor({0, 3})},
            {"cube", randn({2, 3, 4}, rng)}};
}

TEST(ModelFileV4, BundleBytesArePinned)
{
    // The digests pin saveModelV4's output byte for byte, so any codec
    // change must reproduce the bundles it wrote before.
    const core::CompressedModel op = operatingPointModel();
    const std::string op_bytes = saveV4String(op.records, op.dense);
    const std::vector<core::SeLayerRecord> edges = edgeRecords();
    const std::string edge_bytes = saveV4String(edges, edgeDense());
    EXPECT_EQ(fnv1a(op_bytes.data(), op_bytes.size()),
              10161435182356717214ULL);
    EXPECT_EQ(op_bytes.size(), 23684u);
    EXPECT_EQ(fnv1a(edge_bytes.data(), edge_bytes.size()),
              3575026518900947359ULL);
    EXPECT_EQ(edge_bytes.size(), 3355u);

    // A serial save writes the same bytes as the pooled one.
    kernels::SerialScope serial;
    EXPECT_EQ(saveV4String(op.records, op.dense), op_bytes);
    EXPECT_EQ(saveV4String(edges, edgeDense()), edge_bytes);
}

TEST(ModelFileV4, SaveRefusesWhatTheReaderRejects)
{
    // Every limit the reader enforces is enforced at save too: a v4
    // bundle that saved must load. Each case below used to save fine
    // and then fail to load.
    core::SeMatrix base = craftedMatrix(4, 3);
    std::vector<core::SeLayerRecord> ok = {{"m", {base}}};
    core::quantizeBasisAtCompress(ok);
    base = ok[0].pieces[0];
    const std::vector<core::DenseTensor> dense = {{"d", Tensor({2, 3})}};
    ASSERT_NO_THROW(loadFromString(saveV4String(ok, dense)));

    auto expectRefused = [](const std::vector<core::SeLayerRecord> &recs,
                            const std::vector<core::DenseTensor> &d,
                            const char *what) {
        std::stringstream ss;
        EXPECT_THROW(core::saveModelV4(ss, recs, d), core::ModelFileError)
            << what;
        EXPECT_EQ(ss.str().size(), 0u) << what << ": bytes written";
    };
    const std::string huge(1u << 20, 'n');
    expectRefused({{huge, {base}}}, dense, "1 MiB record name");
    expectRefused(ok, {{huge, Tensor({2})}}, "1 MiB dense name");
    expectRefused(ok, {{"rank9", Tensor(Shape(9, 1))}}, "dense rank 9");
    // Empty tensors, so nothing large is allocated: the reader rejects
    // the shape itself.
    expectRefused(ok, {{"wide", Tensor({(1 << 24) + 1, 0})}},
                  "dense dimension above 2^24");
    expectRefused(ok, {{"big", Tensor({1 << 14, 1 << 14, 0})}},
                  "dense shape above 2^26 elements");

    core::SeMatrix tall = base;
    tall.ce = Tensor({(1 << 24) + 1, 0});
    tall.basis = Tensor({0, 2});
    expectRefused({{"tall", {tall}}}, dense, "piece rows above 2^24");
    core::SeMatrix exp_far = base;
    exp_far.alphabet.expMax = 2000;
    exp_far.ce = Tensor(base.ce.shape());  // codes stay in the alphabet
    expectRefused({{"exp", {exp_far}}}, dense, "alphabet exponent 2000");
    core::SeMatrix iters = base;
    iters.iterations = -1;
    expectRefused({{"iters", {iters}}}, dense, "negative iterations");
    core::SeMatrix err = base;
    err.reconRelError = std::nan("");
    expectRefused({{"err", {err}}}, dense, "NaN reconstruction error");
}

TEST(ModelFile, V2V3WritersRefuseWhatReaderRejects)
{
    // The v2 and v3 writers run the v4 writer's save-side checks: each
    // case below used to save and then fail to load.
    const core::SeMatrix base = craftedMatrix(4, 3);
    const std::vector<core::SeLayerRecord> ok = {{"m", {base}}};
    const std::vector<core::DenseTensor> dense = {{"d", Tensor({2, 3})}};
    {
        std::stringstream v2, v3;
        core::saveModel(v2, ok);
        core::saveModelV3(v3, ok, dense);
        ASSERT_NO_THROW(loadFromString(v2.str()));
        ASSERT_NO_THROW(loadFromString(v3.str()));
    }

    auto expectRefused = [](const std::vector<core::SeLayerRecord> &recs,
                            const std::vector<core::DenseTensor> &d,
                            const char *what) {
        std::stringstream v3;
        EXPECT_THROW(core::saveModelV3(v3, recs, d), core::ModelFileError)
            << what << " (v3)";
        EXPECT_EQ(v3.str().size(), 0u) << what << ": v3 bytes written";
        if (!d.empty())
            return;  // v2 carries no dense tensors
        std::stringstream v2;
        EXPECT_THROW(core::saveModel(v2, recs), core::ModelFileError)
            << what << " (v2)";
        EXPECT_EQ(v2.str().size(), 0u) << what << ": v2 bytes written";
    };
    const std::string huge(1u << 20, 'n');
    expectRefused({{huge, {base}}}, {}, "1 MiB record name");
    expectRefused(ok, {{huge, Tensor({2})}}, "1 MiB dense name");
    expectRefused(ok, {{"rank9", Tensor(Shape(9, 1))}}, "dense rank 9");
    expectRefused(ok, {{"wide", Tensor({(1 << 24) + 1, 0})}},
                  "dense dimension above 2^24");

    core::SeMatrix tall = base;
    tall.ce = Tensor({(1 << 24) + 1, 0});
    tall.basis = Tensor({0, 3});
    expectRefused({{"tall", {tall}}}, {}, "piece rows above 2^24");
    core::SeMatrix exp_far = base;
    exp_far.alphabet.expMax = 2000;
    exp_far.ce = Tensor(base.ce.shape());  // codes stay in the alphabet
    expectRefused({{"exp", {exp_far}}}, {}, "alphabet exponent 2000");
    core::SeMatrix iters = base;
    iters.iterations = -1;
    expectRefused({{"iters", {iters}}}, {}, "negative iterations");
    core::SeMatrix err = base;
    err.reconRelError = std::nan("");
    expectRefused({{"err", {err}}}, {}, "NaN reconstruction error");
}

TEST(ModelFileV4, SaveRequiresAQuantizedBasis)
{
    // 0.3 is not representable on the {scale = 1/127} int8 grid that
    // calibration picks for a max-1.0 basis, so this basis cannot be
    // recovered exactly and the save must refuse it.
    core::SeMatrix m;
    m.alphabet.expMax = 0;
    m.alphabet.numLevels = 1;
    m.ce = Tensor({1, 1}, 1.0f);
    m.basis = Tensor({1, 3});
    m.basis[0] = 1.0f;
    m.basis[1] = 0.3f;
    m.basis[2] = 0.7f;
    std::vector<core::SeLayerRecord> layers{{"m", {m}}};
    std::stringstream ss;
    EXPECT_THROW(core::saveModelV4(ss, layers), core::ModelFileError);

    // quantizeBasisAtCompress is exactly the missing step.
    core::quantizeBasisAtCompress(layers);
    std::stringstream ok;
    core::saveModelV4(ok, layers);
    expectBitIdentical(layers[0].pieces[0],
                       loadFromString(ok.str()).records[0].pieces[0]);
}

TEST(ModelFileV4, QuantizeBasisAtCompressReachesAFixedPoint)
{
    Rng rng(62);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {randomSeMatrix(rng)}});
    layers.push_back({"b", {randomSeMatrix(rng), randomSeMatrix(rng)}});

    EXPECT_GT(core::quantizeBasisAtCompress(layers), 0u);
    // Idempotent at the bit level: a second pass moves nothing.
    std::vector<Tensor> snap;
    for (const auto &rec : layers)
        for (const auto &p : rec.pieces)
            snap.push_back(p.basis);
    EXPECT_EQ(core::quantizeBasisAtCompress(layers), 0u);
    size_t k = 0;
    for (const auto &rec : layers)
        for (const auto &p : rec.pieces) {
            EXPECT_EQ(std::memcmp(snap[k].data(), p.basis.data(),
                                  (size_t)p.basis.size() *
                                      sizeof(float)),
                      0);
            ++k;
        }
}

TEST(ModelFileV4, PacksSmallerThanV3)
{
    // At a realistic shape (hundreds of rows, a 2-bit-occupied
    // alphabet, a float basis worth shrinking to int8) the adaptive
    // widths + int8 basis beat v3's fixed nibbles + f32 basis even
    // after the region-alignment and directory overhead.
    Rng rng(63);
    core::SeMatrix m;
    m.alphabet.expMax = 0;
    m.alphabet.numLevels = 3;  // codes fit 2 bits vs v3's fixed 4
    m.ce = Tensor({512, 8});
    for (int64_t i = 0; i < m.ce.size(); ++i) {
        if (rng.chance(0.4))
            continue;
        const int exp =
            m.alphabet.expMin() + (int)rng.integer(0, 2);
        const float mag = std::ldexp(1.0f, exp);
        m.ce[i] = rng.chance(0.5) ? mag : -mag;
    }
    m.basis = randn({8, 16}, rng);
    std::vector<core::SeLayerRecord> layers{{"big", {m}}};
    core::quantizeBasisAtCompress(layers);

    std::stringstream v3;
    core::saveModelV3(v3, layers);
    const std::string v4 = saveV4String(layers);
    EXPECT_LT(v4.size(), v3.str().size());
}

TEST(ModelFileV4, FileRoundTripOnDisk)
{
    Rng rng(64);
    core::ModelBundle bundle;
    bundle.records.push_back({"layer", {randomSeMatrix(rng)}});
    bundle.dense.push_back({"0:bn:gamma", randn({6}, rng)});
    core::quantizeBasisAtCompress(bundle.records);

    const test::TempPath file("se_model_v4_test.sexm");
    const std::string &path = file.path;
    core::saveModelV4File(path, bundle);
    const core::ModelBundle back = core::loadModelBundleFile(path);
    ASSERT_EQ(back.records.size(), 1u);
    expectBitIdentical(bundle.records[0].pieces[0],
                       back.records[0].pieces[0]);
    ASSERT_EQ(back.dense.size(), 1u);
    EXPECT_EQ(back.dense[0].name, "0:bn:gamma");
    EXPECT_EQ(std::memcmp(back.dense[0].value.data(),
                          bundle.dense[0].value.data(),
                          (size_t)bundle.dense[0].value.size() *
                              sizeof(float)),
              0);
}

/**
 * A full disk must fail the save, whatever the format: every save*File
 * flushes and checks its stream. The v2 and v3 writers used to return
 * normally with the bytes lost.
 */
TEST(ModelFile, FileWritersReportAFullDisk)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    core::ModelBundle bundle;
    bundle.records.push_back(
        {"layer", std::vector<core::SeMatrix>(200, craftedMatrix(16, 7))});
    core::quantizeBasisAtCompress(bundle.records);
    EXPECT_THROW(core::saveModelFile("/dev/full", bundle.records),
                 core::ModelFileError);
    EXPECT_THROW(core::saveModelV3File("/dev/full", bundle),
                 core::ModelFileError);
    EXPECT_THROW(core::saveModelV4File("/dev/full", bundle),
                 core::ModelFileError);
}

TEST(ModelFileV4Property, EveryTruncatedPrefixFailsCleanly)
{
    Rng rng(65);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {randomSeMatrix(rng)}});
    layers.push_back({"b", {randomSeMatrix(rng), randomSeMatrix(rng)}});
    core::quantizeBasisAtCompress(layers);
    const std::string full =
        saveV4String(layers, {{"bias", randn({4}, rng)}});

    for (size_t cut = 0; cut < full.size(); ++cut) {
        std::istringstream damaged(full.substr(0, cut));
        EXPECT_THROW(core::loadModelBundle(damaged),
                     core::ModelFileError)
            << "prefix of " << cut << " bytes must not load";
    }
}

TEST(ModelFileV4Property, EverySingleBitFlipFailsCleanly)
{
    // Header, meta, directory, payloads AND the meta→region padding
    // run: no byte of a v4 file is flippable without the eager loader
    // noticing. (Padding is the subtle one — it sits outside both
    // checksums and is caught by the explicit zero check.)
    Rng rng(66);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {randomSeMatrix(rng)}});
    layers.push_back({"b", {randomSeMatrix(rng)}});
    core::quantizeBasisAtCompress(layers);
    const std::string full = saveV4String(layers);

    for (size_t byte = 0; byte < full.size(); ++byte) {
        std::string damaged = full;
        damaged[byte] ^= (char)(1u << rng.integer(0, 7));
        std::istringstream is(damaged);
        EXPECT_THROW(core::loadModelBundle(is), core::ModelFileError)
            << "bit flip in byte " << byte << " must not load";
    }
}

TEST(ModelFileV4Property, StructuralCorruptionBehindAValidChecksum)
{
    // craftedMatrix(3, 3): 3x3 Ce, every row live, codes 1..3 so
    // every column width is 2 bits — the packed width byte is
    // 0b00101010 = 0x2A (bits 6-7 are pad); 27-bit stream in 4 bytes
    // (5 pad bits); 3x4 basis. Fixed offsets into the 45-byte payload.
    std::vector<core::SeLayerRecord> layers{
        {"m", {craftedMatrix(3, 3)}}};
    core::quantizeBasisAtCompress(layers);
    const std::string good = saveV4String(layers);
    ASSERT_NO_THROW(loadFromString(good));

    const size_t widths_off = kV4MaskOff + 1;   // 1 mask byte
    const size_t stream_off = widths_off + 1;   // 1 packed width byte
    struct Case
    {
        const char *what;
        size_t off;
        std::function<char(char)> edit;
    };
    const Case cases[] = {
        {"dirty width-table padding", widths_off,
         [](char) { return (char)0xFF; }},
        {"non-minimal column width", widths_off,
         [](char) { return (char)0x2B; }},  // widths (3, 2, 2)
        {"negative basis scale", kV4ScaleOff + 3,
         [](char c) { return (char)(c | 0x80); }},
        {"mask tail bit set", kV4MaskOff,
         [](char c) { return (char)(c | 0x08); }},
        {"mask bit cleared (stream row miscount)", kV4MaskOff,
         [](char c) { return (char)(c & ~0x01); }},
        {"code outside the alphabet", kV4NumLevelsOff,
         [](char) { return (char)1; }},
        {"dirty bitstream padding", stream_off + 3,
         [](char c) { return (char)(c | 0x80); }},
    };
    for (const Case &c : cases) {
        const std::string bad = patchV4Piece(good, 0, c.off, c.edit);
        std::istringstream is(bad);
        EXPECT_THROW(core::loadModelBundle(is), core::ModelFileError)
            << c.what;
    }

    // A non-1 scale on an all-zero basis is non-canonical even
    // though it decodes to the same zeros.
    core::SeMatrix zb = craftedMatrix(3, 3);
    zb.basis = Tensor({3, 4});
    std::vector<core::SeLayerRecord> zb_layers{{"z", {zb}}};
    core::quantizeBasisAtCompress(zb_layers);
    const std::string zb_good = saveV4String(zb_layers);
    const std::string zb_bad = patchV4Piece(
        // 1.0f is 00 00 80 3F; turning 3F into 40 gives 4.0f.
        zb_good, 0, kV4ScaleOff + 3, [](char) { return (char)0x40; });
    std::istringstream is(zb_bad);
    EXPECT_THROW(core::loadModelBundle(is), core::ModelFileError);
}

TEST(ModelFileV4, ErrorsNameThePieceAndOffset)
{
    Rng rng(67);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"alpha", {randomSeMatrix(rng)}});
    layers.push_back(
        {"beta", {randomSeMatrix(rng), randomSeMatrix(rng)}});
    core::quantizeBasisAtCompress(layers);
    const std::string good = saveV4String(layers);

    // Corrupt global piece 1 (beta's first) without fixing its
    // checksum: the load must name the record, the flat piece index
    // and the byte offset of the damage.
    namespace v4 = core::modelv4;
    const v4::Meta meta = v4::parseMeta(
        reinterpret_cast<const uint8_t *>(good.data()), good.size());
    ASSERT_EQ(meta.directory.size(), 3u);
    std::string bad = good;
    bad[(size_t)meta.directory[1].offset + 5] ^= 0x10;
    try {
        loadFromString(bad);
        FAIL() << "corrupt piece must not load";
    } catch (const core::ModelFileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("record 'beta'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("piece 1 at offset " +
                           std::to_string(meta.directory[1].offset)),
                  std::string::npos)
            << msg;
    }
}

TEST(ModelFileV3, ErrorsNameTheRecordAndPiece)
{
    // The v3 loader wraps per-piece failures the same way: corrupt a
    // nibble (sign bit on a zero code) behind a fixed-up checksum and
    // the message must say which record and piece it sat in.
    std::vector<core::SeLayerRecord> layers{
        {"m", {craftedMatrix(3, 3)}}};
    std::stringstream ss;
    core::saveModelV3(ss, layers);
    const std::string bad =
        patchBody(ss.str(), maskOffset(1) + 1,
                  [](char) { return (char)0x88; });
    try {
        loadFromString(bad);
        FAIL() << "corrupt nibble must not load";
    } catch (const core::ModelFileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("record 'm' piece 0"), std::string::npos)
            << msg;
    }
}

// ==================================================== StreamedModel

TEST(StreamedModelTest, LazyOpenDecodesNoPieces)
{
    Rng rng(70);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {randomSeMatrix(rng)}});
    layers.push_back({"b", {randomSeMatrix(rng), randomSeMatrix(rng)}});
    core::quantizeBasisAtCompress(layers);
    const test::TempPath file("se_model_v4_stream.sexm");
    const std::string &path = file.path;
    writeFile(path,
              saveV4String(layers, {{"bias", randn({4}, rng)}}));

    core::StreamedModel sm(path);
    // O(meta) open: names and dense residual are up, no piece is.
    EXPECT_EQ(sm.decodedPieces(), 0u);
    EXPECT_EQ(sm.pieceCount(), 3u);
    ASSERT_EQ(sm.recordNames().size(), 2u);
    EXPECT_EQ(sm.recordNames()[1], "b");
    ASSERT_EQ(sm.dense().size(), 1u);
    EXPECT_EQ(sm.dense()[0].name, "bias");
    EXPECT_EQ(sm.decodedPieces(), 0u);

    // First touch decodes exactly that piece; a second touch is a
    // cache hit.
    expectBitIdentical(layers[0].pieces[0], sm.piece(0));
    EXPECT_EQ(sm.decodedPieces(), 1u);
    expectBitIdentical(layers[0].pieces[0], sm.piece(0));
    EXPECT_EQ(sm.decodedPieces(), 1u);

    // records() decodes the rest and groups per layer.
    auto recs = sm.records();
    EXPECT_EQ(sm.decodedPieces(), 3u);
    ASSERT_EQ(recs->size(), 2u);
    ASSERT_EQ((*recs)[1].pieces.size(), 2u);
    for (size_t l = 0; l < layers.size(); ++l)
        for (size_t p = 0; p < layers[l].pieces.size(); ++p)
            expectBitIdentical(layers[l].pieces[p],
                               (*recs)[l].pieces[p]);
    EXPECT_EQ(sm.records(), recs);  // cached, same vector
}

TEST(StreamedModelTest, AllBackendsServeIdenticalBits)
{
    Rng rng(71);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {randomSeMatrix(rng), randomSeMatrix(rng)}});
    core::quantizeBasisAtCompress(layers);
    const std::string bytes =
        saveV4String(layers, {{"gamma", randn({3}, rng)}});
    const test::TempPath file("se_model_v4_backends.sexm");
    const std::string &path = file.path;
    writeFile(path, bytes);

    const core::ModelBundle reference = loadFromString(bytes);
    for (const bool eager : {false, true})
        for (const bool force_read : {false, true}) {
            core::StreamedModel sm(path, {eager, force_read});
            if (force_read)
                EXPECT_FALSE(sm.mapped());
            const core::ModelBundle got = sm.bundle();
            ASSERT_EQ(got.records.size(), reference.records.size());
            for (size_t p = 0; p < 2; ++p)
                expectBitIdentical(reference.records[0].pieces[p],
                                   got.records[0].pieces[p]);
            ASSERT_EQ(got.dense.size(), 1u);
            EXPECT_EQ(std::memcmp(
                          got.dense[0].value.data(),
                          reference.dense[0].value.data(),
                          (size_t)reference.dense[0].value.size() *
                              sizeof(float)),
                      0);
        }
}

TEST(StreamedModelTest, NonZeroPrefetchDepthThrows)
{
    Rng rng(72);
    std::vector<core::SeLayerRecord> layers{
        {"a", {randomSeMatrix(rng)}}};
    core::quantizeBasisAtCompress(layers);
    const test::TempPath file("se_model_v4_depth.sexm");
    const std::string &path = file.path;
    writeFile(path, saveV4String(layers));

    // Pieces decode on the consuming thread only, so a lookahead
    // window is refused rather than silently ignored.
    core::StreamLoaderOptions lo;
    lo.prefetchDepth = 3;
    EXPECT_THROW(core::StreamedModel(path, lo), std::invalid_argument);
    lo.prefetchDepth = 0;
    EXPECT_NO_THROW(core::StreamedModel(path, lo));
}

TEST(StreamedModelTest, CorruptPieceFailsAtFirstTouch)
{
    Rng rng(73);
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {randomSeMatrix(rng), randomSeMatrix(rng),
                            randomSeMatrix(rng)}});
    core::quantizeBasisAtCompress(layers);
    const std::string good = saveV4String(layers);

    namespace v4 = core::modelv4;
    const v4::Meta meta = v4::parseMeta(
        reinterpret_cast<const uint8_t *>(good.data()), good.size());
    std::string bad = good;
    bad[(size_t)meta.directory[1].offset + 7] ^= 0x04;
    const test::TempPath file("se_model_v4_corrupt.sexm");
    const std::string &path = file.path;
    writeFile(path, bad);

    // Lazy open only validates meta, so it succeeds; the damage is
    // contained to the piece that carries it.
    core::StreamedModel sm(path);
    EXPECT_NO_THROW(sm.piece(0));
    try {
        sm.piece(1);
        FAIL() << "corrupt piece must not decode";
    } catch (const core::ModelFileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("piece 1 at offset " +
                           std::to_string(meta.directory[1].offset)),
                  std::string::npos)
            << msg;
    }
    EXPECT_NO_THROW(sm.piece(2));
    EXPECT_EQ(sm.decodedPieces(), 2u);
    EXPECT_THROW(sm.records(), core::ModelFileError);

    // The eager open refuses the same file up front.
    EXPECT_THROW(core::StreamedModel(path, {true, false}),
                 core::ModelFileError);
}

TEST(StreamedModelTest, TruncatedFileFailsAtOpen)
{
    Rng rng(74);
    std::vector<core::SeLayerRecord> layers{
        {"a", {randomSeMatrix(rng)}}};
    core::quantizeBasisAtCompress(layers);
    const std::string full = saveV4String(layers);
    const test::TempPath file("se_model_v4_trunc.sexm");
    const std::string &path = file.path;

    for (const size_t keep :
         {full.size() - 1, full.size() / 2, (size_t)40, (size_t)0}) {
        writeFile(path, full.substr(0, keep));
        EXPECT_THROW(core::StreamedModel sm(path),
                     core::ModelFileError)
            << keep << " bytes kept";
    }
}

TEST(StreamedModelTest, RefusesNonStreamingFormats)
{
    Rng rng(75);
    std::vector<core::SeLayerRecord> layers{
        {"a", {randomSeMatrix(rng)}}};
    std::stringstream v3;
    core::saveModelV3(v3, layers);
    const test::TempPath file("se_model_v4_wrongver.sexm");
    const std::string &path = file.path;
    writeFile(path, v3.str());
    try {
        core::StreamedModel sm(path);
        FAIL() << "a v3 file is not streamable";
    } catch (const core::ModelFileError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("not a v4 streaming bundle"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StreamedModelTest, EagerOpenValidatesPadding)
{
    // The meta→region padding run sits outside both checksums; only
    // the eager open (like the eager loadModelBundle) walks it.
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {craftedMatrix(3, 3)}});
    layers.push_back({"b", {craftedMatrix(4, 3)}});
    core::quantizeBasisAtCompress(layers);
    const std::string good = saveV4String(layers);

    namespace v4 = core::modelv4;
    const v4::Meta meta = v4::parseMeta(
        reinterpret_cast<const uint8_t *>(good.data()), good.size());
    const size_t meta_end =
        v4::kHeaderBytes + (size_t)meta.metaBytes;
    const size_t pad_at = meta_end;
    ASSERT_LT(pad_at, (size_t)meta.directory[0].offset)
        << "fixture must leave padding before the piece region";
    std::string bad = good;
    bad[pad_at] = (char)0x5A;
    const test::TempPath file("se_model_v4_pad.sexm");
    const std::string &path = file.path;
    writeFile(path, bad);

    EXPECT_THROW(core::StreamedModel(path, {true, false}),
                 core::ModelFileError);
    // The lazy open never reads those bytes, and the pieces it does
    // read are intact — laziness narrows coverage to what is used.
    core::StreamedModel lazy(path);
    expectBitIdentical(layers[0].pieces[0], lazy.piece(0));
    expectBitIdentical(layers[1].pieces[0], lazy.piece(1));
}

/** Lines of /proc/self/maps that map `path`; -1 when it is absent. */
int
liveMappingsOf(const std::string &path)
{
    std::ifstream maps("/proc/self/maps");
    if (!maps.good())
        return -1;
    // The kernel lists the resolved path.
    const std::string name = std::filesystem::canonical(path).string();
    int n = 0;
    for (std::string line; std::getline(maps, line);)
        if (line.size() >= name.size() &&
            line.compare(line.size() - name.size(), name.size(),
                         name) == 0)
            ++n;
    return n;
}

TEST(StreamedModelTest, FailedEagerOpenReleasesTheMapping)
{
    // The eager checks run after the file is mapped. Regression: a
    // throw from them skipped the unmap, so every failed open leaked
    // one mapping of the bundle for the life of the process.
    std::vector<core::SeLayerRecord> layers;
    layers.push_back({"a", {craftedMatrix(3, 3)}});
    layers.push_back({"b", {craftedMatrix(4, 3)}});
    core::quantizeBasisAtCompress(layers);
    const std::string good = saveV4String(layers);
    namespace v4 = core::modelv4;
    const v4::Meta meta = v4::parseMeta(
        reinterpret_cast<const uint8_t *>(good.data()), good.size());

    std::string dirty_padding = good;
    dirty_padding[v4::kHeaderBytes + (size_t)meta.metaBytes] = 0x5A;
    std::string corrupt_piece = good;
    corrupt_piece[(size_t)meta.directory[1].offset + 7] ^= 0x04;

    const test::TempPath pad_file("se_model_v4_leak_pad.sexm");
    const test::TempPath piece_file("se_model_v4_leak_piece.sexm");
    const std::pair<const char *, const std::string *> cases[] = {
        {pad_file.path.c_str(), &dirty_padding},
        {piece_file.path.c_str(), &corrupt_piece},
    };
    for (const auto &[path, bytes] : cases) {
        writeFile(path, *bytes);
        if (liveMappingsOf(path) < 0)
            GTEST_SKIP() << "no /proc/self/maps on this platform";
        {
            core::StreamedModel lazy(path);  // maps it
            ASSERT_TRUE(lazy.mapped());
            EXPECT_EQ(liveMappingsOf(path), 1) << path;
        }
        for (int i = 0; i < 5; ++i)
            EXPECT_THROW(core::StreamedModel(path, {true, false}),
                         core::ModelFileError)
                << path;
        EXPECT_EQ(liveMappingsOf(path), 0) << path;
    }
}

TEST(ModelRecordsV4, CompressQuantizeSaveLoadInstallRoundTrip)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;

    // Compress net A in place, then pin its bases to the int8 grid —
    // the compress-time step that makes the v4 file exact.
    auto a = makeCnn(31);
    auto compressed = core::compressToRecords(*a, se_opts, apply_opts);
    core::quantizeBasisAtCompress(*a, compressed, se_opts, apply_opts);

    auto bundle = compressed.bundle();
    std::stringstream ss;
    core::saveModelV4(ss, bundle.records, bundle.dense);
    const core::ModelBundle shipped = loadFromString(ss.str());

    auto b = makeCnn(31);
    core::installModelBundle(*b, shipped, se_opts, apply_opts);
    auto wa = collectWeights(*a), wb = collectWeights(*b);
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(std::memcmp(wa[i]->data(), wb[i]->data(),
                              (size_t)wa[i]->size() * sizeof(float)),
                  0)
            << "weight " << i;
}

} // namespace
} // namespace se
