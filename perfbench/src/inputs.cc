#include "inputs.hh"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/hash.hh"
#include "base/random.hh"

namespace pb {

se::core::SeOptions
seOptions()
{
    se::core::SeOptions o;
    o.vectorThreshold = 0.01;
    o.minVectorSparsity = 0.5;
    return o;
}

std::unique_ptr<se::nn::Sequential>
Subject::build() const
{
    return se::models::buildSim(id, cfg);
}

se::serve::NetFactory
Subject::factory() const
{
    const Subject s = *this;
    return [s] { return s.build(); };
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 of (seed, stream): nearby seeds give unrelated streams.
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Subject
makeSubject(se::models::ModelId id, uint64_t seed)
{
    Subject s;
    s.id = id;
    s.cfg.baseWidth = 12;
    s.cfg.inHeight = s.cfg.inWidth = 8;
    s.cfg.seed = deriveSeed(seed, 10 + (uint64_t)id);
    return s;
}

std::vector<se::Tensor>
makeTraffic(uint64_t seed, size_t n)
{
    se::Rng rng(deriveSeed(seed, 1));
    const se::models::SimConfig cfg =
        makeSubject(se::models::ModelId::VGG19, seed).cfg;
    std::vector<se::Tensor> xs;
    xs.reserve(n);
    for (size_t i = 0; i < n; ++i)
        xs.push_back(se::randn({cfg.inChannels, cfg.inHeight, cfg.inWidth},
                               rng));
    return xs;
}

std::vector<uint32_t>
makePicks(uint64_t seed, size_t n, size_t pool)
{
    std::mt19937_64 g(deriveSeed(seed, 2));
    std::vector<uint32_t> out(n);
    for (auto &p : out)
        p = (uint32_t)(g() % pool);
    return out;
}

std::vector<Arrival>
poissonSchedule(uint64_t seed, double rate, double durationMs,
                uint32_t tenants, size_t pool)
{
    std::mt19937_64 g(deriveSeed(seed, 3));
    std::vector<Arrival> out;
    double t = 0.0;
    for (uint64_t k = 0;; ++k) {
        // Exponential gap from 53 uniform bits (no library
        // distribution, so the schedule is the same on any libstdc++).
        const double u = (double)(g() >> 11) * 0x1.0p-53;
        t += -std::log1p(-u) * 1000.0 / rate;
        if (t >= durationMs)
            break;
        out.push_back(
            {t, (uint32_t)(k % tenants), (uint32_t)(g() % pool)});
    }
    return out;
}

uint64_t
digestTraffic(const std::vector<se::Tensor> &traffic)
{
    uint64_t h = se::kFnvOffsetBasis;
    for (const se::Tensor &x : traffic)
        h = se::hashTensor(x, h);
    return h;
}

uint64_t
digestSchedule(const std::vector<Arrival> &schedule)
{
    uint64_t h = se::kFnvOffsetBasis;
    for (const Arrival &a : schedule) {
        h = se::hashValue(a.dueMs, h);
        h = se::hashValue(a.tenant, h);
        h = se::hashValue(a.input, h);
    }
    return h;
}

uint64_t
digestBytes(const std::string &bytes)
{
    return se::fnv1a(bytes.data(), bytes.size());
}

se::core::CompressedModel
compressSubject(const Subject &s, bool forV4)
{
    auto net = s.build();
    const se::core::ApplyOptions apply;
    auto m = se::core::compressToRecords(*net, seOptions(), apply);
    if (forV4)
        se::core::quantizeBasisAtCompress(*net, m, seOptions(), apply);
    return m;
}

std::string
saveV3(const se::core::CompressedModel &m)
{
    std::ostringstream os(std::ios::binary);
    se::core::saveModelV3(os, m.records, m.dense);
    return os.str();
}

std::string
saveV4(const se::core::CompressedModel &m)
{
    std::ostringstream os(std::ios::binary);
    se::core::saveModelV4(os, m.records, m.dense);
    return os.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), (std::streamsize)bytes.size());
    if (!f)
        throw std::runtime_error("cannot write " + path);
}

namespace {

bool
sameTensor(const se::Tensor &a, const se::Tensor &b)
{
    return a.shape() == b.shape() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     (size_t)a.size() * sizeof(float)) ==
                             0);
}

} // namespace

bool
sameRecords(const std::vector<se::core::SeLayerRecord> &a,
            const std::vector<se::core::SeLayerRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t r = 0; r < a.size(); ++r) {
        if (a[r].name != b[r].name ||
            a[r].pieces.size() != b[r].pieces.size())
            return false;
        for (size_t p = 0; p < a[r].pieces.size(); ++p) {
            const se::core::SeMatrix &x = a[r].pieces[p];
            const se::core::SeMatrix &y = b[r].pieces[p];
            if (!sameTensor(x.ce, y.ce) || !sameTensor(x.basis, y.basis) ||
                x.alphabet.expMax != y.alphabet.expMax ||
                x.alphabet.numLevels != y.alphabet.numLevels)
                return false;
        }
    }
    return true;
}

bool
sameDense(const std::vector<se::core::DenseTensor> &a,
          const std::vector<se::core::DenseTensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].name != b[i].name || !sameTensor(a[i].value, b[i].value))
            return false;
    return true;
}

} // namespace pb
