#include "compress/baselines.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "quant/quant.hh"

namespace se {
namespace compress {

namespace {

/** Collect all weight-bearing leaves. */
struct WeightLayers
{
    std::vector<nn::Conv2d *> convs;
    std::vector<nn::BatchNorm2d *> bns;
    std::vector<nn::Linear *> linears;
    /** bn[i] follows conv[i] when bnAfterConv[i] is set. */
    std::vector<int> bnAfterConv;
};

WeightLayers
collect(nn::Sequential &net)
{
    WeightLayers out;
    std::vector<nn::Layer *> leaves;
    net.visit([&](nn::Layer &l) { leaves.push_back(&l); });
    for (size_t i = 0; i < leaves.size(); ++i) {
        if (auto *c = dynamic_cast<nn::Conv2d *>(leaves[i])) {
            out.convs.push_back(c);
            auto *bn = (i + 1 < leaves.size())
                ? dynamic_cast<nn::BatchNorm2d *>(leaves[i + 1])
                : nullptr;
            out.bns.push_back(bn);
            out.bnAfterConv.push_back(bn != nullptr);
        } else if (auto *l = dynamic_cast<nn::Linear *>(leaves[i])) {
            out.linears.push_back(l);
        }
    }
    return out;
}

int64_t
totalWeights(const WeightLayers &wl)
{
    int64_t t = 0;
    for (auto *c : wl.convs)
        t += c->weightTensor().size();
    for (auto *l : wl.linears)
        t += l->weightTensor().size();
    return t;
}

int64_t
countZeros(const WeightLayers &wl)
{
    int64_t z = 0;
    for (auto *c : wl.convs)
        for (int64_t i = 0; i < c->weightTensor().size(); ++i)
            z += c->weightTensor()[i] == 0.0f;
    for (auto *l : wl.linears)
        for (int64_t i = 0; i < l->weightTensor().size(); ++i)
            z += l->weightTensor()[i] == 0.0f;
    return z;
}

} // namespace

BaselineReport
pruneChannelsBnGamma(nn::Sequential &net, double ratio)
{
    auto wl = collect(net);
    BaselineReport rep;
    rep.technique = "NetworkSlimming";
    rep.originalBits = totalWeights(wl) * 32;

    // Global gamma ranking across all BNs that follow a conv; prune
    // exactly the bottom `ratio` fraction of channels (ties broken by
    // position, as the original implementation's percentile threshold
    // effectively does).
    struct Entry
    {
        float mag;
        size_t conv;
        int64_t channel;
    };
    std::vector<Entry> entries;
    for (size_t i = 0; i < wl.convs.size(); ++i)
        if (wl.bns[i])
            for (int64_t c = 0; c < wl.bns[i]->gammaTensor().size();
                 ++c)
                entries.push_back(
                    {std::abs(wl.bns[i]->gammaTensor()[c]), i, c});
    if (entries.empty()) {
        rep.storedBits = rep.originalBits;
        return rep;
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.mag < b.mag;
                     });
    const size_t kill = (size_t)((double)entries.size() * ratio);
    for (size_t k = 0; k < kill; ++k) {
        const Entry &e = entries[k];
        wl.bns[e.conv]->gammaTensor()[e.channel] = 0.0f;
        wl.bns[e.conv]->betaTensor()[e.channel] = 0.0f;
        Tensor &w = wl.convs[e.conv]->weightTensor();
        const int64_t per_filter = w.size() / w.dim(0);
        for (int64_t j = 0; j < per_filter; ++j)
            w[e.channel * per_filter + j] = 0.0f;
    }
    const int64_t zeros = countZeros(wl);
    const int64_t total = totalWeights(wl);
    rep.sparsity = (double)zeros / (double)total;
    // Channel pruning is structured: pruned filters simply vanish from
    // storage; survivors stay FP32.
    rep.storedBits = (total - zeros) * 32;
    return rep;
}

BaselineReport
pruneFiltersL1(nn::Sequential &net, double ratio)
{
    auto wl = collect(net);
    BaselineReport rep;
    rep.technique = "ThiNet";
    rep.originalBits = totalWeights(wl) * 32;

    for (auto *conv : wl.convs) {
        Tensor &w = conv->weightTensor();
        const int64_t m = w.dim(0);
        const int64_t per_filter = w.size() / m;
        std::vector<std::pair<double, int64_t>> norms;
        for (int64_t f = 0; f < m; ++f) {
            double l1 = 0.0;
            for (int64_t k = 0; k < per_filter; ++k)
                l1 += std::abs(w[f * per_filter + k]);
            norms.emplace_back(l1, f);
        }
        std::sort(norms.begin(), norms.end());
        const int64_t kill = (int64_t)((double)m * ratio);
        for (int64_t i = 0; i < kill; ++i) {
            const int64_t f = norms[(size_t)i].second;
            for (int64_t k = 0; k < per_filter; ++k)
                w[f * per_filter + k] = 0.0f;
        }
    }
    const int64_t zeros = countZeros(wl);
    const int64_t total = totalWeights(wl);
    rep.sparsity = (double)zeros / (double)total;
    rep.storedBits = (total - zeros) * 32;
    return rep;
}

BaselineReport
quantizeKBit(nn::Sequential &net, int bits)
{
    auto wl = collect(net);
    BaselineReport rep;
    rep.technique = "DoReFa-" + std::to_string(bits) + "b";
    const int64_t total = totalWeights(wl);
    rep.originalBits = total * 32;

    auto fake = [&](Tensor &w) {
        auto q = quant::FixedPointQuantizer::calibrate(w, bits);
        w = q.fakeQuantize(w);
    };
    for (auto *c : wl.convs)
        fake(c->weightTensor());
    for (auto *l : wl.linears)
        fake(l->weightTensor());

    rep.sparsity = (double)countZeros(wl) / (double)total;
    rep.storedBits = total * bits;
    return rep;
}

BaselineReport
quantizePow2(nn::Sequential &net, int bits)
{
    auto wl = collect(net);
    BaselineReport rep;
    rep.technique = "Pow2-" + std::to_string(bits) + "b";
    const int64_t total = totalWeights(wl);
    rep.originalBits = total * 32;

    auto fake = [&](Tensor &w) {
        auto alpha = quant::choosePow2Alphabet(w, bits);
        w = quant::projectPow2(w, alpha);
    };
    for (auto *c : wl.convs)
        fake(c->weightTensor());
    for (auto *l : wl.linears)
        fake(l->weightTensor());

    rep.sparsity = (double)countZeros(wl) / (double)total;
    rep.storedBits = total * bits;
    return rep;
}

} // namespace compress
} // namespace se
