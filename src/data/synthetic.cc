#include "data/synthetic.hh"

#include <algorithm>
#include <cmath>

namespace se {
namespace data {

namespace {

/**
 * Smooth a tensor with a separable 3-tap [1 2 1]/4 filter a few times so
 * class prototypes carry low-frequency structure (CNN-learnable).
 */
void
smooth(Tensor &t, int passes)
{
    const int64_t c = t.dim(0), h = t.dim(1), w = t.dim(2);
    for (int p = 0; p < passes; ++p) {
        Tensor tmp = t;
        for (int64_t cc = 0; cc < c; ++cc)
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j) {
                    double s = 2.0 * tmp.at(cc, i, j);
                    s += tmp.at(cc, std::max<int64_t>(i - 1, 0), j);
                    s += tmp.at(cc, std::min<int64_t>(i + 1, h - 1), j);
                    t.at(cc, i, j) = (float)(s / 4.0);
                }
        tmp = t;
        for (int64_t cc = 0; cc < c; ++cc)
            for (int64_t i = 0; i < h; ++i)
                for (int64_t j = 0; j < w; ++j) {
                    double s = 2.0 * tmp.at(cc, i, j);
                    s += tmp.at(cc, i, std::max<int64_t>(j - 1, 0));
                    s += tmp.at(cc, i, std::min<int64_t>(j + 1, w - 1));
                    t.at(cc, i, j) = (float)(s / 4.0);
                }
    }
}

ClassificationSet
fillSet(const ClassSetConfig &cfg, const std::vector<Tensor> &protos,
        int batches, Rng &rng)
{
    ClassificationSet set;
    set.numClasses = cfg.numClasses;
    for (int b = 0; b < batches; ++b) {
        Tensor batch({cfg.batchSize, cfg.channels, cfg.height,
                      cfg.width});
        std::vector<int> labels((size_t)cfg.batchSize);
        for (int i = 0; i < cfg.batchSize; ++i) {
            const int cls = (int)rng.integer(0, cfg.numClasses - 1);
            labels[(size_t)i] = cls;
            const Tensor &p = protos[(size_t)cls];
            float *sample = batch.data() + i * p.size();
            rng.fillGaussian(sample, p.size(), 0.0f, cfg.noise);
            for (int64_t e = 0; e < p.size(); ++e)
                sample[e] = p[e] + sample[e];
        }
        set.batches.push_back(std::move(batch));
        set.labels.push_back(std::move(labels));
    }
    return set;
}

} // namespace

ClassificationTask
makeClassification(const ClassSetConfig &cfg)
{
    Rng rng(cfg.seed);
    std::vector<Tensor> protos;
    for (int k = 0; k < cfg.numClasses; ++k) {
        Tensor p = randn({cfg.channels, cfg.height, cfg.width}, rng,
                         0.0f, 1.0f);
        smooth(p, 2);
        // Re-normalize so prototypes stay separable after smoothing.
        double norm = 0.0;
        for (int64_t i = 0; i < p.size(); ++i)
            norm += (double)p[i] * p[i];
        const float scale =
            (float)(1.0 / std::sqrt(norm / (double)p.size() + 1e-12));
        for (int64_t i = 0; i < p.size(); ++i)
            p[i] *= scale;
        protos.push_back(std::move(p));
    }

    ClassificationTask task;
    task.train = fillSet(cfg, protos, cfg.trainBatches, rng);
    task.test = fillSet(cfg, protos, cfg.testBatches, rng);
    return task;
}

SegmentationTask
makeSegmentation(const SegSetConfig &cfg)
{
    Rng rng(cfg.seed);
    auto fill = [&](int batches) {
        SegmentationSet set;
        set.numClasses = cfg.numClasses;
        for (int b = 0; b < batches; ++b) {
            Tensor img({cfg.batchSize, cfg.channels, cfg.height,
                        cfg.width});
            Tensor lbl({cfg.batchSize, cfg.height, cfg.width});
            for (int i = 0; i < cfg.batchSize; ++i) {
                // Textured background = class 0.
                const int64_t pixels = cfg.channels * cfg.height * cfg.width;
                rng.fillGaussian(img.data() + i * pixels, pixels, 0.0f,
                                 cfg.noise);
                // Drop 2 objects of random non-background classes.
                for (int obj = 0; obj < 2; ++obj) {
                    const int cls =
                        (int)rng.integer(1, cfg.numClasses - 1);
                    const int64_t oh = rng.integer(4, cfg.height / 2);
                    const int64_t ow = rng.integer(4, cfg.width / 2);
                    const int64_t oy =
                        rng.integer(0, cfg.height - oh - 1);
                    const int64_t ox =
                        rng.integer(0, cfg.width - ow - 1);
                    // Each class has a distinctive per-channel tint.
                    for (int64_t y = oy; y < oy + oh; ++y)
                        for (int64_t x = ox; x < ox + ow; ++x) {
                            lbl.at(i, y, x) = (float)cls;
                            for (int64_t cc = 0; cc < cfg.channels;
                                 ++cc) {
                                const float tint =
                                    ((cls + (int)cc) % cfg.numClasses) *
                                        (2.0f / cfg.numClasses) -
                                    1.0f;
                                img.at(i, cc, y, x) =
                                    tint +
                                    rng.gaussian(0.0f, cfg.noise / 2);
                            }
                        }
                }
            }
            set.images.push_back(std::move(img));
            set.labels.push_back(std::move(lbl));
        }
        return set;
    };

    SegmentationTask task;
    task.train = fill(cfg.trainBatches);
    task.test = fill(cfg.testBatches);
    return task;
}

} // namespace data
} // namespace se
