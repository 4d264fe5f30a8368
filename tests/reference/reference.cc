#include "reference/reference.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "kernels/gemm.hh"
#include "linalg/linalg.hh"

namespace se {
namespace reference {

Tensor
conv2dForward(const Tensor &x, const Tensor &w, const Tensor *bias,
              const kernels::ConvSpec &sp)
{
    SE_ASSERT(x.ndim() == 4 && x.dim(1) == sp.inCh,
              "conv input shape mismatch");
    const int64_t n = x.dim(0), h = x.dim(2), wd = x.dim(3);
    const int64_t kext = sp.dil * (sp.kern - 1) + 1;
    const int64_t oh =
        kernels::windowOutExtent(h, sp.pad, kext, sp.stride);
    const int64_t ow =
        kernels::windowOutExtent(wd, sp.pad, kext, sp.stride);
    const int64_t cpg = sp.inCh / sp.groups;
    const int64_t mpg = sp.outCh / sp.groups;

    Tensor y({n, sp.outCh, oh, ow});
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < sp.groups; ++g) {
            for (int64_t mo = 0; mo < mpg; ++mo) {
                const int64_t m = g * mpg + mo;
                for (int64_t e = 0; e < oh; ++e) {
                    for (int64_t f = 0; f < ow; ++f) {
                        double acc = bias ? (*bias)[m] : 0.0;
                        for (int64_t ci = 0; ci < cpg; ++ci) {
                            const int64_t c = g * cpg + ci;
                            for (int64_t kr = 0; kr < sp.kern; ++kr) {
                                const int64_t ih =
                                    e * sp.stride + kr * sp.dil - sp.pad;
                                if (ih < 0 || ih >= h)
                                    continue;
                                for (int64_t ks = 0; ks < sp.kern;
                                     ++ks) {
                                    const int64_t iw = f * sp.stride +
                                                       ks * sp.dil -
                                                       sp.pad;
                                    if (iw < 0 || iw >= wd)
                                        continue;
                                    acc += (double)w.at(m, ci, kr, ks) *
                                           x.at(b, c, ih, iw);
                                }
                            }
                        }
                        y.at(b, m, e, f) = (float)acc;
                    }
                }
            }
        }
    }
    return y;
}

Tensor
linearForward(const Tensor &x, const Tensor &w, const Tensor *bias)
{
    const int64_t n = x.dim(0), out_f = w.dim(0), in_f = w.dim(1);
    Tensor y({n, out_f});
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t o = 0; o < out_f; ++o) {
            double acc = bias ? (*bias)[o] : 0.0;
            for (int64_t i = 0; i < in_f; ++i)
                acc += (double)w.at(o, i) * x.at(b, i);
            y.at(b, o) = (float)acc;
        }
    }
    return y;
}

Tensor
linearBackward(const Tensor &x, const Tensor &w, const Tensor &gy,
               Tensor &gradW, Tensor *gradB)
{
    const int64_t n = x.dim(0), out_f = w.dim(0), in_f = w.dim(1);
    Tensor gx(x.shape());
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t o = 0; o < out_f; ++o) {
            const float gv = gy.at(b, o);
            if (gv == 0.0f)
                continue;
            if (gradB)
                (*gradB)[o] += gv;
            for (int64_t i = 0; i < in_f; ++i) {
                gradW.at(o, i) += gv * x.at(b, i);
                gx.at(b, i) += gv * w.at(o, i);
            }
        }
    }
    return gx;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t p = 0; p < k; ++p) {
            const float av = a.at(i, p);
            if (av == 0.0f)
                continue;
            for (int64_t j = 0; j < n; ++j)
                c.at(i, j) += av * b.at(p, j);
        }
    }
    return c;
}

Tensor
fitCoefficientsMasked(const Tensor &w, const Tensor &b, const Tensor &mask,
                      double ridge)
{
    // Each row of Ce is an independent least-squares problem over the
    // subset of basis rows its mask allows.
    const int64_t m = w.dim(0), r = b.dim(0), n = b.dim(1);
    Tensor ce({m, r});
    std::vector<float> gram((size_t)(r * r)), rhs((size_t)r);
    for (int64_t i = 0; i < m; ++i) {
        std::vector<int64_t> idx;
        for (int64_t j = 0; j < r; ++j)
            if (mask.at(i, j) != 0.0f)
                idx.push_back(j);
        if (idx.empty())
            continue;
        const int64_t q = (int64_t)idx.size();
        for (int64_t u = 0; u < q; ++u) {
            for (int64_t v = 0; v < q; ++v) {
                double s = 0.0;
                for (int64_t t = 0; t < n; ++t)
                    s += (double)b.at(idx[(size_t)u], t) *
                         b.at(idx[(size_t)v], t);
                gram[(size_t)(u * q + v)] = (float)s;
            }
            gram[(size_t)(u * q + u)] += (float)ridge + 1e-7f;
            double s = 0.0;
            for (int64_t t = 0; t < n; ++t)
                s += (double)b.at(idx[(size_t)u], t) * w.at(i, t);
            rhs[(size_t)u] = (float)s;
        }
        linalg::choleskySolveInPlace(gram.data(), q, rhs.data(), 1);
        for (int64_t u = 0; u < q; ++u)
            ce.at(i, idx[(size_t)u]) = rhs[(size_t)u];
    }
    return ce;
}

namespace {

/** Rows decoded per panel of the staged Ce GEMM. */
constexpr int64_t kPanelRows = 128;

float
decodeNibble(uint8_t nib, int exp_min)
{
    const int code = nib & 0x7;
    if (code == 0) {
        // Nibble 0x8 (sign with a zero exponent code) never leaves
        // packCe / the bundle loaders.
        SE_ASSERT(nib == 0, "invalid packed Ce nibble");
        return 0.0f;
    }
    return quant::pow2CodeValue(exp_min, code, (nib & 0x8) != 0);
}

} // namespace

void
gemmCeBPanelDecode(const uint8_t *row_mask, const uint8_t *nibbles,
                   int64_t m, int64_t r, const float *basis, int64_t n,
                   const quant::Pow2Alphabet &alpha, float *out,
                   kernels::ScratchArena &arena)
{
    if (m <= 0 || n <= 0)
        return;
    const int exp_min = alpha.expMin();
    int64_t nz_seen = 0;  // non-zero rows before the current row
    for (int64_t row0 = 0; row0 < m; row0 += kPanelRows) {
        const int64_t pr = std::min(kPanelRows, m - row0);
        float *panel = arena.buffer(pr * r);
        for (int64_t i = 0; i < pr; ++i) {
            const int64_t row = row0 + i;
            float *dst = panel + i * r;
            if (!(row_mask[row >> 3] & (1u << (row & 7)))) {
                std::fill(dst, dst + r, 0.0f);
                continue;
            }
            const int64_t code0 = nz_seen * r;
            for (int64_t j = 0; j < r; ++j) {
                const int64_t k = code0 + j;
                uint8_t nib = nibbles[k >> 1];
                nib = (k & 1) ? (uint8_t)(nib >> 4)
                              : (uint8_t)(nib & 0xF);
                dst[j] = decodeNibble(nib, exp_min);
            }
            ++nz_seen;
        }
        // Panel rows are disjoint output rows, so the split is
        // invisible in the results.
        kernels::sgemm(panel, basis, out + row0 * n, pr, r, n,
                       /*accumulate=*/false);
    }
}

} // namespace reference
} // namespace se
