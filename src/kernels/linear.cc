#include "kernels/linear.hh"

#include "base/logging.hh"
#include "kernels/gemm.hh"
#include "kernels/scratch.hh"

namespace se {
namespace kernels {

Tensor
linearForwardGemm(const Tensor &x, const Tensor &w, const Tensor *bias)
{
    SE_ASSERT(x.ndim() == 2 && x.dim(1) == w.dim(1),
              "linear input shape mismatch");
    const int64_t n = x.dim(0), in_f = x.dim(1), out_f = w.dim(0);
    Tensor y({n, out_f});
    if (n >= 4) {
        // Batched: materializing W^T lets the inner loop stream B
        // contiguously (SIMD-friendly); the transpose amortizes over
        // the batch. Same ascending-input double chain either way.
        ScratchArena &arena = threadScratch();
        float *wt = arena.buffer(in_f * out_f);
        transposeF(w.data(), out_f, in_f, wt);
        DChainOperands op = denseOperands(
            wt, y.data(), in_f, out_f,
            arena.offsets(denseOffsetCount(in_f, out_f)));
        op.colBias = bias ? bias->data() : nullptr;
        gemmDChain(x.data(), op, n, in_f, out_f);
    } else {
        gemmABtColBiasD(x.data(), w.data(),
                        bias ? bias->data() : nullptr, y.data(), n,
                        in_f, out_f);
    }
    return y;
}

void
linearBackwardGemm(const Tensor &x, const Tensor &w, const Tensor &gy,
                   Tensor &gradW, Tensor *gradB, Tensor &gx)
{
    const int64_t n = x.dim(0), in_f = x.dim(1), out_f = w.dim(0);
    SE_ASSERT(gy.dim(0) == n && gy.dim(1) == out_f,
              "linear backward gy shape mismatch");

    if (gradB) {
        // Ascending-batch chain per output, like the legacy loop.
        float *gbd = gradB->data();
        const float *gyd = gy.data();
        for (int64_t b = 0; b < n; ++b) {
            const float *row = gyd + b * out_f;
            for (int64_t o = 0; o < out_f; ++o)
                gbd[o] += row[o];
        }
    }

    // gradW (out, in) += gy^T (out, n) * x (n, in): transposing gy
    // turns the scattered per-sample updates into one GEMM whose
    // ascending-batch float chains match the legacy loop.
    float *gyt = threadScratch().buffer(n * out_f);
    transposeF(gy.data(), n, out_f, gyt);
    sgemm(gyt, x.data(), gradW.data(), out_f, n, in_f,
          /*accumulate=*/true);

    // gx (n, in) = gy (n, out) * w (out, in), ascending outputs.
    sgemm(gy.data(), w.data(), gx.data(), n, out_f, in_f,
          /*accumulate=*/false);
}

} // namespace kernels
} // namespace se
