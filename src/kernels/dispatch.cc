#include "kernels/dispatch.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>

#include "base/logging.hh"
#include "kernels/dispatch_variants.hh"
#include "kernels/kernels.hh"

namespace se {
namespace kernels {

namespace {

/**
 * Multiply count below which a GEMM stays inline: the task plumbing
 * costs microseconds, so only panels worth >= ~0.5 MFLOP fan out.
 * The ALS solves and Ce*B slices (k or n of a few units) never do.
 */
constexpr int64_t kParallelMults = 1 << 19;

} // namespace

// ----------------------------------------------- scalar micro-kernels
//
// The reference rounding sequence the AVX2 variant must reproduce
// byte for byte: per output element, ascending-k float chain with a
// round after every add, zero entries of A skipped.

/** sgemm over the column range [j0, j1). */
void
detail::sgemmPanelScalar(const float *__restrict a,
                         const float *__restrict b, float *__restrict c,
                         int64_t m, int64_t k, int64_t n,
                         bool accumulate, int64_t j0, int64_t j1)
{
    int64_t jt = j0;
    for (; jt + kPanelCols <= j1; jt += kPanelCols) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            float *ci = c + i * n + jt;
            float acc[kPanelCols];
            for (int jj = 0; jj < kPanelCols; ++jj)
                acc[jj] = accumulate ? ci[jj] : 0.0f;
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av = ai[p];
                if (av == 0.0f)
                    continue;
                for (int jj = 0; jj < kPanelCols; ++jj)
                    acc[jj] += av * bp[jj];
            }
            for (int jj = 0; jj < kPanelCols; ++jj)
                ci[jj] = acc[jj];
        }
    }
    for (; jt < j1; ++jt) {  // remainder columns
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            float acc = accumulate ? c[i * n + jt] : 0.0f;
            for (int64_t p = 0; p < k; ++p) {
                const float av = ai[p];
                if (av != 0.0f)
                    acc += av * b[p * n + jt];
            }
            c[i * n + jt] = acc;
        }
    }
}

namespace {

using detail::nibbleAt;

/**
 * Fused Ce-code strip: each row's codes are decoded once and applied
 * to all n <= kCeSmallN columns of acc[], a float chain per column in
 * ascending p with zero codes skipped.
 */
void
gemmCeSmallNScalar(const uint8_t *row_mask, const uint8_t *nibbles,
                   int64_t m, int64_t r, const float *__restrict basis,
                   int64_t n, int64_t ld, const float *__restrict lut,
                   float *out, float *last_row)
{
    detail::forEachCeRow(
        row_mask, m, r, ld, out, last_row,
        [&](float *crow) { std::fill(crow, crow + n, 0.0f); },
        [&](float *crow, int64_t code) {
            float acc[kCeSmallN] = {};
            const float *bp = basis;
            for (int64_t p = 0; p < r; ++p, bp += ld) {
                const float av = lut[nibbleAt(nibbles, code + p)];
                if (av == 0.0f)
                    continue;
                for (int64_t jj = 0; jj < n; ++jj)
                    acc[jj] += av * bp[jj];
            }
            std::copy(acc, acc + n, crow);
        });
}

const KernelOps kScalarOps{detail::sgemmPanelScalar, gemmCeSmallNScalar,
                           detail::gemmDChainPanelScalar};

/** True when the running CPU (and its OS) can execute `isa`. */
bool
cpuHas(KernelIsa isa)
{
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    switch (isa) {
    case KernelIsa::Scalar:
        return true;
    case KernelIsa::Avx2:
        return __builtin_cpu_supports("avx2");
    case KernelIsa::Avx512:
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("avx512f");
    }
    return false;
#else
    return isa == KernelIsa::Scalar;
#endif
}

/** The compiled-in table for `isa`, or nullptr. */
const KernelOps *
compiledOps(KernelIsa isa)
{
    switch (isa) {
    case KernelIsa::Scalar:
        return &kScalarOps;
    case KernelIsa::Avx2:
        return detail::avx2Ops();
    case KernelIsa::Avx512:
        return detail::avx512Ops();
    }
    return nullptr;
}

/** Every level, narrowest first. */
constexpr KernelIsa kIsas[] = {KernelIsa::Scalar, KernelIsa::Avx2,
                               KernelIsa::Avx512};

KernelIsa
initialIsa()
{
    const char *s = std::getenv("SE_KERNEL_ISA");
    if (!s)
        return detectBestIsa();
    try {
        return parseKernelIsa(s);
    } catch (const std::invalid_argument &e) {
        SE_FATAL(e.what());
    }
}

std::atomic<KernelIsa> &
activeIsaSlot()
{
    static std::atomic<KernelIsa> isa{initialIsa()};
    return isa;
}

} // namespace

// ----------------------------------------- scalar double-chain panel
//
// Per output element: start from the bias, add (double)a * (double)b
// in ascending p, round to float once on store. No zero-skip.

void
detail::gemmDChainPanelScalar(const float *__restrict a,
                              const DChainOperands &op, int64_t m,
                              int64_t k, int64_t j0, int64_t j1)
{
    auto bias = [&](int64_t i, int64_t j) {
        return op.rowBias ? (double)op.rowBias[i]
               : op.colBias ? (double)op.colBias[j] : 0.0;
    };
    auto bCol = [&](int64_t j) { return op.bPair[j >> 1] + (j & 1); };
    // Two A rows per pass halve the B-panel traffic. The column loops
    // are unrolled so that each pair's two adjacent loads vectorize.
    int64_t jt = j0;
    for (; jt + kPanelCols <= j1; jt += kPanelCols) {
        const int64_t *pair = op.bPair + jt / 2;
        const int64_t *co = op.cCol + jt;
        int64_t i = 0;
        for (; i + 2 <= m; i += 2) {
            const float *a0 = a + i * k;
            const float *a1 = a0 + k;
            double acc0[kPanelCols], acc1[kPanelCols];
            for (int jj = 0; jj < kPanelCols; ++jj) {
                acc0[jj] = bias(i, jt + jj);
                acc1[jj] = bias(i + 1, jt + jj);
            }
            for (int64_t p = 0; p < k; ++p) {
                const float *bp = op.b + op.bRow[p];
                const double av0 = a0[p];
                const double av1 = a1[p];
#pragma GCC unroll 8
                for (int jj = 0; jj < kPanelCols; ++jj) {
                    const double bv = bp[pair[jj / 2] + jj % 2];
                    acc0[jj] += av0 * bv;
                    acc1[jj] += av1 * bv;
                }
            }
            float *c0 = op.c + i * op.cRow;
            float *c1 = c0 + op.cRow;
            for (int jj = 0; jj < kPanelCols; ++jj) {
                c0[co[jj]] = (float)acc0[jj];
                c1[co[jj]] = (float)acc1[jj];
            }
        }
        if (i < m) {
            const float *ai = a + i * k;
            double acc[kPanelCols];
            for (int jj = 0; jj < kPanelCols; ++jj)
                acc[jj] = bias(i, jt + jj);
            for (int64_t p = 0; p < k; ++p) {
                const float *bp = op.b + op.bRow[p];
                const double av = ai[p];
#pragma GCC unroll 8
                for (int jj = 0; jj < kPanelCols; ++jj)
                    acc[jj] += av * (double)bp[pair[jj / 2] + jj % 2];
            }
            float *ci = op.c + i * op.cRow;
            for (int jj = 0; jj < kPanelCols; ++jj)
                ci[co[jj]] = (float)acc[jj];
        }
    }
    for (; jt < j1; ++jt) {
        const int64_t bo = bCol(jt);
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            double acc = bias(i, jt);
            for (int64_t p = 0; p < k; ++p)
                acc += (double)ai[p] * (double)op.b[op.bRow[p] + bo];
            op.c[i * op.cRow + op.cCol[jt]] = (float)acc;
        }
    }
}

const char *
isaName(KernelIsa isa)
{
    switch (isa) {
    case KernelIsa::Scalar:
        return "scalar";
    case KernelIsa::Avx2:
        return "avx2";
    case KernelIsa::Avx512:
        return "avx512";
    }
    return "?";
}

bool
isaSupported(KernelIsa isa)
{
    return compiledOps(isa) != nullptr && cpuHas(isa);
}

std::vector<KernelIsa>
supportedIsas()
{
    std::vector<KernelIsa> out;
    for (KernelIsa isa : kIsas)
        if (isaSupported(isa))
            out.push_back(isa);
    return out;
}

KernelIsa
detectBestIsa()
{
    KernelIsa best = KernelIsa::Scalar;
    for (KernelIsa isa : kIsas)
        if (isaSupported(isa))
            best = isa;
    return best;
}

KernelIsa
parseKernelIsa(const char *s)
{
    if (!s || !*s || !std::strcmp(s, "auto"))
        return detectBestIsa();
    const KernelIsa *isa = std::find_if(
        std::begin(kIsas), std::end(kIsas),
        [&](KernelIsa i) { return !std::strcmp(s, isaName(i)); });
    if (isa == std::end(kIsas))
        throw std::invalid_argument(
            "SE_KERNEL_ISA must be auto|scalar|avx2|avx512, got '" +
            std::string(s) + "'");
    if (!isaSupported(*isa))
        throw std::invalid_argument(
            std::string("SE_KERNEL_ISA=") + isaName(*isa) +
            " is not supported by this build/CPU");
    return *isa;
}

KernelIsa
activeIsa()
{
    return activeIsaSlot().load(std::memory_order_relaxed);
}

void
setActiveIsa(KernelIsa isa)
{
    if (!isaSupported(isa))
        throw std::invalid_argument(
            std::string("kernel ISA ") + isaName(isa) +
            " is not supported by this build/CPU");
    activeIsaSlot().store(isa, std::memory_order_relaxed);
}

const KernelOps &
opsFor(KernelIsa isa)
{
    if (const KernelOps *o = compiledOps(isa))
        return *o;
    throw std::invalid_argument(std::string("kernel ISA ") +
                                isaName(isa) + " is not compiled in");
}

const KernelOps &
ops()
{
    return opsFor(activeIsa());
}

void
forEachColumnPanel(int64_t n, int64_t mults,
                   const std::function<void(int64_t, int64_t)> &panel)
{
    int64_t chunks = 1;
    if (mults >= kParallelMults && !serialScopeActive()) {
        const int64_t tiles = (n + kPanelCols - 1) / kPanelCols;
        chunks = std::min<int64_t>((int64_t)threadBudget(), tiles);
    }
    if (chunks <= 1) {
        panel(0, n);
        return;
    }
    const int64_t tiles = (n + kPanelCols - 1) / kPanelCols;
    const int64_t per = (tiles + chunks - 1) / chunks;
    parallelFor(chunks, [&](int64_t ci) {
        const int64_t j0 = ci * per * kPanelCols;
        const int64_t j1 = std::min(n, j0 + per * kPanelCols);
        if (j0 < j1)
            panel(j0, j1);
    });
}

} // namespace kernels
} // namespace se
