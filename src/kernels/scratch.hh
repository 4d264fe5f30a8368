/**
 * @file
 * Grow-only scratch arena for the kernel lowerings.
 *
 * Each Conv2d/Linear layer owns one arena, so the im2col column
 * buffer and the Linear transpose buffer are allocated once at the
 * layer's steady-state sizes and reused across every subsequent
 * forward/backward call — the per-call allocation churn of the
 * original loops. Not thread-safe: an arena belongs to exactly one
 * layer instance, which the nn layer contract already restricts to
 * one caller at a time.
 */

#ifndef SE_KERNELS_SCRATCH_HH
#define SE_KERNELS_SCRATCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace se {
namespace kernels {

class ScratchArena
{
  public:
    /** im2col column matrix (also the gy transpose for Linear). */
    float *
    colBuffer(int64_t floats)
    {
        return grow(col_, floats);
    }

    /** Transposed Linear weights for batched forward inputs. */
    float *
    transposeBuffer(int64_t floats)
    {
        return grow(wt_, floats);
    }

    /** Total floats currently reserved (observability/tests). */
    size_t
    floatsReserved() const
    {
        return col_.size() + wt_.size();
    }

    /** Drop every buffer (e.g. after a model is torn down). */
    void
    release()
    {
        col_.clear();
        col_.shrink_to_fit();
        wt_.clear();
        wt_.shrink_to_fit();
    }

  private:
    static float *
    grow(std::vector<float> &v, int64_t floats)
    {
        if ((int64_t)v.size() < floats)
            v.resize((size_t)floats);
        return v.data();
    }

    std::vector<float> col_, wt_;
};

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_SCRATCH_HH
