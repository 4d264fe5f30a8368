/**
 * @file
 * Grow-only scratch arena for the kernel lowerings, one per thread.
 *
 * threadScratch() gives every thread its own arena. The conv and
 * Linear lowerings stage their temporaries (padded input, column
 * matrix, GEMM output, W or gy transposes) in the calling thread's
 * arena, so a thread holds the largest single call's need instead of
 * one buffer per layer, and no arena is ever shared between threads.
 * A lowering takes one block per call and calls no other lowering
 * while it holds it, so uses on one thread never overlap. Pool
 * workers running one of its GEMM panels work in the caller's block,
 * never in their own arenas.
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
    /**
     * A block of at least `floats` floats with unspecified contents.
     * Growing invalidates pointers from earlier calls: the old block
     * is freed before the new one is taken, so the two never coexist
     * and the allocator can extend the old block in place.
     */
    float *
    buffer(int64_t floats)
    {
        if ((int64_t)buf_.size() < floats) {
            release();
            buf_.resize((size_t)floats);
        }
        return buf_.data();
    }

    /** Floats currently allocated (observability/tests). */
    size_t
    floatsReserved() const
    {
        return buf_.capacity();
    }

    /** Free the block. */
    void
    release()
    {
        std::vector<float>().swap(buf_);
    }

  private:
    std::vector<float> buf_;
};

/** The calling thread's arena, freed when the thread exits. */
inline ScratchArena &
threadScratch()
{
    thread_local ScratchArena arena;
    return arena;
}

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_SCRATCH_HH
