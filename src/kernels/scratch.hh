/**
 * @file
 * Grow-only scratch arena for the kernel lowerings, one per thread.
 *
 * threadScratch() gives every thread its own arena. The conv and
 * Linear lowerings stage their temporaries (panel offsets, padded
 * input, column matrix, W or gy transposes) in the calling thread's
 * arena, so a thread holds the largest single call's need instead of
 * one buffer per layer, and no arena is ever shared between threads.
 * A lowering takes one float block and one offsets block per call
 * and calls no other lowering while it holds them, so uses on one
 * thread never overlap. Pool workers running one of its GEMM panels
 * read the caller's blocks. The AVX2 and AVX-512 double-chain panels
 * widen A rows into the widened() block of whichever thread runs
 * them, which leaves the other two valid.
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
    float *buffer(int64_t floats) { return grow(buf_, floats); }

    /** A second block, for a lowering's panel offsets; as buffer(). */
    int64_t *offsets(int64_t count) { return grow(offs_, count); }

    /**
     * A third block, for the A rows a SIMD double-chain panel
     * widens on whichever thread runs it; as buffer().
     */
    double *widened(int64_t doubles) { return grow(wide_, doubles); }

    /** Floats currently allocated, an int64 or a double counting two. */
    size_t
    floatsReserved() const
    {
        return buf_.capacity() + 2 * (offs_.capacity() + wide_.capacity());
    }

    /** Free every block. */
    void release() { *this = ScratchArena(); }

  private:
    template <class T>
    static T *
    grow(std::vector<T> &v, int64_t n)
    {
        if ((int64_t)v.size() < n) {
            std::vector<T>().swap(v);
            v.resize((size_t)n);
        }
        return v.data();
    }

    std::vector<float> buf_;
    std::vector<int64_t> offs_;
    std::vector<double> wide_;
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
