/**
 * @file
 * Batched accelerator simulation.
 *
 * Every figure/table bench and example used to hand-roll the same
 * nested loop: for each accelerator, for each workload, sum runLayer()
 * over the layers. SimDriver owns that loop once, fans the
 * (accelerator, workload) cells out on the process executor
 * (kernels::pool()) at RuntimeOptions::threads width, and returns the
 * full result matrix. Accelerator::runLayer is const and
 * side-effect free, and each cell accumulates its own RunStats in
 * layer order, so parallel results are identical to serial ones.
 */

#ifndef SE_RUNTIME_SIM_DRIVER_HH
#define SE_RUNTIME_SIM_DRIVER_HH

#include <functional>
#include <vector>

#include "accel/accelerator.hh"
#include "runtime/options.hh"

namespace se {
namespace runtime {

/** One (accelerator, workload) cell of a sweep. */
struct SimCell
{
    sim::RunStats stats;
    bool run = false;  ///< false when the skip predicate excluded it
};

/** Result matrix of a sweep: cells[accelerator][workload]. */
using SimResults = std::vector<std::vector<SimCell>>;

class SimDriver
{
  public:
    explicit SimDriver(RuntimeOptions opts = {}) : opts_(opts) {}

    /**
     * Run every accelerator over every workload. `skip(ai, wi)` may
     * exclude pairs (e.g. the paper's SCNN-on-EfficientNet protocol
     * hole); excluded cells come back with run == false.
     */
    SimResults
    sweep(const std::vector<const accel::Accelerator *> &accs,
          const std::vector<sim::Workload> &workloads,
          bool include_fc = true,
          const std::function<bool(size_t, size_t)> &skip = nullptr)
        const;

    /** Convenience overload for owning-pointer accelerator lists. */
    SimResults
    sweep(const std::vector<accel::AcceleratorPtr> &accs,
          const std::vector<sim::Workload> &workloads,
          bool include_fc = true,
          const std::function<bool(size_t, size_t)> &skip = nullptr)
        const;

    const RuntimeOptions &options() const { return opts_; }

  private:
    RuntimeOptions opts_;
};

} // namespace runtime
} // namespace se

#endif // SE_RUNTIME_SIM_DRIVER_HH
