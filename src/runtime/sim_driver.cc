#include "runtime/sim_driver.hh"

#include "kernels/kernels.hh"

namespace se {
namespace runtime {

SimResults
SimDriver::sweep(const std::vector<const accel::Accelerator *> &accs,
                 const std::vector<sim::Workload> &workloads,
                 bool include_fc,
                 const std::function<bool(size_t, size_t)> &skip) const
{
    const size_t na = accs.size(), nw = workloads.size();
    SimResults cells(na, std::vector<SimCell>(nw));

    // One task per (accelerator, workload) cell. Each cell accumulates
    // its layers serially in network order, exactly like runNetwork,
    // so the parallel sweep is bit-identical to the serial one.
    auto run_cell = [&](int64_t flat) {
        const size_t ai = (size_t)flat / nw, wi = (size_t)flat % nw;
        if (skip && skip(ai, wi))
            return;
        SimCell &cell = cells[ai][wi];
        cell.stats = accs[ai]->runNetwork(workloads[wi], include_fc);
        cell.run = true;
    };

    kernels::parallelFor((int64_t)(na * nw), run_cell,
                         opts_.resolvedThreads());
    return cells;
}

SimResults
SimDriver::sweep(const std::vector<accel::AcceleratorPtr> &accs,
                 const std::vector<sim::Workload> &workloads,
                 bool include_fc,
                 const std::function<bool(size_t, size_t)> &skip) const
{
    std::vector<const accel::Accelerator *> raw;
    raw.reserve(accs.size());
    for (const auto &a : accs)
        raw.push_back(a.get());
    return sweep(raw, workloads, include_fc, skip);
}

} // namespace runtime
} // namespace se
