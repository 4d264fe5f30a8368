/**
 * @file
 * Measurement core of the benchmark: medians, quartiles and
 * percentiles, the per-request load log every serve workload records,
 * output checking, failure accounting, the metric list a run prints,
 * and the host fingerprint stamped on every result.
 */

#ifndef PB_HARNESS_HH
#define PB_HARNESS_HH

#include <cstddef>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace pb {

// ---------------------------------------------------------------- maths

/** Median and quartiles of one metric across samples. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 0;
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(values, n=4), so the harness and a reader's
 * Python agree digit for digit; the median is the middle quartile. One
 * value reports that value for all three; no value reports zeros.
 */
Summary summarize(std::vector<double> values);

/** Nearest-rank percentile, p in (0, 1]; 0 for an empty vector. */
double percentile(std::vector<double> values, double p);

// ------------------------------------------------------------- load log

/** One request's timeline, in ms since the load phase started. */
struct RequestEvent
{
    /** When it should have been sent (the submit time in a closed
     *  loop, the schedule slot in an open loop). */
    double dueMs = 0.0;
    double submitMs = 0.0;
    double doneMs = 0.0;  ///< when its response was observed
    bool ok = false;      ///< answered and bit-identical to reference
};

/** Per-window statistics of a load phase. */
struct WindowStats
{
    double rps = 0.0;  ///< answered requests / window length
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    size_t answered = 0;
};

/**
 * The requests of one timed phase [fromMs, toMs), split into `windows`
 * equal samples. A request counts in the window its answer landed in,
 * with latency doneMs - dueMs: in an open loop a late generator
 * therefore shows up as latency, the wait a stall imposes on later
 * requests. Only what the statistics need is kept (4 bytes per
 * answer), and nothing from outside the phase, so the log barely
 * touches the process's memory.
 */
class LoadLog
{
  public:
    LoadLog(double fromMs, double toMs, size_t windows);

    void add(const RequestEvent &e);
    /** Fold in a log of the same phase and windows. */
    void merge(const LoadLog &other);

    /** Each window's rate and latency percentiles. */
    std::vector<WindowStats> windows() const;

    /** Nearest-rank percentile of submitMs - dueMs over requests due
     *  in the phase: how late the generator ran. */
    double lateness(double p) const;

    /** Requests due in the phase. */
    size_t offered() const { return late_.size(); }

  private:
    double fromMs_, toMs_, windowMs_;
    std::vector<std::vector<float>> latency_;  ///< per window, answered
    std::vector<float> late_;                  ///< per request due
};

// ------------------------------------------------------------- checking

/** Compares responses bit for bit with per-input reference outputs. */
class ResponseChecker
{
  public:
    explicit ResponseChecker(std::vector<se::Tensor> refs)
        : refs_(std::move(refs))
    {}

    /** True when `y` holds exactly the reference bytes of `input`
     *  (shapes may differ by the stripped batch dimension). */
    bool matches(size_t input, const se::Tensor &y) const;

  private:
    std::vector<se::Tensor> refs_;
};

/** Operation accounting behind `attempted`, `failed` and fail_ratio. */
struct FailTally
{
    uint64_t offered = 0;
    uint64_t failed = 0;    ///< raised an error while being served
    uint64_t shed = 0;      ///< refused at admission (queue full)
    uint64_t rejected = 0;  ///< refused as malformed
    uint64_t wrong = 0;     ///< answered, but not the reference output

    uint64_t failures() const { return failed + shed + rejected + wrong; }
    double
    ratio() const
    {
        return offered ? (double)failures() / (double)offered : 0.0;
    }
    void
    add(const FailTally &o)
    {
        offered += o.offered;
        failed += o.failed;
        shed += o.shed;
        rejected += o.rejected;
        wrong += o.wrong;
    }
};

/**
 * Wait for one response and check it against the reference of
 * `input`, counting an error or a mismatch in `tally`; true when the
 * answer is exactly right.
 */
bool collectResponse(std::future<se::Tensor> &fut,
                     const ResponseChecker &checker, size_t input,
                     FailTally &tally);

// ---------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run prints. `details` is a JSON object body (no braces)
 *  printed on the line before the result. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::string details;

    void
    put(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** A finite double with every significant digit (JSON has no NaN). */
std::string jsonNumber(double v);

/** A 64-bit digest as a quoted hex string. */
std::string jsonHex(uint64_t v);

/** `"name": {"median": .., "q1": .., "q3": .., "n": ..}` */
std::string jsonSummary(const std::string &name, const Summary &s);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultLine(const RunResult &r);

// ------------------------------------------------------------------ host

/** CPUs this process may run on (what `nproc` prints). */
int hostCpus();

/** Peak resident set (VmHWM) of this process in MB; 0 if unknown. */
double peakRssMb();

/** Reset VmHWM to the current resident set (Linux clear_refs "5"), so
 *  a later peakRssMb() sees only what ran after this call. Returns
 *  false if the kernel refused. */
bool resetPeakRss();

/** JSON object body: nproc, kernel ISA, compiler, build type, flags. */
std::string hostFingerprint();

} // namespace pb

#endif // PB_HARNESS_HH
