/**
 * @file
 * Span recording for the traced run.
 *
 * Spans are taken from the benchmark's own code, around each call it
 * makes into a module's public API, plus one async span per request.
 * They stay in memory and are written once at the end as Chrome
 * trace-event JSON (chrome://tracing, Perfetto), each complete span
 * carrying its self time: its duration minus the part of it that its
 * direct child spans on the same thread cover.
 */

#ifndef PB_TRACE_HH
#define PB_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/mutex.hh"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    /** A complete span [t0, t1) on the calling thread. */
    void complete(std::string name, Clock::time_point t0,
                  Clock::time_point t1) SE_EXCLUDES(mu_);

    /** An async span: one request, overlapping others on its thread. */
    void async(std::string name, uint64_t id, Clock::time_point t0,
               Clock::time_point t1) SE_EXCLUDES(mu_);

    /** Self time (ms) of every complete span, summed per name. */
    std::map<std::string, double> selfTimeByName() const
        SE_EXCLUDES(mu_);

    /** Write the Chrome trace-event JSON; false if the file failed. */
    bool write(const std::string &path) const SE_EXCLUDES(mu_);

    /**
     * Write the trace to `path` and return a JSON object body naming
     * the file and the self time (ms) per span name, per-layer probe
     * spans left out (their numbers are metrics already).
     */
    std::string writeAndSummarize(const std::string &path) const
        SE_EXCLUDES(mu_);

  private:
    struct Event
    {
        std::string name;
        int tid = 0;
        bool isAsync = false;
        uint64_t id = 0;
        double tsUs = 0.0;
        double durUs = 0.0;
        double selfUs = 0.0;
    };

    double usSinceOrigin(Clock::time_point t) const;
    /** Events with selfUs filled in for every complete span. */
    std::vector<Event> withSelfTime() const SE_EXCLUDES(mu_);

    const Clock::time_point origin_;
    mutable se::base::Mutex mu_;
    std::vector<Event> events_ SE_GUARDED_BY(mu_);
};

/** Times one call into the program; records nothing without a tracer. */
class Span
{
  public:
    Span(Tracer *tracer, std::string name)
        : tracer_(tracer), name_(tracer ? std::move(name) : std::string()),
          t0_(Clock::now())
    {}
    ~Span()
    {
        if (tracer_)
            tracer_->complete(std::move(name_), t0_, Clock::now());
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    std::string name_;
    Clock::time_point t0_;
};

} // namespace pb

#endif // PB_TRACE_HH
