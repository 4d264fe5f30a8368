#include "harness.hh"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "kernels/dispatch.hh"

namespace pb {

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    if (v.size() == 1) {
        s.median = s.q1 = s.q3 = v[0];
        return s;
    }
    // statistics.quantiles(method='exclusive'), n = 4, in exact
    // integer index arithmetic.
    const long ld = (long)v.size(), m = ld + 1, n = 4;
    double q[3];
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::min(std::max(j, 1L), ld - 1);
        const long delta = i * m - j * n;
        q[i - 1] = (v[(size_t)j - 1] * (double)(n - delta) +
                    v[(size_t)j] * (double)delta) /
                   (double)n;
    }
    s.q1 = q[0];
    s.median = q[1];
    s.q3 = q[2];
    return s;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * (double)v.size());
    const size_t idx =
        (size_t)std::min(std::max(rank, 1.0), (double)v.size()) - 1;
    return v[idx];
}

LoadLog::LoadLog(double fromMs, double toMs, size_t windows)
    : fromMs_(fromMs), toMs_(std::max(toMs, fromMs)),
      windowMs_((toMs_ - fromMs_) / (double)std::max<size_t>(windows, 1)),
      latency_(std::max<size_t>(windows, 1))
{}

void
LoadLog::add(const RequestEvent &e)
{
    if (e.dueMs >= fromMs_ && e.dueMs < toMs_)
        late_.push_back((float)std::max(0.0, e.submitMs - e.dueMs));
    if (!e.ok || e.doneMs < fromMs_ || e.doneMs >= toMs_)
        return;
    const size_t w = std::min(latency_.size() - 1,
                              (size_t)((e.doneMs - fromMs_) / windowMs_));
    latency_[w].push_back((float)(e.doneMs - e.dueMs));
}

void
LoadLog::merge(const LoadLog &other)
{
    for (size_t w = 0; w < latency_.size() && w < other.latency_.size();
         ++w)
        latency_[w].insert(latency_[w].end(), other.latency_[w].begin(),
                           other.latency_[w].end());
    late_.insert(late_.end(), other.late_.begin(), other.late_.end());
}

std::vector<WindowStats>
LoadLog::windows() const
{
    std::vector<WindowStats> out(latency_.size());
    for (size_t w = 0; w < latency_.size(); ++w) {
        const std::vector<double> lat(latency_[w].begin(),
                                      latency_[w].end());
        out[w].answered = lat.size();
        out[w].rps = windowMs_ > 0.0
                         ? 1000.0 * (double)lat.size() / windowMs_
                         : 0.0;
        out[w].p50Ms = percentile(lat, 0.50);
        out[w].p99Ms = percentile(lat, 0.99);
    }
    return out;
}

double
LoadLog::lateness(double p) const
{
    return percentile(std::vector<double>(late_.begin(), late_.end()), p);
}

bool
ResponseChecker::matches(size_t input, const se::Tensor &y) const
{
    if (input >= refs_.size())
        return false;
    const se::Tensor &ref = refs_[input];
    return y.size() == ref.size() && !y.empty() &&
           std::memcmp(y.data(), ref.data(),
                       (size_t)y.size() * sizeof(float)) == 0;
}

bool
collectResponse(std::future<se::Tensor> &fut, const ResponseChecker &checker,
                size_t input, FailTally &tally)
{
    try {
        const se::Tensor y = fut.get();
        if (checker.matches(input, y))
            return true;
        ++tally.wrong;
    } catch (const std::invalid_argument &) {
        ++tally.rejected;
    } catch (const std::exception &) {
        ++tally.failed;
    }
    return false;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonHex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"", (unsigned long long)v);
    return buf;
}

std::string
jsonSummary(const std::string &name, const Summary &s)
{
    return "\"" + name + "\": {\"median\": " + jsonNumber(s.median) +
           ", \"q1\": " + jsonNumber(s.q1) +
           ", \"q3\": " + jsonNumber(s.q3) +
           ", \"n\": " + std::to_string(s.n) + "}";
}

std::string
resultLine(const RunResult &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        if (i)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

int
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? (int)hc : 1;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    return 0.0;
}

bool
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    return (bool)f;
}

std::string
hostFingerprint()
{
    std::ostringstream os;
    os << "\"nproc\": " << hostCpus() << ", \"isa\": \""
       << se::kernels::isaName(se::kernels::activeIsa())
       << "\", \"compiler\": \"" << PB_COMPILER
       << "\", \"build_type\": \"" << PB_BUILD_TYPE
       << "\", \"cxx_flags\": \"" << PB_CXX_FLAGS << "\"";
    return os.str();
}

} // namespace pb
