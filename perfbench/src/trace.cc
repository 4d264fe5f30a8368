#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "harness.hh"

namespace pb {

namespace {

/** Small stable per-thread id for the trace's "tid" field. */
int
threadId()
{
    static std::atomic<int> next{1};
    static thread_local const int id = next.fetch_add(1);
    return id;
}

std::string
escaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

double
Tracer::usSinceOrigin(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void
Tracer::complete(std::string name, Clock::time_point t0,
                 Clock::time_point t1)
{
    Event e;
    e.name = std::move(name);
    e.tid = threadId();
    e.tsUs = usSinceOrigin(t0);
    e.durUs = usSinceOrigin(t1) - e.tsUs;
    se::base::LockGuard lk(mu_);
    events_.push_back(std::move(e));
}

void
Tracer::async(std::string name, uint64_t id, Clock::time_point t0,
              Clock::time_point t1)
{
    Event e;
    e.name = std::move(name);
    e.tid = threadId();
    e.isAsync = true;
    e.id = id;
    e.tsUs = usSinceOrigin(t0);
    e.durUs = usSinceOrigin(t1) - e.tsUs;
    se::base::LockGuard lk(mu_);
    events_.push_back(std::move(e));
}

std::vector<Tracer::Event>
Tracer::withSelfTime() const
{
    std::vector<Event> ev;
    {
        se::base::LockGuard lk(mu_);
        ev = events_;
    }
    // Spans of one thread nest (they come from scoped Span objects),
    // so a stack walk in start order finds each span's direct parent;
    // a parent starting at the same instant sorts first (longer).
    std::vector<size_t> order;
    for (size_t i = 0; i < ev.size(); ++i)
        if (!ev[i].isAsync)
            order.push_back(i);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (ev[a].tid != ev[b].tid)
            return ev[a].tid < ev[b].tid;
        if (ev[a].tsUs != ev[b].tsUs)
            return ev[a].tsUs < ev[b].tsUs;
        return ev[a].durUs > ev[b].durUs;
    });
    std::vector<double> childUs(ev.size(), 0.0);
    std::vector<size_t> stack;
    int tid = -1;
    for (size_t i : order) {
        if (ev[i].tid != tid) {
            stack.clear();
            tid = ev[i].tid;
        }
        while (!stack.empty() &&
               ev[stack.back()].tsUs + ev[stack.back()].durUs <=
                   ev[i].tsUs)
            stack.pop_back();
        if (!stack.empty())
            childUs[stack.back()] += ev[i].durUs;
        stack.push_back(i);
    }
    for (size_t i = 0; i < ev.size(); ++i)
        ev[i].selfUs = std::max(0.0, ev[i].durUs - childUs[i]);
    return ev;
}

std::map<std::string, double>
Tracer::selfTimeByName() const
{
    std::map<std::string, double> out;
    for (const Event &e : withSelfTime())
        if (!e.isAsync)
            out[e.name] += e.selfUs / 1000.0;
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (const Event &e : withSelfTime()) {
        if (!first)
            f << ",\n";
        first = false;
        const std::string name = escaped(e.name);
        if (e.isAsync) {
            // A request: begin/end pair sharing its id.
            f << "{\"name\": \"" << name
              << "\", \"cat\": \"request\", \"ph\": \"b\", \"id\": "
              << e.id << ", \"pid\": 1, \"tid\": " << e.tid
              << ", \"ts\": " << jsonNumber(e.tsUs) << "},\n"
              << "{\"name\": \"" << name
              << "\", \"cat\": \"request\", \"ph\": \"e\", \"id\": "
              << e.id << ", \"pid\": 1, \"tid\": " << e.tid
              << ", \"ts\": " << jsonNumber(e.tsUs + e.durUs) << "}";
        } else {
            f << "{\"name\": \"" << name
              << "\", \"cat\": \"call\", \"ph\": \"X\", \"pid\": 1, "
              << "\"tid\": " << e.tid << ", \"ts\": "
              << jsonNumber(e.tsUs) << ", \"dur\": "
              << jsonNumber(e.durUs) << ", \"args\": {\"self_us\": "
              << jsonNumber(e.selfUs) << "}}";
        }
    }
    f << "\n]}\n";
    return (bool)f;
}

std::string
Tracer::writeAndSummarize(const std::string &path) const
{
    std::string out = "\"trace_file\": \"" + escaped(path) + "\"";
    if (!write(path))
        out += ", \"trace_write_failed\": true";
    out += ", \"self_ms\": {";
    bool first = true;
    for (const auto &kv : selfTimeByName()) {
        if (kv.first.rfind("layer.", 0) == 0)
            continue;
        out += (first ? "\"" : ", \"") + escaped(kv.first) +
               "\": " + jsonNumber(kv.second);
        first = false;
    }
    return out + "}";
}

} // namespace pb
