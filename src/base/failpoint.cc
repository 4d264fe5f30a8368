#include "base/failpoint.hh"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <random>

#include "base/mutex.hh"
#include "base/random.hh"

namespace se {
namespace failpoint {

namespace detail {
std::atomic<int> g_armedCount{0};
} // namespace detail

namespace {

/** Per-name armed state (counters survive disarm via the tombstone
 *  flag so tests can read hit/fire counts after a ScopedArm ends). */
struct State
{
    Policy policy;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t fires = 0;
    Mt19937_64 rng;  ///< Prob policies only
};

base::Mutex g_mu;
/** std::map keeps armedNames() deterministic; the registry is tiny.
 *  Function-local static (arming can legally happen during another
 *  TU's static init); SE_REQUIRES makes every access prove it holds
 *  g_mu, since the returned reference outlives the call. */
std::map<std::string, State> &
registry() SE_REQUIRES(g_mu)
{
    static std::map<std::string, State> r;
    return r;
}
std::vector<std::string> g_armOrder SE_GUARDED_BY(g_mu);

uint64_t
parseCount(const char *name, const std::string &digits, uint64_t min)
{
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument(
            std::string("failpoint policy ") + name +
            " needs an unsigned integer, got '" + digits + "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(digits.c_str(), &end, 10);
    if (errno == ERANGE || v < min)
        throw std::invalid_argument(
            std::string("failpoint policy ") + name +
            " count out of range: '" + digits + "'");
    return (uint64_t)v;
}

} // namespace

Policy
parsePolicy(const std::string &text)
{
    Policy p;
    if (text == "once") {
        p.kind = Policy::Kind::Once;
        return p;
    }
    if (text.rfind("1in", 0) == 0) {
        p.kind = Policy::Kind::EveryN;
        p.n = parseCount("1inN", text.substr(3), 1);
        return p;
    }
    if (text.rfind("after", 0) == 0) {
        p.kind = Policy::Kind::AfterN;
        p.n = parseCount("afterN", text.substr(5), 0);
        return p;
    }
    if (!text.empty() && text[0] == 'p') {
        p.kind = Policy::Kind::Prob;
        std::string prob = text.substr(1);
        const size_t at = prob.find('@');
        if (at != std::string::npos) {
            p.seed = parseCount("p@seed", prob.substr(at + 1), 0);
            prob = prob.substr(0, at);
        }
        char *end = nullptr;
        errno = 0;
        p.p = std::strtod(prob.c_str(), &end);
        if (prob.empty() || end != prob.c_str() + prob.size() ||
            errno == ERANGE || !(p.p > 0.0) || p.p > 1.0)
            throw std::invalid_argument(
                "failpoint probability must be in (0, 1], got '" +
                prob + "'");
        return p;
    }
    throw std::invalid_argument(
        "unrecognized failpoint policy '" + text +
        "' (expected once | 1inN | afterN | pF[@seed])");
}

std::vector<std::pair<std::string, Policy>>
parseSpec(const std::string &spec)
{
    std::vector<std::pair<std::string, Policy>> out;
    if (spec.empty())
        return out;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        const size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= item.size())
            throw std::invalid_argument(
                "failpoint spec item must be name:policy, got '" +
                item + "'");
        const std::string name = item.substr(0, colon);
        for (const auto &prev : out)
            if (prev.first == name)
                throw std::invalid_argument(
                    "failpoint '" + name +
                    "' armed twice in one spec");
        out.emplace_back(name, parsePolicy(item.substr(colon + 1)));
        pos = comma + 1;
    }
    return out;
}

void
arm(const std::string &name, const Policy &policy)
{
    if (name.empty())
        throw std::invalid_argument(
            "failpoint name must be non-empty");
    base::LockGuard lk(g_mu);
    State &s = registry()[name];
    if (!s.armed)
        detail::g_armedCount.fetch_add(1, std::memory_order_relaxed);
    s.policy = policy;
    s.armed = true;
    s.hits = 0;
    s.fires = 0;
    s.rng = Mt19937_64(policy.seed);
    for (const auto &n : g_armOrder)
        if (n == name)
            return;
    g_armOrder.push_back(name);
}

void
arm(const std::string &name, const std::string &policy)
{
    arm(name, parsePolicy(policy));
}

void
armFromSpec(const std::string &spec)
{
    const auto parsed = parseSpec(spec);  // all-or-nothing: parse first
    disarmAll();
    for (const auto &[name, policy] : parsed)
        arm(name, policy);
}

void
disarm(const std::string &name)
{
    base::LockGuard lk(g_mu);
    auto it = registry().find(name);
    if (it == registry().end() || !it->second.armed)
        return;
    it->second.armed = false;
    detail::g_armedCount.fetch_sub(1, std::memory_order_relaxed);
    for (auto oit = g_armOrder.begin(); oit != g_armOrder.end(); ++oit)
        if (*oit == name) {
            g_armOrder.erase(oit);
            break;
        }
}

void
disarmAll()
{
    base::LockGuard lk(g_mu);
    int armed = 0;
    for (auto &e : registry())
        if (e.second.armed) {
            e.second.armed = false;
            ++armed;
        }
    registry().clear();
    g_armOrder.clear();
    detail::g_armedCount.fetch_sub(armed, std::memory_order_relaxed);
}

std::vector<std::string>
armedNames()
{
    base::LockGuard lk(g_mu);
    return g_armOrder;
}

uint64_t
hitCount(const std::string &name)
{
    base::LockGuard lk(g_mu);
    auto it = registry().find(name);
    return it == registry().end() ? 0 : it->second.hits;
}

uint64_t
fireCount(const std::string &name)
{
    base::LockGuard lk(g_mu);
    auto it = registry().find(name);
    return it == registry().end() ? 0 : it->second.fires;
}

namespace detail {

bool
evaluateSlow(const char *name)
{
    base::LockGuard lk(g_mu);
    auto it = registry().find(name);
    if (it == registry().end() || !it->second.armed)
        return false;
    State &s = it->second;
    ++s.hits;
    bool fire = false;
    switch (s.policy.kind) {
    case Policy::Kind::Once:
        fire = s.hits == 1;
        break;
    case Policy::Kind::EveryN:
        fire = s.hits % s.policy.n == 0;
        break;
    case Policy::Kind::AfterN:
        fire = s.hits > s.policy.n;
        break;
    case Policy::Kind::Prob: {
        std::uniform_real_distribution<double> d(0.0, 1.0);
        fire = d(s.rng) < s.policy.p;
        break;
    }
    }
    if (fire)
        ++s.fires;
    return fire;
}

} // namespace detail

} // namespace failpoint
} // namespace se
