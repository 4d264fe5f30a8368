/**
 * @file
 * Self-tests of the benchmark harness: the median/quartile maths on
 * known vectors (checked against Python's statistics.quantiles), seed
 * -> input determinism, failure accounting of a corrupted response,
 * and open-loop lateness accounting. Exits non-zero on any failure.
 *
 * Run: python3 perfbench/run.py --self-test
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <stdexcept>

#include "harness.hh"
#include "inputs.hh"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

void
testQuantiles()
{
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    pb::Summary s = pb::summarize({4, 1, 3, 2});
    check(near(s.q1, 1.25) && near(s.median, 2.5) && near(s.q3, 3.75) &&
              s.n == 4,
          "quartiles of 1..4");
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    s = pb::summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    check(near(s.q1, 2.75) && near(s.median, 5.5) && near(s.q3, 8.25),
          "quartiles of 1..10");
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    s = pb::summarize({5, 3, 1, 4, 2});
    check(near(s.q1, 1.5) && near(s.median, 3.0) && near(s.q3, 4.5),
          "quartiles of 1..5 (odd count)");
    // statistics.quantiles([2.0, 7.0], n=4) == [0.75, 4.5, 8.25]
    s = pb::summarize({7.0, 2.0});
    check(near(s.q1, 0.75) && near(s.median, 4.5) && near(s.q3, 8.25),
          "quartiles of two values");
    s = pb::summarize({3.5});
    check(s.median == 3.5 && s.q1 == 3.5 && s.q3 == 3.5, "single value");
    s = pb::summarize({});
    check(s.n == 0 && s.median == 0.0, "empty vector");

    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    check(pb::percentile(hundred, 0.99) == 99.0, "p99 of 1..100");
    check(pb::percentile(hundred, 0.50) == 50.0, "p50 of 1..100");
    check(pb::percentile(hundred, 1.0) == 100.0, "max of 1..100");
    check(pb::percentile({}, 0.99) == 0.0, "percentile of nothing");
}

void
testDeterminism()
{
    using pb::digestSchedule;
    using pb::digestTraffic;
    check(digestTraffic(pb::makeTraffic(7, 16)) ==
              digestTraffic(pb::makeTraffic(7, 16)),
          "same seed, same traffic");
    check(digestTraffic(pb::makeTraffic(7, 16)) !=
              digestTraffic(pb::makeTraffic(8, 16)),
          "other seed, other traffic");
    check(pb::makePicks(7, 100, 64) == pb::makePicks(7, 100, 64),
          "same seed, same picks");
    check(digestSchedule(pb::poissonSchedule(7, 500.0, 1000.0, 2, 64)) ==
              digestSchedule(pb::poissonSchedule(7, 500.0, 1000.0, 2, 64)),
          "same seed, same schedule");
    check(digestSchedule(pb::poissonSchedule(7, 500.0, 1000.0, 2, 64)) !=
              digestSchedule(pb::poissonSchedule(8, 500.0, 1000.0, 2, 64)),
          "other seed, other schedule");
    const auto sched = pb::poissonSchedule(3, 2000.0, 5000.0, 2, 64);
    check(sched.size() > 9000 && sched.size() < 11000,
          "Poisson count near rate x duration");
    bool sorted = true;
    for (size_t i = 1; i < sched.size(); ++i)
        sorted = sorted && sched[i].dueMs >= sched[i - 1].dueMs &&
                 sched[i].tenant != sched[i - 1].tenant;
    check(sorted, "arrivals ordered and alternating tenants");

    const auto s1 = pb::makeSubject(se::models::ModelId::VGG11, 7);
    const auto s2 = pb::makeSubject(se::models::ModelId::VGG11, 8);
    const std::string a = pb::saveV4(pb::compressSubject(s1, true));
    const std::string b = pb::saveV4(pb::compressSubject(s1, true));
    const std::string c = pb::saveV4(pb::compressSubject(s2, true));
    check(pb::digestBytes(a) == pb::digestBytes(b),
          "same seed, same bundle digest");
    check(pb::digestBytes(a) != pb::digestBytes(c),
          "other seed, other bundle digest");
}

std::future<se::Tensor>
ready(se::Tensor t)
{
    std::promise<se::Tensor> p;
    p.set_value(std::move(t));
    return p.get_future();
}

void
testCorruptedResponse()
{
    se::Tensor ref({1, 4}, std::vector<float>{1.0f, -2.0f, 0.5f, 3.0f});
    const pb::ResponseChecker checker({ref});
    pb::FailTally tally;
    tally.offered = 3;

    // The engine strips the batch dim; bytes are what count.
    auto good = ready(ref.reshaped({4}));
    check(pb::collectResponse(good, checker, 0, tally), "exact answer ok");
    check(tally.ratio() == 0.0, "no failure yet");

    se::Tensor bad = ref.reshaped({4});
    uint32_t bits;
    std::memcpy(&bits, bad.data() + 2, sizeof(bits));
    bits ^= 1u;  // one ulp off: still "close", but not the answer
    std::memcpy(bad.data() + 2, &bits, sizeof(bits));
    auto corrupted = ready(bad);
    check(!pb::collectResponse(corrupted, checker, 0, tally),
          "corrupted answer rejected");
    check(tally.wrong == 1 && near(tally.ratio(), 1.0 / 3.0),
          "corrupted answer raises fail_ratio");

    std::promise<se::Tensor> thrower;
    thrower.set_exception(
        std::make_exception_ptr(std::runtime_error("replica died")));
    auto failed = thrower.get_future();
    check(!pb::collectResponse(failed, checker, 0, tally),
          "errored answer rejected");
    check(tally.failed == 1 && tally.failures() == 2 &&
              near(tally.ratio(), 2.0 / 3.0),
          "errored answer counted as failed");
}

void
testOpenLoopLateness()
{
    // 100 requests due every 10 ms; the generator runs 5 ms late on
    // every tenth one; each takes 2 ms once sent.
    pb::LoadLog log(0.0, 1000.0, 2);
    for (int i = 0; i < 100; ++i) {
        const double due = 10.0 * i;
        const double submit = due + (i % 10 == 9 ? 5.0 : 0.0);
        log.add({due, submit, submit + 2.0, true});
    }
    check(log.offered() == 100, "offered counts due requests");
    check(near(log.lateness(0.99), 5.0), "late p99 is 5 ms");
    check(near(log.lateness(0.50), 0.0), "late p50 is 0 ms");

    // Latency runs from the due time: the late ones read 7 ms.
    const auto w = log.windows();
    check(w.size() == 2 && w[0].answered == 50 && w[1].answered == 50,
          "windows split by completion time");
    check(near(w[0].p50Ms, 2.0) && near(w[0].p99Ms, 7.0),
          "lateness shows in latency");
    check(near(w[0].rps, 100.0), "window rate");
}

} // namespace

int
main()
{
    testQuantiles();
    testDeterminism();
    testCorruptedResponse();
    testOpenLoopLateness();
    if (failures) {
        std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench self-tests passed\n");
    return 0;
}
