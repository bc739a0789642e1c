// Unit tests of the benchmark's percentile and self-time math.

#include <gtest/gtest.h>

#include "stats.hh"
#include "trace.hh"

using namespace perfbench;

TEST(Quantile, InterpolatesBetweenClosestRanks)
{
    const std::vector<double> v = {4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
    // R-7: position q*(n-1) = 2.7 -> 3 + 0.7*(4-3).
    EXPECT_DOUBLE_EQ(quantile(v, 0.9), 3.7);
    EXPECT_DOUBLE_EQ(median({5}), 5.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({1, 2, 3}), 2.0);
}

TEST(Quantile, MatchesNumpyOnALargerSample)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    // numpy.percentile(range(1, 101), 90) == 90.1
    EXPECT_NEAR(quantile(v, 0.9), 90.1, 1e-12);
    EXPECT_EQ(countAbove(v, 0.9), 10u);
    EXPECT_DOUBLE_EQ(mean(v), 50.5);
}

namespace {

Span
span(std::uint32_t id, std::uint32_t parent, std::int64_t a, std::int64_t b)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.startNs = a * 1000000;
    s.endNs = b * 1000000;
    return s;
}

} // namespace

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    // root [0,10]: children [1,4] and [3,6] overlap -> cover 5 ms.
    // child 2 has a grandchild [2,3] -> its self time is 2 ms.
    const std::vector<Span> s = {span(1, 0, 0, 10), span(2, 1, 1, 4),
                                 span(3, 1, 3, 6), span(4, 2, 2, 3)};
    const std::vector<double> self = selfTimesMs(s);
    EXPECT_DOUBLE_EQ(self[0], 5.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTime, ClipsChildrenToTheParent)
{
    // A ledger-derived child may start before its parent on another
    // clock; only the overlap counts, and self time never goes negative.
    const std::vector<Span> s = {span(1, 0, 5, 10), span(2, 1, 0, 7),
                                 span(3, 0, 0, 1), span(4, 3, 0, 2)};
    const std::vector<double> self = selfTimesMs(s);
    EXPECT_DOUBLE_EQ(self[0], 3.0);
    EXPECT_DOUBLE_EQ(self[2], 0.0);
}

TEST(SpanLog, TotalsByNameAddSelfAndTotal)
{
    SpanLog log;
    const std::uint32_t job = log.add("job", 0, "j", 0, 10000000);
    log.add("run", job, "j", 2000000, 6000000);
    log.add("run", job, "j", 7000000, 8000000);
    const auto t = log.totalsByName();
    EXPECT_EQ(t.at("run").count, 2u);
    EXPECT_DOUBLE_EQ(t.at("run").totalMs, 5.0);
    EXPECT_DOUBLE_EQ(t.at("job").selfMs, 5.0);
}
