/**
 * @file
 * Tests for the out-of-order-tolerant bandwidth primitives: the
 * sliding-window rate limiter and the single-server interval resource
 * (the key to correct contention modelling in a sequentially-simulated
 * pipeline — see rate_window.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/rate_window.hh"

namespace dtexl {
namespace {

TEST(RateWindow, AdmitsUpToCapacityAtOnce)
{
    RateWindow rw(4, 8);
    bool stalled = false;
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(rw.reserve(100, stalled), 100u);
        EXPECT_FALSE(stalled);
    }
    // 5th in the same window is pushed a window out.
    EXPECT_EQ(rw.reserve(100, stalled), 108u);
    EXPECT_TRUE(stalled);
}

TEST(RateWindow, SteadyStreamAtRate)
{
    // Capacity 2 per 4 cycles: a request every 2 cycles never stalls.
    RateWindow rw(2, 4);
    bool stalled = false;
    for (Cycle t = 0; t < 100; t += 2) {
        EXPECT_EQ(rw.reserve(t, stalled), t);
        EXPECT_FALSE(stalled) << t;
    }
}

TEST(RateWindow, EarlierRequestNotBlockedByLaterOnes)
{
    // The artifact this class exists to avoid: requests already
    // registered at a later time must not delay a logically-earlier
    // request in a disjoint window.
    RateWindow rw(2, 8);
    bool stalled = false;
    for (int i = 0; i < 2; ++i)
        rw.reserve(1000, stalled);
    // The window at cycle 100 is empty: grant immediately.
    EXPECT_EQ(rw.reserve(100, stalled), 100u);
    EXPECT_FALSE(stalled);
}

TEST(RateWindow, EarlierRequestStillSeesItsOwnWindow)
{
    RateWindow rw(1, 8);
    bool stalled = false;
    rw.reserve(100, stalled);
    // A later out-of-order request inside (100, 108) must queue.
    EXPECT_EQ(rw.reserve(104, stalled), 108u);
    EXPECT_TRUE(stalled);
}

TEST(RateWindow, SequentialOverloadQueues)
{
    RateWindow rw(1, 10);
    bool stalled = false;
    EXPECT_EQ(rw.reserve(0, stalled), 0u);
    EXPECT_EQ(rw.reserve(0, stalled), 10u);
    EXPECT_EQ(rw.reserve(0, stalled), 20u);
}

TEST(RateWindow, ClearResets)
{
    RateWindow rw(1, 10);
    bool stalled = false;
    rw.reserve(0, stalled);
    rw.clear();
    EXPECT_EQ(rw.reserve(0, stalled), 0u);
    EXPECT_FALSE(stalled);
}

class RateWindowRandomTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RateWindowRandomTest, InvariantHoldsUnderRandomTraffic)
{
    // Property: whatever the (possibly out-of-order) request stream,
    // the granted start times never put more than `cap` starts in any
    // window of W cycles, and every grant is >= its request.
    Rng rng(GetParam());
    const std::uint32_t cap = 3 + GetParam() % 5;
    const Cycle win = 6 + GetParam() % 9;
    RateWindow rw(cap, win);

    std::vector<Cycle> grants;
    Cycle base = 0;
    for (int i = 0; i < 400; ++i) {
        // Drifting base with out-of-order jitter.
        base += rng.nextBounded(3);
        const Cycle req = base + rng.nextBounded(20);
        bool stalled = false;
        const Cycle got = rw.reserve(req, stalled);
        EXPECT_GE(got, req);
        grants.push_back(got);
    }
    std::sort(grants.begin(), grants.end());
    for (std::size_t i = 0; i + cap < grants.size(); ++i) {
        // The (i+cap)-th grant must start a full window after the
        // i-th if they would otherwise overcrowd the window.
        EXPECT_GE(grants[i + cap], grants[i] + win)
            << "window overcrowded at grant " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RateWindowRandomTest,
                         ::testing::Values(1u, 7u, 13u, 29u));

TEST(IntervalResource, NonOverlappingReservations)
{
    IntervalResource res;
    EXPECT_EQ(res.reserve(0, 10), 0u);
    EXPECT_EQ(res.reserve(20, 10), 20u);
    // A request inside an existing reservation queues behind it.
    EXPECT_EQ(res.reserve(5, 10), 10u);
}

TEST(IntervalResource, FillsGaps)
{
    IntervalResource res;
    res.reserve(0, 10);    // [0,10)
    res.reserve(30, 10);   // [30,40)
    // A 5-cycle request at 12 fits the [10,30) gap.
    EXPECT_EQ(res.reserve(12, 5), 12u);
    // A 25-cycle request at 10 does not fit before [30,40): it lands
    // after.
    EXPECT_EQ(res.reserve(10, 25), 40u);
}

TEST(IntervalResource, EarlierRequestUsesEarlierSlot)
{
    IntervalResource res;
    res.reserve(100, 50);  // [100,150)
    // A logically-earlier request fits entirely before it.
    EXPECT_EQ(res.reserve(10, 20), 10u);
}

TEST(IntervalResource, BackToBackChains)
{
    IntervalResource res;
    Cycle t = 0;
    for (int i = 0; i < 5; ++i)
        t = res.reserve(0, 7);
    EXPECT_EQ(t, 28u);  // fifth of five 7-cycle slots from 0
}

TEST(IntervalResource, ClearResets)
{
    IntervalResource res;
    res.reserve(0, 100);
    res.clear();
    EXPECT_EQ(res.reserve(0, 10), 0u);
}

/**
 * The original IntervalResource, which starts its scan at the first
 * interval instead of binary-searching the ends: the oracle for the
 * fuzz below.
 */
class LinearScanIntervals
{
  public:
    Cycle
    reserve(Cycle now, Cycle duration)
    {
        while (busy.size() > 64)
            busy.pop_front();
        Cycle start = now;
        for (const auto &[s, e] : busy) {
            if (e <= start)
                continue;
            if (s >= start + duration)
                break;
            start = e;
        }
        auto it = std::lower_bound(
            busy.begin(), busy.end(), start,
            [](const std::pair<Cycle, Cycle> &iv, Cycle v) {
                return iv.first < v;
            });
        busy.insert(it, {start, start + duration});
        return start;
    }

    void clear() { busy.clear(); }

  private:
    std::deque<std::pair<Cycle, Cycle>> busy;
};

/**
 * Out-of-order request streams, far more than the 64 retained
 * intervals, must get the oracle's start cycle every time, also across
 * a clear() in the middle of the stream.
 */
TEST(IntervalResource, FuzzMatchesLinearScanOracle)
{
    const struct
    {
        Cycle maxDuration;
        Cycle jitter;  ///< how far a request may precede the drift
    } shapes[] = {{1, 0}, {4, 16}, {51, 200}, {8, 2000}, {150, 40}};

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const auto &shape : shapes) {
            Rng rng(seed);
            IntervalResource res;
            LinearScanIntervals oracle;
            Cycle base = 0;
            for (int i = 0; i < 6000; ++i) {
                if (i == 3000) {
                    res.clear();
                    oracle.clear();
                }
                base += rng.nextBounded(4);
                // Now and then a far jump, or a request older than
                // every retained interval.
                if (rng.nextBounded(256) == 0)
                    base += 10 * shape.maxDuration;
                Cycle now = base - std::min<Cycle>(
                                       base, rng.nextBounded(
                                                 shape.jitter + 1));
                if (rng.nextBounded(128) == 0)
                    now = 0;
                const Cycle duration =
                    1 + rng.nextBounded(shape.maxDuration);
                ASSERT_EQ(res.reserve(now, duration),
                          oracle.reserve(now, duration))
                    << "seed " << seed << " duration<="
                    << shape.maxDuration << " jitter " << shape.jitter
                    << " request " << i;
            }
        }
    }
}

} // namespace
} // namespace dtexl
