/**
 * @file
 * Bandwidth rate limiter tolerant of out-of-order reservation times.
 *
 * The pipeline model simulates components in code order, so accesses
 * reach a shared resource with non-monotonic timestamps. A monotonic
 * "next free cycle" cursor would falsely serialize a logically-early
 * access behind later ones; this limiter instead enforces the actual
 * bandwidth invariant — at most `capacity` reservations within any
 * `window`-cycle span — by searching the recorded start times.
 *
 * Two implementations live behind the `fast_path` constructor flag
 * (GpuConfig::simFastPath, handed down by MemHierarchy): the reference
 * one keeps the history in a std::deque exactly as originally written,
 * the fast one keeps it in a fixed power-of-two ring, allocated once,
 * so the binary search and window scans run on contiguous memory with
 * no compaction, with an O(1) append check for the common in-order
 * case. Both grant bit-identical start cycles for any request sequence
 * (tests/test_rate_window.cc, tests/test_fastpath_equiv.cc).
 */

#ifndef DTEXL_MEM_RATE_WINDOW_HH
#define DTEXL_MEM_RATE_WINDOW_HH

#include <algorithm>
#include <bit>
#include <deque>
#include <ranges>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace dtexl {

/** Sliding-window bandwidth reservation. */
class RateWindow
{
  public:
    /**
     * @param capacity  Reservations allowed per window.
     * @param window    Window length in cycles.
     * @param fast_path Ring-storage implementation (default) or the
     *                  deque reference implementation.
     */
    RateWindow(std::uint32_t capacity, Cycle window,
               bool fast_path = true)
        : cap(capacity), win(window), fast(fast_path)
    {
        dtexl_assert(capacity > 0 && window > 0);
        if (fast) {
            ring.resize(std::bit_ceil(std::size_t{capacity} *
                                      (kHorizonWindows + 2)));
            mask = ring.size() - 1;
        }
    }

    /**
     * Reserve a slot at the earliest cycle >= now satisfying the rate
     * invariant: no window of `win` cycles ever contains more than
     * `cap` reservations, counting reservations made both before and
     * after this one in simulation order (requests arrive with
     * out-of-order timestamps).
     *
     * @param now     Requested start cycle.
     * @param stalled Set true when the reservation had to be delayed.
     * @return Granted start cycle.
     */
    Cycle
    reserve(Cycle now, bool &stalled)
    {
        return fast ? reserveFast(now, stalled)
                    : reserveReference(now, stalled);
    }

    void
    clear()
    {
        starts.clear();
        head = 0;
        count = 0;
    }

  private:
    /** Retained history, in windows behind the newest reservation. */
    static constexpr Cycle kHorizonWindows = 64;

    /** The original implementation, kept as the equivalence oracle. */
    Cycle
    reserveReference(Cycle now, bool &stalled)
    {
        // Bound the history by a time horizon: entries more than
        // kHorizonWindows windows older than the newest reservation
        // can no longer constrain any request we guarantee the
        // invariant for. Because granted density is at most cap/win,
        // this also bounds memory to ~kHorizonWindows * cap entries.
        if (!starts.empty()) {
            const Cycle newest = starts.back();
            const Cycle horizon = win * kHorizonWindows;
            while (!starts.empty() &&
                   starts.front() + horizon < newest) {
                starts.pop_front();
            }
        }

        stalled = false;
        Cycle start = now;
        for (;;) {
            // Inserting `start` must not create any run of cap+1
            // reservations spanning fewer than `win` cycles. Examine
            // every window of cap existing entries that could combine
            // with `start`.
            const auto pos = std::lower_bound(starts.begin(),
                                              starts.end(), start);
            const std::size_t idx =
                static_cast<std::size_t>(pos - starts.begin());
            bool violates = false;
            Cycle retry = start;
            // k = entries at or before `start` included in the run.
            for (std::size_t k = 0; k <= cap; ++k) {
                if (k > idx)
                    break;  // not enough earlier entries
                const std::size_t first = idx - k;
                const std::size_t last = first + cap;  // cap existing
                if (last > starts.size())
                    continue;  // not enough later entries
                // Run = entries [first, last) plus `start`.
                const Cycle run_first =
                    k > 0 ? std::min(starts[first], start) : start;
                const Cycle run_last =
                    last > first
                        ? std::max(starts[last - 1], start)
                        : start;
                if (run_last - run_first < win) {
                    violates = true;
                    // Escape past the earliest entry of the crowd.
                    retry = std::max(retry, run_first + win);
                }
            }
            if (!violates) {
                starts.insert(
                    std::lower_bound(starts.begin(), starts.end(),
                                     start),
                    start);
                return start;
            }
            stalled = true;
            dtexl_assert(retry > start, "rate window failed to advance");
            start = retry;
        }
    }

    /**
     * Same algorithm on the ring: the sorted live history is the
     * `count` entries from physical slot `head` on, pruning advances
     * `head`. Appends (the in-order common case) skip the binary
     * search entirely.
     *
     * The ring never fills. After pruning, every live entry lies
     * within win * kHorizonWindows + 1 cycles of the newest, a span
     * covered by kHorizonWindows + 1 windows, and the invariant allows
     * at most cap entries per window; the request adds one more. So
     * at most cap * (kHorizonWindows + 1) + 1 entries are ever live,
     * fewer than the cap * (kHorizonWindows + 2) slots allocated.
     */
    Cycle
    reserveFast(Cycle now, bool &stalled)
    {
        if (count > 0) {
            const Cycle newest = at(count - 1);
            const Cycle horizon = win * kHorizonWindows;
            while (ring[head] + horizon < newest) {
                head = (head + 1) & mask;
                --count;
            }
        }

        stalled = false;
        const std::size_t n = count;
        Cycle start = now;
        // Append fast path, O(1): with nothing after `start`, the
        // only candidate run the k loop below could flag is `start`
        // plus the newest `cap` entries (k = cap is the only k with
        // first + cap <= n), so the whole violation scan collapses to
        // one comparison against at(n - cap). After one advance to
        // at(n - cap) + win the run spans exactly `win` cycles — no
        // violation — and `start` only grew, so the append
        // precondition still holds.
        if (n == 0 || start >= at(n - 1)) {
            if (n >= cap && start < at(n - cap) + win) {
                stalled = true;
                start = at(n - cap) + win;
            }
            insertAt(n, start);
            return start;
        }
        for (;;) {
            std::size_t idx = n;
            if (start < at(n - 1)) {
                idx = *std::ranges::partition_point(
                    std::views::iota(std::size_t{0}, n),
                    [&](std::size_t i) { return at(i) < start; });
            }
            bool violates = false;
            Cycle retry = start;
            for (std::size_t k = 0; k <= cap; ++k) {
                if (k > idx)
                    break;
                const std::size_t first = idx - k;
                const std::size_t last = first + cap;
                if (last > n)
                    continue;
                const Cycle run_first =
                    k > 0 ? std::min(at(first), start) : start;
                const Cycle run_last =
                    last > first ? std::max(at(last - 1), start)
                                 : start;
                if (run_last - run_first < win) {
                    violates = true;
                    retry = std::max(retry, run_first + win);
                }
            }
            if (!violates) {
                insertAt(idx, start);
                return start;
            }
            stalled = true;
            dtexl_assert(retry > start, "rate window failed to advance");
            start = retry;
        }
    }

    /** Live entry @p i, oldest first. */
    Cycle at(std::size_t i) const { return ring[(head + i) & mask]; }

    /** Insert @p v as live entry @p idx, shifting the newer ones up. */
    void
    insertAt(std::size_t idx, Cycle v)
    {
        dtexl_assert(count < ring.size(), "port window ring overflow");
        for (std::size_t i = count; i > idx; --i)
            ring[(head + i) & mask] = ring[(head + i - 1) & mask];
        ring[(head + idx) & mask] = v;
        ++count;
    }

    std::uint32_t cap;
    Cycle win;
    bool fast;
    std::deque<Cycle> starts;   ///< reference history, sorted
    std::vector<Cycle> ring;    ///< fast history, power-of-two slots
    std::size_t mask = 0;       ///< ring.size() - 1
    std::size_t head = 0;       ///< physical slot of the oldest entry
    std::size_t count = 0;      ///< live entries, sorted from `head`
};

/**
 * Single-server resource reserved for variable-length intervals, also
 * tolerant of out-of-order reservation times (used for DRAM banks: a
 * bank is occupied for a burst on a row hit, burst + activate on a
 * miss).
 */
class IntervalResource
{
  public:
    /**
     * Reserve the earliest interval of @p duration starting at or
     * after @p now that does not overlap an existing reservation.
     */
    Cycle
    reserve(Cycle now, Cycle duration)
    {
        dtexl_assert(duration > 0);
        while (busy.size() > 64)
            busy.pop_front();

        // The intervals are sorted and disjoint, so their ends are
        // sorted too: the ones ending at or before `now` are a prefix,
        // found by binary search instead of a scan.
        auto it = std::partition_point(
            busy.begin(), busy.end(),
            [now](const std::pair<Cycle, Cycle> &iv) {
                return iv.second <= now;
            });
        Cycle start = now;
        for (; it != busy.end(); ++it) {
            if (it->first >= start + duration)
                break;  // fits in the gap before this interval
            start = it->second;
        }
        // Every interval before `it` ends at or before `start` and
        // `it` starts after it, so `it` is the sorted insert position.
        busy.insert(it, {start, start + duration});
        return start;
    }

    void clear() { busy.clear(); }

  private:
    /** Sorted, non-overlapping [start, end) reservations. */
    std::deque<std::pair<Cycle, Cycle>> busy;
};

} // namespace dtexl

#endif // DTEXL_MEM_RATE_WINDOW_HH
