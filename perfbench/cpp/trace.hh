/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are
 * recorded by the benchmark around its own calls into the library and
 * the daemon (nothing inside the program is instrumented), kept in
 * memory, and written out once when the run ends.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock (shared by every process here). */
std::int64_t nowNs();
/** Milliseconds from @p startNs (a nowNs() value) to now. */
double msSince(std::int64_t startNs);

/** One recorded interval. parent is 0 for a root span. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    /** Job (or frame group) the span belongs to. */
    std::string job;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double durMs() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that the union of its direct children covers (children are clipped
 * to the parent; overlapping children count once). Indexed like
 * @p spans; spans must carry ids 1..n in order (SpanLog guarantees it).
 */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

/** Per-name totals over a span set. */
struct SpanTotals
{
    std::size_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

class SpanLog
{
  public:
    /** Open a span now; returns its id. */
    std::uint32_t begin(const std::string &name, std::uint32_t parent,
                        const std::string &job);
    /** Close span @p id now. */
    void end(std::uint32_t id);
    /** Record a span with known bounds (e.g. from the event ledger). */
    std::uint32_t add(const std::string &name, std::uint32_t parent,
                      const std::string &job, std::int64_t startNs,
                      std::int64_t endNs);

    const std::vector<Span> &spans() const { return spans_; }

    /** Totals and self times grouped by span name. */
    std::map<std::string, SpanTotals> totalsByName() const;

    /** Write every span as one JSON line; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** RAII span on a SpanLog; a null log makes it free. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, std::uint32_t parent,
               const std::string &job)
        : log_(log), id_(log ? log->begin(name, parent, job) : 0)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::uint32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
