#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
msSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e6;
}

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent == 0 || s.parent > spans.size())
            continue;
        const Span &p = spans[s.parent - 1];
        const std::int64_t a = std::max(s.startNs, p.startNs);
        const std::int64_t b = std::min(s.endNs, p.endNs);
        if (b > a)
            kids[s.parent - 1].emplace_back(a, b);
    }
    std::vector<double> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curA = 0, curB = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += curB - curA;
        const std::int64_t dur = spans[i].endNs - spans[i].startNs;
        out[i] = static_cast<double>(std::max<std::int64_t>(dur - covered, 0)) /
                 1e6;
    }
    return out;
}

std::uint32_t
SpanLog::begin(const std::string &name, std::uint32_t parent,
               const std::string &job)
{
    const std::int64_t t = nowNs();
    return add(name, parent, job, t, t);
}

void
SpanLog::end(std::uint32_t id)
{
    spans_[id - 1].endNs = nowNs();
}

std::uint32_t
SpanLog::add(const std::string &name, std::uint32_t parent,
             const std::string &job, std::int64_t startNs,
             std::int64_t endNs)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.job = job;
    s.startNs = startNs;
    s.endNs = std::max(endNs, startNs);
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::map<std::string, SpanTotals>
SpanLog::totalsByName() const
{
    const std::vector<double> self = selfTimesMs(spans_);
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        SpanTotals &t = out[spans_[i].name];
        ++t.count;
        t.totalMs += spans_[i].durMs();
        t.selfMs += self[i];
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"job\":\"%s\","
                     "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     s.id, s.parent, s.name.c_str(), s.job.c_str(),
                     static_cast<double>(s.startNs - t0) / 1e3,
                     static_cast<double>(s.endNs - t0) / 1e3);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
