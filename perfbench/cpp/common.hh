/**
 * @file
 * Shared pieces of the benchmark program: run options, the metric
 * catalog (names and units, mirrored in BENCHMARK.json), the run
 * result, seed mixing, and /proc readers.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/frame_stats.hh"
#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Scratch directory for this run (daemon state, span files). */
    std::string runDir;
    /** Path of the dtexld binary built beside perfbench. */
    std::string dtexld;
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every workload reports all of them. */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics: every traced run reports all of them (0 where
 *  the workload does not pass through the layer). */
const std::vector<MetricDef> &perLayerMetrics();

/** What one workload run hands back to main(). */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metric values by name (the unit comes from the catalog). */
    std::map<std::string, double> metrics;
    /** Spans of the traced run (empty when untraced). */
    SpanLog spans;

    /** Record a failed check; the reason goes to stderr. */
    void fail(const std::string &why);
};

/** splitmix64 step: derives independent sub-seeds from one seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Bit-exact comparison key of a FrameStats (its cache encoding). */
std::string frameStatsBytes(const dtexl::FrameStats &fs);

/** "VmHWM"/"VmRSS" of @p pid (0 = self) in KiB; 0 when unreadable. */
std::uint64_t procStatusKb(int pid, const char *field);
/** utime+stime of @p pid in milliseconds; 0 when unreadable. */
double procCpuMs(int pid);
/** Size of @p path in bytes; 0 when absent. */
std::uint64_t fileBytes(const std::string &path);

/** The workloads. */
RunResult runFrameSim(const Options &opt);
RunResult runSweep(const Options &opt, bool warm);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
