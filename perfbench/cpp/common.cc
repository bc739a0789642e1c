#include "common.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#include "cache/result_store.hh"
#include "common/serial.hh"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim_mcps", "Mcycle/s"},   {"frame_ms_p50", "ms"},
        {"frame_ms_p90", "ms"},     {"sweep_s", "s"},
        {"jobs_per_s", "1/s"},      {"job_ms_p50", "ms"},
        {"job_ms_p90", "ms"},       {"setup_s", "s"},
        {"peak_rss_mb", "MB"},      {"ok_frac", "frac"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.scenegen_ms", "ms"},
        {"core.session_init_ms", "ms"},
        {"core.sim_cycles", "count"},
        {"geom.host_ms", "ms"},
        {"geom.share", "frac"},
        {"geom.vertices", "count"},
        {"geom.primitives", "count"},
        {"tiling.bin_entries", "count"},
        {"raster.host_ms", "ms"},
        {"raster.host_ns_per_quad", "ns"},
        {"raster.quads_rasterized", "count"},
        {"raster.quads_shaded", "count"},
        {"raster.quads_culled", "count"},
        {"raster.rasterize_ns_per_quad", "ns"},
        {"texture.footprint_ns_per_quad", "ns"},
        {"texture.lines_per_quad", "lines/quad"},
        {"mem.l1tex_accesses", "count"},
        {"mem.l1tex_hit_ratio", "frac"},
        {"mem.l2_accesses", "count"},
        {"mem.l2_hit_ratio", "frac"},
        {"mem.dram_accesses", "count"},
        {"mem.tile_accesses", "count"},
        {"mem.host_ns_per_l1tex_access", "ns"},
        {"mem.replay_ns_per_access", "ns"},
        {"cache.store_ms", "ms"},
        {"cache.checkpoint_write_ms", "ms"},
        {"cache.checkpoint_kb", "KiB"},
        {"cache.key_us", "us"},
        {"cache.lookup_ms", "ms"},
        {"cache.entry_kb", "KiB"},
        {"cache.hit_ratio", "frac"},
        {"engine.job_wall_ms", "ms"},
        {"engine.worker_busy_frac", "frac"},
        {"serve.submit_ack_ms", "ms"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.run_ms", "ms"},
        {"serve.notify_ms", "ms"},
        {"serve.wire_parse_us", "us"},
        {"serve.journal_bytes_per_job", "B"},
        {"serve.cpu_ms_per_job", "ms"},
        {"serve.rss_kb_per_1k_jobs", "KiB"},
        {"serve.rejects", "count"},
        {"serve.retries", "count"},
        {"obs.ledger_bytes_per_job", "B"},
        {"trace.frame_self_ms", "ms"},
        {"trace.job_self_ms", "ms"},
        {"trace.run_self_ms", "ms"},
        {"trace.spans", "count"},
        {"trace.overhead_frac", "frac"},
    };
    return defs;
}

void
RunResult::fail(const std::string &why)
{
    correct = false;
    ++failed;
    std::cerr << "perfbench: check failed: " << why << "\n";
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
frameStatsBytes(const dtexl::FrameStats &fs)
{
    dtexl::ByteWriter w;
    dtexl::writeFrameStats(w, fs);
    const std::vector<std::uint8_t> bytes = w.take();
    return std::string(bytes.begin(), bytes.end());
}

std::uint64_t
procStatusKb(int pid, const char *field)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    const std::size_t n = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':')
            return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
    return 0;
}

double
procCpuMs(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text;
    std::getline(in, text);
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream rest(text.substr(close + 2));
    std::string tok;
    unsigned long long utime = 0, stime = 0;
    for (int field = 3; rest >> tok; ++field) {
        if (field == 14)
            utime = std::strtoull(tok.c_str(), nullptr, 10);
        if (field == 15) {
            stime = std::strtoull(tok.c_str(), nullptr, 10);
            break;
        }
    }
    const long hz = ::sysconf(_SC_CLK_TCK);
    return hz > 0 ? 1000.0 * static_cast<double>(utime + stime) /
                        static_cast<double>(hz)
                  : 0.0;
}

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

} // namespace perfbench
