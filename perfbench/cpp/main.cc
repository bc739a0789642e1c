/**
 * @file
 * perfbench — the repository benchmark's program; run.py builds and
 * runs it.
 *
 *   perfbench --workload frame-sim|sweep-cold|sweep-warm --seed N
 *             --seconds S --trace 0|1 --run-dir DIR
 *
 * Prints a provenance line, then as its last line one JSON object with
 * the keys correct, attempted, failed and metrics: the end-to-end
 * metrics untraced, the per-layer metrics traced. Exit code 0 when the
 * run completed (its checks may still have failed: see "correct"),
 * 2 on bad arguments or a refused build, 1 when the run itself broke.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "cache/result_key.hh"
#include "common.hh"
#include "common/simd.hh"

using namespace perfbench;

namespace {

/** Seed kept out of tuning; later performance claims must also hold
 *  on it (see README.md). */
constexpr std::uint64_t kHeldOutSeed = 20261017;

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        std::cerr << "perfbench: a metric is not finite; reporting 0\n";
        return "0";
    }
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** First line of `dtexld --version`. */
std::string
daemonVersion(const std::string &dtexld)
{
    std::FILE *p = ::popen((dtexld + " --version 2>&1").c_str(), "r");
    if (!p)
        return "unknown";
    char buf[512] = {};
    const bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
    ::pclose(p);
    std::string s = got ? buf : "unknown";
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    return s;
}

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload frame-sim|sweep-cold|"
                 "sweep-warm --seed N --seconds S --trace 0|1 "
                 "--run-dir DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.dtexld = PERFBENCH_DTEXLD;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string val = argv[i + 1];
        if (flag == "--workload")
            opt.workload = val;
        else if (flag == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = static_cast<unsigned>(
                std::strtoul(val.c_str(), nullptr, 10));
        else if (flag == "--trace")
            opt.trace = val == "1";
        else if (flag == "--run-dir")
            opt.runDir = val;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    if (opt.workload != "frame-sim" && opt.workload != "sweep-cold" &&
        opt.workload != "sweep-warm")
        return usage("unknown workload");
    if (opt.seconds < 1 || opt.seconds > 600 || opt.runDir.empty())
        return usage("need --seconds in [1, 600] and --run-dir");

#ifndef NDEBUG
    std::cerr << "perfbench: refusing to measure an assert-enabled build\n";
    return 2;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
        std::cerr << "perfbench: refusing to measure a Debug build\n";
        return 2;
    }

    // Provenance: which host and build these numbers describe.
    std::cout << "{\"provenance\":{"
              << "\"workload\":" << jsonString(opt.workload)
              << ",\"seed\":" << opt.seed
              << ",\"held_out_seed\":" << kHeldOutSeed
              << ",\"seconds\":" << opt.seconds
              << ",\"trace\":" << (opt.trace ? 1 : 0)
              << ",\"nproc\":" << std::thread::hardware_concurrency()
              << ",\"cpu\":" << jsonString(cpuModel())
              << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER)
              << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
              << ",\"simd\":" << jsonString(dtexl::simdBackendName())
              << ",\"library\":" << jsonString(dtexl::buildVersionString())
              << ",\"dtexld\":" << jsonString(daemonVersion(opt.dtexld))
              << "}}" << std::endl;

    std::error_code ec;
    std::filesystem::remove_all(opt.runDir, ec);
    std::filesystem::create_directories(opt.runDir, ec);
    if (ec) {
        std::cerr << "perfbench: cannot create " << opt.runDir << "\n";
        return 1;
    }

    RunResult res;
    try {
        res = opt.workload == "frame-sim"
                  ? runFrameSim(opt)
                  : runSweep(opt, opt.workload == "sweep-warm");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: run failed: " << e.what() << "\n";
        return 1;
    }
    if (res.attempted == 0) {
        std::cerr << "perfbench: nothing was attempted\n";
        return 1;
    }
    res.metrics["ok_frac"] =
        static_cast<double>(res.attempted - res.failed) /
        static_cast<double>(res.attempted);

    const auto &defs = opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::string metrics;
    for (const MetricDef &d : defs) {
        auto it = res.metrics.find(d.name);
        if (it == res.metrics.end()) {
            if (!opt.trace) {
                std::cerr << "perfbench: workload did not report "
                          << d.name << "\n";
                return 1;
            }
            // A layer the workload does not pass through.
            it = res.metrics.emplace(d.name, 0.0).first;
        }
        if (!metrics.empty())
            metrics += ',';
        metrics += jsonString(d.name) +
                   ":{\"value\":" + jsonNumber(it->second) +
                   ",\"unit\":" + jsonString(d.unit) + "}";
    }
    if (opt.trace) {
        const std::string path = opt.runDir + "/spans.jsonl";
        if (!res.spans.write(path))
            std::cerr << "perfbench: cannot write " << path << "\n";
    }
    std::cout << "{\"correct\":" << (res.correct ? "true" : "false")
              << ",\"attempted\":" << res.attempted
              << ",\"failed\":" << res.failed << ",\"metrics\":{" << metrics
              << "}}" << std::endl;
    return 0;
}
