/**
 * @file
 * frame-sim: one researcher's simulation, in process and serial.
 * Four Table I scenes (GTr, SWa, CCS, SoD) at 980x384 under the dtexl
 * preset, each in its own SimulationSession, rendered as warm
 * successive frames, the sessions taking turns frame by frame. The
 * first frame of every session fills the modelled caches; it is part
 * of set-up, so work moved from the timed frames into the first one
 * still shows in setup_s.
 *
 * The traced run renders the same frames a second time through phase
 * objects the benchmark builds itself (GeometryPhase, RasterPipeline
 * over a MemHierarchy), so it can time the phases from outside the
 * library; identical FrameStats prove it built each frame the same way.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <numeric>

#include "common.hh"
#include "core/engine.hh"
#include "phases.hh"
#include "stats.hh"
#include "workloads/benchmarks.hh"
#include "workloads/scenegen.hh"

namespace perfbench {

using namespace dtexl;

namespace {

const char *const kAliases[] = {"GTr", "SWa", "CCS", "SoD"};
constexpr std::size_t kNumScenes = 4;

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 3;
/** Frames per scene compared against the reference simulator path
 *  (about twice as slow as the fast path). */
constexpr std::uint32_t kCheckedPrefix = 1;

/**
 * Timed frames per scene. A 980x384 dtexl frame takes about 0.5 s on a
 * 4-core Xeon host, so 0.5 frames per scene per requested second keeps
 * a run near --seconds while the work stays fixed for a given
 * --seconds (a faster simulator finishes sooner; it never does more).
 */
std::uint32_t
timedFramesPerScene(unsigned seconds)
{
    return std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(std::lround(seconds * 0.5)));
}

GpuConfig
frameConfig()
{
    GpuConfig cfg = makeDTexLConfig();
    cfg.screenWidth = 980;
    cfg.screenHeight = 384;
    return cfg;
}

/** One scene's frame sequence; frame 0 is the untimed warm-up. */
struct SceneSeq
{
    std::string alias;
    std::vector<Scene> frames;
};

} // namespace

RunResult
runFrameSim(const Options &opt)
{
    RunResult res;
    const GpuConfig cfg = frameConfig();
    const std::uint32_t timed = timedFramesPerScene(opt.seconds);
    const std::uint32_t framesPerScene = timed + 1;

    // ---- set-up: scene generation, session construction and the
    //      warm-up frame, repeated; the last repetition is measured ----
    std::vector<SceneSeq> scenes;
    std::vector<std::unique_ptr<SimulationSession>> sessions;
    std::vector<double> setupS, scenegenMs, initMs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        sessions.clear();
        scenes.assign(kNumScenes, SceneSeq{});
        const std::int64_t t0 = nowNs();
        for (std::size_t s = 0; s < kNumScenes; ++s) {
            BenchmarkParams params = benchmarkByAlias(kAliases[s]);
            params.seed = mixSeed(opt.seed, s);
            scenes[s].alias = kAliases[s];
            for (std::uint32_t f = 0; f < framesPerScene; ++f) {
                const std::int64_t g0 = nowNs();
                scenes[s].frames.push_back(generateScene(params, cfg, f));
                scenegenMs.push_back(msSince(g0));
            }
        }
        for (std::size_t s = 0; s < kNumScenes; ++s) {
            const std::int64_t i0 = nowNs();
            sessions.push_back(std::make_unique<SimulationSession>(
                cfg, scenes[s].frames[0], scenes[s].alias));
            initMs.push_back(msSince(i0));
        }
        for (std::size_t s = 0; s < kNumScenes; ++s)
            sessions[s]->renderFrame();
        setupS.push_back(msSince(t0) / 1e3);
    }
    std::vector<std::vector<FrameStats>> stats(kNumScenes);
    for (std::size_t s = 0; s < kNumScenes; ++s)
        stats[s] = sessions[s]->history();

    // ---- timed: frames 1..timed, the sessions taking turns frame by
    //      frame, so every scene's frames spread over the whole timed
    //      window and a slow stretch of the host weighs on all four
    //      alike (each session keeps its own state, so the order does
    //      not change any result) ----
    std::vector<double> frameMs;
    std::vector<double> jobMs(kNumScenes, 0.0);
    std::uint64_t cycles = 0;
    const std::int64_t w0 = nowNs();
    for (std::uint32_t f = 1; f < framesPerScene; ++f) {
        for (std::size_t s = 0; s < kNumScenes; ++s) {
            const std::int64_t t0 = nowNs();
            stats[s].push_back(sessions[s]->renderFrame(scenes[s].frames[f]));
            const double ms = msSince(t0);
            frameMs.push_back(ms);
            jobMs[s] += ms;
            cycles += stats[s].back().totalCycles;
        }
    }
    const double wallS = msSince(w0) / 1e3;
    const double renderMs =
        std::accumulate(frameMs.begin(), frameMs.end(), 0.0);
    res.attempted += frameMs.size();
    const double peakRssMb =
        static_cast<double>(procStatusKb(0, "VmHWM")) / 1024.0;
    sessions.clear();

    // ---- output check: the reference simulator path on a prefix ----
    GpuConfig refCfg = cfg;
    refCfg.simFastPath = false;
    for (std::size_t s = 0; s < kNumScenes; ++s) {
        SimulationSession ref(refCfg, scenes[s].frames[0], "reference");
        for (std::uint32_t f = 0; f < kCheckedPrefix; ++f) {
            const FrameStats fs = f == 0 ? ref.renderFrame()
                                         : ref.renderFrame(scenes[s].frames[f]);
            ++res.attempted;
            if (frameStatsBytes(fs) != frameStatsBytes(stats[s][f]))
                res.fail(scenes[s].alias + " frame " + std::to_string(f) +
                         ": fast path differs from the reference path");
        }
    }

    auto &m = res.metrics;
    m["sim_mcps"] = static_cast<double>(cycles) / 1e6 / (renderMs / 1e3);
    m["frame_ms_p50"] = quantile(frameMs, 0.5);
    m["frame_ms_p90"] = quantile(frameMs, 0.9);
    m["sweep_s"] = wallS;
    m["jobs_per_s"] = static_cast<double>(kNumScenes) / wallS;
    m["job_ms_p50"] = quantile(jobMs, 0.5);
    m["job_ms_p90"] = quantile(jobMs, 0.9);
    m["setup_s"] = median(setupS);
    m["peak_rss_mb"] = peakRssMb;
    std::cerr << "perfbench: frame-sim rendered " << frameMs.size()
              << " timed frames (" << timed << " per scene) in " << wallS
              << " s\n";
    if (!opt.trace)
        return res;

    // ---- traced run: the same frames through the phase objects ----
    SpanLog &log = res.spans;
    LayerTotals layers;
    for (std::size_t s = 0; s < kNumScenes; ++s) {
        const std::string &job = scenes[s].alias;
        const std::uint32_t jobSpan = log.begin("job", 0, job);
        PhaseRenderer pr(cfg, scenes[s].frames[0]);
        LayerTotals warmup;
        for (std::uint32_t f = 0; f < framesPerScene; ++f) {
            // Frame 0 warms the caches, as in the untraced run.
            const FrameStats fs = tracedFrame(pr, scenes[s].frames[f], log,
                                              jobSpan, job,
                                              f == 0 ? warmup : layers);
            ++res.attempted;
            if (frameStatsBytes(fs) != frameStatsBytes(stats[s][f]))
                res.fail(job + " frame " + std::to_string(f) +
                         ": traced phase renderer differs from the session");
        }
        log.end(jobSpan);
    }

    const auto totals = log.totalsByName();
    layers.emit(m);
    m["workloads.scenegen_ms"] = mean(scenegenMs);
    m["core.session_init_ms"] = mean(initMs);
    m["core.sim_cycles"] = static_cast<double>(cycles);
    const SpanTotals &frames = totals.at("frame");
    m["trace.frame_self_ms"] =
        frames.selfMs / static_cast<double>(frames.count);
    m["trace.job_self_ms"] = totals.at("job").selfMs / kNumScenes;
    m["trace.spans"] = static_cast<double>(log.spans().size());
    m["trace.overhead_frac"] = layers.frameMs / renderMs - 1.0;
    return res;
}

} // namespace perfbench
