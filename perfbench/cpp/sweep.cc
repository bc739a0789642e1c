/**
 * @file
 * sweep-cold and sweep-warm: a researcher's design-space sweep through
 * dtexld, driven over its wire protocol by the closed-loop client of
 * daemon_client.hh. sweep-cold runs on a fresh state directory, so every
 * job simulates and stores its result; sweep-warm fills the cache in
 * set-up and then resubmits the same specs, so every job is a cache hit.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>

#include "cache/result_key.hh"
#include "common.hh"
#include "common/serial.hh"
#include "core/engine.hh"
#include "daemon_client.hh"
#include "phases.hh"
#include "stats.hh"
#include "workloads/benchmarks.hh"
#include "workloads/scenegen.hh"

namespace perfbench {

using namespace dtexl;
namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kFramesPerJob = 2;
constexpr unsigned kDaemonWorkers = 2;
/** Set-ups timed for sweep-cold's setup_s (median): a daemon start and
 *  its warm-up jobs, about 0.15 s. */
constexpr int kColdSetupReps = 7;
/** Cold fills timed for sweep-warm's setup_s (median). */
constexpr int kWarmSetupReps = 3;
/** Distinct specs per alias in sweep-warm's cached set. */
constexpr std::size_t kWarmSpecsPerAlias = 2;
/** Jobs of sweep-cold re-run in process as the output check. */
constexpr std::size_t kCheckedJobs = 6;

/**
 * Work per run, fixed for a given --seconds. On a 4-core Xeon host a
 * cold 490x192 two-frame job takes about 0.25 s, so two workers finish
 * about eight a second; a cache hit takes about 0.1 ms of daemon time,
 * and the three clients get through up to ten thousand a second.
 */
std::size_t
coldJobs(unsigned seconds)
{
    return std::max<std::size_t>(10, std::size_t{seconds} * 8);
}

std::size_t
warmJobs(unsigned seconds)
{
    return std::max<std::size_t>(20, std::size_t{seconds} * 4000);
}

// ---- the job design --------------------------------------------------

/** One point of the Fig. 16 design space, as a client would submit it. */
struct JobDef
{
    std::string alias;
    std::string preset;
    std::vector<std::pair<std::string, std::string>> options;
    std::uint32_t frames = kFramesPerJob;
};

/** The daemon's base config: baseline preset at the sweep resolution. */
GpuConfig
baseConfig()
{
    GpuConfig cfg = makeBaselineConfig();
    cfg.screenWidth = 490;
    cfg.screenHeight = 192;
    return cfg;
}

/** The job's GpuConfig, resolved the way the daemon resolves a spec. */
GpuConfig
jobConfig(const JobDef &def)
{
    GpuConfig cfg = def.preset == "dtexl" ? makeDTexLConfig()
                                          : makeBaselineConfig();
    const GpuConfig base = baseConfig();
    cfg.screenWidth = base.screenWidth;
    cfg.screenHeight = base.screenHeight;
    for (const auto &[k, v] : def.options)
        applyConfigOption(cfg, k, v);
    cfg.validate();
    return cfg;
}

/**
 * @p perAlias distinct configurations for each of the ten Table I
 * aliases, in a seeded order. Every alias gets the same number of
 * jobs, half of them decoupled and the groupings in rotation, so the
 * total work barely moves from one seed to the next; tile order and
 * assignment are drawn freely. Each job names the preset matching its
 * barrier mode and overrides only the knobs that differ from it.
 * @p perAlias is capped at the size of one alias's design space.
 */
std::vector<JobDef>
drawJobs(std::uint64_t seed, std::size_t perAlias)
{
    std::vector<JobDef> out;
    const auto &benches = tableOneBenchmarks();
    const std::size_t nGroupings = std::size(kAllQuadGroupings);
    const std::size_t nOrders = std::size(kAllTileOrders);
    const std::size_t nAssign = std::size(kAllSubtileAssignments);
    perAlias = std::min(perAlias, nGroupings * nOrders * nAssign * 2);
    for (std::size_t a = 0; a < benches.size(); ++a) {
        std::uint64_t rng = mixSeed(seed, 1000 + a);
        auto draw = [&](std::size_t n) {
            rng = mixSeed(rng, 7);
            return static_cast<std::size_t>(rng % n);
        };
        const std::size_t gOffset = draw(nGroupings);
        std::set<std::tuple<std::size_t, std::size_t, std::size_t, bool>> seen;
        for (std::size_t k = 0; k < perAlias; ++k) {
            // Slot k fixes grouping and barrier mode; redraw the rest
            // until the configuration is new (the cap bounds each
            // (grouping, mode) pair to nOrders * nAssign uses).
            const bool decoupled = k % 2 == 1;
            const std::size_t g = (gOffset + k / 2) % nGroupings;
            std::size_t o = 0, s = 0;
            do {
                o = draw(nOrders);
                s = draw(nAssign);
            } while (!seen.insert({g, o, s, decoupled}).second);
            JobDef def;
            def.alias = benches[a].alias;
            def.preset = decoupled ? "dtexl" : "baseline";
            const GpuConfig preset =
                decoupled ? makeDTexLConfig() : makeBaselineConfig();
            if (kAllQuadGroupings[g] != preset.grouping)
                def.options.emplace_back("grouping",
                                         toString(kAllQuadGroupings[g]));
            if (kAllTileOrders[o] != preset.tileOrder)
                def.options.emplace_back("order", toString(kAllTileOrders[o]));
            if (kAllSubtileAssignments[s] != preset.assignment)
                def.options.emplace_back(
                    "assignment", toString(kAllSubtileAssignments[s]));
            out.push_back(std::move(def));
        }
    }
    std::uint64_t rng = mixSeed(seed, 99);
    for (std::size_t i = out.size(); i > 1; --i) {
        rng = mixSeed(rng, i);
        std::swap(out[i - 1], out[rng % i]);
    }
    return out;
}

/**
 * The jobs that warm a fresh sweep-cold daemon in set-up, one per
 * worker, on both barrier modes. They render one frame, so their
 * results never answer a timed job (two frames): the timed jobs all
 * still miss the cache.
 */
std::vector<JobDef>
warmUpJobs()
{
    std::vector<JobDef> out;
    const auto &benches = tableOneBenchmarks();
    for (unsigned w = 0; w < kDaemonWorkers; ++w) {
        JobDef def;
        def.alias = benches[w % benches.size()].alias;
        def.preset = w % 2 == 1 ? "dtexl" : "baseline";
        def.frames = 1;
        out.push_back(std::move(def));
    }
    return out;
}

std::string
submitLine(const JobDef &def, const std::string &label)
{
    std::string opts = "[";
    for (const auto &[k, v] : def.options) {
        if (opts.size() > 1)
            opts += ',';
        JsonWriter o;
        o.str("k", k).str("v", v);
        std::string one = o.finish();
        one.pop_back();
        opts += one;
    }
    opts += ']';
    JsonWriter w;
    w.str("cmd", "submit")
        .str("job", label)
        .str("bench", def.alias)
        .u64("frames", def.frames)
        .str("preset", def.preset)
        .raw("options", opts);
    return w.finish();
}

/** Start dtexld with the sweep's worker count and base resolution. */
std::unique_ptr<DaemonProcess>
startDaemon(const Options &opt, const std::string &what, bool reuse = false)
{
    const GpuConfig base = baseConfig();
    return std::make_unique<DaemonProcess>(
        opt.dtexld, opt.runDir + "/" + what,
        std::vector<std::string>{
            "--workers=" + std::to_string(kDaemonWorkers),
            "width=" + std::to_string(base.screenWidth),
            "height=" + std::to_string(base.screenHeight)},
        reuse);
}

/** JobRun records submitting defs[order[i]] as "<prefix><i>". */
std::vector<JobRun>
makeRuns(const std::vector<JobDef> &defs, const std::vector<std::size_t> &order,
         const std::string &prefix)
{
    std::vector<JobRun> runs(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        runs[i].label = prefix + std::to_string(i);
        runs[i].spec = order[i];
        runs[i].submit = submitLine(defs[order[i]], runs[i].label);
    }
    return runs;
}

std::vector<std::size_t>
identity(std::size_t n)
{
    std::vector<std::size_t> v(n);
    std::iota(v.begin(), v.end(), std::size_t{0});
    return v;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::vector<Scene>
jobScenes(const JobDef &def, const GpuConfig &cfg)
{
    std::vector<Scene> scenes;
    const BenchmarkParams &bench = benchmarkByAlias(def.alias);
    for (std::uint32_t f = 0; f < def.frames; ++f)
        scenes.push_back(generateScene(bench, cfg, f));
    return scenes;
}

/** Process counters of the daemon around the timed window. */
struct DaemonSample
{
    double cpuMs = 0.0;
    std::uint64_t rssKb = 0;
    std::uint64_t journal = 0;
    std::uint64_t ledger = 0;

    static DaemonSample
    take(const DaemonProcess &d)
    {
        DaemonSample s;
        s.cpuMs = procCpuMs(d.pid());
        s.rssKb = procStatusKb(d.pid(), "VmRSS");
        s.journal = fileBytes(d.dir() + "/jobs.journal");
        s.ledger = fileBytes(d.dir() + "/events.jsonl");
        return s;
    }
};

/** Checks shared by both sweeps: every job finished done. */
void
checkJobs(const std::vector<JobRun> &runs, bool wantCached, RunResult &res)
{
    for (const JobRun &j : runs) {
        ++res.attempted;
        if (j.state != "done")
            res.fail(j.label + " ended in state '" + j.state + "'");
        else if (j.cached != wantCached)
            res.fail(j.label + (wantCached ? " was not served from the cache"
                                           : " was served from the cache"));
        else if (j.cycles == 0 || j.imageHash.size() != 16)
            res.fail(j.label + " reported no result");
    }
}

/** End-to-end and serve/engine/cache/obs metrics of one timed phase. */
void
phaseMetrics(const std::vector<JobRun> &runs, const PhaseResult &pr,
             const DaemonSample &before, const DaemonSample &after,
             const LedgerClock &clock, bool trace, RunResult &res)
{
    auto &m = res.metrics;
    std::vector<double> jobMs, frameMs;
    double cycles = 0.0, wallMs = 0.0, retries = 0.0, hits = 0.0;
    for (const JobRun &j : runs) {
        if (j.state != "done")
            continue; // counted by checkJobs
        const double ms = static_cast<double>(j.doneNs - j.sendNs) / 1e6;
        jobMs.push_back(ms);
        frameMs.push_back(ms / kFramesPerJob);
        cycles += static_cast<double>(j.cycles);
        wallMs += j.wallMs;
        retries += j.attempts > 1 ? static_cast<double>(j.attempts - 1) : 0.0;
        hits += j.cacheHit ? 1.0 : 0.0;
    }
    const double n = static_cast<double>(runs.size());
    m["sim_mcps"] = cycles / 1e6 / pr.wallS;
    m["frame_ms_p50"] = quantile(frameMs, 0.5);
    m["frame_ms_p90"] = quantile(frameMs, 0.9);
    m["sweep_s"] = pr.wallS;
    m["jobs_per_s"] = n / pr.wallS;
    m["job_ms_p50"] = quantile(jobMs, 0.5);
    m["job_ms_p90"] = quantile(jobMs, 0.9);
    std::cerr << "perfbench: " << runs.size() << " jobs in " << pr.wallS
              << " s; job_ms p90 has " << countAbove(jobMs, 0.9)
              << " samples beyond it\n";
    if (!trace)
        return;

    m["core.sim_cycles"] = cycles;
    m["cache.hit_ratio"] = hits / n;
    m["engine.job_wall_ms"] = wallMs / n;
    m["engine.worker_busy_frac"] = wallMs / 1e3 / (kDaemonWorkers * pr.wallS);
    m["serve.cpu_ms_per_job"] = (after.cpuMs - before.cpuMs) / n;
    m["serve.rss_kb_per_1k_jobs"] =
        (static_cast<double>(after.rssKb) - static_cast<double>(before.rssKb)) /
        n * 1000.0;
    m["serve.journal_bytes_per_job"] =
        static_cast<double>(after.journal - before.journal) / n;
    m["obs.ledger_bytes_per_job"] =
        static_cast<double>(after.ledger - before.ledger) / n;
    m["serve.rejects"] = static_cast<double>(pr.rejects);
    m["serve.retries"] = retries;

    // Spans per job on the client's clock: the client's own send, ack
    // and receipt times, and the ledger's t_ms mapped across.
    SpanLog &log = res.spans;
    std::vector<double> ack, queue, run, notify, lookup, store, ckpt;
    for (const JobRun &j : runs) {
        const std::uint32_t job =
            log.add("job", 0, j.label, j.sendNs, j.doneNs);
        log.add("serve.submit_ack", job, j.label, j.sendNs, j.ackNs);
        ack.push_back(static_cast<double>(j.ackNs - j.sendNs) / 1e6);
        if (j.startT < 0 || j.completeT < 0)
            continue;
        const std::int64_t startNs = clock.toSteadyNs(j.startT);
        const std::int64_t completeNs = clock.toSteadyNs(j.completeT);
        log.add("serve.queue_wait", job, j.label, j.ackNs, startNs);
        queue.push_back(
            std::max(0.0, static_cast<double>(startNs - j.ackNs) / 1e6));
        const std::uint32_t r =
            log.add("serve.run", job, j.label, startNs, completeNs);
        run.push_back(j.completeT - j.startT);
        log.add("serve.notify", job, j.label, completeNs, j.doneNs);
        notify.push_back(
            std::max(0.0, static_cast<double>(j.doneNs - completeNs) / 1e6));
        double prev = j.startT;
        if (j.lookupT >= 0) {
            log.add("cache.lookup", r, j.label, startNs,
                    clock.toSteadyNs(j.lookupT));
            lookup.push_back(j.lookupT - j.startT);
            prev = j.lookupT;
        }
        // Each step runs from the previous ledger event: a frame from
        // the lookup or the checkpoint before it, a checkpoint from the
        // frame it follows.
        for (const auto &[t, isCkpt] : j.steps) {
            log.add(isCkpt ? "cache.checkpoint" : "serve.frame", r, j.label,
                    clock.toSteadyNs(prev), clock.toSteadyNs(t));
            if (isCkpt)
                ckpt.push_back(t - prev);
            prev = t;
        }
        if (j.storeT >= 0) {
            log.add("cache.store", r, j.label, clock.toSteadyNs(prev),
                    clock.toSteadyNs(j.storeT));
            store.push_back(j.storeT - prev);
        }
    }
    m["serve.submit_ack_ms"] = mean(ack);
    m["serve.queue_wait_ms"] = mean(queue);
    m["serve.run_ms"] = mean(run);
    m["serve.notify_ms"] = mean(notify);
    m["cache.lookup_ms"] = mean(lookup);
    m["cache.store_ms"] = mean(store);
    m["cache.checkpoint_write_ms"] = mean(ckpt);

    // Wire parse cost of the submit lines this phase sent.
    JsonValue v;
    std::string err;
    const std::int64_t p0 = nowNs();
    std::size_t parsed = 0;
    for (int rep = 0; rep < 20; ++rep)
        for (const JobRun &j : runs)
            parsed += parseJson(j.submit, v, err) ? 1 : 0;
    m["serve.wire_parse_us"] =
        msSince(p0) * 1e3 /
        static_cast<double>(std::max<std::size_t>(parsed, 1));
}

/** Self times of the job and run spans, per job. */
void
selfTimeMetrics(RunResult &res, std::size_t jobs)
{
    const auto totals = res.spans.totalsByName();
    auto self = [&](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfMs;
    };
    const double n = static_cast<double>(std::max<std::size_t>(jobs, 1));
    res.metrics["trace.job_self_ms"] = self("job") / n;
    res.metrics["trace.run_self_ms"] = self("serve.run") / n;
    res.metrics["trace.spans"] = static_cast<double>(res.spans.spans().size());
}

/** Mean size of the daemon's stored result entries, KiB. */
double
meanEntryKb(const std::string &cacheDir)
{
    double bytes = 0.0;
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(cacheDir, ec)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("res-", 0) == 0) {
            bytes += static_cast<double>(e.file_size(ec));
            ++n;
        }
    }
    return n ? bytes / static_cast<double>(n) / 1024.0 : 0.0;
}

/**
 * In-process costs of the cache and workloads layers for @p defs:
 * scene generation, result-key hashing, and (when @p checkpoint) a
 * session's construction and the size of its first-frame checkpoint
 * (the daemon deletes its own once a job completes).
 */
void
inProcessCacheMetrics(const std::vector<const JobDef *> &defs,
                      const std::string &dir, bool checkpoint, RunResult &res)
{
    std::vector<double> gen, key, init;
    double ckptKb = 0.0;
    if (checkpoint)
        fs::create_directories(dir);
    for (const JobDef *def : defs) {
        const GpuConfig cfg = jobConfig(*def);
        const std::int64_t g0 = nowNs();
        const std::vector<Scene> scenes = jobScenes(*def, cfg);
        gen.push_back(msSince(g0) / kFramesPerJob);
        const std::int64_t k0 = nowNs();
        Fnv1a64 chain;
        chain.u32(kFramesPerJob);
        for (const Scene &s : scenes)
            chain.u64(hashScene(s));
        ResultKey rk;
        rk.scene = chain.value();
        rk.config = hashConfig(cfg);
        rk.build = buildFingerprint();
        key.push_back(msSince(k0) * 1e3);
        if (!checkpoint || def != defs.front())
            continue;
        const std::int64_t i0 = nowNs();
        SimulationSession session(cfg, scenes[0], def->alias);
        init.push_back(msSince(i0));
        session.renderFrame();
        const std::string path = dir + "/checkpoint.bin";
        session.saveCheckpoint(path, rk);
        ckptKb = static_cast<double>(fileBytes(path)) / 1024.0;
    }
    res.metrics["workloads.scenegen_ms"] = mean(gen);
    res.metrics["cache.key_us"] = mean(key);
    if (checkpoint) {
        res.metrics["core.session_init_ms"] = mean(init);
        res.metrics["cache.checkpoint_kb"] = ckptKb;
    }
}

/** A sweep-cold daemon on a fresh state directory, after its warm-up
 *  jobs: the state every timed sweep-cold pass starts from. */
std::unique_ptr<DaemonProcess>
startColdDaemon(const Options &opt, RunResult &res)
{
    std::unique_ptr<DaemonProcess> d = startDaemon(opt, "cold");
    const std::vector<JobDef> defs = warmUpJobs();
    std::vector<JobRun> runs = makeRuns(defs, identity(defs.size()), "u");
    LedgerClock clock;
    runPhase(*d, runs, clock);
    checkJobs(runs, false, res);
    return d;
}

// ---- the two workloads -----------------------------------------------

/** The pass loop both sweeps share: one timed phase untraced, and
 *  with --trace a second, traced one whose spans are kept. */
struct TimedPhase
{
    std::vector<JobRun> runs;
    PhaseResult pr;
    DaemonSample before, after;
    LedgerClock clock;
    double untracedS = 0.0;

    void
    run(DaemonProcess &d, std::vector<JobRun> fresh, int pass)
    {
        runs = std::move(fresh);
        clock = LedgerClock{};
        clock.calibrate();
        before = DaemonSample::take(d);
        pr = runPhase(d, runs, clock);
        after = DaemonSample::take(d);
        if (pass == 0)
            untracedS = pr.wallS;
    }
};

RunResult
sweepCold(const Options &opt)
{
    RunResult res;
    // drawJobs gives every alias the same count, so round up.
    const std::size_t aliases = tableOneBenchmarks().size();
    const std::vector<JobDef> defs = drawJobs(
        opt.seed, (coldJobs(opt.seconds) + aliases - 1) / aliases);

    // Set-up: daemon start to the end of its warm-up jobs, several
    // times; the last daemon serves the timed part.
    std::vector<double> setupS;
    std::unique_ptr<DaemonProcess> d;
    for (int rep = 0; rep < kColdSetupReps; ++rep) {
        if (d && d->drain() != 0)
            res.fail("dtexld exited non-zero after a set-up drain");
        const std::int64_t t0 = nowNs();
        d = startColdDaemon(opt, res);
        setupS.push_back(msSince(t0) / 1e3);
    }

    // Timed; the traced pass runs on a fresh, warmed daemon again.
    TimedPhase tp;
    const int passes = opt.trace ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
        if (pass > 0) {
            if (d->drain() != 0)
                res.fail("dtexld exited non-zero after the untraced pass");
            d = startColdDaemon(opt, res);
        }
        tp.run(*d, makeRuns(defs, identity(defs.size()), "c"), pass);
        checkJobs(tp.runs, false, res);
    }
    const std::vector<JobRun> &runs = tp.runs;
    phaseMetrics(runs, tp.pr, tp.before, tp.after, tp.clock, opt.trace, res);
    res.metrics["setup_s"] = median(setupS);
    res.metrics["peak_rss_mb"] =
        static_cast<double>(procStatusKb(d->pid(), "VmHWM")) / 1024.0;
    if (opt.trace) {
        res.metrics["cache.entry_kb"] = meanEntryKb(d->dir() + "/cache");
        res.metrics["trace.overhead_frac"] = tp.pr.wallS / tp.untracedS - 1.0;
    }
    const int code = d->drain();
    d.reset();
    if (code != 0)
        res.fail("dtexld exited with " + std::to_string(code));

    // Output check: a seeded sample re-run in process through runBatch
    // must give the daemon's cycles and image hash.
    std::vector<std::size_t> sample;
    std::uint64_t rng = mixSeed(opt.seed, 4242);
    while (sample.size() < std::min(kCheckedJobs, runs.size())) {
        rng = mixSeed(rng, sample.size());
        const std::size_t i = rng % runs.size();
        if (std::find(sample.begin(), sample.end(), i) == sample.end())
            sample.push_back(i);
    }
    std::vector<std::vector<Scene>> scenes;
    std::vector<BatchJob> batch;
    scenes.reserve(sample.size());
    for (std::size_t i : sample) {
        const JobDef &def = defs[runs[i].spec];
        BatchJob job;
        job.label = runs[i].label;
        job.cfg = jobConfig(def);
        job.frames = kFramesPerJob;
        scenes.push_back(jobScenes(def, job.cfg));
        const std::vector<Scene> *sp = &scenes.back();
        job.scene = [sp](std::uint32_t f) -> const Scene & { return (*sp)[f]; };
        batch.push_back(std::move(job));
    }
    const std::vector<BatchResult> out = runBatch(batch, kDaemonWorkers);
    for (std::size_t k = 0; k < sample.size(); ++k) {
        const JobRun &j = runs[sample[k]];
        std::uint64_t cycles = 0;
        for (const FrameStats &f : out[k].frames)
            cycles += f.totalCycles;
        ++res.attempted;
        if (!out[k].ok || cycles != j.cycles || out[k].frames.empty() ||
            hex16(out[k].frames.back().imageHash) != j.imageHash)
            res.fail(j.label + ": in-process rerun differs from dtexld");
    }
    if (!opt.trace)
        return res;

    // Layers below the daemon, on the same sample: the traced phase
    // renderer must reproduce runBatch's frames.
    LayerTotals layers;
    std::vector<const JobDef *> sampleDefs;
    for (std::size_t k = 0; k < sample.size(); ++k) {
        const JobRun &j = runs[sample[k]];
        sampleDefs.push_back(&defs[j.spec]);
        PhaseRenderer renderer(batch[k].cfg, scenes[k][0]);
        const std::uint32_t job = res.spans.begin("replay.job", 0, j.label);
        for (std::uint32_t f = 0; f < kFramesPerJob; ++f) {
            const FrameStats fs = tracedFrame(renderer, scenes[k][f],
                                              res.spans, job, j.label, layers);
            ++res.attempted;
            if (f >= out[k].frames.size() ||
                frameStatsBytes(fs) != frameStatsBytes(out[k].frames[f]))
                res.fail(j.label + ": traced phase renderer differs");
        }
        res.spans.end(job);
    }
    layers.emit(res.metrics);
    const SpanTotals frames = res.spans.totalsByName().at("frame");
    res.metrics["trace.frame_self_ms"] =
        frames.selfMs / static_cast<double>(frames.count);
    inProcessCacheMetrics(sampleDefs, opt.runDir + "/inproc", true, res);
    selfTimeMetrics(res, runs.size());
    return res;
}

RunResult
sweepWarm(const Options &opt)
{
    RunResult res;
    const std::vector<JobDef> defs = drawJobs(opt.seed, kWarmSpecsPerAlias);

    // Set-up: a fresh daemon plus a cold fill of the spec set, several
    // times; the last fill's daemon and cache serve the timed part.
    std::vector<double> setupS;
    std::unique_ptr<DaemonProcess> d;
    std::vector<JobRun> fill;
    for (int rep = 0; rep < kWarmSetupReps; ++rep) {
        if (d && d->drain() != 0)
            res.fail("dtexld exited non-zero after a set-up drain");
        const std::int64_t t0 = nowNs();
        d = startDaemon(opt, "warm");
        LedgerClock clock;
        fill = makeRuns(defs, identity(defs.size()), "f");
        runPhase(*d, fill, clock);
        setupS.push_back(msSince(t0) / 1e3);
    }
    checkJobs(fill, false, res);

    // Timed: resubmit the specs round robin, in a seeded order.
    std::vector<std::size_t> order(warmJobs(opt.seconds));
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i % defs.size();
    std::uint64_t rng = mixSeed(opt.seed, 77);
    for (std::size_t i = order.size(); i > 1; --i) {
        rng = mixSeed(rng, i);
        std::swap(order[i - 1], order[rng % i]);
    }

    TimedPhase tp;
    const int passes = opt.trace ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
        if (pass > 0) {
            // A restarted daemon on the same state directory: the cache
            // is kept, the job table starts empty as in the first pass.
            if (d->drain() != 0)
                res.fail("dtexld exited non-zero after the untraced pass");
            d = startDaemon(opt, "warm", true);
        }
        tp.run(*d, makeRuns(defs, order, "w" + std::to_string(pass) + "-"),
               pass);
        checkJobs(tp.runs, true, res);
        for (const JobRun &j : tp.runs) {
            const JobRun &c = fill[j.spec];
            if (j.state == "done" &&
                (j.cycles != c.cycles || j.imageHash != c.imageHash))
                res.fail(j.label + ": cached result differs from its cold run");
        }
    }
    phaseMetrics(tp.runs, tp.pr, tp.before, tp.after, tp.clock, opt.trace, res);
    res.metrics["setup_s"] = median(setupS);
    res.metrics["peak_rss_mb"] =
        static_cast<double>(procStatusKb(d->pid(), "VmHWM")) / 1024.0;
    if (opt.trace) {
        res.metrics["cache.entry_kb"] = meanEntryKb(d->dir() + "/cache");
        res.metrics["trace.overhead_frac"] = tp.pr.wallS / tp.untracedS - 1.0;
    }
    const int code = d->drain();
    d.reset();
    if (code != 0)
        res.fail("dtexld exited with " + std::to_string(code));
    if (opt.trace) {
        std::vector<const JobDef *> specs;
        for (const JobDef &def : defs)
            specs.push_back(&def);
        inProcessCacheMetrics(specs, opt.runDir + "/inproc", false, res);
        selfTimeMetrics(res, tp.runs.size());
    }
    return res;
}

} // namespace

RunResult
runSweep(const Options &opt, bool warm)
{
    return warm ? sweepWarm(opt) : sweepCold(opt);
}

} // namespace perfbench
