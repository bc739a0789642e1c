#include "phases.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "raster/quad_stream.hh"
#include "raster/rasterizer.hh"
#include "texture/sampler.hh"

namespace perfbench {

using namespace dtexl;

PhaseRenderer::PhaseRenderer(const GpuConfig &c, const Scene &first) : cfg(c)
{
    cfg.validate();
    mem = std::make_unique<MemHierarchy>(cfg);
    fb = std::make_unique<FrameBuffer>(cfg);
    pb = std::make_unique<ParamBuffer>(cfg.numTiles());
    geom = std::make_unique<GeometryPhase>(cfg, *mem, *pb);
    pipe = std::make_unique<RasterPipeline>(cfg, *mem, first, *fb,
                                            &signatures);
}

FrameStats
PhaseRenderer::render(const Scene &scene, SpanLog &log, std::uint32_t parent,
                      const std::string &job)
{
    pipe->setScene(scene);
    FrameStats fs;
    mem->resetTiming();
    pipe->beginFrame();

    const std::uint64_t l2_0 = mem->l2().accesses();
    const std::uint64_t l2m_0 = mem->l2().misses();
    const std::uint64_t dram_0 = mem->dram().accesses();
    const std::uint64_t vtx_0 = mem->vertexCache().accesses();
    const std::uint64_t tile_0 = mem->tileCache().accesses();
    std::uint64_t tex_0 = 0, texm_0 = 0;
    for (std::size_t i = 0; i < mem->numTextureCaches(); ++i) {
        tex_0 += mem->textureCache(static_cast<CoreId>(i)).accesses();
        texm_0 += mem->textureCache(static_cast<CoreId>(i)).misses();
    }

    GeometryPhase::Result gr;
    {
        ScopedSpan s(&log, "geom", parent, job);
        gr = geom->run(scene);
    }
    fs.geometryCycles = gr.cycles;
    fs.verticesProcessed = gr.vertices;
    fs.primitivesBinned = gr.primitives;

    mem->resetTiming();
    fb->clear();
    {
        ScopedSpan s(&log, "raster", parent, job);
        fs.rasterCycles = pipe->run(*pb, fs);
    }

    fs.totalCycles = std::max(fs.geometryCycles, fs.rasterCycles);
    fs.fps = fs.totalCycles == 0 ? 0.0
                                 : static_cast<double>(cfg.clockHz) /
                                       static_cast<double>(fs.totalCycles);
    fs.l2Accesses = mem->l2().accesses() - l2_0;
    fs.l2Misses = mem->l2().misses() - l2m_0;
    fs.dramAccesses = mem->dram().accesses() - dram_0;
    for (std::size_t i = 0; i < mem->numTextureCaches(); ++i) {
        const Cache &l1 = mem->textureCache(static_cast<CoreId>(i));
        fs.l1TexAccesses += l1.accesses();
        fs.l1TexMisses += l1.misses();
    }
    fs.l1TexAccesses -= tex_0;
    fs.l1TexMisses -= texm_0;
    fs.l1VertexAccesses = mem->vertexCache().accesses() - vtx_0;
    fs.l1TileAccesses = mem->tileCache().accesses() - tile_0;
    fs.earlyZTests = pipe->stats().get("ez_tests");
    fs.blendOps = pipe->stats().get("blend_ops");
    fs.flushLineWrites = pipe->stats().get("flush_line_writes");
    for (std::uint32_t p = 0; p < cfg.numPipelines; ++p) {
        const StatSet &sc = pipe->core(static_cast<CoreId>(p)).stats();
        fs.fragmentsShaded += sc.get("fragments");
        fs.shaderInstructions += sc.get("alu_ops") + sc.get("tex_instructions");
        fs.textureSamples += sc.get("tex_samples");
    }
    fs.textureReplication = mem->textureReplicationFactor();
    fs.imageHash = fb->hash();
    return fs;
}

void
LayerTotals::addFrame(const FrameStats &fs, double fMs, double gMs, double rMs)
{
    ++frames;
    frameMs += fMs;
    geomMs += gMs;
    rasterMs += rMs;
    sum.totalCycles += fs.totalCycles;
    sum.verticesProcessed += fs.verticesProcessed;
    sum.primitivesBinned += fs.primitivesBinned;
    sum.quadsRasterized += fs.quadsRasterized;
    sum.quadsShaded += fs.quadsShaded;
    sum.quadsCulledEarlyZ += fs.quadsCulledEarlyZ;
    sum.quadsCulledHiZ += fs.quadsCulledHiZ;
    sum.l1TexAccesses += fs.l1TexAccesses;
    sum.l1TexMisses += fs.l1TexMisses;
    sum.l2Accesses += fs.l2Accesses;
    sum.l2Misses += fs.l2Misses;
    sum.dramAccesses += fs.dramAccesses;
    sum.l1TileAccesses += fs.l1TileAccesses;
}

namespace {

double
ratio(double num, std::uint64_t den)
{
    return den ? num / static_cast<double>(den) : 0.0;
}

/**
 * Replay the frame's rasterization (Rasterizer::rasterize over every
 * tile's bin), the texture footprints of every rasterized quad
 * (quadSampleFootprints), and the resulting line reads through a fresh
 * MemHierarchy::textureRead, each timed as one block. The replays see
 * every rasterized quad, before Early-Z, so their counts are larger
 * than the pipeline's.
 */
void
replayFrame(const GpuConfig &cfg, const ParamBuffer &pb, const Scene &scene,
            SpanLog &log, std::uint32_t parent, const std::string &job,
            LayerTotals &tot)
{
    // One "replay" span holds the replays and their untimed glue, so
    // none of it lands in the enclosing job's self time.
    const ScopedSpan replay(&log, "replay", parent, job);
    parent = replay.id();
    const std::uint32_t tilesX = cfg.tilesX();
    Rasterizer rast(cfg);
    QuadStream qs;
    {
        ScopedSpan s(&log, "replay.rasterize", parent, job);
        for (TileId t = 0; t < pb.numTiles(); ++t) {
            const Coord2 coord{static_cast<std::int32_t>(t % tilesX),
                               static_cast<std::int32_t>(t / tilesX)};
            for (std::uint32_t idx : pb.tileList(t))
                rast.rasterize(pb.primitive(idx), coord, qs);
        }
    }
    tot.rasterizeNs += log.spans().back().durMs() * 1e6;
    for (TileId t = 0; t < pb.numTiles(); ++t)
        tot.binEntries += pb.tileList(t).size();
    const auto n = static_cast<std::uint32_t>(qs.size());
    tot.replayQuads += n;

    auto footprints = [&](std::uint32_t i, SampleFootprint fp[4]) {
        const Primitive *prim = qs.prim(i);
        const TextureDesc &tex = scene.texture(prim->texture);
        Vec2f uv4[4];
        for (unsigned k = 0; k < 4; ++k)
            uv4[k] = qs.uv(i, k);
        quadSampleFootprints(tex, prim->shader.filter, uv4,
                             qs.lod(i, tex.side()), fp);
    };
    {
        ScopedSpan s(&log, "replay.footprint", parent, job);
        SampleFootprint fp[4];
        for (std::uint32_t i = 0; i < n; ++i) {
            footprints(i, fp);
            tot.sink += fp[0].texels[0] + fp[3].count;
        }
    }
    tot.footprintNs += log.spans().back().durMs() * 1e6;

    // Untimed second pass: the covered fragments' distinct lines.
    std::vector<Addr> lines;
    std::vector<CoreId> cores;
    std::array<Addr, SampleFootprint::kMaxTexels> buf{};
    for (std::uint32_t i = 0; i < n; ++i) {
        SampleFootprint fp[4];
        footprints(i, fp);
        for (unsigned k = 0; k < 4; ++k) {
            if (!qs.covered(i, k))
                continue;
            const std::uint32_t c =
                footprintLines(fp[k], cfg.textureCache.lineBytes, buf);
            for (std::uint32_t l = 0; l < c; ++l) {
                lines.push_back(buf[l]);
                cores.push_back(static_cast<CoreId>(i % cfg.numPipelines));
            }
        }
    }
    tot.replayLines += lines.size();

    MemHierarchy fresh(cfg);
    Cycle now = 0;
    {
        ScopedSpan s(&log, "replay.mem", parent, job);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            tot.sink += fresh.textureRead(cores[i], lines[i], now);
            now += 4;
        }
    }
    tot.memNs += log.spans().back().durMs() * 1e6;
    tot.replayAccesses += lines.size();
}

} // namespace

FrameStats
tracedFrame(PhaseRenderer &pr, const Scene &scene, SpanLog &log,
            std::uint32_t parent, const std::string &job, LayerTotals &tot)
{
    const std::uint32_t frame = log.begin("frame", parent, job);
    const FrameStats fs = pr.render(scene, log, frame, job);
    log.end(frame);
    // The frame span's two children are the last two spans logged.
    const auto &sp = log.spans();
    const double rasterMs = sp[sp.size() - 1].durMs();
    const double geomMs = sp[sp.size() - 2].durMs();
    tot.addFrame(fs, sp[frame - 1].durMs(), geomMs, rasterMs);
    replayFrame(pr.config(), pr.params(), scene, log, parent, job, tot);
    return fs;
}

void
LayerTotals::emit(std::map<std::string, double> &m) const
{
    const double nf = static_cast<double>(std::max<std::uint64_t>(frames, 1));
    m["geom.host_ms"] = geomMs / nf;
    m["geom.share"] = frameMs > 0.0 ? geomMs / frameMs : 0.0;
    m["geom.vertices"] = static_cast<double>(sum.verticesProcessed);
    m["geom.primitives"] = static_cast<double>(sum.primitivesBinned);
    m["tiling.bin_entries"] = static_cast<double>(binEntries);
    m["raster.host_ms"] = rasterMs / nf;
    m["raster.host_ns_per_quad"] = ratio(rasterMs * 1e6, sum.quadsRasterized);
    m["raster.quads_rasterized"] = static_cast<double>(sum.quadsRasterized);
    m["raster.quads_shaded"] = static_cast<double>(sum.quadsShaded);
    m["raster.quads_culled"] =
        static_cast<double>(sum.quadsCulledEarlyZ + sum.quadsCulledHiZ);
    m["raster.rasterize_ns_per_quad"] = ratio(rasterizeNs, replayQuads);
    m["texture.footprint_ns_per_quad"] = ratio(footprintNs, replayQuads);
    m["texture.lines_per_quad"] =
        ratio(static_cast<double>(replayLines), replayQuads);
    m["mem.l1tex_accesses"] = static_cast<double>(sum.l1TexAccesses);
    m["mem.l1tex_hit_ratio"] =
        1.0 - ratio(static_cast<double>(sum.l1TexMisses), sum.l1TexAccesses);
    m["mem.l2_accesses"] = static_cast<double>(sum.l2Accesses);
    m["mem.l2_hit_ratio"] =
        1.0 - ratio(static_cast<double>(sum.l2Misses), sum.l2Accesses);
    m["mem.dram_accesses"] = static_cast<double>(sum.dramAccesses);
    m["mem.tile_accesses"] = static_cast<double>(sum.l1TileAccesses);
    // The memory model runs inside the raster phase; per l1tex access
    // is the host cost the memory hot path has to lower.
    m["mem.host_ns_per_l1tex_access"] =
        ratio(rasterMs * 1e6, sum.l1TexAccesses);
    m["mem.replay_ns_per_access"] = ratio(memNs, replayAccesses);
}

} // namespace perfbench
