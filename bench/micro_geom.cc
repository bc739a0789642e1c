/**
 * @file
 * Micro-benchmarks (google-benchmark) for the raster hot path's quad
 * layout: BM_QuadTraversalAoS / BM_QuadTraversalSoA walk the same
 * quads per quad (coverage, depth, LOD reads) in array-of-structs
 * Quad form vs the QuadStream structure-of-arrays layout the pipeline
 * uses.
 *
 * The perf CI job runs this binary and uploads its JSON next to
 * BENCH_perf.json.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "raster/quad_stream.hh"
#include "raster/rasterizer.hh"

namespace {

using namespace dtexl;

GpuConfig
benchCfg()
{
    GpuConfig cfg = makeDTexLConfig();
    cfg.screenWidth = 512;
    cfg.screenHeight = 256;
    return cfg;
}

/** Quads of one busy tile, in both layouts, for the traversal pair. */
struct TileQuads
{
    std::vector<Quad> aos;
    QuadStream soa;
};

const TileQuads &
tileQuads()
{
    static const TileQuads tq = [] {
        const GpuConfig cfg = benchCfg();
        Rasterizer rast(cfg);
        Primitive prim;
        prim.v[0].screen = {1.0f, 1.0f};
        prim.v[1].screen = {31.0f, 2.0f};
        prim.v[2].screen = {4.0f, 30.0f};
        prim.v[0].uv = {0.0f, 0.0f};
        prim.v[1].uv = {0.1f, 0.0f};
        prim.v[2].uv = {0.0f, 0.1f};
        prim.v[0].depth = 0.25f;
        prim.v[1].depth = 0.5f;
        prim.v[2].depth = 0.75f;
        TileQuads out;
        // Several overlapping rasterizations approximate a busy
        // tile's worth of quads in submission order.
        for (int i = 0; i < 8; ++i)
            rast.rasterize(prim, {0, 0}, out.aos);
        for (const Quad &q : out.aos)
            out.soa.push(q);
        return out;
    }();
    return tq;
}

void
BM_QuadTraversalAoS(benchmark::State &state)
{
    const std::vector<Quad> &quads = tileQuads().aos;
    for (auto _ : state) {
        float acc = 0.0f;
        std::uint32_t covered = 0;
        for (const Quad &q : quads) {
            for (int k = 0; k < 4; ++k) {
                if (!q.covered(k))
                    continue;
                ++covered;
                acc += q.frags[k].depth;
            }
            acc += q.lod(256);
        }
        benchmark::DoNotOptimize(acc);
        benchmark::DoNotOptimize(covered);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * quads.size()));
}
BENCHMARK(BM_QuadTraversalAoS);

void
BM_QuadTraversalSoA(benchmark::State &state)
{
    const QuadStream &qs = tileQuads().soa;
    for (auto _ : state) {
        float acc = 0.0f;
        std::uint32_t covered = 0;
        const auto n = static_cast<std::uint32_t>(qs.size());
        for (std::uint32_t i = 0; i < n; ++i) {
            for (int k = 0; k < 4; ++k) {
                if (!qs.covered(i, k))
                    continue;
                ++covered;
                acc += qs.depth(i, k);
            }
            acc += qs.lod(i, 256);
        }
        benchmark::DoNotOptimize(acc);
        benchmark::DoNotOptimize(covered);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * qs.size()));
}
BENCHMARK(BM_QuadTraversalSoA);

} // namespace

BENCHMARK_MAIN();
