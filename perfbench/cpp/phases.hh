/**
 * @file
 * The simulator's frame loop rebuilt from its public phase objects, so
 * the traced runs can time the geometry and raster phases from outside
 * the library, plus replays of the raster, texture and memory layers
 * over a frame's binned primitives.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <map>
#include <memory>
#include <string>

#include "common/config.hh"
#include "core/frame_stats.hh"
#include "core/geometry_phase.hh"
#include "core/raster_pipeline.hh"
#include "geom/scene.hh"
#include "mem/hierarchy.hh"
#include "raster/framebuffer.hh"
#include "tiling/param_buffer.hh"
#include "trace.hh"

namespace perfbench {

/**
 * Renders frames in the order GpuSimulator::renderFrame() runs its
 * phases, with "geom" and "raster" spans. Telemetry stays off, as in
 * the sessions whose FrameStats it must reproduce.
 */
class PhaseRenderer
{
  public:
    PhaseRenderer(const dtexl::GpuConfig &cfg, const dtexl::Scene &first);
    // The phase objects keep references to cfg and to each other.
    PhaseRenderer(const PhaseRenderer &) = delete;
    PhaseRenderer &operator=(const PhaseRenderer &) = delete;

    /** Render @p scene as the next frame; spans go under @p parent. */
    dtexl::FrameStats render(const dtexl::Scene &scene, SpanLog &log,
                             std::uint32_t parent, const std::string &job);

    const dtexl::GpuConfig &config() const { return cfg; }
    const dtexl::ParamBuffer &params() const { return *pb; }

  private:
    dtexl::GpuConfig cfg;
    dtexl::FlushSignatures signatures;
    std::unique_ptr<dtexl::MemHierarchy> mem;
    std::unique_ptr<dtexl::FrameBuffer> fb;
    std::unique_ptr<dtexl::ParamBuffer> pb;
    std::unique_ptr<dtexl::GeometryPhase> geom;
    std::unique_ptr<dtexl::RasterPipeline> pipe;
};

/**
 * Layer totals over a set of traced frames: FrameStats counts, phase
 * span times, and the replays.
 */
struct LayerTotals
{
    std::uint64_t frames = 0;
    double frameMs = 0.0;
    double geomMs = 0.0;
    double rasterMs = 0.0;
    dtexl::FrameStats sum;

    std::uint64_t binEntries = 0;
    std::uint64_t replayQuads = 0;
    std::uint64_t replayLines = 0;
    std::uint64_t replayAccesses = 0;
    double rasterizeNs = 0.0;
    double footprintNs = 0.0;
    double memNs = 0.0;
    std::uint64_t sink = 0;

    /** Fold one traced frame's stats and span times into the totals. */
    void addFrame(const dtexl::FrameStats &fs, double frameMs,
                  double geomMs, double rasterMs);

    /** Write the geom/tiling/raster/texture/mem metrics. */
    void emit(std::map<std::string, double> &m) const;
};

/**
 * Render one traced frame through @p pr under a "frame" span, then
 * replay its layers (outside the span) into @p tot. Returns the
 * frame's FrameStats.
 */
dtexl::FrameStats tracedFrame(PhaseRenderer &pr, const dtexl::Scene &scene,
                              SpanLog &log, std::uint32_t parent,
                              const std::string &job, LayerTotals &tot);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
