/**
 * @file
 * The Polygon List Builder (Figure 3): bins each assembled primitive
 * into the per-tile lists of the Parameter Buffer, writing attribute
 * records and list entries through the Tile Cache.
 */

#ifndef DTEXL_TILING_POLY_LIST_BUILDER_HH
#define DTEXL_TILING_POLY_LIST_BUILDER_HH

#include "common/config.hh"
#include "mem/hierarchy.hh"
#include "tiling/param_buffer.hh"

namespace dtexl {

/** Timed primitive binning. */
class PolyListBuilder
{
  public:
    PolyListBuilder(const GpuConfig &cfg, MemHierarchy &mem,
                    ParamBuffer &pb)
        : cfg(cfg), mem(mem), pb(pb)
    {}

    /**
     * Bin one primitive: exact-overlap test against every tile in its
     * bounding box, attribute record written once, a list entry per
     * overlapped tile.
     *
     * @param prim Assembled primitive (in submission order).
     * @param now  Cycle binning may start.
     * @return Cycle the last write retires.
     */
    Cycle binPrimitive(const Primitive &prim, Cycle now);

    std::uint64_t tileEntriesWritten() const { return entriesWritten; }

  private:
    /** Fixed cost of the overlap/setup logic per candidate tile. */
    static constexpr Cycle kBinTestCost = 1;

    const GpuConfig &cfg;
    MemHierarchy &mem;
    ParamBuffer &pb;
    std::uint64_t entriesWritten = 0;
};

} // namespace dtexl

#endif // DTEXL_TILING_POLY_LIST_BUILDER_HH
