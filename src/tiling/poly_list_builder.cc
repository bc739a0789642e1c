#include "tiling/poly_list_builder.hh"

#include <algorithm>
#include <cmath>

#include "tiling/overlap.hh"

namespace dtexl {

Cycle
PolyListBuilder::binPrimitive(const Primitive &prim, Cycle now)
{
    const float ts = static_cast<float>(cfg.tileSize);
    const auto tiles_x = static_cast<std::int32_t>(cfg.tilesX());
    const auto tiles_y = static_cast<std::int32_t>(cfg.tilesY());
    const std::int32_t tx0 = std::max<std::int32_t>(
        0, static_cast<std::int32_t>(std::floor(prim.minX() / ts)));
    const std::int32_t ty0 = std::max<std::int32_t>(
        0, static_cast<std::int32_t>(std::floor(prim.minY() / ts)));
    const std::int32_t tx1 = std::min<std::int32_t>(
        tiles_x - 1,
        static_cast<std::int32_t>(std::floor(prim.maxX() / ts)));
    const std::int32_t ty1 = std::min<std::int32_t>(
        tiles_y - 1,
        static_cast<std::int32_t>(std::floor(prim.maxY() / ts)));

    Cycle cursor = now;
    const std::size_t index = pb.addPrimitive(prim);

    // The attribute record is written once per primitive.
    cursor = std::max(cursor, mem.tileAccess(pb.attrAddr(index),
                                             AccessType::Write, cursor));

    // Exact-overlap test against every candidate tile in the bounding
    // box; a list entry is appended and written per overlapped tile.
    for (std::int32_t ty = ty0; ty <= ty1; ++ty) {
        for (std::int32_t tx = tx0; tx <= tx1; ++tx) {
            cursor += kBinTestCost;
            const RectF rect{static_cast<float>(tx) * ts,
                             static_cast<float>(ty) * ts,
                             static_cast<float>(tx + 1) * ts,
                             static_cast<float>(ty + 1) * ts};
            if (!triangleOverlapsRect(prim.v[0].screen, prim.v[1].screen,
                                      prim.v[2].screen, rect)) {
                continue;
            }
            const TileId tile =
                static_cast<TileId>(ty) * cfg.tilesX() +
                static_cast<TileId>(tx);
            const std::size_t n = pb.tileList(tile).size();
            pb.appendToTile(tile, index);
            cursor = std::max(
                cursor, mem.tileAccess(pb.listEntryAddr(tile, n),
                                       AccessType::Write, cursor));
            ++entriesWritten;
        }
    }
    return cursor;
}

} // namespace dtexl
