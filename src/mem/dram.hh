/**
 * @file
 * Banked DRAM with per-bank row buffers and a shared data channel.
 *
 * Substitute for DRAMSim2 (see DESIGN.md): Table II only constrains the
 * latency window (50-100 cycles); open-row accesses see the low bound,
 * row conflicts the high bound, and the channel enforces a bytes/cycle
 * bandwidth ceiling.
 */

#ifndef DTEXL_MEM_DRAM_HH
#define DTEXL_MEM_DRAM_HH

#include <deque>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "mem/mem_level.hh"
#include "mem/rate_window.hh"
#include "telemetry/unit_track.hh"

namespace dtexl {

/** Main memory: the bottom of the hierarchy. */
class Dram : public MemLevel
{
  public:
    /**
     * @param fast_path Channel window implementation (see RateWindow;
     *        GpuConfig::simFastPath), not a hardware parameter.
     */
    explicit Dram(const DramConfig &cfg, bool fast_path = true);

    Cycle access(Addr addr, AccessType type, Cycle now) override;

    const StatSet &stats() const { return stats_; }
    std::uint64_t accesses() const
    {
        return stats_.get("read") + stats_.get("write");
    }

    /** Reset bank/channel timing state (not the stats). */
    void reset();

    /**
     * Attach (or detach, with nullptr) the telemetry track: bank-busy
     * waits as BankConflict, channel waits as ChannelBusy, the burst
     * as busy cycles.
     */
    void setTelemetry(UnitTrack *t) { telemetry = t; }

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        IntervalResource busy;
    };

    DramConfig cfg;
    std::vector<Bank> banks;
    /**
     * Channel occupancy: kChannelWindow transfers per kChannelWindow *
     * burst cycles, enforced out-of-order-tolerantly (see RateWindow).
     */
    static constexpr std::uint32_t kChannelWindow = 16;
    RateWindow channel;
    StatSet stats_;

    /**
     * Cached references into stats_ for the per-access counters (see
     * Cache::HotStats); DRAM stats are never cleared, so binding once
     * at construction is safe.
     */
    struct HotStats
    {
        std::uint64_t *read = nullptr;
        std::uint64_t *write = nullptr;
        std::uint64_t *rowHit = nullptr;
        std::uint64_t *rowMiss = nullptr;
        std::uint64_t *channelStall = nullptr;
    };
    HotStats hot;

    /** Stall/busy attribution sink; null (and inert) below level 1. */
    UnitTrack *telemetry = nullptr;
};

} // namespace dtexl

#endif // DTEXL_MEM_DRAM_HH
