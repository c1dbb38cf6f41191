/**
 * @file
 * Action-count generation (paper §VII-C/D/E): the trace-driven counter
 * distinguishes repeated from random SRAM accesses using the 'row
 * size' / 'bank size' lookup, and the analytical estimator produces
 * the same structure from closed-form access counts for fast sweeps.
 */

#ifndef SCALESIM_ENERGY_ACTION_COUNTS_HH
#define SCALESIM_ENERGY_ACTION_COUNTS_HH

#include <vector>

#include "common/config.hpp"
#include "systolic/demand.hpp"

namespace scalesim::energy
{

/** Random/repeat/idle split for one smart-buffer SRAM. */
struct SramActionCounts
{
    Count readRandom = 0;
    Count readRepeat = 0;
    Count writeRandom = 0;
    Count writeRepeat = 0;
    Count idle = 0;

    Count reads() const { return readRandom + readRepeat; }
    Count writes() const { return writeRandom + writeRepeat; }

    void
    merge(const SramActionCounts& o)
    {
        readRandom += o.readRandom;
        readRepeat += o.readRepeat;
        writeRandom += o.writeRandom;
        writeRepeat += o.writeRepeat;
        idle += o.idle;
    }

    bool operator==(const SramActionCounts&) const = default;
};

/** Complete action-count summary for one layer (or accumulated run). */
struct ActionCounts
{
    // MAC action types (§VII-E).
    Count macRandom = 0;
    Count macConstant = 0; ///< clocked, no new data
    Count macGated = 0;    ///< clock-gated idle PEs

    // PE scratchpads (§VII-E).
    Count ifmapSpadRead = 0;
    Count ifmapSpadWrite = 0;
    Count weightSpadRead = 0;
    Count weightSpadWrite = 0;
    Count psumSpadRead = 0;
    Count psumSpadWrite = 0;

    // Smart-buffer SRAMs (§VII-C/D).
    SramActionCounts ifmapSram;
    SramActionCounts filterSram;
    SramActionCounts ofmapSram;

    // Vector/SIMD unit lane-operations (§III-C tails).
    Count vectorOps = 0;

    // Main memory and interconnect.
    Count dramReadWords = 0;
    Count dramWriteWords = 0;
    Count nocWords = 0;

    Cycle cycles = 0;

    void merge(const ActionCounts& other);

    bool operator==(const ActionCounts&) const = default;
};

/**
 * Trace-driven action counter. Repeated-access lookup (§VII-C): each
 * SRAM keeps `bankSize` most-recently-used row buffers of `rowSize`
 * words; an access falling in a live row buffer is a repeat.
 */
class ActionCountVisitor : public systolic::DemandVisitor
{
  public:
    ActionCountVisitor(const EnergyConfig& cfg, bool clock_gating = true);

    void beginLayer(const systolic::FoldGrid& grid,
                    const systolic::OperandMap& operands) override;
    void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
               std::span<const Addr> filter_reads,
               std::span<const Addr> ofmap_reads,
               std::span<const Addr> ofmap_writes) override;
    void endLayer(Cycle total_cycles) override;

    const ActionCounts& counts() const { return counts_; }

  private:
    /**
     * Banked MRU row-buffer trackers for the repeat lookup, stored as
     * one flat `banks * capacity` array (MRU first within each bank)
     * so the per-address hot path is a single indexed load instead of
     * a pointer chase through per-bank vectors.
     */
    struct RowTrackerSet
    {
        std::vector<std::uint64_t> rows; ///< banks * capacity, MRU 1st
        std::vector<std::uint32_t> sizes; ///< live rows per bank
        std::uint32_t capacity = 4;
        void reset(std::uint32_t banks, std::uint32_t cap);
        /** Classic MRU lookup+update; true when `row` was live. */
        bool access(std::uint64_t bank, std::uint64_t row);
    };

    void countAccesses(RowTrackerSet& trackers,
                       std::span<const Addr> addrs, Count& random,
                       Count& repeat);

    /** rowShift_ sentinel: row size is not a power of two, divide. */
    static constexpr std::uint32_t kNoRowShift = ~0u;

    EnergyConfig cfg_;
    bool clockGating_;
    /** log2(rowSize) when rowSize is a power of two, else sentinel. */
    std::uint32_t rowShift_ = kNoRowShift;
    ActionCounts counts_;
    /** counts_ snapshot taken at beginLayer, for per-layer deltas. */
    ActionCounts layerStart_;
    // One tracker bank set per SRAM stream (rows hash across banks),
    // each bank holding `bankSize` open row buffers.
    RowTrackerSet ifmapRows_;
    RowTrackerSet filterRows_;
    RowTrackerSet ofmapReadRows_;
    RowTrackerSet ofmapWriteRows_;
    double utilization_ = 0.0;
    std::uint32_t arrayRows_ = 1;
    std::uint32_t arrayCols_ = 1;
};

/**
 * Closed-form action counts for the analytical path. Streaming-operand
 * accesses are mostly sequential, so their repeat fraction is
 * (rowSize - 1) / rowSize; stationary-tile loads stride across the
 * operand and count as random.
 */
ActionCounts analyticalActionCounts(const systolic::FoldGrid& grid,
                                    const EnergyConfig& cfg,
                                    bool clock_gating = true);

} // namespace scalesim::energy

#endif // SCALESIM_ENERGY_ACTION_COUNTS_HH
