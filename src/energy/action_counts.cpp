#include "energy/action_counts.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace scalesim::energy
{

namespace
{

/** Number of banked row-buffer trackers in the repeat lookup. */
constexpr std::uint32_t kTrackerBanks = 32;

/**
 * Add the counts that follow from one layer's totals (§VII-E): MAC
 * states, PE scratchpads, idle SRAM port-cycles and NoC words of a
 * `cycles`-long layer on a `rows` x `cols` array that did `macs` MACs
 * and moved `ifmap_reads`, `filter_reads` and `ofmap_words` SRAM words.
 */
void
addLayerCounts(ActionCounts& counts, std::uint64_t rows,
               std::uint64_t cols, Cycle cycles, Count macs,
               Count ifmap_reads, Count filter_reads, Count ofmap_words,
               bool clock_gating)
{
    // PEs x cycles x utilization are real MACs; the remainder is
    // constant (clocked) or gated.
    const std::uint64_t pe_cycles = rows * cols * cycles;
    const Count idle_macs = pe_cycles > macs ? pe_cycles - macs : 0;
    counts.macRandom += macs;
    (clock_gating ? counts.macGated : counts.macConstant) += idle_macs;

    // PE scratchpads follow §VII-E's dataflow-sensitive rules: writes
    // track the SRAM reads that deliver new data, reads track MACs.
    counts.ifmapSpadWrite += ifmap_reads;
    counts.ifmapSpadRead += macs;
    counts.weightSpadWrite += filter_reads;
    counts.weightSpadRead += macs;
    counts.psumSpadRead += macs;
    counts.psumSpadWrite += macs;

    // Idle port-cycles: ifmap SRAM feeds R ports, filter and ofmap C.
    auto idle = [cycles](std::uint64_t ports, Count used) -> Count {
        const Count port_cycles = ports * cycles;
        return port_cycles > used ? port_cycles - used : 0;
    };
    counts.ifmapSram.idle += idle(rows, ifmap_reads);
    counts.filterSram.idle += idle(cols, filter_reads);
    counts.ofmapSram.idle += idle(cols, ofmap_words);

    // Every SRAM<->array word traverses the array-edge NoC.
    counts.nocWords += ifmap_reads + filter_reads + ofmap_words;
}

} // namespace

void
ActionCounts::merge(const ActionCounts& other)
{
    macRandom += other.macRandom;
    macConstant += other.macConstant;
    macGated += other.macGated;
    vectorOps += other.vectorOps;
    ifmapSpadRead += other.ifmapSpadRead;
    ifmapSpadWrite += other.ifmapSpadWrite;
    weightSpadRead += other.weightSpadRead;
    weightSpadWrite += other.weightSpadWrite;
    psumSpadRead += other.psumSpadRead;
    psumSpadWrite += other.psumSpadWrite;
    ifmapSram.merge(other.ifmapSram);
    filterSram.merge(other.filterSram);
    ofmapSram.merge(other.ofmapSram);
    dramReadWords += other.dramReadWords;
    dramWriteWords += other.dramWriteWords;
    nocWords += other.nocWords;
    cycles += other.cycles;
}

void
ActionCountVisitor::RowTrackerSet::reset(std::uint32_t banks,
                                         std::uint32_t cap)
{
    capacity = cap;
    rows.assign(static_cast<std::size_t>(banks) * cap, 0);
    sizes.assign(banks, 0);
}

bool
ActionCountVisitor::RowTrackerSet::access(std::uint64_t bank,
                                          std::uint64_t row)
{
    std::uint64_t* const base = rows.data() + bank * capacity;
    const std::uint32_t n = sizes[bank];
    std::uint32_t i = 0;
    while (i < n && base[i] != row)
        ++i;
    if (i < n) {
        // Hit: rotate [0, i] right by one, row becomes MRU.
        std::copy_backward(base, base + i, base + i + 1);
        base[0] = row;
        return true;
    }
    // Miss: push to MRU, evicting the LRU entry when full.
    const std::uint32_t keep = std::min(n, capacity - 1);
    std::copy_backward(base, base + keep, base + keep + 1);
    base[0] = row;
    sizes[bank] = std::min(n + 1, capacity);
    return false;
}

ActionCountVisitor::ActionCountVisitor(const EnergyConfig& cfg,
                                       bool clock_gating)
    : cfg_(cfg), clockGating_(clock_gating)
{
    if (cfg_.rowSize == 0)
        fatal("energy RowSize must be non-zero");
    if (cfg_.bankSize == 0)
        fatal("energy BankSize must be non-zero");
    // The per-address row lookup runs once per trace address; a
    // power-of-two row size (the default and every preset) turns the
    // division into a shift.
    rowShift_ = std::has_single_bit(cfg_.rowSize)
        ? static_cast<std::uint32_t>(std::countr_zero(cfg_.rowSize))
        : kNoRowShift;
}

void
ActionCountVisitor::beginLayer(const systolic::FoldGrid& grid,
                               const systolic::OperandMap& /*operands*/)
{
    utilization_ = grid.utilization();
    arrayRows_ = grid.arrayRows();
    arrayCols_ = grid.arrayCols();
    ifmapRows_.reset(kTrackerBanks, cfg_.bankSize);
    filterRows_.reset(kTrackerBanks, cfg_.bankSize);
    ofmapReadRows_.reset(kTrackerBanks, cfg_.bankSize);
    ofmapWriteRows_.reset(kTrackerBanks, cfg_.bankSize);
    layerStart_ = counts_;
}

void
ActionCountVisitor::countAccesses(RowTrackerSet& trackers,
                                  std::span<const Addr> addrs,
                                  Count& random, Count& repeat)
{
    const std::uint64_t row_size = cfg_.rowSize;
    const std::uint32_t shift = rowShift_;
    const std::uint32_t cap = trackers.capacity;
    std::uint64_t* const rows = trackers.rows.data();
    std::uint32_t* const sizes = trackers.sizes.data();
    Count repeats = 0;
    if (cap == 4) {
        // Hot path for the default bank size. Systolic lanes stride
        // across tracker banks, so hit depth (and hit/miss itself) is
        // data-dependent and unpredictable — a branchy MRU walk eats
        // a mispredict per address. Instead compute the hit mask and
        // the rotated bank state unconditionally; everything lowers
        // to conditional moves.
        for (Addr addr : addrs) {
            const std::uint64_t row =
                shift != kNoRowShift ? addr >> shift : addr / row_size;
            const std::uint64_t bank = row % kTrackerBanks;
            std::uint64_t* const b = rows + bank * 4;
            const std::uint64_t r0 = b[0];
            const std::uint64_t r1 = b[1];
            const std::uint64_t r2 = b[2];
            const std::uint64_t r3 = b[3];
            const std::uint32_t n = sizes[bank];
            const bool h0 = r0 == row && n > 0;
            const bool h1 = r1 == row && n > 1;
            const bool h2 = r2 == row && n > 2;
            const bool h3 = r3 == row && n > 3;
            const bool hit = h0 | h1 | h2 | h3;
            // MRU rotate-to-front (or insert-evict on a miss): slot i
            // keeps its value when the hit was above it, else takes
            // its predecessor's.
            b[0] = row;
            b[1] = h0 ? r1 : r0;
            b[2] = (h0 | h1) ? r2 : r1;
            b[3] = (h0 | h1 | h2) ? r3 : r2;
            sizes[bank] = hit ? n : (n < 4 ? n + 1 : 4);
            repeats += hit;
        }
    } else {
        for (Addr addr : addrs) {
            const std::uint64_t row =
                shift != kNoRowShift ? addr >> shift : addr / row_size;
            const std::uint64_t bank = row % kTrackerBanks;
            if (trackers.access(bank, row))
                ++repeats;
        }
    }
    repeat += repeats;
    random += addrs.size() - repeats;
}

void
ActionCountVisitor::cycle(Cycle /*clk*/,
                          std::span<const Addr> ifmap_reads,
                          std::span<const Addr> filter_reads,
                          std::span<const Addr> ofmap_reads,
                          std::span<const Addr> ofmap_writes)
{
    countAccesses(ifmapRows_, ifmap_reads, counts_.ifmapSram.readRandom,
                  counts_.ifmapSram.readRepeat);
    countAccesses(filterRows_, filter_reads,
                  counts_.filterSram.readRandom,
                  counts_.filterSram.readRepeat);
    countAccesses(ofmapReadRows_, ofmap_reads,
                  counts_.ofmapSram.readRandom,
                  counts_.ofmapSram.readRepeat);
    countAccesses(ofmapWriteRows_, ofmap_writes,
                  counts_.ofmapSram.writeRandom,
                  counts_.ofmapSram.writeRepeat);
}

void
ActionCountVisitor::endLayer(Cycle total_cycles)
{
    counts_.cycles += total_cycles;
    const std::uint64_t pe_cycles =
        static_cast<std::uint64_t>(arrayRows_) * arrayCols_ * total_cycles;
    const Count macs = static_cast<Count>(
        static_cast<double>(pe_cycles) * utilization_ + 0.5);
    // Per-layer SRAM access deltas (the visitor may span many layers).
    const SramActionCounts& ifmap = counts_.ifmapSram;
    const SramActionCounts& filter = counts_.filterSram;
    const SramActionCounts& ofmap = counts_.ofmapSram;
    const ActionCounts& start = layerStart_;
    const Count ifmap_reads = ifmap.reads() - start.ifmapSram.reads();
    const Count filter_reads = filter.reads() - start.filterSram.reads();
    const Count ofmap_words = ofmap.reads() + ofmap.writes()
        - start.ofmapSram.reads() - start.ofmapSram.writes();
    addLayerCounts(counts_, arrayRows_, arrayCols_, total_cycles, macs,
                   ifmap_reads, filter_reads, ofmap_words, clockGating_);
}

ActionCounts
analyticalActionCounts(const systolic::FoldGrid& grid,
                       const EnergyConfig& cfg, bool clock_gating)
{
    if (cfg.rowSize == 0)
        fatal("energy RowSize must be non-zero");
    ActionCounts counts;
    counts.cycles = grid.totalCycles();

    const auto sram = grid.sramAccessCounts();
    // Every systolic access stream walks row buffers in a structured
    // way: even skewed streams revisit the block a neighboring feeder
    // touched one cycle earlier (see ActionCountVisitor), so the
    // repeat fraction of a `rowSize`-word row buffer approaches
    // (rowSize - 1) / rowSize for reads and writes alike. The trace
    // path measures the exact split; this closed form estimates it.
    const double seq = 1.0
        - 1.0 / static_cast<double>(cfg.rowSize);
    auto split = [&](Count total, double repeat_fraction, Count& random,
                     Count& repeat) {
        repeat = static_cast<Count>(
            static_cast<double>(total) * repeat_fraction + 0.5);
        random = total - repeat;
    };
    split(sram.ifmapReads, seq, counts.ifmapSram.readRandom,
          counts.ifmapSram.readRepeat);
    split(sram.filterReads, seq, counts.filterSram.readRandom,
          counts.filterSram.readRepeat);
    split(sram.ofmapWrites, seq, counts.ofmapSram.writeRandom,
          counts.ofmapSram.writeRepeat);
    split(sram.ofmapReads, seq, counts.ofmapSram.readRandom,
          counts.ofmapSram.readRepeat);

    addLayerCounts(counts, grid.arrayRows(), grid.arrayCols(),
                   counts.cycles, grid.gemm().macs(), sram.ifmapReads,
                   sram.filterReads, sram.ofmapReads + sram.ofmapWrites,
                   clock_gating);
    return counts;
}

} // namespace scalesim::energy
