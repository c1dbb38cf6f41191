#include "energy/action_counts.hpp"

#include <algorithm>
#include <bit>

#include "check/contract.hpp"
#include "common/log.hpp"

namespace scalesim::energy
{

namespace
{

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

/**
 * Run `loop(lookup)` with the MRU lookup+update of `trackers`. The
 * capacity test is made once per call, not once per address, so the
 * capacity-4 loop stays branch-free.
 */
template <typename Trackers, typename Loop>
void
withLookup(Trackers& trackers, Loop&& loop)
{
    if (trackers.capacity == 4) {
        loop([&trackers](std::uint64_t bank, std::uint64_t row) {
            return trackers.access4(bank, row);
        });
    } else {
        loop([&trackers](std::uint64_t bank, std::uint64_t row) {
            return trackers.access(bank, row);
        });
    }
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

// Inline, so that GCC at -O2 inlines it into the per-address loops.
inline bool
ActionCountVisitor::RowTrackerSet::access4(std::uint64_t bank,
                                           std::uint64_t row)
{
    // Hot path for the default bank size. Systolic lanes stride across
    // tracker banks, so hit depth (and hit/miss itself) is
    // data-dependent and unpredictable — a branchy MRU walk eats a
    // mispredict per address. Instead compute the hit mask and the
    // rotated bank state unconditionally; everything lowers to
    // conditional moves.
    std::uint64_t* const base = rows.data() + bank * 4;
    const std::uint32_t n = sizes[bank];
    const std::uint64_t r0 = base[0];
    const std::uint64_t r1 = base[1];
    const std::uint64_t r2 = base[2];
    const std::uint64_t r3 = base[3];
    const bool h0 = r0 == row && n > 0;
    const bool h1 = r1 == row && n > 1;
    const bool h2 = r2 == row && n > 2;
    const bool h3 = r3 == row && n > 3;
    const bool hit = h0 | h1 | h2 | h3;
    // MRU rotate-to-front (or insert-evict on a miss): slot i keeps its
    // value when the hit was above it, else takes its predecessor's.
    base[0] = row;
    base[1] = h0 ? r1 : r0;
    base[2] = (h0 | h1) ? r2 : r1;
    base[3] = (h0 | h1 | h2) ? r3 : r2;
    sizes[bank] = hit ? n : (n < 4 ? n + 1 : 4);
    return hit;
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
    for (RowTrackerSet& trackers : trackers_)
        trackers.reset(kTrackerBanks, cfg_.bankSize);
    for (std::size_t s = 0; s < kFoldStreams; ++s) {
        foldTrackers_[s].reset(kTrackerBanks, cfg_.bankSize);
        foldFirst_[s].resize(foldTrackers_[s].rows.size());
    }
    layerStart_ = counts_;
    memo_.clear();
    mode_ = FoldMode::Outside;
    foldsMemoized_ = 0;
    foldsWalked_ = 0;
}

void
ActionCountVisitor::beginFold(std::uint64_t rf, std::uint64_t cf,
                              Cycle /*fold_start*/)
{
    mode_ = FoldMode::Walking;
    foldKey_ = {rf, cf, {}};
    foldRows_ = {};
    accumulate_ = false;
    walk_ = {};
    for (RowTrackerSet& trackers : foldTrackers_)
        std::fill(trackers.sizes.begin(), trackers.sizes.end(), 0);
}

void
ActionCountVisitor::replayFold(std::uint64_t /*key*/,
                               std::uint64_t canon_rf,
                               std::uint64_t canon_cf,
                               const systolic::ReplayDeltas& deltas,
                               bool accumulate)
{
    // delta = q * rowSize + r with 0 <= r < rowSize. A negative q is
    // kept as its two's-complement image, which adds to a row and
    // reduces mod kTrackerBanks (a power of two) correctly.
    const auto row_size = static_cast<std::int64_t>(cfg_.rowSize);
    const std::int64_t stream_deltas[kFoldStreams] = {
        deltas.ifmap, deltas.filter, deltas.ofmap};
    foldKey_ = {canon_rf, canon_cf, {}};
    for (std::size_t s = 0; s < kFoldStreams; ++s) {
        const std::int64_t r =
            ((stream_deltas[s] % row_size) + row_size) % row_size;
        foldKey_.residues[s] = static_cast<std::uint64_t>(r);
        foldRows_[s] =
            static_cast<std::uint64_t>((stream_deltas[s] - r) / row_size);
    }
    accumulate_ = accumulate;
    const auto it = memo_.find(foldKey_);
    if (it == memo_.end()) {
        mode_ = FoldMode::Recording;
        return;
    }
    mode_ = FoldMode::Memoized;
    memoized_ = &it->second;
}

void
ActionCountVisitor::countAccesses(RowTrackerSet& trackers,
                                  std::span<const Addr> addrs,
                                  Count& random, Count& repeat)
{
    Count repeats = 0;
    withLookup(trackers, [&](auto lookup) {
        for (Addr addr : addrs) {
            const std::uint64_t row = rowOf(addr);
            repeats += lookup(row % kTrackerBanks, row);
        }
    });
    repeat += repeats;
    random += addrs.size() - repeats;
}

std::pair<Count*, Count*>
ActionCountVisitor::streamCounts(Stream s)
{
    switch (s) {
      case kIfmap:
        return {&counts_.ifmapSram.readRandom,
                &counts_.ifmapSram.readRepeat};
      case kFilter:
        return {&counts_.filterSram.readRandom,
                &counts_.filterSram.readRepeat};
      case kOfmapWrite:
        return {&counts_.ofmapSram.writeRandom,
                &counts_.ofmapSram.writeRepeat};
      case kOfmapRead:
      case kStreams:
        break;
    }
    return {&counts_.ofmapSram.readRandom, &counts_.ofmapSram.readRepeat};
}

void
ActionCountVisitor::cycle(Cycle /*clk*/,
                          std::span<const Addr> ifmap_reads,
                          std::span<const Addr> filter_reads,
                          std::span<const Addr> ofmap_reads,
                          std::span<const Addr> ofmap_writes)
{
    // Every producer brackets its cycles with beginFold/endFold.
    SIM_CHECK(mode_ != FoldMode::Outside, "cycle outside a fold");
    if (mode_ == FoldMode::Memoized)
        return;
    const std::span<const Addr> streams[kFoldStreams] = {
        ifmap_reads, filter_reads, ofmap_writes};
    for (std::size_t s = 0; s < kFoldStreams; ++s)
        summarize(static_cast<Stream>(s), streams[s]);
    // A replay's reads are its writes (applied at endFold when it
    // accumulates); a generated fold's are walked live.
    if (mode_ == FoldMode::Walking) {
        const auto [random, repeat] = streamCounts(kOfmapRead);
        countAccesses(trackers_[kOfmapRead], ofmap_reads, *random,
                      *repeat);
    }
}

void
ActionCountVisitor::summarize(Stream s, std::span<const Addr> addrs)
{
    // The fold-local trackers start empty, so their hits are exactly
    // the carry-independent repeats, and while a bank holds fewer than
    // `bankSize` rows none has been evicted: a miss there is the
    // bank's next first touch.
    RowTrackerSet& trackers = foldTrackers_[s];
    std::uint64_t* const first = foldFirst_[s].data();
    const std::uint64_t shift = foldRows_[s];
    const std::uint32_t cap = trackers.capacity;
    Count repeats = 0;
    withLookup(trackers, [&](auto lookup) {
        for (Addr addr : addrs) {
            const std::uint64_t row = rowOf(addr) - shift;
            const std::uint64_t bank = row % kTrackerBanks;
            const std::uint32_t n = trackers.sizes[bank];
            const bool hit = lookup(bank, row);
            repeats += hit;
            if (!hit && n < cap)
                first[bank * cap + n] = row;
        }
    });
    walk_[s].repeats += repeats;
    walk_[s].accesses += addrs.size();
}

void
ActionCountVisitor::finishSummary()
{
    for (std::size_t s = 0; s < kFoldStreams; ++s) {
        const RowTrackerSet& trackers = foldTrackers_[s];
        const std::vector<std::uint64_t>& first = foldFirst_[s];
        StreamSummary& summary = walk_[s];
        for (std::uint32_t b = 0; b < kTrackerBanks; ++b) {
            // A bank recorded as many first touches as it holds rows:
            // both are min(distinct rows, bankSize).
            const std::size_t at =
                static_cast<std::size_t>(b) * trackers.capacity;
            const std::uint32_t n = trackers.sizes[b];
            summary.firstTouches.insert(summary.firstTouches.end(),
                                        first.begin() + at,
                                        first.begin() + at + n);
            summary.exitRows.insert(summary.exitRows.end(),
                                    trackers.rows.begin() + at,
                                    trackers.rows.begin() + at + n);
            summary.offset[b + 1] = summary.offset[b] + n;
        }
    }
}

void
ActionCountVisitor::applySummary(Stream s, const StreamSummary& summary,
                                 std::uint64_t rows)
{
    RowTrackerSet& trackers = trackers_[s];
    Count repeats = summary.repeats;
    for (std::uint32_t b = 0; b < kTrackerBanks; ++b) {
        const std::uint32_t lo = summary.offset[b];
        const std::uint32_t n = summary.offset[b + 1] - lo;
        if (n == 0)
            continue;
        const std::uint64_t bank = (b + rows) % kTrackerBanks;
        for (std::uint32_t i = 0; i < n; ++i) {
            repeats += trackers.access(
                bank, summary.firstTouches[lo + i] + rows);
        }
        // The bank now holds the rows it holds at the fold's exit;
        // only the order of its top n, the fold's own, differs.
        std::uint64_t* const top =
            trackers.rows.data() + bank * trackers.capacity;
        for (std::uint32_t i = 0; i < n; ++i)
            top[i] = summary.exitRows[lo + i] + rows;
    }
    const auto [random, repeat] = streamCounts(s);
    *repeat += repeats;
    *random += summary.accesses - repeats;
}

void
ActionCountVisitor::endFold(std::uint64_t /*rf*/, std::uint64_t /*cf*/,
                            Cycle /*fold_end*/)
{
    SIM_CHECK(mode_ != FoldMode::Outside, "endFold without beginFold");
    const FoldSummary* summary = memoized_;
    if (mode_ == FoldMode::Memoized) {
        ++foldsMemoized_;
    } else {
        ++foldsWalked_;
        finishSummary();
        summary = &walk_;
        if (memo_.size() < kMemoCapacity) {
            summary = &memo_.try_emplace(foldKey_, std::move(walk_))
                           .first->second;
        }
    }
    for (std::size_t s = 0; s < kFoldStreams; ++s)
        applySummary(static_cast<Stream>(s), (*summary)[s], foldRows_[s]);
    if (accumulate_) {
        applySummary(kOfmapRead, (*summary)[kOfmapWrite],
                     foldRows_[kOfmapWrite]);
    }
    mode_ = FoldMode::Outside;
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
