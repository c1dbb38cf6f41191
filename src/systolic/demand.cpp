#include "systolic/demand.hpp"

#include <vector>

#include "check/contract.hpp"
#include "common/log.hpp"
#include "systolic/fold_cache.hpp"

namespace scalesim::systolic
{

namespace
{

GemmDims
effectiveGemm(const GemmDims& dense, const KGatherMap* gather)
{
    GemmDims eff = dense;
    if (gather) {
        eff.k = gather->compressedK();
        if (eff.k == 0 || eff.k > dense.k)
            fatal("sparse gather map has invalid compressed K %llu",
                  static_cast<unsigned long long>(eff.k));
    }
    return eff;
}

constexpr std::uint64_t kNoClass = ~static_cast<std::uint64_t>(0);

/**
 * Conv ifmap m-window equivalence class of output pixels
 * [m_lo, m_lo + span). Two windows are shift-equivalent iff both sit
 * inside a single image and their in-image offsets agree modulo one
 * output row (same ow column, oh shifted uniformly). Windows spanning
 * an image boundary shift non-uniformly, so they get no class.
 */
std::uint64_t
convMClass(const OperandMap& op, std::uint64_t m_lo, std::uint64_t span)
{
    const std::uint64_t pixels = op.dims.m / op.batch;
    if (pixels == 0 || op.ofmapW == 0 || span == 0)
        return kNoClass;
    if (m_lo / pixels != (m_lo + span - 1) / pixels)
        return kNoClass;
    return (m_lo % pixels) % op.ofmapW;
}

/**
 * Conv ifmap k-window class: reduction ranges [k_lo, k_lo + span)
 * shift affinely iff their bases agree modulo one filter row
 * (filterW * channels words), which keeps (kw, c) fixed and moves kh
 * uniformly.
 */
std::uint64_t
convKClass(const OperandMap& op, std::uint64_t k_lo)
{
    const std::uint64_t row = op.filterW * op.channels;
    return row == 0 ? kNoClass : k_lo % row;
}

/** Ifmap address shift between two same-class m-bases. */
std::int64_t
ifmapShiftM(const OperandMap& op, std::uint64_t m_from,
            std::uint64_t m_to)
{
    if (!op.conv) {
        return (static_cast<std::int64_t>(m_to)
                - static_cast<std::int64_t>(m_from))
            * static_cast<std::int64_t>(op.dims.k);
    }
    const std::uint64_t pixels = op.dims.m / op.batch;
    const std::int64_t dimg = static_cast<std::int64_t>(m_to / pixels)
        - static_cast<std::int64_t>(m_from / pixels);
    // Same class => the in-image offsets differ by whole output rows.
    const std::int64_t drow =
        (static_cast<std::int64_t>(m_to % pixels)
         - static_cast<std::int64_t>(m_from % pixels))
        / static_cast<std::int64_t>(op.ofmapW);
    return dimg
        * static_cast<std::int64_t>(op.ifmapH * op.ifmapW * op.channels)
        + drow
        * static_cast<std::int64_t>(op.stride * op.ifmapW * op.channels);
}

/** Ifmap address shift between two same-class k-bases. */
std::int64_t
ifmapShiftK(const OperandMap& op, std::uint64_t k_from,
            std::uint64_t k_to)
{
    if (!op.conv) {
        return static_cast<std::int64_t>(k_to)
            - static_cast<std::int64_t>(k_from);
    }
    // Same class => the bases differ by whole filter rows, each of
    // which moves the window one ifmap row down.
    const std::int64_t drows =
        (static_cast<std::int64_t>(k_to)
         - static_cast<std::int64_t>(k_from))
        / static_cast<std::int64_t>(op.filterW * op.channels);
    return drows
        * static_cast<std::int64_t>(op.ifmapW * op.channels);
}

} // namespace

DemandGenerator::DemandGenerator(const GemmDims& gemm, Dataflow df,
                                 std::uint32_t array_rows,
                                 std::uint32_t array_cols,
                                 const OperandMap& operands,
                                 const KGatherMap* gather)
    : denseGemm_(gemm), effectiveGemm_(effectiveGemm(gemm, gather)),
      grid_(effectiveGemm_, df, array_rows, array_cols),
      operands_(operands), gather_(gather)
{
    if (gather_ && df != Dataflow::WeightStationary) {
        fatal("sparse trace simulation supports weight-stationary only "
              "(as in the paper's evaluations)");
    }
    // Operand addressing always uses the dense dimensions so gathered
    // ifmap reads land on real dense addresses.
    operands_.dims = denseGemm_;
}

void
DemandGenerator::runFold(DemandVisitor& visitor, std::uint64_t rf,
                         std::uint64_t cf, Cycle fold_start) const
{
    switch (grid_.dataflow()) {
      case Dataflow::OutputStationary:
        runFoldOs(visitor, rf, cf, fold_start);
        break;
      case Dataflow::WeightStationary:
        runFoldWs(visitor, rf, cf, fold_start);
        break;
      case Dataflow::InputStationary:
        runFoldIs(visitor, rf, cf, fold_start);
        break;
    }
}

bool
DemandGenerator::replayKey(std::uint64_t rf, std::uint64_t cf,
                           std::uint64_t& key) const
{
    // The filter (K x N row-major) and ofmap (M x N row-major) streams
    // are affine in both fold bases for every dataflow, so only the
    // ifmap mapping decides the equivalence class.
    switch (grid_.dataflow()) {
      case Dataflow::OutputStationary: {
        if (!operands_.conv) {
            key = 0;
            return true;
        }
        const std::uint64_t mcls = convMClass(
            operands_, rf * grid_.arrayRows(), grid_.tileRows(rf));
        if (mcls == kNoClass)
            return false;
        key = 1 + mcls;
        return true;
      }
      case Dataflow::WeightStationary: {
        if (gather_) {
            // origK() breaks the affine k mapping: row folds are
            // incomparable, but the column folds of one row fold all
            // stream the same gathered ifmap rows (delta 0).
            key = (1ull << 32) + rf;
            return true;
        }
        if (!operands_.conv) {
            key = 0;
            return true;
        }
        const std::uint64_t kcls = convKClass(
            operands_, rf * grid_.arrayRows());
        if (kcls == kNoClass)
            return false;
        key = 1 + kcls;
        return true;
      }
      case Dataflow::InputStationary: {
        if (!operands_.conv) {
            key = 0;
            return true;
        }
        const std::uint64_t mcls = convMClass(
            operands_, cf * grid_.arrayCols(), grid_.tileCols(cf));
        const std::uint64_t kcls = convKClass(
            operands_, rf * grid_.arrayRows());
        if (mcls == kNoClass || kcls == kNoClass)
            return false;
        key = 1 + mcls * (operands_.filterW * operands_.channels)
            + kcls;
        return true;
      }
    }
    return false;
}

ReplayDeltas
DemandGenerator::replayDeltas(const FoldCacheEntry& entry,
                              std::uint64_t rf, std::uint64_t cf) const
{
    const std::uint64_t rows = grid_.arrayRows();
    const std::uint64_t cols = grid_.arrayCols();
    const std::int64_t dsr =
        (static_cast<std::int64_t>(rf)
         - static_cast<std::int64_t>(entry.rf))
        * static_cast<std::int64_t>(rows);
    const std::int64_t dsc =
        (static_cast<std::int64_t>(cf)
         - static_cast<std::int64_t>(entry.cf))
        * static_cast<std::int64_t>(cols);
    const std::int64_t n = static_cast<std::int64_t>(operands_.dims.n);
    ReplayDeltas d;
    switch (grid_.dataflow()) {
      case Dataflow::OutputStationary:
        // ifmap A[m, t], filter B[t, n], ofmap O[m, n].
        d.ifmap = ifmapShiftM(operands_, entry.rf * rows, rf * rows);
        d.filter = dsc;
        d.ofmap = dsr * n + dsc;
        break;
      case Dataflow::WeightStationary:
        // ifmap A[t, k] (gathered k repeats across column folds),
        // filter B[k, n] stationary, ofmap O[t, n].
        d.ifmap = gather_
            ? 0 : ifmapShiftK(operands_, entry.rf * rows, rf * rows);
        d.filter = dsr * n + dsc;
        d.ofmap = dsc;
        break;
      case Dataflow::InputStationary:
        // ifmap A[m, k] stationary, filter B[k, t], ofmap O[m, t].
        d.ifmap = ifmapShiftM(operands_, entry.cf * cols, cf * cols)
            + ifmapShiftK(operands_, entry.rf * rows, rf * rows);
        d.filter = dsr * n;
        d.ofmap = dsc * n;
        break;
    }
    return d;
}

void
DemandGenerator::run(DemandVisitor& visitor) const
{
    cacheStats_ = {};
    visitor.beginLayer(grid_, operands_);
    const Cycle fold_len = grid_.foldCycles();
    // A one-fold layer has nothing to replay, so it is never copied
    // into an arena.
    const bool replay = foldCache_ && grid_.numFolds() > 1;
    // Replay requires the candidate fold to have the canonical (first
    // fold's) tile shape; ragged edge folds fall back to live.
    const std::uint64_t ctr = grid_.tileRows(0);
    const std::uint64_t ctc = grid_.tileCols(0);
    const bool os = grid_.dataflow() == Dataflow::OutputStationary;
    FoldReplayCache cache;
    FoldReplayScratch scratch;
    Cycle fold_start = 0;
    for (std::uint64_t rf = 0; rf < grid_.rowFolds(); ++rf) {
        for (std::uint64_t cf = 0; cf < grid_.colFolds(); ++cf) {
            visitor.beginFold(rf, cf, fold_start);
            ++cacheStats_.foldsTotal;
            std::uint64_t key = 0;
            const bool classed = replay && grid_.tileRows(rf) == ctr
                && grid_.tileCols(cf) == ctc && replayKey(rf, cf, key);
            FoldCacheEntry* entry = classed ? cache.find(key) : nullptr;
            if (entry) {
                const bool accumulate = !os && rf > 0;
                const ReplayDeltas deltas = replayDeltas(*entry, rf, cf);
                visitor.replayFold(key, entry->rf, entry->cf, deltas,
                                   accumulate);
                entry->replay(visitor, fold_start, deltas, accumulate,
                              scratch);
                ++cacheStats_.foldsReplayed;
                cacheStats_.addrsReplayed += entry->addrCount(accumulate);
            } else if (classed) {
                FoldCaptureVisitor capture(visitor,
                                           cache.insert(key, rf, cf));
                runFold(capture, rf, cf, fold_start);
                ++cacheStats_.foldsLive;
            } else {
                runFold(visitor, rf, cf, fold_start);
                ++cacheStats_.foldsLive;
            }
            fold_start += fold_len;
            visitor.endFold(rf, cf, fold_start);
        }
    }
    SIM_CHECK_EQ(cacheStats_.foldsReplayed + cacheStats_.foldsLive,
                 cacheStats_.foldsTotal,
                 "every fold is either replayed or generated live");
    visitor.endLayer(fold_start);
}

void
DemandGenerator::runFoldOs(DemandVisitor& visitor, std::uint64_t rf,
                           std::uint64_t cf, Cycle fold_start) const
{
    const std::uint64_t tr = grid_.tileRows(rf);
    const std::uint64_t tc = grid_.tileCols(cf);
    const std::uint64_t rbase = rf * grid_.arrayRows();
    const std::uint64_t cbase = cf * grid_.arrayCols();
    const std::uint64_t t_extent = grid_.mapped().t; // == K
    const std::uint32_t rows = grid_.arrayRows();
    const Cycle fold_len = grid_.foldCycles();

    std::vector<Addr> ifmap, filter, writes;
    ifmap.reserve(tr);
    filter.reserve(tc);
    writes.reserve(std::min(tr, tc));

    for (Cycle clk = 0; clk < fold_len; ++clk) {
        ifmap.clear();
        filter.clear();
        writes.clear();
        // Skewed A stream: row r consumes A[rbase+r][clk - r].
        for (std::uint64_t r = 0; r < tr && r <= clk; ++r) {
            const std::uint64_t t = clk - r;
            if (t < t_extent)
                ifmap.push_back(operands_.ifmapAddr(rbase + r, t));
        }
        // Skewed B stream: column c consumes B[clk - c][cbase+c].
        for (std::uint64_t c = 0; c < tc && c <= clk; ++c) {
            const std::uint64_t t = clk - c;
            if (t < t_extent)
                filter.push_back(operands_.filterAddr(t, cbase + c));
        }
        // Diagonal drain after fill + stream: diagonal d = r + c leaves
        // at cycle (R + T - 1) + d.
        if (clk + 1 >= rows + t_extent) {
            const std::uint64_t d = clk - (rows + t_extent - 1);
            if (d <= tr + tc - 2) {
                const std::uint64_t r_lo = d >= tc ? d - (tc - 1) : 0;
                const std::uint64_t r_hi = std::min<std::uint64_t>(
                    tr - 1, d);
                for (std::uint64_t r = r_lo; r <= r_hi; ++r) {
                    writes.push_back(operands_.ofmapAddr(
                        rbase + r, cbase + (d - r)));
                }
            }
        }
        visitor.cycle(fold_start + clk, ifmap, filter, {}, writes);
    }
}

void
DemandGenerator::runFoldWs(DemandVisitor& visitor, std::uint64_t rf,
                           std::uint64_t cf, Cycle fold_start) const
{
    const std::uint64_t tr = grid_.tileRows(rf); // K-range (compressed)
    const std::uint64_t tc = grid_.tileCols(cf); // N-range
    const std::uint64_t kbase = rf * grid_.arrayRows();
    const std::uint64_t cbase = cf * grid_.arrayCols();
    const std::uint64_t t_extent = grid_.mapped().t; // == M
    const std::uint32_t rows = grid_.arrayRows();
    const Cycle fold_len = grid_.foldCycles();
    const bool accumulate = rf > 0;

    std::vector<Addr> ifmap, filter, oreads, writes;
    ifmap.reserve(tr);
    filter.reserve(tc);
    writes.reserve(tc);
    oreads.reserve(tc);

    for (Cycle clk = 0; clk < fold_len; ++clk) {
        ifmap.clear();
        filter.clear();
        oreads.clear();
        writes.clear();
        if (clk < rows) {
            // Weight preload, bottom row first so the tile settles as
            // values shift down the array.
            if (clk < tr) {
                const std::uint64_t k = kbase + (tr - 1 - clk);
                for (std::uint64_t c = 0; c < tc; ++c)
                    filter.push_back(operands_.filterAddr(k, cbase + c));
            }
        }
        // Skewed ifmap stream: row r consumes A[t][k(r)] at
        // clk = R + t + r; sparse runs gather the original K row.
        if (clk >= rows) {
            const Cycle s = clk - rows;
            for (std::uint64_t r = 0; r < tr && r <= s; ++r) {
                const std::uint64_t t = s - r;
                if (t < t_extent) {
                    const std::uint64_t k = gather_
                        ? gather_->origK(kbase + r) : kbase + r;
                    ifmap.push_back(operands_.ifmapAddr(t, k));
                }
            }
        }
        // Output drain: O[t][cbase+c] leaves column c at
        // clk = 2R - 1 + t + c.
        if (clk + 1 >= 2ull * rows) {
            const Cycle s = clk - (2ull * rows - 1);
            for (std::uint64_t c = 0; c < tc && c <= s; ++c) {
                const std::uint64_t t = s - c;
                if (t < t_extent) {
                    const Addr addr = operands_.ofmapAddr(t, cbase + c);
                    writes.push_back(addr);
                    if (accumulate)
                        oreads.push_back(addr);
                }
            }
        }
        visitor.cycle(fold_start + clk, ifmap, filter, oreads, writes);
    }
}

void
DemandGenerator::runFoldIs(DemandVisitor& visitor, std::uint64_t rf,
                           std::uint64_t cf, Cycle fold_start) const
{
    const std::uint64_t tr = grid_.tileRows(rf); // K-range
    const std::uint64_t tc = grid_.tileCols(cf); // M-range
    const std::uint64_t kbase = rf * grid_.arrayRows();
    const std::uint64_t mbase = cf * grid_.arrayCols();
    const std::uint64_t t_extent = grid_.mapped().t; // == N
    const std::uint32_t rows = grid_.arrayRows();
    const Cycle fold_len = grid_.foldCycles();
    const bool accumulate = rf > 0;

    std::vector<Addr> ifmap, filter, oreads, writes;
    ifmap.reserve(tc);
    filter.reserve(tr);
    writes.reserve(tc);
    oreads.reserve(tc);

    for (Cycle clk = 0; clk < fold_len; ++clk) {
        ifmap.clear();
        filter.clear();
        oreads.clear();
        writes.clear();
        if (clk < rows && clk < tr) {
            // Ifmap preload: stationary tile element (k, m) = A[m][k].
            const std::uint64_t k = kbase + (tr - 1 - clk);
            for (std::uint64_t c = 0; c < tc; ++c)
                ifmap.push_back(operands_.ifmapAddr(mbase + c, k));
        }
        if (clk >= rows) {
            // Skewed filter stream: row r consumes B[k(r)][t].
            const Cycle s = clk - rows;
            for (std::uint64_t r = 0; r < tr && r <= s; ++r) {
                const std::uint64_t t = s - r;
                if (t < t_extent)
                    filter.push_back(operands_.filterAddr(kbase + r, t));
            }
        }
        if (clk + 1 >= 2ull * rows) {
            // Output drain: O[mbase+c][t] at clk = 2R - 1 + t + c.
            const Cycle s = clk - (2ull * rows - 1);
            for (std::uint64_t c = 0; c < tc && c <= s; ++c) {
                const std::uint64_t t = s - c;
                if (t < t_extent) {
                    const Addr addr = operands_.ofmapAddr(mbase + c, t);
                    writes.push_back(addr);
                    if (accumulate)
                        oreads.push_back(addr);
                }
            }
        }
        visitor.cycle(fold_start + clk, ifmap, filter, oreads, writes);
    }
}

void
CountingVisitor::cycle(Cycle clk, std::span<const Addr> ifmap_reads,
                       std::span<const Addr> filter_reads,
                       std::span<const Addr> ofmap_reads,
                       std::span<const Addr> ofmap_writes)
{
    ifmapReads += ifmap_reads.size();
    filterReads += filter_reads.size();
    ofmapReads += ofmap_reads.size();
    ofmapWrites += ofmap_writes.size();
    lastCycle = clk;
    if (!ifmap_reads.empty() || !filter_reads.empty()
        || !ofmap_reads.empty() || !ofmap_writes.empty()) {
        ++activeCycles;
    }
}

} // namespace scalesim::systolic
