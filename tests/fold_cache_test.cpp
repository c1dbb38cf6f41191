/**
 * @file
 * Golden A/B equivalence tests for the fold-replay demand cache: for a
 * matrix of shapes (ragged GEMMs, im2col convolutions, batched conv,
 * sparse-WS gathering) and all three dataflows, a cached run must be
 * byte-identical to an uncached run through every consumer — SRAM trace
 * text (all four streams), CountingVisitor totals, the trace-driven
 * energy action counts, and the bank-conflict evaluator (whose replay
 * memo skips replayed folds) under layouts that hit every shift-period
 * rule. Also pins that the replay path actually fires on the shapes
 * designed to hit it.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "energy/action_counts.hpp"
#include "layout/layout.hpp"
#include "sparse/pattern.hpp"
#include "systolic/demand.hpp"
#include "systolic/trace_io.hpp"

using namespace scalesim;
using namespace scalesim::systolic;

namespace
{

/** One bank-conflict evaluator configuration of the A/B matrix. */
struct LayoutVariant
{
    std::uint32_t banks;
    std::uint32_t bandwidth;
    layout::LayoutScheme scheme;
};

/**
 * Row-major variants pick the shift-period rule by the operand's row
 * width W (layout::shiftPeriod()): 16/128 (8 words per bank) takes the
 * bank-rotation rule whenever 8 | min(W, 128) | W; 16/100 (6 words per
 * bank, 96 < 100) never can, so it takes the line-shift rule when
 * 100 | W and the row-shift rule otherwise; 6/96 and 4/128 (16 and 32
 * words per bank) mix all three over the shapes below. 10/99 (9 words
 * per bank) has 99-word lines that 9 divides but that span 11 > 10
 * banks, so it must not take the bank-rotation rule. Column-major and
 * tiled lines span several rows and always take the row-shift rule.
 */
constexpr LayoutVariant kLayouts[] = {
    {16, 128, layout::LayoutScheme::RowMajor},
    {16, 100, layout::LayoutScheme::RowMajor},
    {6, 96, layout::LayoutScheme::RowMajor},
    {4, 128, layout::LayoutScheme::RowMajor},
    {10, 99, layout::LayoutScheme::RowMajor},
    {16, 128, layout::LayoutScheme::ColMajor},
    {16, 128, layout::LayoutScheme::Tiled},
};

/** What one bank-conflict evaluator reported for a pass. */
struct LayoutResult
{
    Cycle slowed = 0;
    Count conflicts = 0;
    Count memoized = 0;
    Count walked = 0;
};

/** Everything one demand pass produces, captured for comparison. */
struct PassResult
{
    std::string ifmapTrace;
    std::string filterTrace;
    std::string ofmapTrace;
    std::string oreadTrace;
    Count ifmapReads = 0;
    Count filterReads = 0;
    Count ofmapReads = 0;
    Count ofmapWrites = 0;
    Cycle lastCycle = 0;
    energy::ActionCounts actions;
    std::vector<LayoutResult> layouts;
    FoldCacheStats cache;
};

PassResult
runPass(const GemmDims& gemm, Dataflow df, std::uint32_t rows,
        std::uint32_t cols, const OperandMap& operands, bool cached,
        const KGatherMap* gather = nullptr)
{
    DemandGenerator gen(gemm, df, rows, cols, operands, gather);
    gen.setFoldCache(cached);

    std::ostringstream ifmap, filter, ofmap, oread;
    SramTraceWriter writer(&ifmap, &filter, &ofmap, &oread);
    CountingVisitor counter;
    EnergyConfig ecfg;
    energy::ActionCountVisitor actions(ecfg);
    std::vector<DemandVisitor*> sinks = {&writer, &counter, &actions};
    std::vector<layout::BankConflictEvaluator> evals;
    evals.reserve(std::size(kLayouts));
    for (const LayoutVariant& v : kLayouts) {
        LayoutModelConfig lcfg;
        lcfg.enabled = true;
        lcfg.banks = v.banks;
        lcfg.portsPerBank = 1;
        lcfg.onChipBandwidth = v.bandwidth;
        evals.emplace_back(lcfg, layout::OperandLayouts::forOperands(
                                     operands, lcfg, v.scheme));
    }
    for (auto& eval : evals)
        sinks.push_back(&eval);
    TeeVisitor tee(std::move(sinks));
    gen.run(tee);

    PassResult r;
    r.ifmapTrace = ifmap.str();
    r.filterTrace = filter.str();
    r.ofmapTrace = ofmap.str();
    r.oreadTrace = oread.str();
    r.ifmapReads = counter.ifmapReads;
    r.filterReads = counter.filterReads;
    r.ofmapReads = counter.ofmapReads;
    r.ofmapWrites = counter.ofmapWrites;
    r.lastCycle = counter.lastCycle;
    r.actions = actions.counts();
    for (const auto& eval : evals) {
        r.layouts.push_back({eval.slowedCycles(), eval.conflictCycles(),
                             eval.foldsMemoized(), eval.foldsWalked()});
    }
    r.cache = gen.foldCacheStats();
    return r;
}

void
expectSramEqual(const energy::SramActionCounts& a,
                const energy::SramActionCounts& b, const char* what)
{
    EXPECT_EQ(a.readRandom, b.readRandom) << what;
    EXPECT_EQ(a.readRepeat, b.readRepeat) << what;
    EXPECT_EQ(a.writeRandom, b.writeRandom) << what;
    EXPECT_EQ(a.writeRepeat, b.writeRepeat) << what;
    EXPECT_EQ(a.idle, b.idle) << what;
}

/** Field-by-field ActionCounts comparison (no operator==). */
void
expectActionsEqual(const energy::ActionCounts& a,
                   const energy::ActionCounts& b)
{
    EXPECT_EQ(a.macRandom, b.macRandom);
    EXPECT_EQ(a.macConstant, b.macConstant);
    EXPECT_EQ(a.macGated, b.macGated);
    EXPECT_EQ(a.ifmapSpadRead, b.ifmapSpadRead);
    EXPECT_EQ(a.ifmapSpadWrite, b.ifmapSpadWrite);
    EXPECT_EQ(a.weightSpadRead, b.weightSpadRead);
    EXPECT_EQ(a.weightSpadWrite, b.weightSpadWrite);
    EXPECT_EQ(a.psumSpadRead, b.psumSpadRead);
    EXPECT_EQ(a.psumSpadWrite, b.psumSpadWrite);
    expectSramEqual(a.ifmapSram, b.ifmapSram, "ifmapSram");
    expectSramEqual(a.filterSram, b.filterSram, "filterSram");
    expectSramEqual(a.ofmapSram, b.ofmapSram, "ofmapSram");
    EXPECT_EQ(a.vectorOps, b.vectorOps);
    EXPECT_EQ(a.cycles, b.cycles);
}

/** Run cached vs uncached and demand bit-identical observations. */
void
expectEquivalent(const PassResult& cached, const PassResult& live)
{
    EXPECT_EQ(cached.ifmapTrace, live.ifmapTrace);
    EXPECT_EQ(cached.filterTrace, live.filterTrace);
    EXPECT_EQ(cached.ofmapTrace, live.ofmapTrace);
    EXPECT_EQ(cached.oreadTrace, live.oreadTrace);
    EXPECT_EQ(cached.ifmapReads, live.ifmapReads);
    EXPECT_EQ(cached.filterReads, live.filterReads);
    EXPECT_EQ(cached.ofmapReads, live.ofmapReads);
    EXPECT_EQ(cached.ofmapWrites, live.ofmapWrites);
    EXPECT_EQ(cached.lastCycle, live.lastCycle);
    expectActionsEqual(cached.actions, live.actions);
    // The uncached pass must never replay; both walk the same folds.
    EXPECT_EQ(live.cache.foldsReplayed, 0u);
    EXPECT_EQ(cached.cache.foldsTotal, live.cache.foldsTotal);
    ASSERT_EQ(cached.layouts.size(), live.layouts.size());
    for (std::size_t i = 0; i < cached.layouts.size(); ++i) {
        const LayoutResult& c = cached.layouts[i];
        const LayoutResult& l = live.layouts[i];
        EXPECT_EQ(c.slowed, l.slowed) << "layout variant " << i;
        EXPECT_EQ(c.conflicts, l.conflicts) << "layout variant " << i;
        EXPECT_EQ(c.memoized + c.walked, cached.cache.foldsTotal);
        EXPECT_LE(c.memoized, cached.cache.foldsReplayed);
        EXPECT_EQ(l.memoized, 0u) << "an uncached pass never memoizes";
        EXPECT_EQ(l.walked, live.cache.foldsTotal);
    }
}

OperandMap
makeOperands(const GemmDims& gemm)
{
    MemoryConfig mem;
    return OperandMap(gemm, mem);
}

} // namespace

class FoldCacheAb : public ::testing::TestWithParam<Dataflow>
{
};

TEST_P(FoldCacheAb, RaggedGemmIsEquivalent)
{
    // 27x19x13 on an 8x8 array: ragged edge folds in both directions.
    const GemmDims gemm{27, 19, 13};
    const OperandMap operands = makeOperands(gemm);
    const auto cached = runPass(gemm, GetParam(), 8, 8, operands, true);
    const auto live = runPass(gemm, GetParam(), 8, 8, operands, false);
    expectEquivalent(cached, live);
}

TEST_P(FoldCacheAb, FullFoldGemmReplays)
{
    // 32x16x24: every fold is full-shaped, so after the one canonical
    // capture all remaining full folds must replay.
    const GemmDims gemm{32, 16, 24};
    const OperandMap operands = makeOperands(gemm);
    const auto cached = runPass(gemm, GetParam(), 8, 8, operands, true);
    const auto live = runPass(gemm, GetParam(), 8, 8, operands, false);
    expectEquivalent(cached, live);
    EXPECT_GT(cached.cache.foldsReplayed, 0u);
    EXPECT_GT(cached.cache.addrsReplayed, 0u);
    EXPECT_EQ(cached.cache.foldsTotal,
              cached.cache.foldsReplayed + cached.cache.foldsLive);
    // Row-major 16/128 lines leave every shift residue 0 here.
    EXPECT_GT(cached.layouts[0].memoized, 0u);
}

TEST_P(FoldCacheAb, WideGemmIsEquivalent)
{
    // Rows wider than a line, so the shift periods drop below the row
    // width and column-fold shifts leave non-zero residues: N = 192
    // takes the bank-rotation rule on 6/96, N = 198 the line-shift
    // rule on 10/99, N = 200 the line-shift rule on 16/100, N = 256
    // the bank-rotation rule on 16/128 and 4/128; every other pairing
    // takes the row-shift rule.
    for (const std::uint64_t n : {192u, 198u, 200u, 256u}) {
        const GemmDims gemm{40, n, 24};
        const OperandMap operands = makeOperands(gemm);
        const auto cached = runPass(gemm, GetParam(), 8, 8, operands,
                                    true);
        const auto live = runPass(gemm, GetParam(), 8, 8, operands,
                                  false);
        SCOPED_TRACE(n);
        expectEquivalent(cached, live);
    }
}

TEST_P(FoldCacheAb, ConvImToColIsEquivalent)
{
    // 14x14 conv, 3x3x8 -> 12 filters: M = 144, K = 72, N = 12.
    // im2col ifmap addressing is non-affine across row folds, so the
    // conv congruence classes must carry the replays.
    const LayerSpec layer = LayerSpec::conv("c", 14, 14, 3, 3, 8, 12, 1);
    const MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    for (const Dataflow df : {GetParam()}) {
        const auto cached = runPass(gemm, df, 8, 8, operands, true);
        const auto live = runPass(gemm, df, 8, 8, operands, false);
        expectEquivalent(cached, live);
        EXPECT_GT(cached.cache.foldsReplayed, 0u)
            << "conv congruence classes should replay on " << toString(df);
    }
}

TEST_P(FoldCacheAb, BatchedConvIsEquivalent)
{
    // Batch 2 makes some fold m-ranges span the image boundary; those
    // must fall back to live generation without breaking equivalence.
    const LayerSpec layer =
        LayerSpec::conv("c", 10, 10, 3, 3, 4, 8, 1).withBatch(2);
    const MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    const auto cached = runPass(gemm, GetParam(), 8, 8, operands, true);
    const auto live = runPass(gemm, GetParam(), 8, 8, operands, false);
    expectEquivalent(cached, live);
}

TEST_P(FoldCacheAb, StridedConvIsEquivalent)
{
    const LayerSpec layer = LayerSpec::conv("c", 16, 16, 3, 3, 4, 8, 2);
    const MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    const auto cached = runPass(gemm, GetParam(), 8, 8, operands, true);
    const auto live = runPass(gemm, GetParam(), 8, 8, operands, false);
    expectEquivalent(cached, live);
}

INSTANTIATE_TEST_SUITE_P(
    AllDataflows, FoldCacheAb,
    ::testing::Values(Dataflow::OutputStationary,
                      Dataflow::WeightStationary,
                      Dataflow::InputStationary),
    [](const auto& tpi) { return toString(tpi.param); });

TEST(FoldCacheSparse, GatheredWsIsEquivalent)
{
    // 2:4 layer-wise sparsity: WS row folds gather original K rows, so
    // the ifmap stream is not shift-affine across row folds. Column
    // folds within a row fold still share a per-row-fold cache.
    const GemmDims dense{48, 24, 32};
    const OperandMap operands = makeOperands(dense);
    const auto pattern = sparse::SparsityPattern::layerWise(dense.k, 2, 4);
    const auto cached = runPass(dense, Dataflow::WeightStationary, 8, 8,
                                operands, true, &pattern);
    const auto live = runPass(dense, Dataflow::WeightStationary, 8, 8,
                              operands, false, &pattern);
    expectEquivalent(cached, live);
    EXPECT_GT(cached.cache.foldsReplayed, 0u)
        << "column folds should replay within each sparse row fold";
}

TEST(FoldCacheSparse, GatheredWsWideIsEquivalent)
{
    // 1:4 sparsity over a wide filter: each row fold is its own class
    // with ifmap delta 0, and its column folds shift the filter and
    // ofmap by multiples of 8 words, which the 16/128 bank-rotation
    // period (8) absorbs and the other variants split into residues.
    const GemmDims dense{40, 256, 96};
    const OperandMap operands = makeOperands(dense);
    const auto pattern = sparse::SparsityPattern::layerWise(dense.k, 1, 4);
    const auto cached = runPass(dense, Dataflow::WeightStationary, 8, 8,
                                operands, true, &pattern);
    const auto live = runPass(dense, Dataflow::WeightStationary, 8, 8,
                              operands, false, &pattern);
    expectEquivalent(cached, live);
    EXPECT_GT(cached.layouts[0].memoized, 0u);
}

namespace
{

/** Records the canonical folds each replayed class was served from. */
class ReplayRecorder : public DemandVisitor
{
  public:
    void
    replayFold(std::uint64_t key, std::uint64_t canon_rf,
               std::uint64_t canon_cf, const ReplayDeltas& deltas,
               bool) override
    {
        canonicals[key].insert({canon_rf, canon_cf});
        for (const std::int64_t d :
             {deltas.ifmap, deltas.filter, deltas.ofmap}) {
            negativeDeltas += d < 0 ? 1 : 0;
        }
    }
    void cycle(Cycle, std::span<const Addr>, std::span<const Addr>,
               std::span<const Addr>, std::span<const Addr>) override
    {}

    std::map<std::uint64_t,
             std::set<std::pair<std::uint64_t, std::uint64_t>>>
        canonicals;
    /** Replay deltas below zero, which shift by unsigned wraparound. */
    std::size_t negativeDeltas = 0;
};

} // namespace

TEST(FoldCacheEviction, RecapturedConvClassIsEquivalent)
{
    // More conv m-classes than the 32-entry FoldReplayCache holds: a
    // 39x39 input under a 3x3 filter has 37 output columns, cycled by
    // the OS row folds; a 13x13x8 input has 33 (m, k) classes under IS.
    // Classes get evicted and captured again at a later canonical
    // fold, which is why the layout memo keys on the canonical fold.
    const struct
    {
        Dataflow df;
        LayerSpec layer;
    } cases[] = {
        {Dataflow::OutputStationary,
         LayerSpec::conv("c", 39, 39, 3, 3, 2, 16, 1)},
        {Dataflow::InputStationary,
         LayerSpec::conv("c", 13, 13, 3, 3, 8, 8, 1)},
    };
    const MemoryConfig mem;
    for (const auto& c : cases) {
        SCOPED_TRACE(toString(c.df));
        const OperandMap operands = OperandMap::forLayer(c.layer, mem);
        const GemmDims gemm = c.layer.toGemm();
        DemandGenerator gen(gemm, c.df, 8, 8, operands);
        ReplayRecorder recorder;
        gen.run(recorder);
        std::size_t recaptured = 0;
        for (const auto& [key, folds] : recorder.canonicals)
            recaptured += folds.size() > 1 ? 1 : 0;
        EXPECT_GT(recorder.canonicals.size(), 32u);
        EXPECT_GT(recaptured, 0u) << "no class was captured twice";

        const auto cached = runPass(gemm, c.df, 8, 8, operands, true);
        const auto live = runPass(gemm, c.df, 8, 8, operands, false);
        expectEquivalent(cached, live);
        EXPECT_GT(cached.layouts[0].memoized, 0u);
    }
}

TEST(FoldCacheEviction, NegativeReplayDeltaIsEquivalent)
{
    // IS on a 2x2 array over a 33x33 ofmap: 33 m-classes (every row
    // fold has k-class 0) thrash the 32-entry cache, so row fold 0 ends
    // with m-class 0 recaptured at column fold 528, and row fold 1
    // replays its column fold 0 from there. The ifmap and ofmap deltas
    // are negative and the replay shifts by unsigned wraparound.
    const LayerSpec layer = LayerSpec::conv("c", 34, 34, 2, 2, 1, 2, 1);
    const MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    DemandGenerator gen(gemm, Dataflow::InputStationary, 2, 2, operands);
    ReplayRecorder recorder;
    gen.run(recorder);
    EXPECT_GT(recorder.negativeDeltas, 0u);

    const auto cached = runPass(gemm, Dataflow::InputStationary, 2, 2,
                                operands, true);
    const auto live = runPass(gemm, Dataflow::InputStationary, 2, 2,
                              operands, false);
    expectEquivalent(cached, live);
}

TEST(FoldCacheStatsTest, DisabledRunsEverythingLive)
{
    const GemmDims gemm{32, 16, 24};
    const OperandMap operands = makeOperands(gemm);
    const auto live =
        runPass(gemm, Dataflow::OutputStationary, 8, 8, operands, false);
    EXPECT_GT(live.cache.foldsTotal, 0u);
    EXPECT_EQ(live.cache.foldsLive, live.cache.foldsTotal);
    EXPECT_EQ(live.cache.foldsReplayed, 0u);
    EXPECT_EQ(live.cache.addrsReplayed, 0u);
    EXPECT_EQ(live.cache.bytesSaved(), 0u);
}
