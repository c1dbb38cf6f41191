/**
 * @file
 * Unit tests for on-chip data layout modeling: the line/col/bank index
 * equations, layout constructors, the shift-period rules, and the
 * bank-conflict evaluator: its address decoding against the plain
 * (r, c) equations, and its slowdown properties (>= 1, fewer
 * conflicts with more banks/ports, layout sensitivity).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "common/log.hpp"
#include "layout/layout.hpp"
#include "systolic/demand.hpp"

using namespace scalesim;
using namespace scalesim::layout;
using namespace scalesim::systolic;

namespace
{

OperandMap
makeOperands(const GemmDims& gemm)
{
    MemoryConfig mem;
    return OperandMap(gemm, mem);
}

LayoutModelConfig
layoutCfg(std::uint32_t banks, std::uint32_t ports,
          std::uint32_t bandwidth)
{
    LayoutModelConfig cfg;
    cfg.enabled = true;
    cfg.banks = banks;
    cfg.portsPerBank = ports;
    cfg.onChipBandwidth = bandwidth;
    return cfg;
}

double
evaluate(const GemmDims& gemm, Dataflow df, std::uint32_t array,
         const LayoutModelConfig& cfg, LayoutScheme scheme)
{
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, df, array, array, operands);
    BankConflictEvaluator eval(cfg,
                               OperandLayouts::forGemm(gemm, cfg,
                                                       scheme));
    gen.run(eval);
    return eval.slowdown();
}

} // namespace

TEST(Layout2D, IndexEquations)
{
    // 8x8 operand, 2x4 line tiles.
    Layout2D l{8, 8, 2, 4};
    EXPECT_EQ(l.wordsPerLine(), 8u);
    EXPECT_EQ(l.lineTiles(), 8u);
    EXPECT_EQ(l.lineId(0, 0), 0u);
    EXPECT_EQ(l.lineId(0, 4), 1u);
    EXPECT_EQ(l.lineId(2, 0), 2u);
    EXPECT_EQ(l.lineId(7, 7), 7u);
    EXPECT_EQ(l.colId(0, 0), 0u);
    EXPECT_EQ(l.colId(0, 3), 3u);
    EXPECT_EQ(l.colId(1, 0), 4u);
    EXPECT_EQ(l.colId(1, 3), 7u);
}

TEST(Layout2D, Constructors)
{
    const auto rm = Layout2D::rowMajor(16, 64, 32);
    EXPECT_EQ(rm.rowStep, 1u);
    EXPECT_EQ(rm.colStep, 32u);
    const auto cm = Layout2D::colMajor(16, 64, 32);
    EXPECT_EQ(cm.rowStep, 16u); // clamped to rows
    EXPECT_EQ(cm.colStep, 1u);
    const auto tl = Layout2D::tiled(64, 64, 16);
    EXPECT_EQ(tl.rowStep * tl.colStep, 16u);
}

TEST(Layout2D, ClampsToOperandDims)
{
    const auto rm = Layout2D::rowMajor(4, 8, 128);
    EXPECT_EQ(rm.colStep, 8u);
}

TEST(ShiftPeriod, Rules)
{
    // Rule 1: 8 | colStep 128 | W 256 and 128 <= 16 * 8 -> bpb.
    EXPECT_EQ(shiftPeriod(Layout2D::rowMajor(4, 256, 128), 256, 8, 16),
              8u);
    // colStep 100 > 16 * 6 words, but 100 | 200: rule 2 -> colStep.
    EXPECT_EQ(shiftPeriod(Layout2D::rowMajor(4, 200, 100), 200, 6, 16),
              100u);
    // 9 | colStep 99, but 99 words span 11 > 10 banks: rule 2.
    EXPECT_EQ(shiftPeriod(Layout2D::rowMajor(4, 198, 99), 198, 9, 10),
              99u);
    // 32 does not divide colStep 48: rule 2.
    EXPECT_EQ(shiftPeriod(Layout2D::rowMajor(4, 96, 48), 96, 32, 4),
              48u);
    // colStep 128 does not divide W 200: rule 3 -> W.
    EXPECT_EQ(shiftPeriod(Layout2D::rowMajor(4, 200, 128), 200, 8, 16),
              200u);
    // Multi-row lines: rule 3 -> W * rowStep.
    EXPECT_EQ(shiftPeriod(Layout2D::colMajor(64, 24, 16), 24, 8, 16),
              24u * 16u);
    const Layout2D tiled = Layout2D::tiled(64, 64, 16);
    EXPECT_EQ(shiftPeriod(tiled, 64, 4, 4), 64u * tiled.rowStep);
    // Layout columns that differ from the addressed row width: rule 3.
    EXPECT_EQ(shiftPeriod(Layout2D::rowMajor(4, 64, 32), 128, 8, 4),
              128u);
}

namespace
{

/** The evaluator's cost of one ifmap-only cycle, by the plain (r, c)
 *  equations over (bank, line) pairs. */
std::uint64_t
referenceCost(const Layout2D& layout, const std::vector<Addr>& addrs,
              Addr base, std::uint64_t row_width,
              const LayoutModelConfig& cfg)
{
    const std::uint64_t bpb = std::max<std::uint64_t>(
        1, cfg.onChipBandwidth / cfg.banks);
    std::set<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (Addr a : addrs) {
        const std::uint64_t r = (a - base) / row_width;
        const std::uint64_t c = (a - base) % row_width;
        pairs.insert({layout.colId(r, c) / bpb % cfg.banks,
                      layout.lineId(r, c)});
    }
    std::map<std::uint64_t, std::uint64_t> per_bank;
    std::uint64_t worst = 0;
    for (const auto& [bank, line] : pairs)
        worst = std::max(worst, ++per_bank[bank]);
    return std::max<std::uint64_t>(1, ceilDiv(worst, cfg.portsPerBank));
}

} // namespace

TEST(Evaluator, DecodingMatchesIndexEquations)
{
    // Random ifmap cycles through every decoding path: power-of-two
    // and other divisors, lines that divide the row and lines that do
    // not, single-row and multi-row line tiles.
    const GemmDims gemm{37, 16, 200};
    const OperandMap operands = makeOperands(gemm);
    const systolic::FoldGrid grid(gemm, Dataflow::OutputStationary, 8,
                                  8);
    std::mt19937_64 rng(7);
    for (const auto& [banks, bandwidth] :
         {std::pair{16u, 128u}, {16u, 100u}, {6u, 96u}, {4u, 128u},
          {3u, 50u}, {8u, 200u}}) {
        for (const LayoutScheme scheme :
             {LayoutScheme::RowMajor, LayoutScheme::ColMajor,
              LayoutScheme::Tiled}) {
            const LayoutModelConfig cfg = layoutCfg(banks, 1, bandwidth);
            const OperandLayouts layouts =
                OperandLayouts::forGemm(gemm, cfg, scheme);
            BankConflictEvaluator eval(cfg, layouts);
            eval.beginLayer(grid, operands);
            Cycle expected = 0;
            for (int c = 0; c < 200; ++c) {
                std::vector<Addr> addrs(1 + rng() % 40);
                for (Addr& a : addrs)
                    a = operands.ifmapBase + rng() % (gemm.m * gemm.k);
                eval.cycle(c, addrs, {}, {}, {});
                expected += referenceCost(layouts.ifmap, addrs,
                                          operands.ifmapBase, gemm.k,
                                          cfg);
            }
            EXPECT_EQ(eval.slowedCycles(), expected)
                << banks << "/" << bandwidth << " scheme "
                << static_cast<int>(scheme);
        }
    }
}

TEST(Evaluator, CyclesOutsideReplayedFoldAreEvaluated)
{
    // A memo hit skips only the cycles of its own fold: a cycle after
    // the replayed fold ends is charged like any other.
    const GemmDims gemm{64, 64, 64};
    const OperandMap operands = makeOperands(gemm);
    const systolic::FoldGrid grid(gemm, Dataflow::WeightStationary, 8, 8);
    const LayoutModelConfig cfg = layoutCfg(4, 1, 16);
    const OperandLayouts layouts =
        OperandLayouts::forGemm(gemm, cfg, LayoutScheme::RowMajor);
    BankConflictEvaluator eval(cfg, layouts);
    eval.beginLayer(grid, operands);
    // Four rows at one column: four lines of the same bank.
    std::vector<Addr> column;
    for (std::uint64_t r = 0; r < 4; ++r)
        column.push_back(operands.ifmapBase + r * gemm.k);
    const Cycle cost = referenceCost(layouts.ifmap, column,
                                     operands.ifmapBase, gemm.k, cfg);
    ASSERT_GT(cost, 1u);
    for (std::uint64_t rf = 1; rf <= 2; ++rf) {
        eval.beginFold(rf, 0, 0);
        eval.replayFold(0, 0, 0, {}, true);
        eval.cycle(0, column, {}, {}, {});
        eval.endFold(rf, 0, 1);
    }
    EXPECT_EQ(eval.foldsWalked(), 1u);
    EXPECT_EQ(eval.foldsMemoized(), 1u);
    eval.cycle(2, column, {}, {}, {});
    EXPECT_EQ(eval.slowedCycles(), 3 * cost);
    EXPECT_EQ(eval.conflictCycles(), 3u);
}

TEST(Evaluator, SlowdownAtLeastOne)
{
    const GemmDims gemm{32, 24, 40};
    for (auto df : {Dataflow::OutputStationary,
                    Dataflow::WeightStationary,
                    Dataflow::InputStationary}) {
        const double s = evaluate(gemm, df, 8,
                                  layoutCfg(16, 2, 64),
                                  LayoutScheme::RowMajor);
        EXPECT_GE(s, 1.0) << toString(df);
    }
}

TEST(Evaluator, MoreBanksNeverWorse)
{
    // Paper §VI: at fixed total bandwidth, more banks reduce the
    // slowdown.
    const GemmDims gemm{64, 48, 80};
    const double few = evaluate(gemm, Dataflow::OutputStationary, 16,
                                layoutCfg(2, 1, 64),
                                LayoutScheme::RowMajor);
    const double many = evaluate(gemm, Dataflow::OutputStationary, 16,
                                 layoutCfg(32, 1, 64),
                                 LayoutScheme::RowMajor);
    EXPECT_LE(many, few);
    EXPECT_GT(few, 1.0);
}

TEST(Evaluator, MorePortsNeverWorse)
{
    const GemmDims gemm{64, 48, 80};
    const double one = evaluate(gemm, Dataflow::OutputStationary, 16,
                                layoutCfg(4, 1, 64),
                                LayoutScheme::RowMajor);
    const double four = evaluate(gemm, Dataflow::OutputStationary, 16,
                                 layoutCfg(4, 4, 64),
                                 LayoutScheme::RowMajor);
    EXPECT_LE(four, one);
}

TEST(Evaluator, LayoutMatters)
{
    // A column of an operand requested in one cycle: row-major lines
    // put every element in a different line of the same bank (8-way
    // conflict); column-major packs them into one line (no conflict).
    const GemmDims gemm{64, 64, 64};
    const OperandMap operands = makeOperands(gemm);
    const LayoutModelConfig cfg = layoutCfg(4, 1, 32);
    const systolic::FoldGrid grid(gemm, Dataflow::OutputStationary, 8,
                                  8);
    std::vector<Addr> column;
    for (std::uint64_t r = 0; r < 8; ++r)
        column.push_back(operands.ifmapAddr(r, 5)); // fixed k column

    OperandLayouts rm = OperandLayouts::forGemm(
        gemm, cfg, LayoutScheme::RowMajor);
    BankConflictEvaluator rm_eval(cfg, rm);
    rm_eval.beginLayer(grid, operands);
    rm_eval.cycle(0, column, {}, {}, {});

    OperandLayouts cm = OperandLayouts::forGemm(
        gemm, cfg, LayoutScheme::ColMajor);
    BankConflictEvaluator cm_eval(cfg, cm);
    cm_eval.beginLayer(grid, operands);
    cm_eval.cycle(0, column, {}, {}, {});

    EXPECT_EQ(cm_eval.slowedCycles(), 1u);
    EXPECT_GT(rm_eval.slowedCycles(), cm_eval.slowedCycles());
}

TEST(Evaluator, IdleCyclesCostOne)
{
    // A layer's slowed cycles can never be less than its ideal cycles.
    const GemmDims gemm{16, 16, 16};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::WeightStationary, 8, 8,
                        operands);
    const LayoutModelConfig cfg = layoutCfg(64, 4, 256);
    BankConflictEvaluator eval(
        cfg, OperandLayouts::forGemm(gemm, cfg, LayoutScheme::RowMajor));
    gen.run(eval);
    EXPECT_GE(eval.slowedCycles(), eval.idealCycles());
    EXPECT_EQ(eval.idealCycles(), gen.grid().totalCycles());
}

TEST(Evaluator, ConflictCyclesBounded)
{
    const GemmDims gemm{32, 32, 32};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 16, 16,
                        operands);
    const LayoutModelConfig cfg = layoutCfg(2, 1, 16);
    BankConflictEvaluator eval(
        cfg, OperandLayouts::forGemm(gemm, cfg, LayoutScheme::RowMajor));
    gen.run(eval);
    EXPECT_LE(eval.conflictCycles(), gen.grid().totalCycles());
    EXPECT_GT(eval.conflictCycles(), 0u);
}

class BankSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BankSweep, MonotoneImprovementTrend)
{
    const GemmDims gemm{48, 48, 48};
    const double s = evaluate(gemm, Dataflow::OutputStationary, 16,
                              layoutCfg(GetParam(), 1, 64),
                              LayoutScheme::RowMajor);
    EXPECT_GE(s, 1.0);
    // With max banks (= bandwidth) conflicts all but vanish.
    if (GetParam() >= 64) {
        EXPECT_LT(s, 1.6);
    }
}

INSTANTIATE_TEST_SUITE_P(Banks, BankSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u,
                                           64u),
                         [](const auto& tpi) {
                             return format("b%u", tpi.param);
                         });
