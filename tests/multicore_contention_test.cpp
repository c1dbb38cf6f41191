/**
 * @file
 * Multi-core contention tests: golden pinning of the cycle-interleaved
 * co-step loop, its determinism and enumeration-order independence,
 * the starved-vs-ample bus comparison, the l1FillWords == L2 service
 * invariant, zero-share cores on grids wider than the mapped dims, the
 * port-level read-latency split, and spatial-partition operand-view
 * coverage for all three dataflows.
 */

#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "common/log.hpp"
#include "multicore/trace_sim.hpp"
#include "obs/stats.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

namespace
{

/** Config A of the golden set: WS 2x2 grid behind the shared L2. */
MultiCoreTraceConfig
configA()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 2;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.l1.ifmapWords = 4096;
    cfg.l1.filterWords = 4096;
    return cfg;
}

/** Config B: OS 2x2, no L2, bandwidth-starved DRAM. */
MultiCoreTraceConfig
configB()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 2;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::OutputStationary;
    cfg.useL2 = false;
    cfg.dramWordsPerCycle = 4.0;
    return cfg;
}

/** Config C: IS 1x4 on a conv layer, with L2. */
MultiCoreTraceConfig
configC()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = 1;
    cfg.pc = 4;
    cfg.arrayRows = cfg.arrayCols = 8;
    cfg.dataflow = Dataflow::InputStationary;
    cfg.l1.ifmapWords = 2048;
    cfg.l1.filterWords = 2048;
    cfg.dramWordsPerCycle = 8.0;
    return cfg;
}

/** Config D: WS 4x4 wide grid behind the shared L2. */
MultiCoreTraceConfig
configD()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 4;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.l1.ifmapWords = 4096;
    cfg.l1.filterWords = 4096;
    cfg.dramWordsPerCycle = 16.0;
    return cfg;
}

const LayerSpec&
layerA()
{
    static const LayerSpec layer = LayerSpec::gemm("g", 256, 128, 128);
    return layer;
}

const LayerSpec&
layerB()
{
    static const LayerSpec layer = LayerSpec::gemm("g", 96, 64, 48);
    return layer;
}

const LayerSpec&
layerC()
{
    static const LayerSpec layer = LayerSpec::conv("c", 14, 14, 3, 3,
                                                   32, 64, 1);
    return layer;
}

/** `model` goes with ContentionModel at the next benchmark
    re-anchor; Shared is the only value. */
MultiCoreTraceResult
run(MultiCoreTraceConfig cfg, const LayerSpec& layer,
    ContentionModel model, bool scan_reverse = false)
{
    cfg.contention = model;
    cfg.arbScanReverse = scan_reverse;
    MultiCoreTraceSimulator sim(cfg);
    return sim.runLayer(layer);
}

/** Byte-exact stats dump of one result. */
std::string
statsDump(const MultiCoreTraceResult& result)
{
    obs::StatsRegistry reg;
    result.registerStats(reg);
    std::ostringstream out;
    reg.dump(out);
    return out.str();
}

} // namespace

// ---------------------------------------------------------------------
// Golden pinning: ContentionModel::Shared must reproduce the co-step
// loop's results bit-for-bit — makespan, per-core cycles, the arbiter's
// grant/conflict counts and the DRAM and L1-fill traffic.

TEST(Contention, SharedModeMatchesGoldenA)
{
    const auto r = run(configA(), layerA(), ContentionModel::Shared);
    EXPECT_EQ(r.makespan, 6251u);
    EXPECT_EQ(r.arb.grants, 21504u);
    EXPECT_EQ(r.arb.arbConflicts, 25553u);
    EXPECT_EQ(r.dramReadWords, 49408u);
    EXPECT_EQ(r.dramWriteWords, 65536u);
    EXPECT_EQ(r.l1FillWords, 278528u);
    ASSERT_EQ(r.perCore.size(), 4u);
    const Cycle golden_total[] = {6251, 5338, 5348, 5359};
    const Cycle golden_stall[] = {1419, 506, 516, 527};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(r.perCore[i].totalCycles, golden_total[i]) << i;
        EXPECT_EQ(r.perCore[i].stallCycles, golden_stall[i]) << i;
    }
}

TEST(Contention, SharedModeMatchesGoldenB)
{
    const auto r = run(configB(), layerB(), ContentionModel::Shared);
    EXPECT_EQ(r.makespan, 4988u);
    EXPECT_EQ(r.arb.grants, 912u);
    EXPECT_EQ(r.arb.arbConflicts, 614u);
    EXPECT_EQ(r.dramReadWords, 15360u);
    EXPECT_EQ(r.dramWriteWords, 6144u);
    EXPECT_EQ(r.l1FillWords, 15360u);
    ASSERT_EQ(r.perCore.size(), 4u);
    const Cycle golden_total[] = {4028, 4348, 4668, 4988};
    const Cycle golden_stall[] = {3464, 3784, 4104, 4424};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(r.perCore[i].totalCycles, golden_total[i]) << i;
        EXPECT_EQ(r.perCore[i].stallCycles, golden_stall[i]) << i;
    }
}

TEST(Contention, SharedModeMatchesGoldenC)
{
    const auto r = run(configC(), layerC(), ContentionModel::Shared);
    EXPECT_EQ(r.makespan, 19964u);
    EXPECT_EQ(r.arb.grants, 6480u);
    EXPECT_EQ(r.arb.arbConflicts, 140u);
    EXPECT_EQ(r.dramReadWords, 60160u);
    EXPECT_EQ(r.dramWriteWords, 9216u);
    EXPECT_EQ(r.l1FillWords, 115200u);
    ASSERT_EQ(r.perCore.size(), 4u);
    const Cycle golden_total[] = {19932, 19728, 19772, 19964};
    const Cycle golden_stall[] = {4452, 4248, 4292, 4484};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(r.perCore[i].totalCycles, golden_total[i]) << i;
        EXPECT_EQ(r.perCore[i].stallCycles, golden_stall[i]) << i;
    }
}

TEST(Contention, SharedModeMatchesGoldenD)
{
    const auto r = run(configD(), layerA(), ContentionModel::Shared);
    EXPECT_EQ(r.makespan, 3921u);
    EXPECT_EQ(r.arb.grants, 25600u);
    EXPECT_EQ(r.arb.arbConflicts, 99984u);
    EXPECT_EQ(r.dramReadWords, 49408u);
    EXPECT_EQ(r.dramWriteWords, 131072u);
    EXPECT_EQ(r.l1FillWords, 278528u);
    ASSERT_EQ(r.perCore.size(), 16u);
    const Cycle golden_total[] = {3713, 3921, 3722, 1560, 1969, 3736,
                                  1568, 1576, 1987, 3750, 1584, 1592,
                                  2004, 3781, 1600, 1608};
    const Cycle golden_stall[] = {2505, 2713, 2514, 352, 761, 2528,
                                  360,  368,  779, 2542, 376, 384,
                                  796,  2573, 392, 400};
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(r.perCore[i].totalCycles, golden_total[i]) << i;
        EXPECT_EQ(r.perCore[i].stallCycles, golden_stall[i]) << i;
    }
}

// ---------------------------------------------------------------------
// Shared-mode semantics.

TEST(Contention, SharedModeIsDeterministic)
{
    // Two independent runs of the interleaved co-simulation produce
    // byte-identical stats dumps.
    const std::string first = statsDump(
        run(configA(), layerA(), ContentionModel::Shared));
    const std::string second = statsDump(
        run(configA(), layerA(), ContentionModel::Shared));
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

TEST(Contention, SharedModeIndependentOfEnumerationOrder)
{
    // The arbiter grant is an argmin over (cycle, round-robin
    // distance), so scanning ports in reverse order must not change a
    // single byte of the outcome.
    for (const auto& [cfg, layer] :
         {std::pair<MultiCoreTraceConfig, const LayerSpec*>{configA(),
                                                            &layerA()},
          {configB(), &layerB()},
          {configC(), &layerC()}}) {
        const std::string forward = statsDump(
            run(cfg, *layer, ContentionModel::Shared, false));
        const std::string reverse = statsDump(
            run(cfg, *layer, ContentionModel::Shared, true));
        EXPECT_EQ(forward, reverse);
    }
}

TEST(Contention, StarvedBusIsSlowerThanAmple)
{
    // The same layer on a 4-words/cycle bus against a 64-words/cycle
    // one: real same-cycle collisions make the starved bus strictly
    // slower, with a nonzero conflict count to show why.
    MultiCoreTraceConfig ample = configB();
    ample.dramWordsPerCycle = 64.0;
    const auto starved = run(configB(), layerB(), ContentionModel::Shared);
    const auto fast = run(ample, layerB(), ContentionModel::Shared);
    EXPECT_GT(starved.makespan, fast.makespan);
    EXPECT_GT(starved.arb.arbConflicts, 0u);
    EXPECT_GT(starved.arb.grants, 0u);
    // Traffic is identical — only the timing moves.
    EXPECT_EQ(starved.dramReadWords, fast.dramReadWords);
    EXPECT_EQ(starved.dramWriteWords, fast.dramWriteWords);
    EXPECT_EQ(starved.l1FillWords, fast.l1FillWords);
}

TEST(Contention, SharedModeChargesWaitToCores)
{
    const auto r = run(configB(), layerB(), ContentionModel::Shared);
    ASSERT_EQ(r.ports.size(), 4u);
    std::uint64_t total_wait = 0;
    for (const auto& port : r.ports) {
        EXPECT_EQ(port.readWords, 3840u);
        EXPECT_EQ(port.writeWords, 1536u);
        total_wait += port.waitCycles;
    }
    EXPECT_GT(total_wait, 0u);
}

TEST(Contention, FillWordsEqualL2Service)
{
    // l1FillWords counts words the cores pulled from their backing
    // view; with the L2 on, every such word is served by the L2 as
    // either a hit or a miss — the sums must match exactly.
    const auto a = run(configA(), layerA(), ContentionModel::Shared);
    EXPECT_EQ(a.l1FillWords, a.l2.hitWords + a.l2.missWords);
    const auto c = run(configC(), layerC(), ContentionModel::Shared);
    EXPECT_EQ(c.l1FillWords, c.l2.hitWords + c.l2.missWords);
}

// ---------------------------------------------------------------------
// Zero-share cores: a grid wider than the mapped dims leaves
// default-constructed perCore/ports slots. Stats registration, the
// arbiter port count, and the conservation laws must all stay correct
// with idle cores.

namespace
{

/** OS 4x4 grid on a 2-row GEMM: row shares {1,1,0,0} leave cores
    8..15 with nothing mapped. */
MultiCoreTraceConfig
zeroShareConfig()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 4;
    cfg.arrayRows = cfg.arrayCols = 8;
    cfg.dataflow = Dataflow::OutputStationary;
    return cfg;
}

const LayerSpec&
zeroShareLayer()
{
    static const LayerSpec layer = LayerSpec::gemm("thin", 2, 64, 64);
    return layer;
}

} // namespace

TEST(ZeroShareCores, StatsAndConservationLawsHold)
{
    const auto r = run(zeroShareConfig(), zeroShareLayer(),
                       ContentionModel::Shared);
    ASSERT_EQ(r.perCore.size(), 16u);
    ASSERT_EQ(r.ports.size(), 16u);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.arb.grants, 0u);
    // Rows 2 and 3 of the grid get a zero share of the 2-row GEMM:
    // their slots stay default-constructed.
    for (std::size_t core = 8; core < 16; ++core) {
        EXPECT_EQ(r.perCore[core].totalCycles, 0u) << core;
        EXPECT_EQ(r.ports[core].readRequests, 0u) << core;
        EXPECT_EQ(r.ports[core].totalReadLatency, 0u) << core;
    }
    // Registration covers every slot, idle ones included.
    const std::string dump = statsDump(r);
    EXPECT_NE(dump.find("mc.core0.totalCycles"), std::string::npos);
    EXPECT_NE(dump.find("mc.core15.totalCycles"), std::string::npos);

    check::InvariantAuditor auditor;
    auditor.auditArbiter(r, true, "zeroShare");
    for (std::size_t core = 0; core < r.perCore.size(); ++core) {
        auditor.auditStallAccounting(r.perCore[core], "zeroShare");
        auditor.auditCpiStack(r.perCore[core].cpi,
                              r.perCore[core].totalCycles, "zeroShare");
    }
    EXPECT_TRUE(auditor.report().clean());
}

// ---------------------------------------------------------------------
// Port-level cpi.conservation: the read-latency split must cover the
// total exactly — the residual the backend leaves unattributed (all of
// the L2's hit/fill/transfer time) is folded into readService instead
// of silently vanishing from the queue/port split.

TEST(PortLatencySplit, ConservesTotalReadLatencyWithL2)
{
    const auto r = run(configA(), layerA(), ContentionModel::Shared);
    ASSERT_EQ(r.ports.size(), 4u);
    for (std::size_t i = 0; i < r.ports.size(); ++i) {
        const auto& port = r.ports[i];
        ASSERT_GT(port.readRequests, 0u) << i;
        EXPECT_EQ(port.readPortWait + port.readQueueWait
                      + port.readRefresh + port.readService,
                  port.totalReadLatency)
            << i;
        // SharedL2 reports no component stats at all, so everything
        // beyond the issue wait must have landed in readService.
        EXPECT_EQ(port.readQueueWait, 0u) << i;
        EXPECT_GT(port.readService, 0u) << i;
        // waitCycles also accumulates write-issue waits, so it bounds
        // the read-only portWait component from above.
        EXPECT_LE(port.readPortWait, port.waitCycles) << i;
    }
}

TEST(PortLatencySplit, ConservesTotalReadLatencyWithoutL2)
{
    const auto r = run(configB(), layerB(), ContentionModel::Shared);
    ASSERT_EQ(r.ports.size(), 4u);
    for (std::size_t i = 0; i < r.ports.size(); ++i) {
        const auto& port = r.ports[i];
        EXPECT_EQ(port.readPortWait + port.readQueueWait
                      + port.readRefresh + port.readService,
                  port.totalReadLatency)
            << i;
        // The bandwidth model's queue wait equals the issue wait, so
        // the reclassification absorbs it completely.
        EXPECT_EQ(port.readQueueWait, 0u) << i;
        EXPECT_GT(port.readService, 0u) << i;
    }
}

// ---------------------------------------------------------------------
// Spatial-partition operand views: per-core ofmap tiles exactly
// partition the global ofmap, and replicated ifmap/filter tiles land on
// identical global addresses (the shared-L2 dedup invariant, §III-B).

namespace
{

struct PartitionGeometry
{
    GemmDims gemm;
    systolic::OperandMap global;
    std::vector<std::uint64_t> srStarts;
    std::vector<std::uint64_t> scStarts;
};

PartitionGeometry
geometry(Dataflow df, const GemmDims& gemm, std::uint64_t pr,
         std::uint64_t pc)
{
    const MappedDims mapped = systolic::mapGemmConventional(gemm, df);
    MemoryConfig mem;
    return {gemm, systolic::OperandMap(gemm, mem),
            MultiCoreTraceSimulator::shareStarts(mapped.sr, pr),
            MultiCoreTraceSimulator::shareStarts(mapped.sc, pc)};
}

MultiCoreTraceSimulator::CorePartition
partitionOf(Dataflow df, const PartitionGeometry& geo, std::uint64_t i,
            std::uint64_t j)
{
    return MultiCoreTraceSimulator::corePartition(
        df, geo.gemm, geo.global, geo.srStarts[i],
        geo.srStarts[i + 1] - geo.srStarts[i], geo.scStarts[j],
        geo.scStarts[j + 1] - geo.scStarts[j]);
}

std::set<Addr>
ofmapAddrs(const MultiCoreTraceSimulator::CorePartition& part)
{
    std::set<Addr> addrs;
    for (std::uint64_t m = 0; m < part.share.m; ++m)
        for (std::uint64_t n = 0; n < part.share.n; ++n)
            addrs.insert(part.view.ofmapAddr(m, n));
    return addrs;
}

std::set<Addr>
ifmapAddrs(const MultiCoreTraceSimulator::CorePartition& part)
{
    std::set<Addr> addrs;
    for (std::uint64_t m = 0; m < part.share.m; ++m)
        for (std::uint64_t k = 0; k < part.share.k; ++k)
            addrs.insert(part.view.ifmapAddr(m, k));
    return addrs;
}

std::set<Addr>
filterAddrs(const MultiCoreTraceSimulator::CorePartition& part)
{
    std::set<Addr> addrs;
    for (std::uint64_t k = 0; k < part.share.k; ++k)
        for (std::uint64_t n = 0; n < part.share.n; ++n)
            addrs.insert(part.view.filterAddr(k, n));
    return addrs;
}

/**
 * Assert that the tiles of the cores in `owners` exactly cover
 * [base, base + count) with no overlap and no gap.
 */
void
expectExactCover(const std::vector<std::set<Addr>>& owners, Addr base,
                 std::uint64_t count)
{
    std::set<Addr> seen;
    std::uint64_t total = 0;
    for (const auto& tile : owners) {
        total += tile.size();
        seen.insert(tile.begin(), tile.end());
    }
    EXPECT_EQ(total, count) << "tiles overlap";
    ASSERT_EQ(seen.size(), count) << "tiles leave gaps";
    EXPECT_EQ(*seen.begin(), base);
    EXPECT_EQ(*seen.rbegin(), base + count - 1);
}

} // namespace

TEST(PartitionViews, OutputStationaryTilesOfmapExactly)
{
    // Ragged dims: shares are uneven on purpose.
    const GemmDims gemm{37, 19, 23};
    const std::uint64_t pr = 2, pc = 3;
    const auto geo = geometry(Dataflow::OutputStationary, gemm, pr, pc);

    // OS partitions the ofmap in 2D: every core owns a distinct tile.
    std::vector<std::set<Addr>> tiles;
    for (std::uint64_t i = 0; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            tiles.push_back(ofmapAddrs(
                partitionOf(Dataflow::OutputStationary, geo, i, j)));
    expectExactCover(tiles, geo.global.ofmapBase, gemm.m * gemm.n);

    // Ifmap replicates along grid columns, filter along grid rows.
    for (std::uint64_t i = 0; i < pr; ++i) {
        const auto base = ifmapAddrs(
            partitionOf(Dataflow::OutputStationary, geo, i, 0));
        for (std::uint64_t j = 1; j < pc; ++j)
            EXPECT_EQ(base,
                      ifmapAddrs(partitionOf(
                          Dataflow::OutputStationary, geo, i, j)));
    }
    for (std::uint64_t j = 0; j < pc; ++j) {
        const auto base = filterAddrs(
            partitionOf(Dataflow::OutputStationary, geo, 0, j));
        for (std::uint64_t i = 1; i < pr; ++i)
            EXPECT_EQ(base,
                      filterAddrs(partitionOf(
                          Dataflow::OutputStationary, geo, i, j)));
    }
}

TEST(PartitionViews, WeightStationaryTilesOfmapExactly)
{
    const GemmDims gemm{37, 19, 23};
    const std::uint64_t pr = 2, pc = 3;
    const auto geo = geometry(Dataflow::WeightStationary, gemm, pr, pc);

    // WS partitions K across grid rows: within one row the column
    // shares tile the ofmap; the other rows replicate those tiles
    // (partial-sum accumulation hits the same addresses).
    std::vector<std::set<Addr>> tiles;
    for (std::uint64_t j = 0; j < pc; ++j)
        tiles.push_back(ofmapAddrs(
            partitionOf(Dataflow::WeightStationary, geo, 0, j)));
    expectExactCover(tiles, geo.global.ofmapBase, gemm.m * gemm.n);
    for (std::uint64_t i = 1; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            EXPECT_EQ(tiles[j],
                      ofmapAddrs(partitionOf(
                          Dataflow::WeightStationary, geo, i, j)));

    // Ifmap replicates along grid columns; filter tiles partition the
    // whole filter space in 2D.
    for (std::uint64_t i = 0; i < pr; ++i) {
        const auto base = ifmapAddrs(
            partitionOf(Dataflow::WeightStationary, geo, i, 0));
        for (std::uint64_t j = 1; j < pc; ++j)
            EXPECT_EQ(base,
                      ifmapAddrs(partitionOf(
                          Dataflow::WeightStationary, geo, i, j)));
    }
    std::vector<std::set<Addr>> filter_tiles;
    for (std::uint64_t i = 0; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            filter_tiles.push_back(filterAddrs(
                partitionOf(Dataflow::WeightStationary, geo, i, j)));
    expectExactCover(filter_tiles, geo.global.filterBase,
                     gemm.k * gemm.n);
}

TEST(PartitionViews, InputStationaryTilesOfmapExactly)
{
    const GemmDims gemm{37, 19, 23};
    const std::uint64_t pr = 2, pc = 3;
    const auto geo = geometry(Dataflow::InputStationary, gemm, pr, pc);

    // IS partitions K across grid rows and M across grid columns: one
    // grid row's column shares tile the ofmap, other rows replicate.
    std::vector<std::set<Addr>> tiles;
    for (std::uint64_t j = 0; j < pc; ++j)
        tiles.push_back(ofmapAddrs(
            partitionOf(Dataflow::InputStationary, geo, 0, j)));
    expectExactCover(tiles, geo.global.ofmapBase, gemm.m * gemm.n);
    for (std::uint64_t i = 1; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            EXPECT_EQ(tiles[j],
                      ofmapAddrs(partitionOf(
                          Dataflow::InputStationary, geo, i, j)));

    // Ifmap tiles partition the whole ifmap in 2D; filter replicates
    // along grid columns.
    std::vector<std::set<Addr>> ifmap_tiles;
    for (std::uint64_t i = 0; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            ifmap_tiles.push_back(ifmapAddrs(
                partitionOf(Dataflow::InputStationary, geo, i, j)));
    expectExactCover(ifmap_tiles, geo.global.ifmapBase,
                     gemm.m * gemm.k);
    for (std::uint64_t i = 0; i < pr; ++i) {
        const auto base = filterAddrs(
            partitionOf(Dataflow::InputStationary, geo, i, 0));
        for (std::uint64_t j = 1; j < pc; ++j)
            EXPECT_EQ(base,
                      filterAddrs(partitionOf(
                          Dataflow::InputStationary, geo, i, j)));
    }
}

TEST(PartitionViews, ReplicatedTilesDeduplicateInL2)
{
    // End-to-end: with the shared L2 on, the replicated partitions
    // must be served once from DRAM — DRAM read traffic falls well
    // below the sum of core fills, for every dataflow.
    for (Dataflow df : {Dataflow::OutputStationary,
                        Dataflow::WeightStationary,
                        Dataflow::InputStationary}) {
        MultiCoreTraceConfig cfg;
        cfg.pr = cfg.pc = 2;
        cfg.arrayRows = cfg.arrayCols = 16;
        cfg.dataflow = df;
        cfg.l1.ifmapWords = 4096;
        cfg.l1.filterWords = 4096;
        MultiCoreTraceSimulator sim(cfg);
        const auto r = sim.runLayer(LayerSpec::gemm("g", 128, 96, 64));
        EXPECT_LT(r.dramReadWords, r.l1FillWords) << toString(df);
        EXPECT_GT(r.l2.hits, 0u) << toString(df);
    }
}
