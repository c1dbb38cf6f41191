/**
 * @file
 * Integration tests: the end-to-end Simulator with every v3 feature
 * combination — sparsity, DRAM, layout, energy — plus the report
 * writers, on small synthetic topologies and real workload prefixes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "core/simulator.hpp"
#include "systolic/demand.hpp"
#include "systolic/trace_io.hpp"

#include "json_check.hpp"

using namespace scalesim;
using namespace scalesim::core;

namespace
{

Topology
tinyTopology()
{
    Topology topo;
    topo.name = "tiny";
    topo.layers.push_back(LayerSpec::conv("conv", 14, 14, 3, 3, 16, 32,
                                          1));
    topo.layers.push_back(LayerSpec::gemm("fc", 4, 64, 128));
    return topo;
}

SimConfig
baseConfig()
{
    SimConfig cfg;
    cfg.arrayRows = 16;
    cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Trace;
    return cfg;
}

} // namespace

TEST(Simulator, PlainRunMatchesAnalyticalCycles)
{
    SimConfig cfg = baseConfig();
    Simulator sim(cfg);
    const Topology topo = tinyTopology();
    const RunResult run = sim.run(topo);
    ASSERT_EQ(run.layers.size(), 2u);
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        const systolic::FoldGrid grid(topo.layers[i].toGemm(),
                                      cfg.dataflow, cfg.arrayRows,
                                      cfg.arrayCols);
        EXPECT_EQ(run.layers[i].computeCycles, grid.totalCycles());
        EXPECT_GE(run.layers[i].totalCycles,
                  run.layers[i].computeCycles);
    }
    EXPECT_EQ(run.totalCycles, run.computeCycles + run.stallCycles);
}

TEST(Simulator, AnalyticalAndTraceModesAgreeOnCycles)
{
    SimConfig trace_cfg = baseConfig();
    trace_cfg.energy.enabled = true;
    SimConfig analytical_cfg = trace_cfg;
    analytical_cfg.mode = SimMode::Analytical;
    Simulator trace_sim(trace_cfg);
    Simulator analytical_sim(analytical_cfg);
    const Topology topo = tinyTopology();
    const RunResult t = trace_sim.run(topo);
    const RunResult a = analytical_sim.run(topo);
    EXPECT_EQ(t.computeCycles, a.computeCycles);
    EXPECT_EQ(t.totalCycles, a.totalCycles);
    // MAC counts agree exactly; only the random/repeat split differs.
    for (std::size_t i = 0; i < t.layers.size(); ++i) {
        EXPECT_EQ(t.layers[i].actions.macRandom,
                  a.layers[i].actions.macRandom);
    }
}

TEST(Simulator, SparsityShrinksCyclesAndStorage)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    Simulator sim(cfg);

    Topology topo = tinyTopology();
    topo.layers[0].sparseN = 1;
    topo.layers[0].sparseM = 4;
    const RunResult sparse_run = sim.run(topo);

    SimConfig dense_cfg = baseConfig();
    Simulator dense_sim(dense_cfg);
    const RunResult dense_run = dense_sim.run(tinyTopology());

    EXPECT_LT(sparse_run.layers[0].totalCycles,
              dense_run.layers[0].totalCycles);
    ASSERT_TRUE(sparse_run.layers[0].sparse.has_value());
    const auto& report = *sparse_run.layers[0].sparse;
    EXPECT_LT(report.newFilterBits, report.originalFilterBits);
    EXPECT_EQ(report.compressedK, report.denseK / 4);
    // The dense second layer is untouched.
    EXPECT_FALSE(sparse_run.layers[1].sparse.has_value());
    EXPECT_EQ(sparse_run.layers[1].totalCycles,
              dense_run.layers[1].totalCycles);
}

TEST(Simulator, DramModelAddsRealisticStalls)
{
    SimConfig ideal = baseConfig();
    ideal.memory.bandwidthWordsPerCycle = 1e9;
    SimConfig with_dram = baseConfig();
    with_dram.dram.enabled = true;
    with_dram.dram.tech = "DDR4_2400";
    with_dram.dram.channels = 1;
    Simulator ideal_sim(ideal);
    Simulator dram_sim(with_dram);
    const Topology topo = tinyTopology();
    const RunResult i = ideal_sim.run(topo);
    const RunResult d = dram_sim.run(topo);
    EXPECT_EQ(i.computeCycles, d.computeCycles);
    EXPECT_GE(d.stallCycles, i.stallCycles);
    EXPECT_GT(d.dramStats.reads + d.dramStats.writes, 0u);
    EXPECT_GT(d.dramStats.rowHits + d.dramStats.rowMisses
                  + d.dramStats.rowConflicts, 0u);
}

TEST(Simulator, MoreDramChannelsNeverSlower)
{
    auto total_for = [&](std::uint32_t channels) {
        SimConfig cfg = baseConfig();
        cfg.dram.enabled = true;
        cfg.dram.channels = channels;
        Simulator sim(cfg);
        return sim.run(tinyTopology()).totalCycles;
    };
    EXPECT_LE(total_for(4), total_for(1));
}

TEST(Simulator, LayoutSlowdownStretchesCompute)
{
    SimConfig no_layout = baseConfig();
    SimConfig with_layout = baseConfig();
    with_layout.layout.enabled = true;
    with_layout.layout.banks = 2;
    with_layout.layout.portsPerBank = 1;
    with_layout.layout.onChipBandwidth = 32;
    Simulator plain(no_layout);
    Simulator laid_out(with_layout);
    const Topology topo = tinyTopology();
    const RunResult p = plain.run(topo);
    const RunResult l = laid_out.run(topo);
    EXPECT_GE(l.layers[0].layoutSlowdown, 1.0);
    EXPECT_GE(l.computeCycles, p.computeCycles);
}

TEST(Simulator, EnergyAccountingEndToEnd)
{
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    const RunResult run = sim.run(tinyTopology());
    EXPECT_GT(run.totalEnergy.totalPj(), 0.0);
    EXPECT_GT(run.avgPowerW, 0.0);
    EXPECT_GT(run.edp, 0.0);
    for (const auto& layer : run.layers) {
        EXPECT_GT(layer.energyBreakdown.totalPj(), 0.0);
        EXPECT_GT(layer.powerW, 0.0);
        // DRAM energy follows the measured traffic.
        EXPECT_EQ(layer.actions.dramReadWords,
                  layer.timing.dramReadWords);
    }
}

TEST(Simulator, AllFeaturesTogether)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    cfg.dram.enabled = true;
    cfg.layout.enabled = true;
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    Topology topo = tinyTopology();
    topo.layers[0].sparseN = 2;
    topo.layers[0].sparseM = 4;
    const RunResult run = sim.run(topo);
    EXPECT_GT(run.totalCycles, 0u);
    EXPECT_GT(run.totalEnergy.totalPj(), 0.0);
    EXPECT_TRUE(run.layers[0].sparse.has_value());
    EXPECT_GE(run.layers[0].layoutSlowdown, 1.0);
}

TEST(Simulator, RepetitionsScaleTotals)
{
    SimConfig cfg = baseConfig();
    Topology once;
    once.name = "once";
    once.layers.push_back(LayerSpec::gemm("g", 32, 32, 32));
    Topology thrice = once;
    thrice.layers[0].repetitions = 3;
    Simulator sim_a(cfg);
    Simulator sim_b(cfg);
    const RunResult a = sim_a.run(once);
    const RunResult b = sim_b.run(thrice);
    EXPECT_EQ(b.totalCycles, 3 * a.totalCycles);
}

TEST(Simulator, ReportsAreWellFormedCsv)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    Topology topo = tinyTopology();
    topo.layers[0].sparseN = 1;
    topo.layers[0].sparseM = 4;
    const RunResult run = sim.run(topo);

    auto check = [&](auto writer, std::size_t min_rows) {
        std::ostringstream out;
        (run.*writer)(out);
        std::istringstream in(out.str());
        const CsvTable table = CsvTable::parse(in);
        EXPECT_GE(table.numRows(), min_rows);
        EXPECT_FALSE(table.header().empty());
    };
    check(&RunResult::writeComputeReport, 2u);
    check(&RunResult::writeBandwidthReport, 2u);
    check(&RunResult::writeSparseReport, 1u);
    check(&RunResult::writeEnergyReport, 3u);
}

TEST(Simulator, RealWorkloadPrefixRuns)
{
    SimConfig cfg = baseConfig();
    cfg.arrayRows = 32;
    cfg.arrayCols = 32;
    cfg.energy.enabled = true;
    cfg.mode = SimMode::Analytical;
    Simulator sim(cfg);
    const RunResult run = sim.run(workloads::resnet18Prefix(6));
    EXPECT_EQ(run.layers.size(), 6u);
    EXPECT_GT(run.totalCycles, 0u);
    for (const auto& layer : run.layers) {
        EXPECT_GT(layer.utilization, 0.0);
        EXPECT_LE(layer.utilization, 1.0);
    }
}

TEST(Simulator, DataflowsProduceDifferentCycleProfiles)
{
    const Topology topo = tinyTopology();
    std::set<Cycle> totals;
    for (auto df : {Dataflow::OutputStationary,
                    Dataflow::WeightStationary,
                    Dataflow::InputStationary}) {
        SimConfig cfg = baseConfig();
        cfg.dataflow = df;
        Simulator sim(cfg);
        totals.insert(sim.run(topo).computeCycles);
    }
    EXPECT_GT(totals.size(), 1u);
}

TEST(Simulator, ConfigRoundTripFromIni)
{
    IniFile ini = IniFile::parseString(
        "[architecture]\nArrayHeight = 8\nArrayWidth = 8\n"
        "Dataflow = os\n[energy]\nEnergyModel = true\n");
    Simulator sim(SimConfig::fromIni(ini));
    const RunResult run = sim.run(tinyTopology());
    EXPECT_GT(run.totalEnergy.totalPj(), 0.0);
}

TEST(Simulator, PowerTraceCoversEveryLayerInstance)
{
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    Topology topo = tinyTopology();
    topo.layers[1].repetitions = 3;
    const RunResult run = sim.run(topo);
    // 1 instance of layer 0 + 3 of layer 1.
    ASSERT_EQ(run.powerTrace.size(), 4u);
    Cycle total = 0;
    for (const auto& sample : run.powerTrace) {
        EXPECT_GT(sample.powerW, 0.0);
        EXPECT_GT(sample.cycles, 0u);
        total += sample.cycles;
    }
    EXPECT_EQ(total, run.totalCycles);
    // Power varies across layers (instantaneous, not flat).
    EXPECT_NE(run.powerTrace.front().powerW,
              run.powerTrace.back().powerW);

    std::ostringstream out;
    run.writePowerReport(out);
    std::istringstream in(out.str());
    const CsvTable table = CsvTable::parse(in);
    EXPECT_EQ(table.numRows(), 5u); // 4 epochs + AVG row
}

TEST(Simulator, VectorTailSerializedAfterMatrixPart)
{
    SimConfig cfg = baseConfig();
    cfg.simdLanes = 16;
    cfg.energy.enabled = true;
    Topology with_tail;
    with_tail.name = "t";
    with_tail.layers.push_back(
        LayerSpec::gemm("g", 64, 64, 32).withTail(
            VectorTail::Softmax));
    Topology without = with_tail;
    without.layers[0].tail = VectorTail::None;

    Simulator sim_a(cfg);
    Simulator sim_b(cfg);
    const RunResult a = sim_a.run(with_tail);
    const RunResult b = sim_b.run(without);
    // Softmax over 64*64 outputs at 16 lanes, 3 passes, 1 cyc/op.
    EXPECT_EQ(a.layers[0].simdCycles, 64u * 64u / 16u * 3u);
    EXPECT_EQ(a.layers[0].totalCycles,
              b.layers[0].totalCycles + a.layers[0].simdCycles);
    // The tail costs energy too.
    EXPECT_GT(a.layers[0].actions.vectorOps, 0u);
    EXPECT_GT(a.totalEnergy.totalPj(), b.totalEnergy.totalPj());
}

TEST(Simulator, SimdKnobsScaleTailCycles)
{
    Topology topo;
    topo.name = "t";
    topo.layers.push_back(
        LayerSpec::gemm("g", 32, 32, 32).withTail(
            VectorTail::Activation));
    SimConfig wide = baseConfig();
    wide.simdLanes = 64;
    SimConfig narrow = baseConfig();
    narrow.simdLanes = 8;
    narrow.simdLatencyPerOp = 2;
    Simulator sim_w(wide);
    Simulator sim_n(narrow);
    const auto w = sim_w.run(topo);
    const auto n = sim_n.run(topo);
    EXPECT_EQ(w.layers[0].simdCycles, 32u * 32u / 64u);
    EXPECT_EQ(n.layers[0].simdCycles, 32u * 32u / 8u * 2u);
}

TEST(Simulator, SparseMetadataCostsFilterEnergy)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    cfg.energy.enabled = true;
    cfg.mode = SimMode::Analytical;
    Topology topo;
    topo.name = "t";
    LayerSpec layer = LayerSpec::gemm("g", 64, 64, 256);
    layer.sparseN = 1;
    layer.sparseM = 4;
    topo.layers.push_back(layer);
    Simulator sim(cfg);
    const RunResult run = sim.run(topo);
    ASSERT_TRUE(run.layers[0].sparse.has_value());
    // Metadata reads were added on top of the compressed filter reads.
    const systolic::FoldGrid grid(run.layers[0].effectiveGemm,
                                  cfg.dataflow, cfg.arrayRows,
                                  cfg.arrayCols);
    EXPECT_GT(run.layers[0].actions.filterSram.reads(),
              grid.sramAccessCounts().filterReads);
}

TEST(Simulator, DeeperPrefetchHidesLatency)
{
    // High-latency bandwidth memory: depth-1 prefetch exposes the
    // round trip per fold; deeper prefetch overlaps it.
    Topology topo;
    topo.name = "t";
    topo.layers.push_back(LayerSpec::gemm("g", 512, 256, 64));
    auto total_for = [&](std::uint32_t depth) {
        SimConfig cfg = baseConfig();
        cfg.memory.bandwidthWordsPerCycle = 64.0;
        cfg.memory.prefetchDepth = depth;
        Simulator sim(cfg);
        return sim.run(topo).totalCycles;
    };
    EXPECT_LE(total_for(4), total_for(1));
}

TEST(Dse, SweepCoversFullGrid)
{
    DseSweep sweep;
    sweep.arraySizes = {8, 16};
    sweep.dataflows = {Dataflow::OutputStationary,
                       Dataflow::WeightStationary};
    sweep.sramKbTotals = {256, 1024};
    sweep.base = baseConfig();
    sweep.base.mode = SimMode::Analytical;
    const auto points = runSweep(sweep, tinyTopology());
    EXPECT_EQ(points.size(), 8u);
    for (const auto& p : points) {
        EXPECT_GT(p.cycles, 0u);
        EXPECT_GT(p.energyMj, 0.0);
        EXPECT_GT(p.edp, 0.0);
    }
}

TEST(Dse, ParetoFrontierIsNonDominated)
{
    DseSweep sweep;
    sweep.arraySizes = {8, 16, 32, 64};
    sweep.base = baseConfig();
    sweep.base.mode = SimMode::Analytical;
    const auto points = runSweep(sweep, tinyTopology());
    const auto frontier = paretoFrontier(points);
    ASSERT_FALSE(frontier.empty());
    // No frontier point dominates another.
    for (const auto& a : frontier)
        for (const auto& b : frontier)
            EXPECT_FALSE(a.dominatedBy(b));
    // Every non-frontier point is dominated by some frontier point.
    for (const auto& p : points) {
        bool on_frontier = false;
        bool dominated = false;
        for (const auto& f : frontier) {
            if (f.array == p.array && f.dataflow == p.dataflow
                && f.sramKb == p.sramKb && f.cycles == p.cycles) {
                on_frontier = true;
            }
            if (p.dominatedBy(f))
                dominated = true;
        }
        EXPECT_TRUE(on_frontier || dominated);
    }
    // Extremes are on the frontier.
    EXPECT_EQ(frontier.front().cycles, bestByLatency(points).cycles);
    EXPECT_DOUBLE_EQ(frontier.back().energyMj,
                     bestByEnergy(points).energyMj);
}

TEST(Dse, ParetoMembershipFlagsPointsInInputOrder)
{
    // Frontier order is by cycles; the flags follow the input order.
    auto point = [](std::uint32_t array, Cycle cycles, double energy) {
        DsePoint p;
        p.array = array;
        p.cycles = cycles;
        p.energyMj = energy;
        return p;
    };
    const std::vector<DsePoint> points = {
        point(32, 300, 1.0), // lowest energy: on the frontier
        point(16, 200, 6.0), // dominated by the 8-wide point
        point(8, 100, 5.0),  // lowest latency: on the frontier
    };
    EXPECT_EQ(paretoMembership(points),
              (std::vector<bool>{true, false, true}));
    EXPECT_TRUE(paretoMembership({}).empty());
}

TEST(Dse, SelectorsAgreeWithManualScan)
{
    DseSweep sweep;
    sweep.arraySizes = {8, 32};
    sweep.base = baseConfig();
    sweep.base.mode = SimMode::Analytical;
    const auto points = runSweep(sweep, tinyTopology());
    const auto by_edp = bestByEdp(points);
    for (const auto& p : points)
        EXPECT_LE(by_edp.edp, p.edp);
}

TEST(Dse, ReportIsWellFormed)
{
    DseSweep sweep;
    sweep.arraySizes = {8, 16};
    sweep.dataflows = {Dataflow::OutputStationary};
    sweep.base = baseConfig();
    sweep.base.mode = SimMode::Analytical;
    const auto points = runSweep(sweep, tinyTopology());
    std::ostringstream out;
    writeDseReport(out, points);
    std::istringstream in(out.str());
    const CsvTable table = CsvTable::parse(in);
    EXPECT_EQ(table.numRows(), points.size());
    EXPECT_GE(table.findColumn("Pareto"), 0);
}

TEST(Simulator, Im2colAddressingKnob)
{
    Topology topo;
    topo.name = "t";
    topo.layers.push_back(LayerSpec::conv("c", 20, 20, 3, 3, 8, 16,
                                          1));
    SimConfig reuse_cfg = baseConfig();
    reuse_cfg.memory.ifmapSramKb = 1; // tiny: force refetching
    SimConfig expanded_cfg = reuse_cfg;
    expanded_cfg.memory.im2colAddressing = false;
    Simulator reuse_sim(reuse_cfg);
    Simulator expanded_sim(expanded_cfg);
    const auto reuse = reuse_sim.run(topo);
    const auto expanded = expanded_sim.run(topo);
    // Window reuse shrinks DRAM traffic; compute cycles are equal.
    EXPECT_LT(reuse.dramReadWords, expanded.dramReadWords);
    EXPECT_EQ(reuse.computeCycles, expanded.computeCycles);
}

TEST(Simulator, ValidateCatchesBadConfigs)
{
    SimConfig cfg = baseConfig();
    cfg.memory.burstWords = 0;
    EXPECT_THROW(Simulator sim(cfg), FatalError);
    cfg = baseConfig();
    cfg.dram.enabled = true;
    cfg.dram.channels = 0;
    EXPECT_THROW(Simulator sim(cfg), FatalError);
    cfg = baseConfig();
    cfg.memory.filterOffset = 0; // collides with ifmap region
    EXPECT_THROW(Simulator sim(cfg), FatalError);
    cfg = baseConfig();
    cfg.sparsity.optimizedMapping = true;
    cfg.sparsity.blockSize = 1;
    EXPECT_THROW(Simulator sim(cfg), FatalError);
    baseConfig().validate(); // the default is valid
}

TEST(Simulator, SummaryMentionsKeyStats)
{
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    cfg.dram.enabled = true;
    Simulator sim(cfg);
    const RunResult run = sim.run(tinyTopology());
    std::ostringstream out;
    run.writeSummary(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("sim.totalCycles"), std::string::npos);
    EXPECT_NE(text.find("dram.rowHitRate"), std::string::npos);
    EXPECT_NE(text.find("energy.edp"), std::string::npos);
}

TEST(DseSweep, SramSplitConservesEveryKilobyte)
{
    // The sweep labels a point "N KB total" and splits it 2:1:1 across
    // ifmap/filter/ofmap. Integer division used to drop up to 3 KB on
    // totals not divisible by 4 (6 KB swept as 3+1+1 = 5 KB); the
    // remainder now lands in the ifmap share.
    for (std::uint64_t total : {4u, 5u, 6u, 7u, 64u, 1023u, 1024u}) {
        const core::SramSplit split = core::splitSramKb(total);
        EXPECT_EQ(split.ifmapKb + split.filterKb + split.ofmapKb, total)
            << total;
        EXPECT_EQ(split.filterKb, total / 4) << total;
        EXPECT_EQ(split.ofmapKb, total / 4) << total;
        EXPECT_GE(split.ifmapKb, split.filterKb) << total;
    }
    // Power-of-two totals keep the historical exact 2:1:1 split.
    const core::SramSplit kb1024 = core::splitSramKb(1024);
    EXPECT_EQ(kb1024.ifmapKb, 512u);
    EXPECT_EQ(kb1024.filterKb, 256u);
    EXPECT_EQ(kb1024.ofmapKb, 256u);
}

// ---------------------------------------------------------------------
// Traces attached to a run describe that run and leave it unchanged.

namespace
{

/** The run's reports, JSON layers and (optionally) stats dump. */
std::string
reportedOutputs(const RunResult& run, bool with_stats)
{
    std::ostringstream out;
    run.writeComputeReport(out);
    run.writeBandwidthReport(out);
    run.writeEnergyReport(out);
    run.writePowerReport(out);
    std::ostringstream json;
    run.writeJson(json);
    jsoncheck::Value doc;
    EXPECT_TRUE(jsoncheck::valid(json.str(), doc));
    if (const jsoncheck::Value* layers = doc.find("layers"))
        out << jsoncheck::canonical(*layers) << '\n';
    if (with_stats)
        run.writeStats(out);
    return out.str();
}

/** The four SRAM streams of one SramTraceWriter pass per layer. */
std::vector<std::string>
standaloneSramTraces(const SimConfig& cfg, const Topology& topo)
{
    std::ostringstream streams[4];
    for (const LayerSpec& layer : topo.layers) {
        const systolic::DemandGenerator gen(
            layer.toGemm(), cfg.dataflow, cfg.arrayRows, cfg.arrayCols,
            systolic::OperandMap::forLayer(layer, cfg.memory));
        systolic::SramTraceWriter writer(&streams[0], &streams[1],
                                         &streams[2], &streams[3]);
        gen.run(writer);
    }
    return {streams[0].str(), streams[1].str(), streams[2].str(),
            streams[3].str()};
}

/**
 * Run `topo` with and without traces attached; the traced run must
 * report the same, and its traces must describe that run.
 */
void
expectTracesDescribeRun(const SimConfig& cfg, bool with_stats)
{
    Topology topo = tinyTopology();
    LayerSpec repeated = LayerSpec::gemm("fc2", 32, 48, 64);
    repeated.repetitions = 2;
    topo.layers.push_back(repeated);

    Simulator plain_sim(cfg);
    const RunResult plain = plain_sim.run(topo);

    std::ostringstream streams[4];
    Simulator sim(cfg);
    sim.attachTraces({&streams[0], &streams[1], &streams[2],
                      &streams[3]});
    const RunResult run = sim.run(topo);
    EXPECT_EQ(reportedOutputs(run, with_stats),
              reportedOutputs(plain, with_stats));

    const auto& records = sim.tracingMemory()->records();
    ASSERT_FALSE(records.empty());
    Count reads = 0, writes = 0, read_bytes = 0, write_bytes = 0;
    Cycle last = 0;
    for (const auto& rec : records) {
        (rec.write ? writes : reads) += 1;
        (rec.write ? write_bytes : read_bytes) += rec.bytes;
        last = std::max(last, rec.cycle);
    }
    const double word_bytes = cfg.memory.wordBytes;
    EXPECT_EQ(reads, run.stats.scalarValue("mem.readRequests"));
    EXPECT_EQ(writes, run.stats.scalarValue("mem.writeRequests"));
    EXPECT_EQ(read_bytes,
              run.stats.scalarValue("mem.readWords") * word_bytes);
    EXPECT_EQ(write_bytes,
              run.stats.scalarValue("mem.writeWords") * word_bytes);
    EXPECT_LT(last, run.totalCycles);

    const std::vector<std::string> standalone =
        standaloneSramTraces(cfg, topo);
    for (std::size_t i = 0; i < standalone.size(); ++i) {
        EXPECT_FALSE(standalone[i].empty()) << "stream " << i;
        EXPECT_EQ(streams[i].str(), standalone[i]) << "stream " << i;
    }
}

SimConfig
tracedConfig()
{
    SimConfig cfg = baseConfig();
    cfg.memory.wordBytes = 2;
    cfg.layout.enabled = true;
    cfg.energy.enabled = true;
    return cfg;
}

} // namespace

TEST(SimulatorTraces, DramRunTracesDescribeTheReportedRun)
{
    SimConfig cfg = tracedConfig();
    cfg.dram.enabled = true;
    expectTracesDescribeRun(cfg, true);
}

TEST(SimulatorTraces, BandwidthRunTracesDescribeTheReportedRun)
{
    expectTracesDescribeRun(tracedConfig(), true);
}

TEST(SimulatorTraces, AnalyticalRunWritesTheSameTraces)
{
    // The demand pass runs for the trace writer alone; the analytical
    // results are unchanged. Its fold-cache counters count that pass,
    // so the stats dump is left out.
    SimConfig cfg = tracedConfig();
    cfg.mode = SimMode::Analytical;
    cfg.dram.enabled = true;
    expectTracesDescribeRun(cfg, false);
}

TEST(SimulatorTraces, SparseOsLayerWritesNoSramRows)
{
    SimConfig cfg = tracedConfig();
    cfg.dataflow = Dataflow::OutputStationary;
    cfg.sparsity.enabled = true;
    Topology topo;
    topo.name = "sparse";
    topo.layers.push_back(LayerSpec::gemm("sparse", 16, 32, 64));
    topo.layers[0].sparseN = 2;
    topo.layers[0].sparseM = 4;
    std::ostringstream ifmap;
    Simulator sim(cfg);
    sim.attachTraces({&ifmap, nullptr, nullptr, nullptr});
    const RunResult run = sim.run(topo);
    ASSERT_TRUE(run.layers[0].sparse.has_value());
    EXPECT_TRUE(ifmap.str().empty());
    EXPECT_FALSE(sim.tracingMemory()->records().empty());
}
