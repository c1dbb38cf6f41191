/**
 * @file
 * Tests of the correctness-tooling layer: per-law fault-injection on
 * the invariant auditor (corrupt exactly one counter, assert exactly
 * the targeted law trips), the audited end-to-end runs (golden
 * workloads must come back clean), and the SIM_CHECK contract macros.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "check/audit.hpp"
#include "check/contract.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"
#include "energy/action_counts.hpp"
#include "layout/layout.hpp"
#include "systolic/demand.hpp"

using namespace scalesim;
using namespace scalesim::check;
using namespace scalesim::core;

namespace
{

/** All violations must name `law`; returns the count. */
std::size_t
violationsOf(const AuditReport& report, const std::string& law)
{
    std::size_t n = 0;
    for (const auto& v : report.violations()) {
        EXPECT_EQ(v.law, law) << v.scope << ": " << v.message;
        if (v.law == law)
            ++n;
    }
    return n;
}

systolic::OperandMap
gemmOperands(const GemmDims& gemm)
{
    systolic::OperandMap operands;
    operands.dims = gemm;
    return operands;
}

/** Per-layer action counts of a real trace pass over `gemm`. */
energy::ActionCounts
traceActionCounts(const GemmDims& gemm, Dataflow df,
                  std::uint32_t rows, std::uint32_t cols)
{
    systolic::DemandGenerator generator(gemm, df, rows, cols,
                                        gemmOperands(gemm));
    energy::ActionCountVisitor visitor{EnergyConfig{}};
    generator.run(visitor);
    return visitor.counts();
}

} // namespace

TEST(AuditReport, LawTableIsStableAndUnique)
{
    const auto& laws = InvariantAuditor::laws();
    EXPECT_EQ(laws.size(), 13u);
    std::set<std::string> names;
    for (const auto& law : laws) {
        EXPECT_FALSE(law.description.empty()) << law.name;
        names.insert(law.name);
    }
    EXPECT_EQ(names.size(), laws.size());
    EXPECT_TRUE(names.count("spad.stallAccounting"));
    EXPECT_TRUE(names.count("foldCache.replayFidelity"));
    EXPECT_TRUE(names.count("layout.replayFidelity"));
    EXPECT_TRUE(names.count("run.totalsAccounting"));
    EXPECT_TRUE(names.count("cpi.conservation"));
}

TEST(AuditReport, RegisterStatsIsSchemaStable)
{
    AuditReport report;
    report.recordCheck("spad.stallAccounting");
    report.recordViolation("spad.stallAccounting", "conv1", "broken");
    obs::StatsRegistry reg;
    report.registerStats(reg);
    std::ostringstream out;
    reg.dump(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("sim.audit.checks"), std::string::npos);
    EXPECT_NE(text.find("sim.audit.violations"), std::string::npos);
    // Every law appears in the vectors even when never checked.
    EXPECT_NE(text.find("mc.arbConservation"), std::string::npos);
}

TEST(Auditor, StallAccountingFaultInjection)
{
    systolic::LayerTiming timing;
    timing.computeCycles = 100;
    timing.stallCycles = 20;
    timing.totalCycles = 120;
    timing.prefetchStallCycles = 12;
    timing.drainStallCycles = 5;
    timing.bandwidthStallCycles = 3;

    InvariantAuditor clean;
    clean.auditStallAccounting(timing, "l0");
    EXPECT_TRUE(clean.report().clean());
    EXPECT_EQ(clean.report().checksForLaw("spad.stallAccounting"), 2u);

    timing.prefetchStallCycles = 13; // corrupt one bucket
    InvariantAuditor faulty;
    faulty.auditStallAccounting(timing, "l0");
    EXPECT_EQ(violationsOf(faulty.report(), "spad.stallAccounting"),
              1u);
    EXPECT_EQ(faulty.report().violations()[0].scope, "l0");
}

TEST(Auditor, RuntimeEnvelopeFaultInjection)
{
    const GemmDims gemm{12, 9, 7};
    const systolic::FoldGrid grid(gemm, Dataflow::WeightStationary, 4,
                                  4);
    systolic::LayerTiming timing;
    timing.computeCycles = grid.totalCycles();
    timing.totalCycles = timing.computeCycles + 5;
    timing.stallCycles = 5;
    timing.folds = grid.numFolds();

    InvariantAuditor clean;
    clean.auditRuntimeEnvelope(timing, grid, 1.0, "l0");
    EXPECT_TRUE(clean.report().clean());

    timing.computeCycles += 1; // drift off the analytical envelope
    InvariantAuditor faulty;
    faulty.auditRuntimeEnvelope(timing, grid, 1.0, "l0");
    EXPECT_EQ(violationsOf(faulty.report(), "runtime.envelope"), 1u);
}

TEST(Auditor, FoldCacheConservationFaultInjection)
{
    systolic::FoldCacheStats stats;
    stats.foldsTotal = 10;
    stats.foldsReplayed = 4;
    stats.foldsLive = 6;
    stats.addrsReplayed = 128;

    InvariantAuditor clean;
    clean.auditFoldCacheConservation(stats, "run");
    EXPECT_TRUE(clean.report().clean());

    stats.foldsLive = 5; // lose a fold
    InvariantAuditor faulty;
    faulty.auditFoldCacheConservation(stats, "run");
    EXPECT_EQ(violationsOf(faulty.report(), "foldCache.conservation"),
              1u);

    stats.foldsLive = 6;
    stats.foldsReplayed = 4;
    stats.foldsTotal = 10;
    stats.addrsReplayed = 0; // replayed folds but no replayed addrs
    InvariantAuditor faulty2;
    faulty2.auditFoldCacheConservation(stats, "run");
    EXPECT_EQ(violationsOf(faulty2.report(), "foldCache.conservation"),
              1u);
}

TEST(Auditor, FoldReplayFidelityCleanAcrossDataflows)
{
    const GemmDims gemm{33, 17, 21};
    for (Dataflow df : {Dataflow::OutputStationary,
                        Dataflow::WeightStationary,
                        Dataflow::InputStationary}) {
        InvariantAuditor auditor;
        auditor.auditFoldReplayFidelity(gemm, df, 8, 8,
                                        gemmOperands(gemm), "l0");
        EXPECT_TRUE(auditor.report().clean());
        EXPECT_EQ(auditor.report().checksForLaw(
                      "foldCache.replayFidelity"),
                  2u);
    }
}

TEST(Auditor, FoldReplayFidelitySkipsOversizedLayers)
{
    const GemmDims gemm{64, 64, 64};
    InvariantAuditor auditor;
    auditor.setReplayCheckMaxCycles(1);
    auditor.auditFoldReplayFidelity(gemm, Dataflow::WeightStationary,
                                    8, 8, gemmOperands(gemm), "l0");
    EXPECT_EQ(auditor.report().checks(), 0u);
}

namespace
{

LayoutModelConfig
onePortLayout()
{
    LayoutModelConfig cfg;
    cfg.enabled = true;
    cfg.portsPerBank = 1;
    return cfg;
}

/** Layout evaluator of a fold-cached pass over a conv layer. */
struct LayoutPass
{
    LayerSpec layer = LayerSpec::conv("c", 14, 14, 3, 3, 8, 12, 1);
    systolic::OperandMap operands =
        systolic::OperandMap::forLayer(layer, MemoryConfig{});
    LayoutModelConfig cfg = onePortLayout();
    systolic::DemandGenerator generator;
    layout::BankConflictEvaluator eval;

    explicit LayoutPass(Dataflow df)
        : generator(layer.toGemm(), df, 8, 8, operands),
          eval(cfg, layout::OperandLayouts::forOperands(
                        operands, cfg, layout::LayoutScheme::RowMajor))
    {
        generator.run(eval);
    }
};

} // namespace

TEST(Auditor, LayoutReplayFidelityCleanAcrossDataflows)
{
    for (Dataflow df : {Dataflow::OutputStationary,
                        Dataflow::WeightStationary,
                        Dataflow::InputStationary}) {
        const LayoutPass pass(df);
        EXPECT_GT(pass.eval.foldsMemoized(), 0u) << toString(df);
        InvariantAuditor auditor;
        auditor.auditLayoutReplayFidelity(pass.generator, pass.eval,
                                          "c");
        EXPECT_TRUE(auditor.report().clean()) << toString(df);
        EXPECT_EQ(auditor.report().checksForLaw("layout.replayFidelity"),
                  2u);
    }
}

TEST(Auditor, LayoutReplayFidelityFaultInjection)
{
    // One extra conflicting cycle stands in for a memo entry charged
    // twice: four ifmap rows at the same column share a bank.
    LayoutPass pass(Dataflow::WeightStationary);
    std::vector<Addr> column;
    for (std::uint64_t oh = 0; oh < 4; ++oh)
        column.push_back(
            pass.operands.ifmapAddr(oh * pass.operands.ofmapW, 0));
    pass.eval.cycle(0, column, {}, {}, {});
    InvariantAuditor faulty;
    faulty.auditLayoutReplayFidelity(pass.generator, pass.eval, "c");
    EXPECT_EQ(violationsOf(faulty.report(), "layout.replayFidelity"), 2u);

    InvariantAuditor capped;
    capped.setReplayCheckMaxCycles(1);
    capped.auditLayoutReplayFidelity(pass.generator, pass.eval, "c");
    EXPECT_EQ(capped.report().checks(), 0u);
}

TEST(Auditor, DramBankConservationFaultInjection)
{
    dram::DramTiming timing;
    dram::DramStats ch;
    ch.reads = 6;
    ch.writes = 2;
    ch.rowHits = 5;
    ch.rowMisses = 2;
    ch.rowConflicts = 1;
    ch.readBytes = 6ull * timing.burstBytes;
    ch.writeBytes = 2ull * timing.burstBytes;
    ch.lastCompletion = 500; // well inside the first tREFI interval
    std::vector<dram::BankStats> banks(2);
    banks[0] = {3, 1, 1};
    banks[1] = {2, 1, 0};

    InvariantAuditor clean;
    clean.auditDramChannel(ch, banks, timing, 1, "ch0");
    EXPECT_TRUE(clean.report().clean());

    banks[1].rowHits = 3; // a bank invents an outcome
    InvariantAuditor faulty;
    faulty.auditDramChannel(ch, banks, timing, 1, "ch0");
    EXPECT_EQ(violationsOf(faulty.report(), "dram.bankConservation"),
              1u);

    banks[1].rowHits = 2;
    ch.readBytes += 1; // bytes no longer requests * burstBytes
    InvariantAuditor faulty2;
    faulty2.auditDramChannel(ch, banks, timing, 1, "ch0");
    EXPECT_EQ(violationsOf(faulty2.report(), "dram.bankConservation"),
              1u);
}

TEST(Auditor, DramRefreshBoundFaultInjection)
{
    dram::DramTiming timing;
    dram::DramStats idle; // no requests at all
    idle.refreshes = 3;
    InvariantAuditor faulty;
    faulty.auditDramChannel(idle, {}, timing, 1, "ch0");
    EXPECT_EQ(violationsOf(faulty.report(), "dram.refreshBound"), 1u);

    // Busy channel claiming far more refreshes than the tREFI cadence
    // of its active window allows.
    dram::DramStats ch;
    ch.reads = 1;
    ch.rowMisses = 1;
    ch.readBytes = timing.burstBytes;
    ch.lastCompletion = 100;
    ch.refreshes = 50;
    std::vector<dram::BankStats> banks(1);
    banks[0] = {0, 1, 0};
    InvariantAuditor faulty2;
    faulty2.auditDramChannel(ch, banks, timing, 1, "ch0");
    EXPECT_EQ(violationsOf(faulty2.report(), "dram.refreshBound"), 1u);
}

TEST(Auditor, DramTotalsFaultInjection)
{
    dram::DramStats ch0;
    ch0.reads = 4;
    ch0.rowHits = 4;
    dram::DramStats ch1;
    ch1.writes = 3;
    ch1.rowMisses = 3;
    dram::DramStats total;
    total.reads = 4;
    total.writes = 3;
    total.rowHits = 4;
    total.rowMisses = 3;

    InvariantAuditor clean;
    clean.auditDramTotals(total, {ch0, ch1}, "dram");
    EXPECT_TRUE(clean.report().clean());

    total.writes = 2; // system total loses a write
    InvariantAuditor faulty;
    faulty.auditDramTotals(total, {ch0, ch1}, "dram");
    EXPECT_EQ(violationsOf(faulty.report(), "dram.bankConservation"),
              1u);
}

TEST(Auditor, EnergyActionAccountingFaultInjection)
{
    const GemmDims gemm{12, 9, 7};
    const systolic::FoldGrid grid(gemm, Dataflow::WeightStationary, 4,
                                  4);
    energy::ActionCounts counts =
        traceActionCounts(gemm, Dataflow::WeightStationary, 4, 4);

    InvariantAuditor clean;
    clean.auditEnergyActions(counts, grid, true, "l0");
    EXPECT_TRUE(clean.report().clean());
    EXPECT_EQ(clean.report().checksForLaw("energy.demandAgreement"),
              4u);

    counts.macGated += 1; // MAC classes no longer partition PE-cycles
    InvariantAuditor faulty;
    faulty.auditEnergyActions(counts, grid, true, "l0");
    EXPECT_EQ(violationsOf(faulty.report(), "energy.actionAccounting"),
              1u);
}

TEST(Auditor, EnergyDemandAgreementFaultInjection)
{
    const GemmDims gemm{12, 9, 7};
    const systolic::FoldGrid grid(gemm, Dataflow::WeightStationary, 4,
                                  4);
    energy::ActionCounts counts =
        traceActionCounts(gemm, Dataflow::WeightStationary, 4, 4);

    // Invent one ifmap read while keeping the port-cycle partition and
    // the NoC word count balanced, so only the closed-form agreement
    // law can notice.
    counts.ifmapSram.readRandom += 1;
    counts.ifmapSram.idle -= 1;
    counts.nocWords += 1;
    InvariantAuditor faulty;
    faulty.auditEnergyActions(counts, grid, true, "l0");
    EXPECT_EQ(violationsOf(faulty.report(), "energy.demandAgreement"),
              1u);

    // The same corruption goes unreported when agreement checking is
    // off (sparse layers, where compression changes edge traffic).
    InvariantAuditor lenient;
    lenient.auditEnergyActions(counts, grid, false, "l0");
    EXPECT_TRUE(lenient.report().clean());
}

TEST(Auditor, MemoryTrafficFaultInjection)
{
    systolic::LayerTiming spad;
    spad.dramReadWords = 1000;
    spad.dramWriteWords = 400;
    spad.dramReadRequests = 20;
    spad.dramWriteRequests = 8;
    systolic::MemoryStats mem;
    mem.readWords = 1000;
    mem.writeWords = 400;
    mem.readRequests = 20;
    mem.writeRequests = 8;

    InvariantAuditor clean;
    clean.auditMemoryTraffic(spad, mem, "run");
    EXPECT_TRUE(clean.report().clean());

    mem.writeWords = 399; // memory model drops a word
    InvariantAuditor faulty;
    faulty.auditMemoryTraffic(spad, mem, "run");
    EXPECT_EQ(violationsOf(faulty.report(), "mem.trafficConservation"),
              1u);
}

TEST(Auditor, ArbiterConservationFaultInjection)
{
    multicore::MultiCoreTraceResult result;
    result.ports.resize(2);
    result.ports[0].readRequests = 5;
    result.ports[0].writeRequests = 1;
    result.ports[1].readRequests = 3;
    result.ports[1].writeRequests = 1;
    result.arb.grants = 10;
    for (int i = 0; i < 10; ++i)
        result.arb.waiters.sample(0.0);
    result.l1FillWords = 640;
    result.l2.hitWords = 500;
    result.l2.missWords = 140;

    InvariantAuditor clean;
    clean.auditArbiter(result, true, "mc.l0");
    EXPECT_TRUE(clean.report().clean());

    result.ports[1].writeRequests = 2; // port admits an extra txn
    InvariantAuditor faulty;
    faulty.auditArbiter(result, true, "mc.l0");
    EXPECT_EQ(violationsOf(faulty.report(), "mc.arbConservation"), 1u);

    result.ports[1].writeRequests = 1;
    result.l2.missWords = 139; // L2 word leak
    InvariantAuditor faulty2;
    faulty2.auditArbiter(result, true, "mc.l0");
    EXPECT_EQ(violationsOf(faulty2.report(), "mc.arbConservation"),
              1u);
}

TEST(Auditor, RunTotalsFaultInjection)
{
    InvariantAuditor clean;
    clean.auditRunTotals(100, 80, 20, 5000, 1000, 100, 80, 20, 5000,
                         1000, "run");
    EXPECT_TRUE(clean.report().clean());

    InvariantAuditor faulty;
    faulty.auditRunTotals(101, 80, 20, 5000, 1000, 100, 80, 20, 5000,
                          1000, "run");
    EXPECT_EQ(violationsOf(faulty.report(), "run.totalsAccounting"),
              1u);
}

TEST(AuditReport, MergeAndClear)
{
    AuditReport a;
    a.recordCheck("spad.stallAccounting");
    AuditReport b;
    b.recordCheck("spad.stallAccounting");
    b.recordViolation("runtime.envelope", "l1", "off by one");
    a.merge(b);
    EXPECT_EQ(a.checks(), 2u);
    EXPECT_EQ(a.checksForLaw("spad.stallAccounting"), 2u);
    EXPECT_EQ(a.violations().size(), 1u);
    EXPECT_FALSE(a.clean());
    a.clear();
    EXPECT_TRUE(a.clean());
    EXPECT_EQ(a.checks(), 0u);
}

TEST(AuditedRun, TraceRunOnGoldenWorkloadIsClean)
{
    SimConfig cfg;
    cfg.arrayRows = 16;
    cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Trace;
    cfg.audit = true;
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    ASSERT_NE(sim.auditor(), nullptr);
    const RunResult run = sim.run(workloads::resnet18Prefix(4));
    ASSERT_TRUE(run.audited);
    EXPECT_TRUE(run.audit.clean())
        << [&] {
               std::ostringstream out;
               run.audit.writeReport(out);
               return out.str();
           }();
    EXPECT_GT(run.audit.checks(), 0u);
    // Per-layer laws must have fired for every layer.
    EXPECT_GE(run.audit.checksForLaw("spad.stallAccounting"),
              run.layers.size());
    EXPECT_GE(run.audit.checksForLaw("energy.actionAccounting"),
              run.layers.size());
    EXPECT_GT(run.audit.checksForLaw("run.totalsAccounting"), 0u);

    std::ostringstream stats;
    run.writeStats(stats);
    EXPECT_NE(stats.str().find("sim.audit.checks"), std::string::npos);
    std::ostringstream json;
    run.writeJson(json);
    EXPECT_NE(json.str().find("\"audit\""), std::string::npos);
}

TEST(AuditedRun, DramAndSparseRunIsClean)
{
    SimConfig cfg;
    cfg.arrayRows = 8;
    cfg.arrayCols = 8;
    cfg.dataflow = Dataflow::OutputStationary;
    cfg.mode = SimMode::Trace;
    cfg.audit = true;
    cfg.dram.enabled = true;
    cfg.sparsity.enabled = true;
    Simulator sim(cfg);
    Topology topo;
    topo.name = "mixed";
    topo.layers.push_back(LayerSpec::gemm("dense", 24, 24, 24));
    auto sparse_layer = LayerSpec::gemm("sparse", 24, 24, 24);
    sparse_layer.sparseN = 2;
    sparse_layer.sparseM = 4;
    topo.layers.push_back(sparse_layer);
    topo.layers.back().repetitions = 3;
    const RunResult run = sim.run(topo);
    ASSERT_TRUE(run.audited);
    EXPECT_TRUE(run.audit.clean())
        << [&] {
               std::ostringstream out;
               run.audit.writeReport(out);
               return out.str();
           }();
    EXPECT_GT(run.audit.checksForLaw("dram.bankConservation"), 0u);
    EXPECT_GT(run.audit.checksForLaw("mem.trafficConservation"), 0u);
}

TEST(AuditedRun, LayoutRunChecksReplayFidelity)
{
    SimConfig cfg;
    cfg.arrayRows = 16;
    cfg.arrayCols = 16;
    cfg.mode = SimMode::Trace;
    cfg.audit = true;
    cfg.layout.enabled = true;
    cfg.layout.portsPerBank = 1;
    Topology topo;
    topo.name = "small";
    topo.layers.push_back(LayerSpec::conv("conv", 30, 30, 3, 3, 8, 40, 1));
    topo.layers.push_back(LayerSpec::gemm("fc", 64, 48, 80));
    Simulator sim(cfg);
    const RunResult run = sim.run(topo);
    ASSERT_TRUE(run.audited);
    EXPECT_TRUE(run.audit.clean())
        << [&] {
               std::ostringstream out;
               run.audit.writeReport(out);
               return out.str();
           }();
    EXPECT_EQ(run.audit.checksForLaw("layout.replayFidelity"),
              2 * topo.layers.size());
    const double memoized =
        run.stats.scalarValue("sim.foldCache.layoutMemoized");
    EXPECT_EQ(memoized + run.stats.scalarValue("sim.foldCache.layoutWalked"),
              run.stats.scalarValue("sim.foldCache.folds"));
    EXPECT_GT(memoized, 0.0);
}

TEST(AuditedRun, AnalyticalModeIsClean)
{
    SimConfig cfg;
    cfg.arrayRows = 16;
    cfg.arrayCols = 16;
    cfg.mode = SimMode::Analytical;
    cfg.audit = true;
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    const RunResult run = sim.run(workloads::resnet18Prefix(4));
    ASSERT_TRUE(run.audited);
    EXPECT_TRUE(run.audit.clean())
        << [&] {
               std::ostringstream out;
               run.audit.writeReport(out);
               return out.str();
           }();
}

TEST(AuditedRun, UnauditedRunStaysUnaudited)
{
    SimConfig cfg;
    cfg.arrayRows = 8;
    cfg.arrayCols = 8;
    cfg.mode = SimMode::Trace;
    Simulator sim(cfg);
    EXPECT_EQ(sim.auditor(), nullptr);
    Topology topo;
    topo.name = "tiny";
    topo.layers.push_back(LayerSpec::gemm("g", 8, 8, 8));
    const RunResult run = sim.run(topo);
    EXPECT_FALSE(run.audited);
    EXPECT_EQ(run.audit.checks(), 0u);
}

#if SIM_CHECKS_ENABLED
TEST(Contract, PassingChecksAreSilent)
{
    SIM_CHECK(1 + 1 == 2);
    SIM_CHECK_EQ(4, 4, "fours agree");
    SIM_CHECK_NE(1, 2);
    SIM_CHECK_LE(1, 1);
    SIM_CHECK_LT(1, 2);
}

TEST(ContractDeathTest, FailingCheckAborts)
{
    EXPECT_DEATH(SIM_CHECK(false, "injected failure"),
                 "SIM_CHECK");
    EXPECT_DEATH(SIM_CHECK_EQ(2, 3, "injected mismatch"),
                 "SIM_CHECK_EQ");
}
#else
TEST(Contract, DisabledChecksCompileToNothing)
{
    // The operand expressions must not be evaluated at all when
    // checks are compiled out (zero cost in Release).
    int evaluations = 0;
    SIM_CHECK(++evaluations > 0);
    SIM_CHECK_EQ(++evaluations, 1);
    EXPECT_EQ(evaluations, 0);
}
#endif
