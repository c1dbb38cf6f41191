/**
 * @file
 * Tests for the parallel execution engine and the simulator's
 * self-profiling layer: parallelFor semantics, the
 * determinism contract (parallel sweeps byte-identical to sequential
 * ones), and SimProfiler instrumentation in the run report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/profiler.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "core/simulator.hpp"
#include "multicore/partition.hpp"

using namespace scalesim;

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

core::DseSweep
smallSweep(unsigned jobs)
{
    core::DseSweep sweep;
    sweep.arraySizes = {8, 16};
    sweep.sramKbTotals = {256, 1024};
    sweep.base.mode = SimMode::Analytical;
    sweep.jobs = jobs;
    return sweep;
}

std::string
dseReportText(const std::vector<core::DsePoint>& points)
{
    std::ostringstream out;
    core::writeDseReport(out, points);
    return out.str();
}

} // namespace

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    constexpr std::uint64_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    parallelFor(n, 4, [&](std::uint64_t i) { ++visits[i]; });
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SequentialFallbackRunsInline)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(3);
    parallelFor(seen.size(), 1, [&](std::uint64_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const auto& id : seen)
        EXPECT_EQ(id, caller);
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(
        parallelFor(64, 4,
                    [](std::uint64_t i) {
                        if (i == 17)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(ParallelFor, HandlesZeroAndTinyRanges)
{
    std::atomic<int> calls{0};
    parallelFor(0, 4, [&](std::uint64_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
    parallelFor(1, 8, [&](std::uint64_t) { ++calls; });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, CapsWorkersAtHardwareThreads)
{
    // A huge request (a sweep's "jobs" may be up to 2^32 - 1) must not
    // start a thread per point. Each body sleeps, so an uncapped pool
    // would spread the 64 points over up to 64 distinct threads.
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallelFor(64, std::numeric_limits<unsigned>::max(),
                [&](std::uint64_t) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                    const std::lock_guard<std::mutex> lock(mutex);
                    ids.insert(std::this_thread::get_id());
                });
    EXPECT_LE(ids.size(),
              std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ResolveJobs, ExplicitValuesPassThrough)
{
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
    EXPECT_GE(resolveJobs(0), 1u);
}

TEST(ParallelDeterminism, DseSweepMatchesSequentialByteForByte)
{
    const Topology topo = tinyTopology();
    const auto sequential = core::runSweep(smallSweep(1), topo);
    const auto parallel = core::runSweep(smallSweep(4), topo);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(sequential[i].array, parallel[i].array);
        EXPECT_EQ(sequential[i].dataflow, parallel[i].dataflow);
        EXPECT_EQ(sequential[i].sramKb, parallel[i].sramKb);
        EXPECT_EQ(sequential[i].cycles, parallel[i].cycles);
        EXPECT_EQ(sequential[i].energyMj, parallel[i].energyMj);
        EXPECT_EQ(sequential[i].edp, parallel[i].edp);
    }
    EXPECT_EQ(dseReportText(sequential), dseReportText(parallel));
}

TEST(ParallelDeterminism, TraceModeSweepAlsoMatches)
{
    // Trace mode exercises the scratchpad/timeline coupling each
    // worker-private Simulator must preserve.
    const Topology topo = tinyTopology();
    auto sweep1 = smallSweep(1);
    sweep1.base.mode = SimMode::Trace;
    auto sweep4 = smallSweep(4);
    sweep4.base.mode = SimMode::Trace;
    EXPECT_EQ(dseReportText(core::runSweep(sweep1, topo)),
              dseReportText(core::runSweep(sweep4, topo)));
}

TEST(ParallelDeterminism, PartitionSearchMatchesSequential)
{
    const GemmDims gemm{512, 256, 384};
    for (auto scheme : {multicore::PartitionScheme::Spatial,
                        multicore::PartitionScheme::SpatioTemporal1,
                        multicore::PartitionScheme::SpatioTemporal2}) {
        const auto sequential = multicore::enumeratePartitions(
            gemm, Dataflow::WeightStationary, 32, 32, 64, scheme, 1);
        const auto parallel = multicore::enumeratePartitions(
            gemm, Dataflow::WeightStationary, 32, 32, 64, scheme, 4);
        ASSERT_EQ(sequential.size(), parallel.size());
        for (std::size_t i = 0; i < sequential.size(); ++i) {
            EXPECT_EQ(sequential[i].pr, parallel[i].pr);
            EXPECT_EQ(sequential[i].pc, parallel[i].pc);
            EXPECT_EQ(sequential[i].cycles, parallel[i].cycles);
            EXPECT_EQ(sequential[i].footprintWords,
                      parallel[i].footprintWords);
            EXPECT_EQ(sequential[i].l2FootprintWords,
                      parallel[i].l2FootprintWords);
        }
    }
}

TEST(SimProfiler, RunReportCarriesOverheadSection)
{
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.mode = SimMode::Trace;
    cfg.energy.enabled = true;
    core::Simulator sim(cfg);
    const core::RunResult run = sim.run(tinyTopology());

    EXPECT_EQ(run.profile.layersProfiled, 2u);
    EXPECT_GT(run.profile.totalSeconds, 0.0);
    EXPECT_GT(run.profile.seconds(SimPhase::Energy), 0.0);
    EXPECT_GT(run.profile.peakRssKb, 0u);

    std::ostringstream out;
    run.writeSummary(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("SIM_OVERHEAD"), std::string::npos);
    EXPECT_NE(text.find("sim.overhead.totalSeconds"),
              std::string::npos);
    EXPECT_NE(text.find("sim.overhead.energy"), std::string::npos);
    EXPECT_NE(text.find("sim.overhead.peakRssKb"), std::string::npos);
}

TEST(SimProfiler, DramPhaseChargedWhenDramModelActive)
{
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.mode = SimMode::Trace;
    cfg.dram.enabled = true;
    core::Simulator sim(cfg);
    const core::RunResult run = sim.run(tinyTopology());
    EXPECT_GT(run.profile.seconds(SimPhase::Dram), 0.0);
    EXPECT_EQ(run.profile.seconds(SimPhase::Scratchpad), 0.0);
}

TEST(SimProfiler, MergeAccumulatesAndKeepsPeakRss)
{
    SimProfile a;
    a.phaseSeconds[0] = 1.0;
    a.totalSeconds = 2.0;
    a.layersProfiled = 3;
    a.peakRssKb = 100;
    SimProfile b;
    b.phaseSeconds[0] = 0.5;
    b.totalSeconds = 1.0;
    b.layersProfiled = 1;
    b.peakRssKb = 400;
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.phaseSeconds[0], 1.5);
    EXPECT_DOUBLE_EQ(a.totalSeconds, 3.0);
    EXPECT_EQ(a.layersProfiled, 4u);
    EXPECT_EQ(a.peakRssKb, 400u);
}

TEST(SparsitySpeedup, UtilizationStaysBoundedAndSpeedupReported)
{
    // With 1:4 row sparsity the effective K shrinks ~4x; the old
    // utilization metric (dense MACs / effective cycles) exceeded 1.0.
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Analytical;
    cfg.sparsity.enabled = true;
    Topology topo;
    topo.name = "sparse";
    topo.layers.push_back(LayerSpec::gemm("g", 256, 256, 256));
    topo = workloads::withUniformSparsity(topo, 1, 4);
    core::Simulator sim(cfg);
    const core::RunResult run = sim.run(topo);
    ASSERT_EQ(run.layers.size(), 1u);
    const auto& layer = run.layers[0];
    ASSERT_LT(layer.effectiveGemm.k, layer.denseGemm.k);
    EXPECT_GT(layer.utilization, 0.0);
    EXPECT_LE(layer.utilization, 1.0);
    EXPECT_GT(layer.speedup, 1.0);
    // Dense runs keep speedup at exactly 1.
    SimConfig dense_cfg = cfg;
    dense_cfg.sparsity.enabled = false;
    core::Simulator dense_sim(dense_cfg);
    Topology dense_topo;
    dense_topo.name = "dense";
    dense_topo.layers.push_back(LayerSpec::gemm("g", 256, 256, 256));
    const core::RunResult dense_run = dense_sim.run(dense_topo);
    EXPECT_DOUBLE_EQ(dense_run.layers[0].speedup, 1.0);
}
