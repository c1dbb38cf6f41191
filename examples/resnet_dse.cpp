/**
 * @file
 * Design-space exploration: sweep array size and dataflow for
 * ResNet-18 and rank the designs by latency, energy and EdP — the
 * workflow the paper's §IX-B motivates (a latency-optimal design is
 * rarely the energy- or EdP-optimal one).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

struct Design
{
    std::uint32_t array;
    Dataflow dataflow;
    Cycle cycles;
    double energyUj;
    double edp;
};

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    // --jobs N spreads the sweep's design points over N threads
    // (0 = auto); the evaluation order and output are unchanged.
    const unsigned jobs = jobsFromArgs(argc, argv);
    const Topology topo = workloads::resnet18();

    const std::vector<std::uint32_t> arrays = {16, 32, 64, 128};
    const std::vector<Dataflow> dataflows = {
        Dataflow::OutputStationary, Dataflow::WeightStationary,
        Dataflow::InputStationary};
    std::vector<Design> designs(arrays.size() * dataflows.size());
    parallelFor(designs.size(), jobs, [&](std::uint64_t i) {
        const std::uint32_t array = arrays[i / dataflows.size()];
        const Dataflow df = dataflows[i % dataflows.size()];
        SimConfig cfg;
        cfg.arrayRows = cfg.arrayCols = array;
        cfg.dataflow = df;
        cfg.mode = SimMode::Analytical;
        cfg.energy.enabled = true;
        cfg.memory.ifmapSramKb = 1024;
        cfg.memory.filterSramKb = 1024;
        cfg.memory.ofmapSramKb = 512;
        cfg.memory.bandwidthWordsPerCycle = 64.0;
        core::Simulator sim(cfg);
        const core::RunResult run = sim.run(topo);
        designs[i] = {array, df, run.totalCycles,
                      run.totalEnergy.totalUj(), run.edp};
    });

    std::printf("%-10s %-4s %14s %14s %16s\n", "array", "df", "cycles",
                "energy(uJ)", "EdP");
    for (const auto& d : designs) {
        std::printf("%3ux%-6u %-4s %14llu %14.1f %16.3g\n", d.array,
                    d.array, toString(d.dataflow).c_str(),
                    static_cast<unsigned long long>(d.cycles),
                    d.energyUj, d.edp);
    }

    auto best = [&](auto key, const char* what) {
        const auto it = std::min_element(
            designs.begin(), designs.end(),
            [&](const Design& a, const Design& b) {
                return key(a) < key(b);
            });
        std::printf("best by %-7s: %ux%u %s\n", what, it->array,
                    it->array, toString(it->dataflow).c_str());
    };
    std::printf("\n");
    best([](const Design& d) { return static_cast<double>(d.cycles); },
         "latency");
    best([](const Design& d) { return d.energyUj; }, "energy");
    best([](const Design& d) { return d.edp; }, "EdP");

    // The same exploration through the DSE driver, with the
    // latency-energy Pareto frontier extracted.
    core::DseSweep sweep;
    sweep.arraySizes = {16, 32, 64, 128};
    sweep.sramKbTotals = {1024, 4096};
    sweep.base.mode = SimMode::Analytical;
    sweep.base.memory.bandwidthWordsPerCycle = 64.0;
    sweep.jobs = jobs;
    const auto points = core::runSweep(sweep, topo);
    const auto frontier = core::paretoFrontier(points);
    std::printf("\nPareto frontier (latency vs energy), %zu of %zu "
                "designs:\n", frontier.size(), points.size());
    for (const auto& p : frontier) {
        std::printf("  %3ux%-3u %s %5llu kB: %12llu cycles, %8.2f mJ, "
                    "EdP %.3g\n", p.array, p.array,
                    toString(p.dataflow).c_str(),
                    static_cast<unsigned long long>(p.sramKb),
                    static_cast<unsigned long long>(p.cycles), p.energyMj, p.edp);
    }
    return 0;
}
