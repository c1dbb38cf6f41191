/**
 * @file
 * Reproduces Fig. 10: memory-stall fraction of total execution cycles
 * for read/write request queues of 32, 128 and 512 entries across
 * several workloads (TPU config + DDR4). The paper reports the mean
 * total cycles dropping 3.76x from 32 to 128 entries and a further
 * ~38% with 512 entries.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

core::RunResult
runWith(const Topology& topo, std::uint32_t queue_size)
{
    SimConfig cfg = SimConfig::tpuMemoryStudy();
    cfg.mode = SimMode::Analytical;
    cfg.dram.readQueueSize = queue_size;
    cfg.dram.writeQueueSize = queue_size;
    // Plenty of channel-level parallelism: sustaining it needs more
    // requests in flight than a small queue can hold (Little's law),
    // which is exactly the effect the paper's study isolates.
    cfg.dram.channels = 16;
    // Word-granular demand requests (as in the paper's §V model):
    // sustaining the needed bandwidth requires latency x bandwidth
    // requests in flight, so a 32-entry queue throttles hard.
    cfg.memory.issuePerCycle = 16;
    cfg.memory.burstWords = 4;
    // A 2 GHz core doubles DRAM round-trips in core cycles, so deep
    // queues matter more (as on real accelerators).
    cfg.dram.coreClockMhz = 2000.0;
    core::Simulator sim(cfg);
    return sim.run(topo);
}

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    const unsigned jobs = jobsFromArgs(argc, argv, 1);
    std::printf("=== Fig. 10: memory stalls vs request queue size "
                "(32 / 128 / 512) ===\n");
    const char* names[] = {"alexnet", "resnet18", "vit_small"};
    constexpr std::uint32_t queue_sizes[] = {32, 128, 512};
    constexpr int kWorkloads = 3;
    constexpr int kQueues = 3;

    // 3 workloads x 3 queue sizes = 9 independent config points.
    std::vector<core::RunResult> results(
        static_cast<std::size_t>(kWorkloads) * kQueues);
    parallelFor(results.size(), jobs, [&](std::uint64_t i) {
        const Topology topo = workloads::byName(
            names[i / kQueues]);
        results[i] = runWith(topo, queue_sizes[i % kQueues]);
    });

    benchutil::Table table({10, 22, 22, 22});
    table.row({"workload", "q32 total(stall%)", "q128 total(stall%)",
               "q512 total(stall%)"});
    table.rule();
    double ratio_32_128 = 0.0;
    double gain_128_512 = 0.0;
    for (int w = 0; w < kWorkloads; ++w) {
        const char* name = names[w];
        const auto& r32 = results[static_cast<std::size_t>(w) * kQueues];
        const auto& r128 = results[
            static_cast<std::size_t>(w) * kQueues + 1];
        const auto& r512 = results[
            static_cast<std::size_t>(w) * kQueues + 2];
        auto cell = [](const core::RunResult& r) {
            const double stall_pct = 100.0
                * static_cast<double>(r.stallCycles)
                / static_cast<double>(r.totalCycles);
            return format("%llu (%.1f%%)",
                          static_cast<unsigned long long>(
                              r.totalCycles),
                          stall_pct);
        };
        table.row({name, cell(r32), cell(r128), cell(r512)});
        ratio_32_128 += static_cast<double>(r32.totalCycles)
            / static_cast<double>(r128.totalCycles);
        gain_128_512 += static_cast<double>(r128.totalCycles)
                / static_cast<double>(r512.totalCycles)
            - 1.0;
    }
    table.rule();
    const int n = sizeof(names) / sizeof(names[0]);
    std::printf("mean total-cycle reduction 32 -> 128 entries: %.2fx "
                "(paper: 3.76x)\n",
                ratio_32_128 / n);
    std::printf("mean further improvement 128 -> 512 entries: %.1f%% "
                "(paper: 38%%)\n",
                100.0 * gain_128_512 / n);
    return 0;
}
