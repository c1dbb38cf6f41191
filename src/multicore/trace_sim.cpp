#include "multicore/trace_sim.hpp"

#include <algorithm>
#include <cctype>
#include <limits>

#include "common/log.hpp"

namespace scalesim::multicore
{

MultiCoreEngine
multiCoreEngineFromString(std::string_view text)
{
    std::string lower(text);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower != "serial")
        fatal("unknown multicore engine '%.*s' (serial)",
              static_cast<int>(text.size()), text.data());
    return MultiCoreEngine::Serial;
}

MultiCoreTraceConfig
MultiCoreTraceConfig::fromSimConfig(const SimConfig& cfg,
                                    std::uint64_t pr, std::uint64_t pc)
{
    MultiCoreTraceConfig mc;
    mc.pr = pr;
    mc.pc = pc;
    mc.arrayRows = cfg.arrayRows;
    mc.arrayCols = cfg.arrayCols;
    mc.dataflow = cfg.dataflow;
    mc.dramWordsPerCycle = cfg.memory.bandwidthWordsPerCycle;
    const std::uint32_t word
        = std::max<std::uint32_t>(1, cfg.memory.wordBytes);
    mc.l1.ifmapWords = cfg.memory.ifmapSramKb * 1024 / word;
    mc.l1.filterWords = cfg.memory.filterSramKb * 1024 / word;
    mc.l1.ofmapWords = cfg.memory.ofmapSramKb * 1024 / word;
    return mc;
}

MultiCoreTraceSimulator::MultiCoreTraceSimulator(
    const MultiCoreTraceConfig& cfg)
    : cfg_(cfg)
{
    if (cfg_.pr == 0 || cfg_.pc == 0)
        fatal("multi-core grid must be non-zero");
    // shareStarts() sizes pr + 1 and pc + 1 entries, so the core count
    // must stay below the 64-bit maximum, not merely fit.
    if (cfg_.pr > (std::numeric_limits<std::uint64_t>::max() - 1)
                      / cfg_.pc) {
        fatal("multi-core grid %llux%llu overflows the core count",
              static_cast<unsigned long long>(cfg_.pr),
              static_cast<unsigned long long>(cfg_.pc));
    }
    // Every core sees the full L2 port and DRAM bandwidth; contention
    // emerges from real collisions on the shared bus cursors as the
    // engines are co-stepped.
    dram_ = std::make_unique<systolic::BandwidthMemory>(
        cfg_.dramWordsPerCycle);
    if (cfg_.useL2) {
        l2_ = std::make_unique<SharedL2>(cfg_.l2, *dram_);
        coreView_ = l2_.get();
    } else {
        coreView_ = dram_.get();
    }
}

MultiCoreTraceSimulator::~MultiCoreTraceSimulator() = default;

std::vector<std::uint64_t>
MultiCoreTraceSimulator::shareStarts(std::uint64_t total,
                                     std::uint64_t parts)
{
    // Balanced split; entry i holds the start offset, entry parts the
    // total (so share i spans [starts[i], starts[i+1])).
    std::vector<std::uint64_t> starts(parts + 1, 0);
    const std::uint64_t base = total / parts;
    std::uint64_t rem = total % parts;
    for (std::uint64_t i = 0; i < parts; ++i) {
        starts[i + 1] = starts[i] + base + (i < rem ? 1 : 0);
    }
    return starts;
}

MultiCoreTraceSimulator::CorePartition
MultiCoreTraceSimulator::corePartition(
    Dataflow df, const GemmDims& gemm,
    const systolic::OperandMap& global, std::uint64_t sr_off,
    std::uint64_t sr_share, std::uint64_t sc_off,
    std::uint64_t sc_share)
{
    // Share dims + global-address operand view (bases offset, pitches
    // global) so replicated partitions deduplicate.
    GemmDims share = gemm;
    systolic::OperandMap view = global;
    switch (df) {
      case Dataflow::OutputStationary:
        share.m = sr_share;
        share.n = sc_share;
        view.ifmapBase += sr_off * gemm.k;
        view.filterBase += sc_off;
        view.ofmapBase += sr_off * gemm.n + sc_off;
        break;
      case Dataflow::WeightStationary:
        share.k = sr_share;
        share.n = sc_share;
        view.ifmapBase += sr_off;
        view.filterBase += sr_off * gemm.n + sc_off;
        view.ofmapBase += sc_off;
        break;
      case Dataflow::InputStationary:
        share.k = sr_share;
        share.m = sc_share;
        view.ifmapBase += sc_off * gemm.k + sr_off;
        view.filterBase += sr_off * gemm.n;
        view.ofmapBase += sc_off * gemm.n;
        break;
    }
    return {share, view};
}

MultiCoreTraceResult
MultiCoreTraceSimulator::runLayer(const LayerSpec& layer)
{
    const GemmDims gemm = layer.toGemm();
    const MappedDims mapped = systolic::mapGemmConventional(
        gemm, cfg_.dataflow);
    const auto sr_starts = shareStarts(mapped.sr, cfg_.pr);
    const auto sc_starts = shareStarts(mapped.sc, cfg_.pc);

    MemoryConfig mem;
    const systolic::OperandMap global(gemm, mem);

    const systolic::MemoryStats dram_before = dram_->stats();
    const SharedL2Stats l2_before = l2_ ? l2_->l2Stats()
                                        : SharedL2Stats{};
    if (l2_)
        l2_->invalidate();
    // Layer barrier: all cores start this layer at cycle 0 together.
    dram_->resetTimeline();
    if (l2_)
        l2_->resetTimeline();

    const std::uint64_t num_cores = cfg_.pr * cfg_.pc;
    MultiCoreTraceResult result;
    result.perCore.resize(num_cores);
    result.ports.resize(num_cores);

    /** One live core: its port into the shared memory + L1 engine. */
    struct CoreRun
    {
        std::uint64_t coreIdx;
        std::unique_ptr<MemoryPort> port;
        std::unique_ptr<systolic::DoubleBufferedScratchpad> l1;
    };
    std::vector<CoreRun> runs;
    runs.reserve(num_cores);

    for (std::uint64_t i = 0; i < cfg_.pr; ++i) {
        for (std::uint64_t j = 0; j < cfg_.pc; ++j) {
            const std::uint64_t sr_off = sr_starts[i];
            const std::uint64_t sr_share = sr_starts[i + 1] - sr_off;
            const std::uint64_t sc_off = sc_starts[j];
            const std::uint64_t sc_share = sc_starts[j + 1] - sc_off;
            if (sr_share == 0 || sc_share == 0)
                continue;
            const CorePartition part = corePartition(
                cfg_.dataflow, gemm, global, sr_off, sr_share, sc_off,
                sc_share);
            const systolic::FoldGrid grid(part.share, cfg_.dataflow,
                                          cfg_.arrayRows,
                                          cfg_.arrayCols);
            CoreRun run;
            run.coreIdx = i * cfg_.pc + j;
            run.port = std::make_unique<MemoryPort>(*coreView_);
            run.l1 = std::make_unique<
                systolic::DoubleBufferedScratchpad>(cfg_.l1,
                                                    *run.port);
            run.l1->beginLayer(grid, part.view);
            runs.push_back(std::move(run));
        }
    }

    // Co-step all engines in time order: always grant the earliest
    // pending transaction (round-robin on ties), so the shared bus
    // cursors advance in nondecreasing time and contention is FCFS in
    // simulated time rather than in core-enumeration order.
    if (!runs.empty()) {
        // nextEventCycle() depends only on the engine's own state (see
        // its contract), so stepping the granted engine can only move
        // that one port's cycle: the arbiter is told just that change.
        static_assert(systolic::DoubleBufferedScratchpad::kNoEvent
                      == RoundRobinArbiter::kIdle);
        RoundRobinArbiter arb(runs.size());
        for (std::size_t k = 0; k < runs.size(); ++k)
            arb.update(k, runs[k].l1->nextEventCycle());
        for (;;) {
            const std::size_t g = arb.grant();
            if (g == RoundRobinArbiter::kNone)
                break;
            runs[g].l1->step();
            arb.update(g, runs[g].l1->nextEventCycle());
        }
        result.arb = arb.stats();
    }

    for (auto& run : runs) {
        const auto timing = run.l1->finishLayer();
        result.makespan = std::max(result.makespan,
                                   timing.totalCycles);
        result.l1FillWords += timing.dramReadWords;
        result.perCore[run.coreIdx] = timing;
        result.ports[run.coreIdx] = run.port->portStats();
    }

    const systolic::MemoryStats& dram_after = dram_->stats();
    result.dramReadWords = dram_after.readWords
        - dram_before.readWords;
    result.dramWriteWords = dram_after.writeWords
        - dram_before.writeWords;
    if (l2_) {
        result.l2 = l2_->l2Stats();
        result.l2.lookups -= l2_before.lookups;
        result.l2.hits -= l2_before.hits;
        result.l2.hitWords -= l2_before.hitWords;
        result.l2.missWords -= l2_before.missWords;
        result.l2.writeWords -= l2_before.writeWords;
    }
    return result;
}

void
MultiCoreTraceResult::registerStats(obs::StatsRegistry& reg,
                                    const std::string& prefix) const
{
    auto name = [&](const char* leaf) { return prefix + "." + leaf; };
    reg.addScalar(name("makespan"), "slowest core's cycles",
                  static_cast<double>(makespan));
    reg.addScalar(name("dramReadWords"),
                  "words the backing memory served",
                  static_cast<double>(dramReadWords));
    reg.addScalar(name("dramWriteWords"),
                  "words written to the backing memory",
                  static_cast<double>(dramWriteWords));
    reg.addScalar(name("l1FillWords"),
                  "L1 fill words pulled from L2/DRAM (pre-dedup)",
                  static_cast<double>(l1FillWords));

    reg.addScalar(name("l2.lookups"), "L2 line lookups",
                  static_cast<double>(l2.lookups));
    reg.addScalar(name("l2.hits"), "L2 line hits",
                  static_cast<double>(l2.hits));
    reg.addScalar(name("l2.hitWords"),
                  "request words served from resident lines",
                  static_cast<double>(l2.hitWords));
    reg.addScalar(name("l2.missWords"),
                  "request words that missed in the L2",
                  static_cast<double>(l2.missWords));
    reg.addScalar(name("l2.writeWords"), "words written through the L2",
                  static_cast<double>(l2.writeWords));
    reg.addFormula(name("l2.hitRate"), "l2.hits / l2.lookups",
                   {{{name("l2.hits"), 1.0}},
                    {{name("l2.lookups"), 1.0}},
                    1.0});
    reg.addScalar(name("l2.arbConflicts"),
                  "same-cycle shared L2/DRAM port collisions",
                  static_cast<double>(arb.arbConflicts));
    reg.addScalar(name("arb.grants"), "arbiter grants",
                  static_cast<double>(arb.grants));
    reg.addDistribution(name("arb.waiters"),
                        "cores left waiting at each grant",
                        arb.waiters);

    for (std::size_t i = 0; i < perCore.size(); ++i) {
        const std::string core = prefix + ".core" + std::to_string(i);
        const auto& t = perCore[i];
        reg.addScalar(core + ".totalCycles", "core wall-clock cycles",
                      static_cast<double>(t.totalCycles));
        reg.addScalar(core + ".computeCycles", "core compute cycles",
                      static_cast<double>(t.computeCycles));
        reg.addScalar(core + ".stallCycles", "core stall cycles",
                      static_cast<double>(t.stallCycles));
        t.cpi.registerStats(reg, core + ".cpistack",
                            "per-cause cycle attribution (sums to "
                            "totalCycles)");
        if (i < ports.size()) {
            reg.addScalar(core + ".stallOnL2",
                          "cycles this core's requests spent queued "
                          "at the shared L2/DRAM port",
                          static_cast<double>(ports[i].waitCycles));
            reg.addScalar(core + ".fillWords",
                          "words this core pulled through its port",
                          static_cast<double>(ports[i].readWords));
        }
    }
}

} // namespace scalesim::multicore
