#include "core/simulator.hpp"

#include <algorithm>
#include <ostream>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "core/result_record.hpp"
#include "multicore/tensor_core.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "systolic/demand.hpp"

namespace scalesim::core
{

namespace
{

/**
 * Writes a result-record walk into an open JSON object or into a stats
 * registry. Stats: an entry's stat name registers a scalar, a formula
 * (`num / den`), or, inside a group with a stat name, an element of
 * that vector.
 */
struct RecordWriter
{
    obs::JsonWriter* json = nullptr;
    obs::StatsRegistry* reg = nullptr;
    /** The enclosing vector-stat group, if any. */
    const ResultField* vector = nullptr;
    /** False: leave out nested objects (keyless groups still count). */
    bool nested = true;

    void
    field(const ResultField& f, const auto& value)
    {
        if (json && f.key && f.use != ResultUse::PayloadOnly)
            json->field(f.key, value);
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(value)>>) {
            if (reg)
                stat(f, static_cast<double>(value));
        }
    }

    void
    stat(const ResultField& f, double value)
    {
        if (vector && f.use != ResultUse::Derived) {
            reg->addVectorElem(vector->stat, f.elem ? f.elem : f.key,
                               vector->desc, value);
        } else if (!vector && f.num) {
            obs::FormulaSpec ratio;
            ratio.numerator = {{f.num, 1.0}};
            ratio.denominator = {{f.den, 1.0}};
            reg->addFormula(f.stat, f.desc, std::move(ratio));
        } else if (!vector && f.stat) {
            reg->addScalar(f.stat, f.desc, value);
        }
    }

    void
    group(const ResultField& g, bool shown, const auto& body)
    {
        if (!shown || g.use == ResultUse::PayloadOnly || (g.key && !nested))
            return;
        const ResultField* outer = vector;
        if (g.stat)
            vector = &g;
        if (json && g.key)
            json->key(g.key).beginObject();
        body();
        if (json && g.key)
            json->endObject();
        vector = outer;
    }

    template <typename T>
    void
    optional(const ResultField& g, const std::optional<T>& value,
             const auto& body)
    {
        group(g, value.has_value(), [&] { body(*value); });
    }
};

} // namespace

Simulator::Simulator(const SimConfig& cfg)
    : cfg_(cfg)
{
    cfg_.validate();
    init();
}

void
Simulator::init()
{
    if (cfg_.dram.enabled) {
        dram_ = std::make_unique<dram::DramMemory>(cfg_.dram,
                                                   cfg_.memory.wordBytes);
        memory_ = dram_.get();
    } else {
        bandwidthMemory_ = std::make_unique<systolic::BandwidthMemory>(
            cfg_.memory.bandwidthWordsPerCycle);
        memory_ = bandwidthMemory_.get();
    }
    if (traces_) {
        tracer_ = std::make_unique<systolic::TracingMemory>(
            *memory_, cfg_.memory.wordBytes);
        memory_ = tracer_.get();
    }

    systolic::ScratchpadConfig spad;
    spad.ifmapWords = sramWords(cfg_.memory.ifmapSramKb);
    spad.filterWords = sramWords(cfg_.memory.filterSramKb);
    spad.ofmapWords = sramWords(cfg_.memory.ofmapSramKb);
    spad.readQueueSize = cfg_.dram.readQueueSize;
    spad.writeQueueSize = cfg_.dram.writeQueueSize;
    spad.burstWords = cfg_.memory.burstWords;
    spad.issuePerCycle = cfg_.memory.issuePerCycle;
    spad.prefetchDepth = cfg_.memory.prefetchDepth;
    spad.recordFoldSpans = cfg_.memory.recordFoldSpans;
    scratchpad_ = std::make_unique<systolic::DoubleBufferedScratchpad>(
        spad, *memory_);

    if (cfg_.energy.enabled) {
        const double sram_kb = static_cast<double>(
            cfg_.memory.ifmapSramKb + cfg_.memory.filterSramKb
            + cfg_.memory.ofmapSramKb);
        energyModel_ = std::make_unique<energy::EnergyModel>(
            energy::Ert::forNode(cfg_.energy.node), cfg_.energy,
            cfg_.numPes(), sram_kb);
    }
    if (cfg_.audit)
        auditor_ = std::make_unique<check::InvariantAuditor>();
}

Simulator::~Simulator() = default;

void
Simulator::reset()
{
    // Rebuild every stateful component from the config, exactly as the
    // constructor does: the memory models carry row-buffer, refresh,
    // and bus-occupancy state, the scratchpad holds queue/prefetch
    // state, and the auditor accumulates checks. Dropping them first
    // releases the scratchpad's reference into the old memory model.
    scratchpad_.reset();
    tracer_.reset();
    dram_.reset();
    bandwidthMemory_.reset();
    memory_ = nullptr;
    energyModel_.reset();
    auditor_.reset();
    init();
    timeline_ = 0;
    foldCacheStats_ = {};
    layoutFoldsMemoized_ = 0;
    layoutFoldsWalked_ = 0;
    profiler_.reset();
    ranOnce_ = false;
}

void
Simulator::attachTraces(const TraceOutputs& outputs)
{
    traces_ = outputs;
    reset();
}

std::uint64_t
Simulator::sramWords(std::uint64_t kb) const
{
    const std::uint32_t word_bytes = std::max<std::uint32_t>(
        1, cfg_.memory.wordBytes);
    return kb * 1024 / word_bytes;
}

LayerResult
Simulator::runLayer(const LayerSpec& layer, std::uint64_t layer_index)
{
    const SimProfiler::clock::time_point layer_start =
        SimProfiler::clock::now();
    const dram::DramStats dram_before = dram_
        ? dram_->system().totalStats() : dram::DramStats{};
    LayerResult result;
    result.name = layer.name;
    result.repetitions = layer.repetitions;
    result.denseGemm = layer.toGemm();

    // 1. Sparsity resolution (§IV).
    std::optional<sparse::SparseLayerModel> sparse_model_storage;
    {
        const auto prof = profiler_.scope(SimPhase::Sparsity);
        sparse_model_storage.emplace(layer, cfg_.sparsity, layer_index);
    }
    sparse::SparseLayerModel& sparse_model = *sparse_model_storage;
    result.effectiveGemm = sparse_model.effectiveGemm();
    if (sparse_model.active())
        result.sparse = sparse_model.report(cfg_.memory.wordBytes * 8);

    const systolic::OperandMap operands = cfg_.memory.im2colAddressing
        ? systolic::OperandMap::forLayer(layer, cfg_.memory)
        : systolic::OperandMap(result.denseGemm, cfg_.memory);
    const systolic::FoldGrid grid(result.effectiveGemm, cfg_.dataflow,
                                  cfg_.arrayRows, cfg_.arrayCols);
    // Compute utilization of the run that actually executes (the
    // effective, post-sparsity GEMM); the dense/effective gain is
    // reported separately as `speedup` so utilization stays <= 1.
    const double pe_cycles = static_cast<double>(grid.totalCycles())
        * static_cast<double>(cfg_.numPes());
    result.utilization = pe_cycles > 0.0
        ? static_cast<double>(result.effectiveGemm.macs()) / pe_cycles
        : 0.0;
    if (result.effectiveGemm.k != result.denseGemm.k
        && grid.totalCycles() > 0) {
        const systolic::FoldGrid dense_grid(result.denseGemm,
                                            cfg_.dataflow,
                                            cfg_.arrayRows,
                                            cfg_.arrayCols);
        result.speedup = static_cast<double>(dense_grid.totalCycles())
            / static_cast<double>(grid.totalCycles());
    }
    result.mappingEfficiency = grid.mappingEfficiency();

    // 2. Demand-driven pass: one generation of the layer's per-cycle
    //    demand feeds every sink that wants it. In trace mode those are
    //    the layout slowdown and the exact energy action counts; with
    //    traces attached, the SRAM trace writer too, in either mode.
    //    Sparse layers have cycle-level demand only under WS.
    std::optional<layout::BankConflictEvaluator> layout_eval;
    std::optional<energy::ActionCountVisitor> action_visitor;
    std::optional<systolic::SramTraceWriter> trace_writer;
    std::vector<systolic::DemandVisitor*> sinks;
    if (!sparse_model.active()
        || cfg_.dataflow == Dataflow::WeightStationary) {
        const bool trace_mode = cfg_.mode == SimMode::Trace;
        if (trace_mode && cfg_.layout.enabled) {
            layout_eval.emplace(
                cfg_.layout,
                layout::OperandLayouts::forOperands(
                    operands, cfg_.layout,
                    layout::LayoutScheme::RowMajor));
            sinks.push_back(&*layout_eval);
        }
        if (trace_mode && cfg_.energy.enabled) {
            action_visitor.emplace(cfg_.energy);
            sinks.push_back(&*action_visitor);
        }
        if (traces_) {
            trace_writer.emplace(traces_->ifmapReads,
                                 traces_->filterReads,
                                 traces_->ofmapWrites,
                                 traces_->ofmapReads);
            sinks.push_back(&*trace_writer);
        }
    }
    if (!sinks.empty()) {
        const sparse::SparsityPattern* gather = sparse_model.active()
            ? &sparse_model.pattern() : nullptr;
        systolic::DemandGenerator generator(
            result.denseGemm, cfg_.dataflow, cfg_.arrayRows,
            cfg_.arrayCols, operands, gather);
        systolic::TeeVisitor tee(std::move(sinks));
        {
            const auto prof = profiler_.scope(SimPhase::DemandGen);
            generator.run(tee);
        }
        foldCacheStats_.merge(generator.foldCacheStats());
        if (layout_eval) {
            layoutFoldsMemoized_ += layout_eval->foldsMemoized();
            layoutFoldsWalked_ += layout_eval->foldsWalked();
        }
        // Audits run outside every profiler phase so that --audit does
        // not inflate the per-phase seconds.
        if (auditor_ && layout_eval) {
            auditor_->auditLayoutReplayFidelity(generator, *layout_eval,
                                                result.name);
        }
        if (auditor_ && action_visitor) {
            // Audit the raw per-layer counts before stall/SIMD cycles
            // and sparse-metadata reads are folded in below; the
            // demand-agreement half only holds for the dense stream.
            auditor_->auditEnergyActions(action_visitor->counts(),
                                         generator.grid(),
                                         !sparse_model.active(),
                                         result.name);
        }
    }
    if (layout_eval)
        result.layoutSlowdown = layout_eval->slowdown();

    // 3. Memory-system timing (§V): fold-level prefetch scheduling
    //    against the configured main memory through finite queues. The
    //    running timeline keeps the memory model's clock aligned with
    //    compute across layers.
    scratchpad_->reset();
    {
        // The detailed DRAM model runs inside the timing pass; charge
        // the pass to whichever memory model is driving it.
        const auto prof = profiler_.scope(
            dram_ ? SimPhase::Dram : SimPhase::Scratchpad);
        result.timing = scratchpad_->runLayer(grid, operands, timeline_,
                                              result.layoutSlowdown);
    }
    result.computeCycles = result.timing.computeCycles;
    result.totalCycles = result.timing.totalCycles;
    result.stallCycles = result.timing.stallCycles;
    if (auditor_) {
        auditor_->auditStallAccounting(result.timing, result.name);
        auditor_->auditRuntimeEnvelope(result.timing, grid,
                                       result.layoutSlowdown,
                                       result.name);
        if (cfg_.mode == SimMode::Trace && !sparse_model.active()) {
            auditor_->auditFoldReplayFidelity(
                result.denseGemm, cfg_.dataflow, cfg_.arrayRows,
                cfg_.arrayCols, operands, result.name);
        }
    }

    // Element-wise tail on the vector unit, serialized after the
    // matrix part (§III-C).
    if (layer.tail != VectorTail::None) {
        multicore::SimdConfig simd;
        simd.lanes = cfg_.simdLanes;
        simd.latencyPerOp = cfg_.simdLatencyPerOp;
        result.simdCycles = multicore::simdCycles(
            simd, layer.tail, result.denseGemm.m * result.denseGemm.n);
        result.totalCycles += result.simdCycles;
    }
    // Finalize the layer's CPI stack: the scratchpad attributed every
    // matrix-phase cycle; the serialized vector tail is its own
    // bucket, keeping cpi.total() == totalCycles.
    result.cpi = result.timing.cpi;
    result.cpi.vectorUnit = result.simdCycles;
    if (auditor_)
        auditor_->auditCpiStack(result.cpi, result.totalCycles,
                                result.name);
    timeline_ += result.timing.totalCycles
        * std::max<std::uint32_t>(1, layer.repetitions);

    // 4. Energy (§VII).
    if (cfg_.energy.enabled) {
        const auto prof = profiler_.scope(SimPhase::Energy);
        if (action_visitor) {
            result.actions = action_visitor->counts();
        } else {
            result.actions = energy::analyticalActionCounts(grid,
                                                            cfg_.energy);
            if (auditor_) {
                auditor_->auditEnergyActions(result.actions, grid, true,
                                             result.name);
            }
        }
        // Stall and vector-tail cycles burn static + idle energy too.
        result.actions.cycles += result.stallCycles
            + result.simdCycles;
        if (result.sparse) {
            // Compressed-format metadata (intra-block indices /
            // pointers) is read alongside the filter values (§IV-C).
            const std::uint64_t word_bits = std::max<std::uint32_t>(
                1, cfg_.memory.wordBytes) * 8;
            result.actions.filterSram.readRandom +=
                ceilDiv(result.sparse->metadataBits, word_bits);
        }
        if (layer.tail != VectorTail::None) {
            std::uint64_t passes = 1;
            if (layer.tail == VectorTail::Softmax)
                passes = 3;
            result.actions.vectorOps = result.denseGemm.m
                * result.denseGemm.n * passes;
        }
        result.actions.dramReadWords = result.timing.dramReadWords;
        result.actions.dramWriteWords = result.timing.dramWriteWords;
        result.energyBreakdown = energyModel_->energy(result.actions);
        if (dram_) {
            // Replace the flat per-word DRAM estimate with the
            // command-granular one derived from the controller stats.
            const dram::DramStats after = dram_->system().totalStats();
            result.energyBreakdown.dram =
                energyModel_->dramCommandEnergyPj(
                    after.rowMisses + after.rowConflicts
                        - dram_before.rowMisses
                        - dram_before.rowConflicts,
                    after.reads - dram_before.reads,
                    after.writes - dram_before.writes,
                    after.refreshes - dram_before.refreshes);
        }
        result.powerW = energyModel_->averagePowerW(
            result.energyBreakdown, result.totalCycles);
    }
    profiler_.chargeLayer(std::chrono::duration<double>(
                              SimProfiler::clock::now() - layer_start)
                              .count());
    return result;
}

RunResult
Simulator::run(const Topology& topology)
{
    // A second run() on the same object must be bit-identical to a run
    // on a freshly constructed Simulator: without this, DRAM stats and
    // row-buffer state, the running timeline, and fold-cache counters
    // all leak from the first run into the second.
    if (ranOnce_)
        reset();
    ranOnce_ = true;
    RunResult run;
    run.runName = cfg_.runName;
    run.workload = topology.name;
    run.layers.reserve(topology.layers.size());

    // Periodic registry snapshots along the simulated timeline. The
    // snapshot combines the run-level partial totals with the
    // cumulative component state, under the same names the final
    // registry uses, so time-series columns line up with stats.json.
    obs::IntervalSampler sampler(cfg_.intervalCycles);
    auto snapshot = [&](obs::StatsRegistry& snap) {
        RecordWriter record{.reg = &snap};
        walkRunCounters(run, record);
        registerStats(snap);
    };

    for (std::size_t i = 0; i < topology.layers.size(); ++i) {
        run.addLayer(runLayer(topology.layers[i], i), energyModel_.get());
        if (sampler.enabled()) {
            obs::StatsRegistry snap;
            snapshot(snap);
            sampler.sample(timeline_, snap);
        }
    }
    if (sampler.enabled()) {
        obs::StatsRegistry snap;
        snapshot(snap);
        sampler.finish(timeline_, snap);
        run.intervals = sampler.takeSeries();
    }
    if (dram_)
        run.dramStats = dram_->system().totalStats();
    run.profile = profiler_.snapshot();
    if (auditor_) {
        // Re-sum the per-layer results independently of the running
        // accumulation above, so drift between the two bookkeeping
        // paths is caught.
        Cycle sum_total = 0, sum_compute = 0, sum_stall = 0;
        std::uint64_t sum_read = 0, sum_write = 0;
        for (const auto& l : run.layers) {
            const std::uint64_t reps = l.repetitions;
            sum_total += l.totalCycles * reps;
            sum_compute += l.computeCycles * reps;
            sum_stall += l.stallCycles * reps;
            sum_read += l.timing.dramReadWords * reps;
            sum_write += l.timing.dramWriteWords * reps;
        }
        auditor_->auditRunTotals(run.totalCycles, run.computeCycles,
                                 run.stallCycles, run.dramReadWords,
                                 run.dramWriteWords, sum_total,
                                 sum_compute, sum_stall, sum_read,
                                 sum_write, "run");
        auditor_->auditCpiStack(run.cpiTotals, run.totalCycles, "run");
        auditor_->auditFoldCacheConservation(foldCacheStats_, "run");
        auditor_->auditMemoryTraffic(scratchpad_->totals(),
                                     memory_->stats(), "run");
        if (dram_)
            auditor_->auditDramSystem(dram_->system(), "dram");
        run.audited = true;
        run.audit = auditor_->report();
    }
    run.registerStats(run.stats);
    registerStats(run.stats);
    return run;
}

void
RunResult::addLayer(LayerResult layer, const energy::EnergyModel* energy)
{
    const std::uint64_t reps = layer.repetitions;
    totalCycles += layer.totalCycles * reps;
    computeCycles += layer.computeCycles * reps;
    stallCycles += layer.stallCycles * reps;
    dramReadWords += layer.timing.dramReadWords * reps;
    dramWriteWords += layer.timing.dramWriteWords * reps;
    cpiTotals.accumulate(layer.cpi, reps);
    if (energy) {
        energy::EnergyBreakdown scaled = layer.energyBreakdown;
        scaled.peArray *= static_cast<double>(reps);
        scaled.glb *= static_cast<double>(reps);
        scaled.noc *= static_cast<double>(reps);
        scaled.dram *= static_cast<double>(reps);
        scaled.staticE *= static_cast<double>(reps);
        totalEnergy.merge(scaled);
        // One instantaneous-power sample per layer instance.
        for (std::uint64_t r = 0; r < reps; ++r) {
            powerTrace.push_back({layer.name, layer.totalCycles,
                                  layer.powerW});
        }
        avgPowerW = energy->averagePowerW(totalEnergy, totalCycles);
        edp = energy->edp(totalEnergy, totalCycles);
    }
    layers.push_back(std::move(layer));
}

void
Simulator::registerStats(obs::StatsRegistry& reg) const
{
    if (dram_)
        dram_->system().registerStats(reg, "dram");
    scratchpad_->registerStats(reg, "spad");

    // Fold-replay demand cache. These counters describe the
    // simulator's own work, not the modeled hardware: they are the
    // only stats allowed to differ from a live walk of every fold.
    reg.addScalar("sim.foldCache.folds", "demand folds generated",
                  static_cast<double>(foldCacheStats_.foldsTotal));
    reg.addScalar("sim.foldCache.replayed",
                  "folds replayed from a cached canonical fold",
                  static_cast<double>(foldCacheStats_.foldsReplayed));
    reg.addScalar("sim.foldCache.live",
                  "folds generated live (captures + fallbacks)",
                  static_cast<double>(foldCacheStats_.foldsLive));
    reg.addScalar("sim.foldCache.addrsReplayed",
                  "addresses emitted from cache arenas",
                  static_cast<double>(foldCacheStats_.addrsReplayed));
    reg.addScalar("sim.foldCache.bytesSaved",
                  "address bytes that skipped live generation",
                  static_cast<double>(foldCacheStats_.bytesSaved()));
    reg.addScalar("sim.foldCache.layoutMemoized",
                  "folds the layout sink took from its replay memo",
                  static_cast<double>(layoutFoldsMemoized_));
    reg.addScalar("sim.foldCache.layoutWalked",
                  "folds the layout sink evaluated cycle by cycle",
                  static_cast<double>(layoutFoldsWalked_));
    obs::FormulaSpec hit_rate;
    hit_rate.numerator = {{"sim.foldCache.replayed", 1.0}};
    hit_rate.denominator = {{"sim.foldCache.folds", 1.0}};
    reg.addFormula("sim.foldCache.hitRate",
                   "replayed / folds", hit_rate);

    const systolic::MemoryStats& mem = memory_->stats();
    reg.addScalar("mem.readRequests", "main-memory read requests",
                  static_cast<double>(mem.readRequests));
    reg.addScalar("mem.writeRequests", "main-memory write requests",
                  static_cast<double>(mem.writeRequests));
    reg.addScalar("mem.readWords", "main-memory words read",
                  static_cast<double>(mem.readWords));
    reg.addScalar("mem.writeWords", "main-memory words written",
                  static_cast<double>(mem.writeWords));
    reg.addScalar("mem.totalReadLatency",
                  "summed read round-trips (core cycles)",
                  static_cast<double>(mem.totalReadLatency));
    obs::FormulaSpec read_lat;
    read_lat.numerator = {{"mem.totalReadLatency", 1.0}};
    read_lat.denominator = {{"mem.readRequests", 1.0}};
    reg.addFormula("mem.avgReadLatency",
                   "mean read round-trip (core cycles)", read_lat);
}

namespace
{

std::string
fmtDouble(double v)
{
    return format("%.4f", v);
}

} // namespace

void
RunResult::writeSummary(std::ostream& out) const
{
    auto stat = [&](const char* name, const std::string& value,
                    const char* desc) {
        out << format("%-32s %20s  # %s\n", name, value.c_str(), desc);
    };
    out << "---------- " << runName << " on " << workload
        << " ----------\n";
    stat("sim.layers", std::to_string(layers.size()),
         "distinct layers simulated");
    stat("sim.totalCycles", std::to_string(totalCycles),
         "wall-clock cycles incl. stalls");
    stat("sim.computeCycles", std::to_string(computeCycles),
         "ideal compute cycles");
    stat("sim.stallCycles", std::to_string(stallCycles),
         "memory stall cycles");
    stat("sim.stallFraction",
         format("%.4f", totalCycles ? static_cast<double>(stallCycles)
                    / totalCycles : 0.0),
         "stalls / total");
    stat("mem.dramReadWords", std::to_string(dramReadWords),
         "main-memory words read");
    stat("mem.dramWriteWords", std::to_string(dramWriteWords),
         "main-memory words written");
    if (dramStats.reads + dramStats.writes > 0) {
        stat("dram.rowHitRate", format("%.4f", dramStats.rowHitRate()),
             "row-buffer hit rate");
        stat("dram.avgReadLatency",
             format("%.2f", dramStats.avgReadLatency()),
             "memory clocks");
        stat("dram.refreshes", std::to_string(dramStats.refreshes),
             "all-bank refreshes");
    }
    if (totalEnergy.totalPj() > 0.0) {
        stat("energy.total_mJ", format("%.4f", totalEnergy.totalMj()),
             "total incl. DRAM");
        stat("energy.onChip_mJ",
             format("%.4f", totalEnergy.onChipMj()),
             "PE + GLB + NoC + static");
        stat("energy.avgPower_W", format("%.4f", avgPowerW),
             "average power");
        stat("energy.edp", format("%.4g", edp), "cycles x mJ");
    }
    if (audited) {
        stat("sim.audit.checks", std::to_string(audit.checks()),
             "invariant relations evaluated");
        stat("sim.audit.violations",
             std::to_string(audit.violations().size()),
             "conservation laws found broken");
        audit.writeReport(out);
    }
    if (profile.layersProfiled > 0)
        profile.writeReport(out);
}

void
RunResult::writeComputeReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"LayerID", "LayerName", "Reps", "M", "N", "K",
                  "EffK", "ComputeCycles", "StallCycles", "SimdCycles",
                  "TotalCycles", "Utilization", "Speedup",
                  "MappingEfficiency", "LayoutSlowdown"});
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const auto& l = layers[i];
        csv.writeRow({std::to_string(i), l.name,
                      std::to_string(l.repetitions),
                      std::to_string(l.denseGemm.m),
                      std::to_string(l.denseGemm.n),
                      std::to_string(l.denseGemm.k),
                      std::to_string(l.effectiveGemm.k),
                      std::to_string(l.computeCycles),
                      std::to_string(l.stallCycles),
                      std::to_string(l.simdCycles),
                      std::to_string(l.totalCycles),
                      fmtDouble(l.utilization),
                      fmtDouble(l.speedup),
                      fmtDouble(l.mappingEfficiency),
                      fmtDouble(l.layoutSlowdown)});
    }
}

void
RunResult::writePowerReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"Epoch", "Layer", "StartCycle", "Cycles", "Power_W"});
    Cycle start = 0;
    for (std::size_t i = 0; i < powerTrace.size(); ++i) {
        const auto& sample = powerTrace[i];
        csv.writeRow({std::to_string(i), sample.label,
                      std::to_string(start),
                      std::to_string(sample.cycles),
                      fmtDouble(sample.powerW)});
        start += sample.cycles;
    }
    csv.writeRow({"AVG", "", "", std::to_string(totalCycles),
                  fmtDouble(avgPowerW)});
}

void
RunResult::writeBandwidthReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"LayerID", "LayerName", "DramReadWords",
                  "DramWriteWords", "AvgReadBW_words_per_cycle",
                  "AvgWriteBW_words_per_cycle", "AvgReadLatency",
                  "ReadQueueStalls", "WriteQueueStalls"});
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const auto& l = layers[i];
        csv.writeRow({std::to_string(i), l.name,
                      std::to_string(l.timing.dramReadWords),
                      std::to_string(l.timing.dramWriteWords),
                      fmtDouble(l.timing.readBandwidth()),
                      fmtDouble(l.timing.writeBandwidth()),
                      fmtDouble(l.timing.avgReadLatency),
                      std::to_string(l.timing.readQueueStalls),
                      std::to_string(l.timing.writeQueueStalls)});
    }
}

void
RunResult::writeSparseReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"LayerName", "SparsityRep", "RatioN", "RatioM",
                  "DenseK", "CompressedK", "OriginalFilterBits",
                  "NewFilterBits", "MetadataBits"});
    for (const auto& l : layers) {
        if (!l.sparse)
            continue;
        const auto& s = *l.sparse;
        csv.writeRow({s.layerName, s.representation,
                      std::to_string(s.ratioN), std::to_string(s.ratioM),
                      std::to_string(s.denseK),
                      std::to_string(s.compressedK),
                      std::to_string(s.originalFilterBits),
                      std::to_string(s.newFilterBits),
                      std::to_string(s.metadataBits)});
    }
}

void
RunResult::writeEnergyReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"LayerName", "PEArray_pJ", "GLB_pJ", "NoC_pJ",
                  "DRAM_pJ", "Static_pJ", "Total_pJ", "Power_W"});
    for (const auto& l : layers) {
        const auto& e = l.energyBreakdown;
        csv.writeRow({l.name, fmtDouble(e.peArray), fmtDouble(e.glb),
                      fmtDouble(e.noc), fmtDouble(e.dram),
                      fmtDouble(e.staticE), fmtDouble(e.totalPj()),
                      fmtDouble(l.powerW)});
    }
    csv.writeRow({"TOTAL", fmtDouble(totalEnergy.peArray),
                  fmtDouble(totalEnergy.glb), fmtDouble(totalEnergy.noc),
                  fmtDouble(totalEnergy.dram),
                  fmtDouble(totalEnergy.staticE),
                  fmtDouble(totalEnergy.totalPj()),
                  fmtDouble(avgPowerW)});
}

void
RunResult::registerStats(obs::StatsRegistry& reg) const
{
    RecordWriter record{.reg = &reg};
    walkRunTotals(*this, record);
    for (const auto& l : layers) {
        if (l.sparse)
            walkSparseReport(*l.sparse, record);
    }
    if (audited)
        audit.registerStats(reg);
}

void
RunResult::writeStats(std::ostream& out) const
{
    stats.dump(out);
}

void
RunResult::writeStatsJson(std::ostream& out) const
{
    stats.dumpJson(out);
}

void
RunResult::writeRecord(obs::JsonWriter& json, bool layerDetail) const
{
    RecordWriter record{.json = &json};
    walkRunTotals(*this, record);

    if (audited) {
        json.key("audit").beginObject();
        json.field("checks", audit.checks());
        json.field("clean", audit.clean());
        json.key("violations").beginArray();
        for (const auto& v : audit.violations()) {
            json.beginObject();
            json.field("law", v.law);
            json.field("scope", v.scope);
            json.field("message", v.message);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    record.nested = layerDetail;
    json.key("layers").beginArray();
    for (const auto& l : layers) {
        json.beginObject();
        walkLayerResult(l, record);
        json.endObject();
    }
    json.endArray();

    if (layerDetail && !powerTrace.empty()) {
        json.key("powerTrace").beginArray();
        for (const auto& sample : powerTrace) {
            json.beginObject();
            json.field("layer", sample.label);
            json.field("cycles", sample.cycles);
            json.field("power_W", sample.powerW);
            json.endObject();
        }
        json.endArray();
    }
}

void
RunResult::writeJson(std::ostream& out) const
{
    obs::JsonWriter json(out);
    json.beginObject();
    writeRecord(json);
    json.key("profile").beginObject();
    json.field("layersProfiled", profile.layersProfiled);
    json.field("totalSeconds", profile.totalSeconds);
    json.field("peakRssKb", profile.peakRssKb);
    json.key("phaseSeconds").beginObject();
    for (unsigned p = 0; p < kNumSimPhases; ++p) {
        json.field(toString(static_cast<SimPhase>(p)),
                   profile.phaseSeconds[p]);
    }
    json.field("other", profile.otherSeconds());
    json.endObject();
    json.endObject();
    json.endObject();
    out << '\n';
}

void
RunResult::writeChromeTrace(std::ostream& out) const
{
    obs::TraceBuilder trace;
    trace.setProcessName(0, runName.empty() ? "accelerator" : runName);
    trace.setThreadName(0, 0, "layers");
    trace.setThreadName(0, 1, "phases");
    bool any_folds = false;
    for (const auto& l : layers)
        any_folds = any_folds || !l.timing.foldSpans.empty();
    if (any_folds)
        trace.setThreadName(0, 2, "folds");
    trace.addMetadata("workload", workload);
    trace.addMetadata("timeUnit", "1 trace us = 1 accelerator cycle");

    Cycle now = 0;
    for (const auto& l : layers) {
        const std::uint64_t reps = std::max<std::uint32_t>(
            1, l.repetitions);
        const Cycle all_reps = l.totalCycles * reps;
        trace.addSpan(0, 0, l.name, "layer", now,
                      std::max<Cycle>(1, all_reps),
                      {{"repetitions", static_cast<double>(reps)},
                       {"utilization", l.utilization},
                       {"stallCycles",
                        static_cast<double>(l.stallCycles * reps)}});
        // Phase spans cover the first instance only; repetitions
        // replay the same schedule.
        const Cycle matrix = l.timing.totalCycles;
        trace.addSpan(0, 1, "matrix", "phase", now,
                      std::max<Cycle>(1, matrix),
                      {{"computeCycles",
                        static_cast<double>(l.computeCycles)},
                       {"stallCycles",
                        static_cast<double>(l.stallCycles)}});
        if (l.simdCycles > 0) {
            trace.addSpan(0, 1, "vector_tail", "phase", now + matrix,
                          std::max<Cycle>(1, l.simdCycles));
        }
        for (const auto& span : l.timing.foldSpans) {
            trace.addSpan(0, 2, "fold", "fold", now + span.start,
                          std::max<Cycle>(1, span.end - span.start),
                          {{"rowFold", static_cast<double>(
                                span.rowFold)},
                           {"colFold", static_cast<double>(
                                span.colFold)}});
        }
        trace.addCounter(0, "utilization", now, "util", l.utilization);
        if (l.powerW > 0.0)
            trace.addCounter(0, "power_W", now, "power", l.powerW);
        now += all_reps;
    }
    // Close every counter track at the end of the run.
    trace.addCounter(0, "utilization", now, "util", 0.0);
    if (avgPowerW > 0.0)
        trace.addCounter(0, "power_W", now, "power", 0.0);
    if (!intervals.empty()) {
        // Per-interval deltas as Perfetto counter tracks: the CPI
        // stack (where did this window's cycles go), main-memory
        // traffic, and DRAM activity (row outcomes, queue occupancy
        // samples) when the detailed model ran.
        intervals.toCounterTracks(trace, 0, "sim.cpistack", "cpistack");
        intervals.toCounterTracks(trace, 0, "mem", "mem");
        intervals.toCounterTracks(trace, 0, "dram.reads", "dram");
        intervals.toCounterTracks(trace, 0, "dram.rowHits", "dram");
        intervals.toCounterTracks(trace, 0, "dram.rowConflicts",
                                  "dram");
    }
    trace.write(out);
}

} // namespace scalesim::core
