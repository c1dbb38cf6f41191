/**
 * @file
 * Benchmark probe: drives the simulator's modules through their public
 * functions, one call at a time, so the benchmark can time each module
 * from outside the simulator. run.py is its only caller.
 *
 *   probe setup       <cfg> <workload> [PRxPC]
 *   probe overhead    <cfg> <workload>
 *   probe trace       <cfg> <workload> <out_dir> <chrome.json>
 *   probe trace-mc    <cfg> <workload> <PRxPC> <chrome.json>
 *   probe trace-serve <base.cfg> <requests.ndjson> <chrome.json>
 *
 * Every subcommand prints one JSON object on stdout.
 *
 * The traced subcommands re-run the pipeline of Simulator::runLayer
 * (trace), the multi-core CLI loop (trace-mc) and the layer-isolated
 * cached runner behind scalesim_serve (trace-serve) component by
 * component, record one span per call in memory, and write the spans
 * as a Chrome trace at exit. Calls too frequent to record one by one
 * (a demand sink's fold, a main-memory request) are summed into one
 * aggregate child span per parent. `trace` then checks its
 * layoutSlowdown, action counts and per-layer timing against an
 * untimed core::Simulator run of the same config, so the split it
 * reports is the split of the program users run.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "core/simulator.hpp"
#include "dram/system.hpp"
#include "energy/action_counts.hpp"
#include "energy/model.hpp"
#include "layout/layout.hpp"
#include "multicore/tensor_core.hpp"
#include "multicore/trace_sim.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "serve/cached_runner.hpp"
#include "sparse/model.hpp"
#include "systolic/demand.hpp"
#include "systolic/memory.hpp"
#include "systolic/scratchpad.hpp"

using namespace scalesim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Spans

struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the tracer's origin
    double end = 0.0;
    int parent = -1;
    std::int64_t request = -1;
    /** Seconds of this span covered by its children. */
    double childSeconds = 0.0;
    /** Calls summed into an aggregate span (1 for a plain span). */
    std::uint64_t calls = 1;
    bool aggregate = false;
};

/** In-memory span recorder of one thread; see file comment. */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer& tracer, int id) : tracer_(tracer), id_(id) {}
        ~Scope() { tracer_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        int id() const { return id_; }

      private:
        Tracer& tracer_;
        int id_;
    };

    double now() const { return secondsSince(origin_); }

    Scope
    scope(const std::string& name, std::int64_t request = -1)
    {
        Span span;
        span.name = name;
        span.start = now();
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.request = request;
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return Scope(*this, stack_.back());
    }

    /**
     * Record `seconds` spent in `calls` calls to `name` inside the
     * span `parent` (still open), without a span per call.
     */
    void
    aggregate(int parent, const std::string& name, double seconds,
              std::uint64_t calls)
    {
        if (calls == 0)
            return;
        Span span;
        span.name = name;
        span.start = spans_[parent].start;
        span.end = span.start + seconds;
        span.parent = parent;
        span.request = spans_[parent].request;
        span.calls = calls;
        span.aggregate = true;
        spans_[parent].childSeconds += seconds;
        spans_.push_back(std::move(span));
    }

    /** Self seconds summed by span name. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::map<std::string, double> self;
        for (const auto& s : spans_)
            self[s.name] += (s.end - s.start) - s.childSeconds;
        return self;
    }

    void
    writeChrome(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        obs::JsonWriter json(out, /*pretty=*/false);
        json.beginObject();
        json.key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            json.beginObject();
            json.field("name", s.name);
            json.field("ph", "X");
            json.field("pid", 1);
            // Aggregates sit on their own track: they are sums placed
            // at the parent's start, not intervals of their own.
            json.field("tid", s.aggregate ? 2 : 1);
            json.field("ts", s.start * 1e6);
            json.field("dur", (s.end - s.start) * 1e6);
            json.key("args").beginObject();
            json.field("id", static_cast<std::uint64_t>(i));
            json.field("parent", static_cast<std::int64_t>(s.parent));
            json.field("request", static_cast<std::int64_t>(s.request));
            json.field("self_us",
                       ((s.end - s.start) - s.childSeconds) * 1e6);
            json.field("calls", s.calls);
            json.field("aggregate", s.aggregate);
            json.endObject();
            json.endObject();
        }
        json.endArray();
        json.endObject();
        out << "\n";
    }

  private:
    void
    end(int id)
    {
        Span& span = spans_[id];
        span.end = now();
        stack_.pop_back();
        if (span.parent >= 0)
            spans_[span.parent].childSeconds += span.end - span.start;
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------
// Timed adapters around the modules' interfaces

/**
 * Demand visitor that buffers one fold of the generator's stream and
 * then replays it into each sink in turn, timing each sink per fold:
 * two clock reads per fold and sink instead of per cycle. Every sink
 * sees exactly the call sequence the Simulator's TeeVisitor gives it.
 */
class TimedTee : public systolic::DemandVisitor
{
  public:
    struct Sink
    {
        systolic::DemandVisitor* visitor = nullptr;
        double seconds = 0.0;
        std::uint64_t folds = 0;
    };

    explicit TimedTee(std::vector<Sink*> sinks) : sinks_(std::move(sinks))
    {}

    void
    beginLayer(const systolic::FoldGrid& grid,
               const systolic::OperandMap& operands) override
    {
        for (Sink* s : sinks_) {
            const auto t0 = Clock::now();
            s->visitor->beginLayer(grid, operands);
            s->seconds += secondsSince(t0);
        }
    }

    void
    beginFold(std::uint64_t rf, std::uint64_t cf, Cycle start) override
    {
        rf_ = rf;
        cf_ = cf;
        foldStart_ = start;
        clk_.clear();
        for (auto& s : streams_) {
            s.addrs.clear();
            s.begin.assign(1, 0);
        }
    }

    void
    cycle(Cycle clk, std::span<const Addr> ifmap_reads,
          std::span<const Addr> filter_reads,
          std::span<const Addr> ofmap_reads,
          std::span<const Addr> ofmap_writes) override
    {
        clk_.push_back(clk);
        const std::span<const Addr> in[4] = {ifmap_reads, filter_reads,
                                             ofmap_reads, ofmap_writes};
        for (int i = 0; i < 4; ++i) {
            streams_[i].addrs.insert(streams_[i].addrs.end(),
                                     in[i].begin(), in[i].end());
            streams_[i].begin.push_back(streams_[i].addrs.size());
            addrs_ += in[i].size();
        }
    }

    void
    endFold(std::uint64_t rf, std::uint64_t cf, Cycle end) override
    {
        for (Sink* s : sinks_) {
            const auto t0 = Clock::now();
            s->visitor->beginFold(rf_, cf_, foldStart_);
            for (std::size_t c = 0; c < clk_.size(); ++c) {
                s->visitor->cycle(clk_[c], span(0, c), span(1, c),
                                  span(2, c), span(3, c));
            }
            s->visitor->endFold(rf, cf, end);
            s->seconds += secondsSince(t0);
            ++s->folds;
        }
    }

    void
    endLayer(Cycle total) override
    {
        for (Sink* s : sinks_) {
            const auto t0 = Clock::now();
            s->visitor->endLayer(total);
            s->seconds += secondsSince(t0);
        }
    }

    /** Addresses the generator emitted through this tee. */
    std::uint64_t addrs() const { return addrs_; }

  private:
    struct Stream
    {
        std::vector<Addr> addrs;
        std::vector<std::size_t> begin{0};
    };

    std::span<const Addr>
    span(int stream, std::size_t c) const
    {
        const Stream& s = streams_[stream];
        return {s.addrs.data() + s.begin[c], s.begin[c + 1] - s.begin[c]};
    }

    std::vector<Sink*> sinks_;
    std::uint64_t rf_ = 0;
    std::uint64_t cf_ = 0;
    Cycle foldStart_ = 0;
    std::vector<Cycle> clk_;
    Stream streams_[4];
    std::uint64_t addrs_ = 0;
};

/**
 * Main-memory decorator that times the requests it forwards. A serve
 * stream issues tens of millions of requests of a few hundred ns each,
 * so only every kSampleEvery-th request is timed: the layer's memory
 * time is the sampled mean, less the cost of an empty timed interval,
 * times the layer's request count.
 */
class TimedMemory : public systolic::MainMemory
{
  public:
    static constexpr std::uint64_t kSampleEvery = 16;

    explicit TimedMemory(systolic::MainMemory& inner) : inner_(inner) {}

    Cycle
    issueRead(Addr addr, Count words, Cycle now) override
    {
        return forward([&] { return inner_.issueRead(addr, words, now); });
    }

    Cycle
    issueWrite(Addr addr, Count words, Cycle now) override
    {
        return forward([&] { return inner_.issueWrite(addr, words, now); });
    }

    Cycle lastIssueWait() const override { return inner_.lastIssueWait(); }

    /** Estimated seconds and requests since the last take(). */
    std::pair<double, std::uint64_t>
    take()
    {
        const double per_request = sampled_ == 0 ? 0.0
            : std::max(0.0, sampledSeconds_ / static_cast<double>(sampled_)
                                - emptyInterval());
        const std::pair<double, std::uint64_t> out{
            per_request * static_cast<double>(requests_), requests_};
        sampledSeconds_ = 0.0;
        sampled_ = 0;
        requests_ = 0;
        return out;
    }

  private:
    template <typename Issue>
    Cycle
    forward(Issue issue)
    {
        Cycle done = 0;
        if (++seen_ % kSampleEvery == 0) {
            const auto t0 = Clock::now();
            done = issue();
            sampledSeconds_ += secondsSince(t0);
            ++sampled_;
        } else {
            done = issue();
        }
        ++requests_;
        // The scratchpad reads the model's stats around each layer.
        stats_ = inner_.stats();
        return done;
    }

    /** Median seconds of a timed interval around nothing. */
    static double
    emptyInterval()
    {
        static const double seconds = [] {
            std::vector<double> samples(1001);
            for (double& s : samples) {
                const auto t0 = Clock::now();
                s = secondsSince(t0);
            }
            std::nth_element(samples.begin(),
                             samples.begin() + samples.size() / 2,
                             samples.end());
            return samples[samples.size() / 2];
        }();
        return seconds;
    }

    systolic::MainMemory& inner_;
    std::uint64_t seen_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t sampled_ = 0;
    double sampledSeconds_ = 0.0;
};

// ---------------------------------------------------------------------
// The single-core layer pipeline, call by call

/** Module work counters of a traced run. */
struct Counters
{
    std::uint64_t foldsTotal = 0;
    std::uint64_t foldsReplayed = 0;
    std::uint64_t addrsGenerated = 0;
    std::uint64_t layoutCycles = 0;
    std::uint64_t spadFolds = 0;
    std::uint64_t dramRequests = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowAccesses = 0;
};

/** The stateful components Simulator::init builds from a config. */
struct Components
{
    std::unique_ptr<systolic::BandwidthMemory> bandwidth;
    std::unique_ptr<dram::DramMemory> dram;
    std::unique_ptr<TimedMemory> memory;
    std::unique_ptr<systolic::DoubleBufferedScratchpad> scratchpad;
    std::unique_ptr<energy::EnergyModel> energyModel;
    Cycle timeline = 0;

    explicit Components(const SimConfig& cfg)
    {
        systolic::MainMemory* inner = nullptr;
        if (cfg.dram.enabled) {
            dram = std::make_unique<dram::DramMemory>(
                cfg.dram, cfg.memory.wordBytes);
            inner = dram.get();
        } else {
            bandwidth = std::make_unique<systolic::BandwidthMemory>(
                cfg.memory.bandwidthWordsPerCycle);
            inner = bandwidth.get();
        }
        memory = std::make_unique<TimedMemory>(*inner);
        const std::uint64_t word =
            std::max<std::uint32_t>(1, cfg.memory.wordBytes);
        systolic::ScratchpadConfig spad;
        spad.ifmapWords = cfg.memory.ifmapSramKb * 1024 / word;
        spad.filterWords = cfg.memory.filterSramKb * 1024 / word;
        spad.ofmapWords = cfg.memory.ofmapSramKb * 1024 / word;
        spad.readQueueSize = cfg.dram.readQueueSize;
        spad.writeQueueSize = cfg.dram.writeQueueSize;
        spad.burstWords = cfg.memory.burstWords;
        spad.issuePerCycle = cfg.memory.issuePerCycle;
        spad.prefetchDepth = cfg.memory.prefetchDepth;
        spad.recordFoldSpans = cfg.memory.recordFoldSpans;
        scratchpad = std::make_unique<systolic::DoubleBufferedScratchpad>(
            spad, *memory);
        if (cfg.energy.enabled) {
            const double sram_kb = static_cast<double>(
                cfg.memory.ifmapSramKb + cfg.memory.filterSramKb
                + cfg.memory.ofmapSramKb);
            energyModel = std::make_unique<energy::EnergyModel>(
                energy::Ert::forNode(cfg.energy.node), cfg.energy,
                cfg.numPes(), sram_kb);
        }
    }
};

/** Simulator::runLayer, one module call per span. */
core::LayerResult
runLayer(Tracer& tr, Components& comp, const SimConfig& cfg,
         const LayerSpec& layer, std::uint64_t layer_index,
         std::int64_t request, Counters& n)
{
    const auto layer_span = tr.scope("core.run_layer", request);
    const dram::DramStats dram_before = comp.dram
        ? comp.dram->system().totalStats() : dram::DramStats{};
    core::LayerResult result;
    result.name = layer.name;
    result.repetitions = layer.repetitions;
    result.denseGemm = layer.toGemm();

    std::optional<sparse::SparseLayerModel> sparse_model;
    {
        const auto s = tr.scope("sparse.resolve", request);
        sparse_model.emplace(layer, cfg.sparsity, layer_index);
        result.effectiveGemm = sparse_model->effectiveGemm();
        if (sparse_model->active())
            result.sparse = sparse_model->report(cfg.memory.wordBytes * 8);
    }

    const systolic::OperandMap operands = cfg.memory.im2colAddressing
        ? systolic::OperandMap::forLayer(layer, cfg.memory)
        : systolic::OperandMap(result.denseGemm, cfg.memory);
    const systolic::FoldGrid grid(result.effectiveGemm, cfg.dataflow,
                                  cfg.arrayRows, cfg.arrayCols);
    const double pe_cycles = static_cast<double>(grid.totalCycles())
        * static_cast<double>(cfg.numPes());
    result.utilization = pe_cycles > 0.0
        ? static_cast<double>(result.effectiveGemm.macs()) / pe_cycles
        : 0.0;
    if (result.effectiveGemm.k != result.denseGemm.k
        && grid.totalCycles() > 0) {
        const systolic::FoldGrid dense_grid(result.denseGemm, cfg.dataflow,
                                            cfg.arrayRows, cfg.arrayCols);
        result.speedup = static_cast<double>(dense_grid.totalCycles())
            / static_cast<double>(grid.totalCycles());
    }
    result.mappingEfficiency = grid.mappingEfficiency();

    const bool want_trace = cfg.mode == SimMode::Trace
        && (cfg.layout.enabled || cfg.energy.enabled);
    const bool sparse_trace_ok = !sparse_model->active()
        || cfg.dataflow == Dataflow::WeightStationary;
    std::optional<layout::BankConflictEvaluator> layout_eval;
    std::optional<energy::ActionCountVisitor> action_visitor;
    if (want_trace && sparse_trace_ok) {
        const auto s = tr.scope("systolic.demand", request);
        const sparse::SparsityPattern* gather = sparse_model->active()
            ? &sparse_model->pattern() : nullptr;
        systolic::DemandGenerator generator(
            result.denseGemm, cfg.dataflow, cfg.arrayRows, cfg.arrayCols,
            operands, gather);
        generator.setFoldCache(cfg.foldCache);
        TimedTee::Sink layout_sink;
        TimedTee::Sink energy_sink;
        std::vector<TimedTee::Sink*> sinks;
        if (cfg.layout.enabled) {
            const auto t0 = Clock::now();
            layout_eval.emplace(
                cfg.layout,
                layout::OperandLayouts::forOperands(
                    operands, cfg.layout, layout::LayoutScheme::RowMajor));
            layout_sink.seconds += secondsSince(t0);
            layout_sink.visitor = &*layout_eval;
            sinks.push_back(&layout_sink);
        }
        if (cfg.energy.enabled) {
            const auto t0 = Clock::now();
            action_visitor.emplace(cfg.energy);
            energy_sink.seconds += secondsSince(t0);
            energy_sink.visitor = &*action_visitor;
            sinks.push_back(&energy_sink);
        }
        TimedTee tee(std::move(sinks));
        generator.run(tee);
        tr.aggregate(s.id(), "layout.sink", layout_sink.seconds,
                     layout_sink.folds);
        tr.aggregate(s.id(), "energy.sink", energy_sink.seconds,
                     energy_sink.folds);
        const systolic::FoldCacheStats& fc = generator.foldCacheStats();
        n.foldsTotal += fc.foldsTotal;
        n.foldsReplayed += fc.foldsReplayed;
        n.addrsGenerated += tee.addrs();
        if (layout_eval)
            n.layoutCycles += layout_eval->idealCycles();
    }
    if (layout_eval)
        result.layoutSlowdown = layout_eval->slowdown();

    {
        const auto s = tr.scope("systolic.scratchpad", request);
        comp.scratchpad->reset();
        result.timing = comp.scratchpad->runLayer(
            grid, operands, comp.timeline, result.layoutSlowdown);
        const auto [mem_s, mem_requests] = comp.memory->take();
        tr.aggregate(s.id(),
                     comp.dram ? "dram.timing" : "systolic.memory",
                     mem_s, mem_requests);
        if (comp.dram)
            n.dramRequests += mem_requests;
        n.spadFolds += result.timing.folds;
    }
    result.computeCycles = result.timing.computeCycles;
    result.totalCycles = result.timing.totalCycles;
    result.stallCycles = result.timing.stallCycles;

    if (layer.tail != VectorTail::None) {
        multicore::SimdConfig simd;
        simd.lanes = cfg.simdLanes;
        simd.latencyPerOp = cfg.simdLatencyPerOp;
        result.simdCycles = multicore::simdCycles(
            simd, layer.tail, result.denseGemm.m * result.denseGemm.n);
        result.totalCycles += result.simdCycles;
    }
    result.cpi = result.timing.cpi;
    result.cpi.vectorUnit = result.simdCycles;
    comp.timeline += result.timing.totalCycles
        * std::max<std::uint32_t>(1, layer.repetitions);

    const dram::DramStats after = comp.dram
        ? comp.dram->system().totalStats() : dram::DramStats{};
    n.dramRowHits += after.rowHits - dram_before.rowHits;
    n.dramRowAccesses += after.rowHits + after.rowMisses
        + after.rowConflicts - dram_before.rowHits - dram_before.rowMisses
        - dram_before.rowConflicts;

    if (cfg.energy.enabled) {
        const auto s = tr.scope("energy.model", request);
        result.actions = action_visitor
            ? action_visitor->counts()
            : energy::analyticalActionCounts(grid, cfg.energy);
        result.actions.cycles += result.stallCycles + result.simdCycles;
        if (result.sparse) {
            const std::uint64_t word_bits =
                std::max<std::uint32_t>(1, cfg.memory.wordBytes) * 8;
            result.actions.filterSram.readRandom +=
                ceilDiv(result.sparse->metadataBits, word_bits);
        }
        if (layer.tail != VectorTail::None) {
            const std::uint64_t passes =
                layer.tail == VectorTail::Softmax ? 3 : 1;
            result.actions.vectorOps =
                result.denseGemm.m * result.denseGemm.n * passes;
        }
        result.actions.dramReadWords = result.timing.dramReadWords;
        result.actions.dramWriteWords = result.timing.dramWriteWords;
        result.energyBreakdown = comp.energyModel->energy(result.actions);
        if (comp.dram) {
            result.energyBreakdown.dram =
                comp.energyModel->dramCommandEnergyPj(
                    after.rowMisses + after.rowConflicts
                        - dram_before.rowMisses - dram_before.rowConflicts,
                    after.reads - dram_before.reads,
                    after.writes - dram_before.writes,
                    after.refreshes - dram_before.refreshes);
        }
        result.powerW = comp.energyModel->averagePowerW(
            result.energyBreakdown, result.totalCycles);
    }
    return result;
}

/** Simulator::run's per-layer accumulation into run totals. */
void
accumulate(core::RunResult& run, const core::LayerResult& layer,
           bool energy_enabled)
{
    const std::uint64_t reps = layer.repetitions;
    run.totalCycles += layer.totalCycles * reps;
    run.computeCycles += layer.computeCycles * reps;
    run.stallCycles += layer.stallCycles * reps;
    run.dramReadWords += layer.timing.dramReadWords * reps;
    run.dramWriteWords += layer.timing.dramWriteWords * reps;
    run.cpiTotals.accumulate(layer.cpi, reps);
    if (energy_enabled) {
        energy::EnergyBreakdown scaled = layer.energyBreakdown;
        const double r = static_cast<double>(reps);
        scaled.peArray *= r;
        scaled.glb *= r;
        scaled.noc *= r;
        scaled.dram *= r;
        scaled.staticE *= r;
        run.totalEnergy.merge(scaled);
        for (std::uint64_t i = 0; i < reps; ++i)
            run.powerTrace.push_back(
                {layer.name, layer.totalCycles, layer.powerW});
    }
}

// ---------------------------------------------------------------------
// Output helpers

void
writeSelfTimes(obs::JsonWriter& json, const Tracer& tr, double wall)
{
    double accounted = 0.0;
    json.key("self_s").beginObject();
    for (const auto& [name, seconds] : tr.selfSeconds()) {
        json.field(name, seconds);
        accounted += seconds;
    }
    json.endObject();
    json.field("wall_s", wall);
    json.field("unattributed_s", wall - accounted);
}

void
writeCounters(obs::JsonWriter& json, const Counters& n)
{
    json.key("counts").beginObject();
    json.field("folds_total", n.foldsTotal);
    json.field("folds_replayed", n.foldsReplayed);
    json.field("addrs_generated", n.addrsGenerated);
    json.field("layout_cycles", n.layoutCycles);
    json.field("spad_folds", n.spadFolds);
    json.field("dram_requests", n.dramRequests);
    json.field("dram_row_hits", n.dramRowHits);
    json.field("dram_row_accesses", n.dramRowAccesses);
    json.endObject();
}

bool
sameActions(const energy::ActionCounts& a, const energy::ActionCounts& b)
{
    auto same_sram = [](const energy::SramActionCounts& x,
                        const energy::SramActionCounts& y) {
        return x.readRandom == y.readRandom && x.readRepeat == y.readRepeat
            && x.writeRandom == y.writeRandom
            && x.writeRepeat == y.writeRepeat && x.idle == y.idle;
    };
    return a.macRandom == b.macRandom && a.macConstant == b.macConstant
        && a.macGated == b.macGated && a.ifmapSpadRead == b.ifmapSpadRead
        && a.ifmapSpadWrite == b.ifmapSpadWrite
        && a.weightSpadRead == b.weightSpadRead
        && a.weightSpadWrite == b.weightSpadWrite
        && a.psumSpadRead == b.psumSpadRead
        && a.psumSpadWrite == b.psumSpadWrite
        && same_sram(a.ifmapSram, b.ifmapSram)
        && same_sram(a.filterSram, b.filterSram)
        && same_sram(a.ofmapSram, b.ofmapSram)
        && a.vectorOps == b.vectorOps && a.dramReadWords == b.dramReadWords
        && a.dramWriteWords == b.dramWriteWords && a.nocWords == b.nocWords
        && a.cycles == b.cycles;
}

multicore::MultiCoreTraceConfig
multiCoreConfig(const SimConfig& cfg, const std::string& grid)
{
    // The same mapping scalesim_cli --multicore applies.
    const std::size_t cross = grid.find('x');
    if (cross == std::string::npos)
        fatal("grid must be PRxPC, got '%s'", grid.c_str());
    multicore::MultiCoreTraceConfig mc;
    mc.pr = std::stoull(grid.substr(0, cross));
    mc.pc = std::stoull(grid.substr(cross + 1));
    mc.arrayRows = cfg.arrayRows;
    mc.arrayCols = cfg.arrayCols;
    mc.dataflow = cfg.dataflow;
    mc.dramWordsPerCycle = cfg.memory.bandwidthWordsPerCycle;
    mc.contention = multicore::ContentionModel::Shared;
    mc.engine = multicore::multiCoreEngineFromString(cfg.multicore.engine);
    mc.jobs = cfg.multicore.jobs;
    const std::uint32_t word = std::max<std::uint32_t>(1,
                                                       cfg.memory.wordBytes);
    mc.l1.ifmapWords = cfg.memory.ifmapSramKb * 1024 / word;
    mc.l1.filterWords = cfg.memory.filterSramKb * 1024 / word;
    mc.l1.ofmapWords = cfg.memory.ofmapSramKb * 1024 / word;
    return mc;
}

// ---------------------------------------------------------------------
// Subcommands

/**
 * Time, once and cold, the set-up a CLI run does before simulating:
 * config, topology and simulator construction.
 */
int
cmdSetup(const std::string& cfg_path, const std::string& workload,
         const std::string& grid)
{
    auto t0 = Clock::now();
    const SimConfig cfg = SimConfig::load(cfg_path);
    const double config_s = secondsSince(t0);
    t0 = Clock::now();
    const Topology topo = workloads::byName(workload);
    const double topology_s = secondsSince(t0);
    t0 = Clock::now();
    if (grid.empty()) {
        const core::Simulator sim(cfg);
    } else {
        const multicore::MultiCoreTraceSimulator mcs(
            multiCoreConfig(cfg, grid));
    }
    const double init_s = secondsSince(t0);
    obs::JsonWriter json(std::cout, /*pretty=*/false);
    json.beginObject();
    json.field("setup_s", config_s + topology_s + init_s);
    json.field("config_s", config_s);
    json.field("topology_s", topology_s);
    json.field("init_s", init_s);
    json.field("layers", static_cast<std::uint64_t>(topo.layers.size()));
    json.endObject();
    std::cout << "\n";
    return 0;
}

/**
 * Table IV's per-feature cost on one config: the demand pass with only
 * the layout sink, and with only the energy sink, over the bare pass
 * (CountingVisitor). The three passes alternate per layer so that host
 * speed drift hits all three alike.
 */
int
cmdOverhead(const std::string& cfg_path, const std::string& workload)
{
    const SimConfig cfg = SimConfig::load(cfg_path);
    const Topology topo = workloads::byName(workload);
    double bare_s = 0.0, layout_s = 0.0, energy_s = 0.0;
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        const LayerSpec& layer = topo.layers[i];
        const sparse::SparseLayerModel sparse_model(layer, cfg.sparsity, i);
        const GemmDims gemm = layer.toGemm();
        const systolic::OperandMap operands = cfg.memory.im2colAddressing
            ? systolic::OperandMap::forLayer(layer, cfg.memory)
            : systolic::OperandMap(gemm, cfg.memory);
        systolic::DemandGenerator gen(
            gemm, cfg.dataflow, cfg.arrayRows, cfg.arrayCols, operands,
            sparse_model.active() ? &sparse_model.pattern() : nullptr);
        gen.setFoldCache(cfg.foldCache);

        auto t0 = Clock::now();
        systolic::CountingVisitor counter;
        gen.run(counter);
        bare_s += secondsSince(t0);

        t0 = Clock::now();
        layout::BankConflictEvaluator eval(
            cfg.layout, layout::OperandLayouts::forOperands(
                            operands, cfg.layout,
                            layout::LayoutScheme::RowMajor));
        gen.run(eval);
        layout_s += secondsSince(t0);

        t0 = Clock::now();
        energy::ActionCountVisitor actions(cfg.energy);
        gen.run(actions);
        energy_s += secondsSince(t0);
    }
    obs::JsonWriter json(std::cout, /*pretty=*/false);
    json.beginObject();
    json.field("bare_s", bare_s);
    json.field("layout_s", layout_s);
    json.field("energy_s", energy_s);
    json.field("layout_overhead_x", layout_s / bare_s);
    json.field("energy_overhead_x", energy_s / bare_s);
    json.endObject();
    std::cout << "\n";
    return 0;
}

/** Traced single-core run of what `scalesim_cli -c cfg -w workload` does. */
int
cmdTrace(const std::string& cfg_path, const std::string& workload,
         const std::string& out_dir, const std::string& chrome_path)
{
    Tracer tr;
    Counters n;
    const double t_start = tr.now();
    std::optional<SimConfig> cfg;
    {
        const auto s = tr.scope("common.config");
        cfg.emplace(SimConfig::load(cfg_path));
    }
    std::optional<Topology> topo;
    {
        const auto s = tr.scope("common.topology");
        topo.emplace(workloads::byName(workload));
    }
    std::optional<Components> comp;
    {
        const auto s = tr.scope("core.init");
        cfg->validate();
        comp.emplace(*cfg);
    }
    core::RunResult run;
    run.runName = cfg->runName;
    run.workload = topo->name;
    for (std::size_t i = 0; i < topo->layers.size(); ++i) {
        core::LayerResult layer =
            runLayer(tr, *comp, *cfg, topo->layers[i], i, -1, n);
        accumulate(run, layer, cfg->energy.enabled);
        run.layers.push_back(std::move(layer));
    }
    {
        const auto s = tr.scope("core.report_io");
        if (comp->energyModel) {
            run.avgPowerW = comp->energyModel->averagePowerW(
                run.totalEnergy, run.totalCycles);
            run.edp = comp->energyModel->edp(run.totalEnergy,
                                             run.totalCycles);
        }
        if (comp->dram)
            run.dramStats = comp->dram->system().totalStats();
        run.registerStats(run.stats);
        auto write = [&](const char* name, auto writer) {
            std::ofstream out(out_dir + "/" + name);
            if (!out)
                fatal("cannot write %s/%s", out_dir.c_str(), name);
            (run.*writer)(out);
        };
        write("COMPUTE_REPORT.csv", &core::RunResult::writeComputeReport);
        write("BANDWIDTH_REPORT.csv",
              &core::RunResult::writeBandwidthReport);
        if (cfg->sparsity.enabled || cfg->sparsity.optimizedMapping)
            write("SPARSE_REPORT.csv", &core::RunResult::writeSparseReport);
        if (cfg->energy.enabled) {
            write("ENERGY_REPORT.csv", &core::RunResult::writeEnergyReport);
            write("POWER_REPORT.csv", &core::RunResult::writePowerReport);
        }
        std::ostringstream summary;
        run.writeSummary(summary);
    }
    const double wall = tr.now() - t_start;

    // Untimed reference: the Simulator itself on the same inputs.
    core::Simulator sim(*cfg);
    const core::RunResult ref = sim.run(*topo);
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < ref.layers.size(); ++i) {
        const core::LayerResult& a = run.layers[i];
        const core::LayerResult& b = ref.layers[i];
        if (a.layoutSlowdown != b.layoutSlowdown
            || a.timing.totalCycles != b.timing.totalCycles
            || !sameActions(a.actions, b.actions)) {
            ++mismatches;
        }
    }
    if (run.totalCycles != ref.totalCycles
        || run.totalEnergy.totalPj() != ref.totalEnergy.totalPj()) {
        ++mismatches;
    }
    tr.writeChrome(chrome_path);

    obs::JsonWriter json(std::cout, /*pretty=*/false);
    json.beginObject();
    writeSelfTimes(json, tr, wall);
    writeCounters(json, n);
    json.field("reference_mismatches", mismatches);
    json.field("totalCycles", run.totalCycles);
    json.field("energy_mJ", run.totalEnergy.totalMj());
    json.endObject();
    std::cout << "\n";
    return 0;
}

/** Traced run of what `scalesim_cli --multicore PRxPC` does. */
int
cmdTraceMc(const std::string& cfg_path, const std::string& workload,
           const std::string& grid, const std::string& chrome_path)
{
    Tracer tr;
    const double t_start = tr.now();
    std::optional<SimConfig> cfg;
    {
        const auto s = tr.scope("common.config");
        cfg.emplace(SimConfig::load(cfg_path));
    }
    std::optional<Topology> topo;
    {
        const auto s = tr.scope("common.topology");
        topo.emplace(workloads::byName(workload));
    }
    std::unique_ptr<multicore::MultiCoreTraceSimulator> mcs;
    {
        const auto s = tr.scope("multicore.init");
        mcs = std::make_unique<multicore::MultiCoreTraceSimulator>(
            multiCoreConfig(*cfg, grid));
    }
    Cycle makespan = 0;
    std::uint64_t grants = 0, conflicts = 0, l2_hits = 0, l2_lookups = 0;
    std::uint64_t dram_read = 0, dram_write = 0, folds = 0;
    for (const LayerSpec& layer : topo->layers) {
        const auto s = tr.scope("multicore.run_layer");
        const multicore::MultiCoreTraceResult res = mcs->runLayer(layer);
        makespan += res.makespan;
        grants += res.arb.grants;
        conflicts += res.arb.arbConflicts;
        l2_hits += res.l2.hits;
        l2_lookups += res.l2.lookups;
        dram_read += res.dramReadWords;
        dram_write += res.dramWriteWords;
        for (const auto& core : res.perCore)
            folds += core.folds;
    }
    const double wall = tr.now() - t_start;
    tr.writeChrome(chrome_path);

    obs::JsonWriter json(std::cout, /*pretty=*/false);
    json.beginObject();
    writeSelfTimes(json, tr, wall);
    json.key("counts").beginObject();
    json.field("arb_grants", grants);
    json.field("arb_conflicts", conflicts);
    json.field("l2_hits", l2_hits);
    json.field("l2_lookups", l2_lookups);
    json.field("spad_folds", folds);
    json.endObject();
    json.field("makespan", makespan);
    json.field("dramReadWords", dram_read);
    json.field("dramWriteWords", dram_write);
    json.endObject();
    std::cout << "\n";
    return 0;
}

/** Request overlay on the base INI, as scalesim_serve applies it. */
SimConfig
requestConfig(const IniFile& base, const obs::JsonValue& req)
{
    IniFile ini = base;
    if (const obs::JsonValue* overlay = req.find("config")) {
        for (const auto& [section, keys] : overlay->members) {
            for (const auto& [key, value] : keys.members) {
                ini.set(section, key,
                        value.kind == obs::JsonValue::Kind::Number
                            ? format("%.0f", value.number)
                            : value.text);
            }
        }
    }
    return SimConfig::fromIni(ini);
}

/** serve::runTopologyCached, one module call per span, keyed alike. */
core::RunResult
runCached(Tracer& tr, const SimConfig& cfg, const Topology& topo,
          std::int64_t request, Counters& n,
          std::unordered_map<std::uint64_t, core::LayerResult>& cache,
          std::uint64_t& hits, std::uint64_t& lookups)
{
    core::RunResult run;
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        const LayerSpec& spec = topo.layers[i];
        const std::uint64_t key = serve::layerCacheKey(cfg, spec, i);
        ++lookups;
        auto it = cache.find(key);
        if (it != cache.end()) {
            ++hits;
        } else {
            std::optional<Components> comp;
            {
                const auto s = tr.scope("core.init", request);
                comp.emplace(cfg);
            }
            it = cache.emplace(key, runLayer(tr, *comp, cfg, spec, i,
                                             request, n)).first;
        }
        core::LayerResult layer = it->second;
        layer.name = spec.name;
        layer.repetitions = spec.repetitions;
        accumulate(run, layer, cfg.energy.enabled);
    }
    return run;
}

/** A sweep request's axis values, in request order. */
template <typename T>
std::vector<T>
axis(const obs::JsonValue& req, const std::string& key)
{
    std::vector<T> values;
    const obs::JsonValue* list = req.find(key);
    if (!list)
        fatal("sweep request without '%s'", key.c_str());
    for (const auto& item : list->items) {
        if constexpr (std::is_same_v<T, std::string>)
            values.push_back(item.text);
        else
            values.push_back(static_cast<T>(item.number));
    }
    return values;
}

/**
 * Traced in-process replay of a scalesim_serve request stream: the
 * config overlay, the topology, and every cache-miss layer through the
 * single-core pipeline. Sweeps evaluate their points one after the
 * other, so each point's serial time is measured alone.
 */
int
cmdTraceServe(const std::string& base_path, const std::string& requests,
              const std::string& chrome_path)
{
    Tracer tr;
    Counters n;
    const double t_start = tr.now();
    std::optional<IniFile> base;
    {
        const auto s = tr.scope("common.config");
        base.emplace(IniFile::load(base_path));
    }
    std::ifstream in(requests);
    if (!in)
        fatal("cannot read %s", requests.c_str());
    std::unordered_map<std::uint64_t, core::LayerResult> cache;
    std::uint64_t hits = 0, lookups = 0;

    struct Answer
    {
        std::int64_t index = 0;
        std::string type;
        core::RunResult run; ///< run requests
        std::vector<std::pair<Cycle, double>> points; ///< sweeps
        double serialSeconds = 0.0; ///< sweeps: sum over points
    };
    std::vector<Answer> answers;
    std::string line;
    std::int64_t index = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::int64_t id = index++;
        obs::JsonValue req;
        if (!obs::parseJson(line, req))
            fatal("request %lld is not JSON", static_cast<long long>(id));
        Answer answer;
        answer.index = id;
        answer.type = req.stringAt("type");
        if (answer.type != "run" && answer.type != "sweep")
            continue;
        const auto request_span = tr.scope("serve.request", id);
        std::optional<SimConfig> cfg;
        {
            const auto s = tr.scope("common.config", id);
            cfg.emplace(requestConfig(*base, req));
        }
        std::optional<Topology> topo;
        {
            const auto s = tr.scope("common.topology", id);
            topo.emplace(workloads::byName(req.stringAt("workload")));
        }
        if (answer.type == "run") {
            answer.run = runCached(tr, *cfg, *topo, id, n, cache, hits,
                                   lookups);
        } else {
            core::DseSweep sweep;
            for (std::uint32_t array : axis<std::uint32_t>(req, "arrays")) {
                for (const std::string& df : axis<std::string>(req,
                                                               "dataflows")) {
                    for (std::uint64_t sram_kb : sweep.sramKbTotals) {
                        const double p0 = tr.now();
                        const auto s = tr.scope("core.sweep_point", id);
                        SimConfig pcfg = *cfg;
                        pcfg.arrayRows = pcfg.arrayCols = array;
                        pcfg.dataflow = dataflowFromString(df);
                        pcfg.energy.enabled = true;
                        const core::SramSplit split =
                            core::splitSramKb(sram_kb);
                        pcfg.memory.ifmapSramKb = split.ifmapKb;
                        pcfg.memory.filterSramKb = split.filterKb;
                        pcfg.memory.ofmapSramKb = split.ofmapKb;
                        const core::RunResult run = runCached(
                            tr, pcfg, *topo, id, n, cache, hits, lookups);
                        answer.points.emplace_back(
                            run.totalCycles, run.totalEnergy.totalMj());
                        answer.serialSeconds += tr.now() - p0;
                    }
                }
            }
        }
        answers.push_back(std::move(answer));
    }
    const double wall = tr.now() - t_start;
    tr.writeChrome(chrome_path);

    obs::JsonWriter json(std::cout, /*pretty=*/false);
    json.beginObject();
    writeSelfTimes(json, tr, wall);
    writeCounters(json, n);
    json.field("cache_hits", hits);
    json.field("cache_lookups", lookups);
    json.key("requests").beginArray();
    for (const Answer& a : answers) {
        json.beginObject();
        json.field("index", a.index);
        json.field("type", a.type);
        if (a.type == "run") {
            json.field("totalCycles", a.run.totalCycles);
            json.field("dramReadWords", a.run.dramReadWords);
            json.field("dramWriteWords", a.run.dramWriteWords);
            json.field("energy_mJ", a.run.totalEnergy.totalMj());
        } else {
            json.key("points").beginArray();
            for (const auto& [cycles, mj] : a.points) {
                json.beginObject();
                json.field("cycles", cycles);
                json.field("energy_mJ", mj);
                json.endObject();
            }
            json.endArray();
            json.field("serial_s", a.serialSeconds);
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        const std::string cmd = args.empty() ? "" : args[0];
        if (cmd == "setup" && (args.size() == 3 || args.size() == 4))
            return cmdSetup(args[1], args[2],
                            args.size() == 4 ? args[3] : "");
        if (cmd == "overhead" && args.size() == 3)
            return cmdOverhead(args[1], args[2]);
        if (cmd == "trace" && args.size() == 5)
            return cmdTrace(args[1], args[2], args[3], args[4]);
        if (cmd == "trace-mc" && args.size() == 5)
            return cmdTraceMc(args[1], args[2], args[3], args[4]);
        if (cmd == "trace-serve" && args.size() == 4)
            return cmdTraceServe(args[1], args[2], args[3]);
    } catch (const std::exception& e) {
        std::cerr << "probe: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "usage: see the comment at the top of probe.cpp\n";
    return 1;
}
