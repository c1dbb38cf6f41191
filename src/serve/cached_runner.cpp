#include "serve/cached_runner.hpp"

#include <optional>
#include <string>
#include <type_traits>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"

namespace scalesim::serve
{

namespace
{

/** Bump on any change to the key schema or payload encoding. */
constexpr std::uint64_t kCacheSchemaVersion = 2;

void
mixLayer(Fnv1a& h, const LayerSpec& layer)
{
    // Canonical shape only: `name` is a display label and
    // `repetitions` scales results outside the per-instance numbers,
    // so neither may split cache entries.
    h.mix(static_cast<std::uint8_t>(layer.type));
    h.mix(layer.ifmapH);
    h.mix(layer.ifmapW);
    h.mix(layer.filterH);
    h.mix(layer.filterW);
    h.mix(layer.channels);
    h.mix(layer.numFilters);
    h.mix(layer.stride);
    h.mix(layer.gemmDims.m);
    h.mix(layer.gemmDims.n);
    h.mix(layer.gemmDims.k);
    h.mix(layer.batch);
    h.mix(layer.sparseN);
    h.mix(layer.sparseM);
    h.mix(static_cast<std::uint8_t>(layer.tail));
}

} // namespace

std::uint64_t
layerCacheKey(const SimConfig& cfg, const LayerSpec& layer,
              std::uint64_t layer_index)
{
    Fnv1a h;
    h.mix(kCacheSchemaVersion);

    // Config slice: the fields walkConfigFields marks as cache-key
    // fields, each at its declared width (enums as one byte).
    walkConfigFields(cfg, [&h](const ConfigField& f, const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if (!f.cacheKey)
            return;
        if constexpr (std::is_same_v<T, std::string>)
            h.mixString(value);
        else if constexpr (std::is_enum_v<T>)
            h.mix(static_cast<std::uint8_t>(value));
        else
            h.mix(value);
    });

    mixLayer(h, layer);

    // SparseLayerModel seeds its per-row N:M pattern with the layer
    // position, so under sparsity identical shapes at different
    // indices are genuinely different evaluations.
    if (cfg.sparsity.enabled || cfg.sparsity.optimizedMapping)
        h.mix(layer_index);

    return h.digest();
}

namespace
{

/** Encoding direction of walkLayerPayload. */
struct PayloadWriter
{
    ByteWriter out;

    void operator()(const auto&... fields) { (put(fields), ...); }

    /** Presence byte, then the value's fields if present. */
    template <typename T>
    const T*
    optional(const std::optional<T>& value)
    {
        out.put(static_cast<std::uint8_t>(value.has_value()));
        return value ? &*value : nullptr;
    }

  private:
    void put(const std::string& text) { out.putString(text); }
    void put(const auto& value) { out.put(value); }
};

/** Decoding direction of walkLayerPayload. */
struct PayloadReader
{
    ByteReader in;

    void operator()(auto&... fields) { (get(fields), ...); }

    template <typename T>
    T*
    optional(std::optional<T>& value)
    {
        return in.get<std::uint8_t>() != 0 ? &value.emplace() : nullptr;
    }

  private:
    void get(std::string& text) { text = in.getString(); }
    template <typename T>
    void get(T& value) { value = in.get<T>(); }
};

/**
 * The layer payload's fields in wire order, walked by PayloadWriter
 * (const `r`/`ds`) or PayloadReader: one layer's isolated evaluation
 * minus its display name/repetitions (patched at hit time), then the
 * DRAM stats of the isolated run. Each field is stored at its declared
 * width and doubles as bit patterns, so the round trip is lossless and
 * cached results are bit-identical to freshly simulated ones.
 */
void
walkLayerPayload(auto& io, auto& r, auto& ds)
{
    auto cpi = [&](auto& c) {
        io(c.compute, c.vectorUnit, c.drain, c.bandwidth, c.prefetchMiss,
           c.l2Wait, c.dramQueue, c.dramService, c.refresh);
    };
    auto sram = [&](auto& a) {
        io(a.readRandom, a.readRepeat, a.writeRandom, a.writeRepeat,
           a.idle);
    };
    io(r.denseGemm.m, r.denseGemm.n, r.denseGemm.k, r.effectiveGemm.m,
       r.effectiveGemm.n, r.effectiveGemm.k, r.computeCycles,
       r.simdCycles, r.totalCycles, r.stallCycles, r.utilization,
       r.speedup, r.mappingEfficiency, r.layoutSlowdown);
    cpi(r.cpi);

    auto& t = r.timing;
    io(t.computeCycles, t.totalCycles, t.stallCycles,
       t.prefetchStallCycles, t.drainStallCycles, t.bandwidthStallCycles);
    cpi(t.cpi);
    io(t.folds, t.dramReadWords, t.dramWriteWords, t.dramReadRequests,
       t.dramWriteRequests, t.avgReadLatency, t.readQueueStalls,
       t.writeQueueStalls);

    if (auto* s = io.optional(r.sparse)) {
        io(s->representation, s->ratioN, s->ratioM, s->denseK,
           s->compressedK, s->originalFilterBits, s->newFilterBits,
           s->metadataBits);
    }

    auto& a = r.actions;
    io(a.macRandom, a.macConstant, a.macGated, a.ifmapSpadRead,
       a.ifmapSpadWrite, a.weightSpadRead, a.weightSpadWrite,
       a.psumSpadRead, a.psumSpadWrite);
    sram(a.ifmapSram);
    sram(a.filterSram);
    sram(a.ofmapSram);
    io(a.vectorOps, a.dramReadWords, a.dramWriteWords, a.nocWords,
       a.cycles);

    auto& e = r.energyBreakdown;
    io(e.peArray, e.glb, e.noc, e.dram, e.staticE, r.powerW);

    io(ds.reads, ds.writes, ds.rowHits, ds.rowMisses, ds.rowConflicts,
       ds.refreshes, ds.readBytes, ds.writeBytes, ds.totalReadLatency,
       ds.readQueueWait, ds.readRefreshWait, ds.readServiceTime,
       ds.firstArrival, ds.lastCompletion);
}

/** Payload: walkLayerPayload's fields, then the component stats. */
std::string
encodeLayerPayload(const core::LayerResult& r,
                   const dram::DramStats& ds,
                   const obs::StatsRegistry& comp)
{
    PayloadWriter io;
    walkLayerPayload(io, r, ds);
    comp.serialize(io.out);
    return io.out.take();
}

bool
decodeLayerPayload(const std::string& payload, core::LayerResult& r,
                   dram::DramStats& ds, obs::StatsRegistry& comp)
{
    PayloadReader io{ByteReader(payload)};
    walkLayerPayload(io, r, ds);
    return comp.deserialize(io.in) && io.in.atEnd();
}

} // namespace

core::RunResult
runTopologyCached(const SimConfig& cfg, const Topology& topology,
                  LayerResultCache* cache)
{
    // Audit, interval sampling, and fold spans need a live simulation
    // of every layer (and, for run-level audits, the coupled run());
    // serving them from cache would silently drop their outputs.
    // Those configs take the standard Simulator::run path untouched.
    const bool cacheable = !cfg.audit && cfg.intervalCycles == 0
        && !cfg.memory.recordFoldSpans;
    if (!cacheable) {
        core::Simulator coupled(cfg);
        return coupled.run(topology);
    }
    LayerResultCache* use = cache;

    core::RunResult run;
    run.runName = cfg.runName;
    run.workload = topology.name;
    run.layers.reserve(topology.layers.size());

    core::Simulator sim(cfg);
    bool sim_used = false;
    obs::StatsRegistry comp_accum;

    for (std::size_t i = 0; i < topology.layers.size(); ++i) {
        const LayerSpec& spec = topology.layers[i];
        const std::uint64_t key = layerCacheKey(cfg, spec, i);

        core::LayerResult layer;
        dram::DramStats layer_dram;
        obs::StatsRegistry comp;
        bool decoded = false;
        std::string payload;
        if (use && use->lookup(key, payload)) {
            decoded =
                decodeLayerPayload(payload, layer, layer_dram, comp);
            if (!decoded) {
                // A payload that decodes badly (stale schema, bit rot
                // that beat the checksum) degrades to a miss.
                warn("cache payload for key %016llx undecodable, "
                     "re-simulating",
                     static_cast<unsigned long long>(key));
                layer = core::LayerResult{};
                layer_dram = dram::DramStats{};
                comp.clear();
            }
        }
        if (!decoded) {
            // Isolated evaluation: reset before (not after) each
            // simulated layer, so results are position-independent and
            // the cache key needs no run-history component.
            if (sim_used)
                sim.reset();
            sim_used = true;
            layer = sim.runLayer(spec, i);
            if (sim.dramMemory())
                layer_dram = sim.dramMemory()->system().totalStats();
            sim.registerStats(comp);
            if (use)
                use->insert(key,
                            encodeLayerPayload(layer, layer_dram, comp));
        }
        // Display name and repetition count are excluded from the
        // cache key; patch them from the request's layer spec.
        layer.name = spec.name;
        layer.repetitions = spec.repetitions;
        if (layer.sparse)
            layer.sparse->layerName = spec.name;

        // The DRAM arrival/completion envelope of isolated layers is
        // in layer-local time, so it is indicative only.
        run.dramStats.merge(layer_dram);
        comp_accum.merge(comp);
        run.addLayer(std::move(layer), sim.energyModel());
    }

    if (sim_used)
        run.profile = sim.profile();
    run.registerStats(run.stats);
    // The merged per-layer component snapshots stand in for the
    // coupled run's Simulator::registerStats call; the name spaces
    // (dram.*, spad.*, mem.*, sim.foldCache.*) are disjoint from the
    // run-derived stats, and merging in layer order keeps dumps
    // byte-identical however each layer was obtained.
    run.stats.merge(comp_accum);
    return run;
}

std::vector<core::DseDetailedPoint>
runSweepCachedDetailed(const core::DseSweep& sweep,
                       const Topology& topology, LayerResultCache* cache)
{
    // Workers share only the cache, which locks internally (its
    // methods are SIM_EXCLUDES-annotated, see cache.hpp).
    return core::runSweepDetailed(sweep, [&](const SimConfig& cfg) {
        return runTopologyCached(cfg, topology, cache);
    });
}

} // namespace scalesim::serve
