#include "serve/cached_runner.hpp"

#include <optional>
#include <string>
#include <type_traits>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "core/result_record.hpp"

namespace scalesim::serve
{

namespace
{

/** Bump on any change to the key schema or payload encoding. */
constexpr std::uint64_t kCacheSchemaVersion = 3;

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

/** Encoding direction of the payload codec. */
struct PayloadWriter
{
    ByteWriter out;

    void
    field(const core::ResultField& f, const auto& value)
    {
        if (f.use == core::ResultUse::JsonOnly
            || f.use == core::ResultUse::Derived)
            return;
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                     std::string>)
            out.putString(value);
        else
            out.put(value);
    }

    void group(const core::ResultField&, bool, const auto& body) { body(); }

    /** Presence byte, then the value's entries if present. */
    template <typename T>
    void
    optional(const core::ResultField&, const std::optional<T>& value,
             const auto& body)
    {
        out.put(static_cast<std::uint8_t>(value.has_value()));
        if (value)
            body(*value);
    }
};

/** Decoding direction of the payload codec. */
struct PayloadReader
{
    ByteReader in;

    void
    field(const core::ResultField& f, auto&& value)
    {
        using T = std::remove_cvref_t<decltype(value)>;
        if (f.use == core::ResultUse::JsonOnly
            || f.use == core::ResultUse::Derived)
            return;
        if constexpr (std::is_same_v<T, std::string>)
            value = in.getString();
        else
            value = in.get<T>();
    }

    void group(const core::ResultField&, bool, const auto& body) { body(); }

    template <typename T>
    void
    optional(const core::ResultField&, std::optional<T>& value,
             const auto& body)
    {
        if (in.get<std::uint8_t>() != 0)
            body(value.emplace());
    }
};

} // namespace

std::string
encodeLayerPayload(const core::LayerResult& r, const dram::DramStats& ds,
                   const obs::StatsRegistry& comp)
{
    PayloadWriter io;
    core::walkLayerResult(r, io);
    core::walkDramStats(ds, io);
    comp.serialize(io.out);
    return io.out.take();
}

bool
decodeLayerPayload(const std::string& payload, core::LayerResult& r,
                   dram::DramStats& ds, obs::StatsRegistry& comp)
{
    PayloadReader io{ByteReader(payload)};
    core::walkLayerResult(r, io);
    core::walkDramStats(ds, io);
    return comp.deserialize(io.in) && io.in.atEnd();
}

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
                // that beat the checksum) degrades to a miss, and the
                // fresh payload below replaces it.
                warn("cache payload for key %016llx undecodable, "
                     "re-simulating",
                     static_cast<unsigned long long>(key));
                use->discardUndecodable(key);
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
