#include "serve/server.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/workloads.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "serve/cached_runner.hpp"

namespace scalesim::serve
{

namespace
{

/** Render a JSON scalar as an INI value string. */
std::string
iniValue(const obs::JsonValue& v)
{
    switch (v.kind) {
      case obs::JsonValue::Kind::String:
        return v.text;
      case obs::JsonValue::Kind::Bool:
        return v.boolean ? "true" : "false";
      case obs::JsonValue::Kind::Number:
        if (std::floor(v.number) == v.number
            && std::abs(v.number) < 1e15) {
            return format("%.0f", v.number);
        }
        return format("%.17g", v.number);
      default:
        throw std::runtime_error(
            "config values must be strings, numbers, or booleans");
    }
}

/** Base config + request {section: {key: value}} overlay. */
SimConfig
configFromRequest(const IniFile& base, const obs::JsonValue& req)
{
    IniFile ini = base;
    if (const obs::JsonValue* overlay = req.find("config")) {
        if (overlay->kind != obs::JsonValue::Kind::Object)
            throw std::runtime_error("'config' must be an object");
        for (const auto& [section, keys] : overlay->members) {
            if (keys.kind != obs::JsonValue::Kind::Object) {
                throw std::runtime_error(
                    "config section '" + section
                    + "' must be an object");
            }
            for (const auto& [key, value] : keys.members)
                ini.set(section, key, iniValue(value));
        }
    }
    return SimConfig::fromIni(ini);
}

/**
 * Request number `v` (`fallback` when absent) as an integer of type T;
 * errors name it `what`. Non-numbers, negative, fractional, non-finite
 * and out-of-range values are rejected before any cast (the cast would
 * be undefined), and so is zero when `nonzero`.
 */
template <typename T>
T
checkedInteger(const obs::JsonValue* v, double fallback,
               const std::string& what, bool nonzero = true)
{
    const double x = !v ? fallback
        : v->kind == obs::JsonValue::Kind::Number ? v->number
                                                  : std::nan("");
    const double limit =
        std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!(x >= (nonzero ? 1.0 : 0.0) && x < limit
          && x == std::floor(x))) {
        throw std::runtime_error(
            format("%s must be a%s integer below 2^%d, got %g",
                   what.c_str(), nonzero ? " positive" : "n unsigned",
                   std::numeric_limits<T>::digits, x));
    }
    return static_cast<T>(x);
}

/** Member `key` of a layer object via checkedInteger. */
template <typename T>
T
layerField(const obs::JsonValue& v, const char* key, double fallback,
           bool nonzero = true)
{
    return checkedInteger<T>(v.find(key), fallback,
                             format("layer field '%s'", key), nonzero);
}

/** Sweep axis `key`'s items via checkedInteger (all nonzero). */
template <typename T>
std::vector<T>
sweepAxis(const obs::JsonValue& list, const char* key)
{
    std::vector<T> values;
    for (const auto& item : list.items)
        values.push_back(checkedInteger<T>(&item, 0.0,
                                           format("sweep axis '%s'", key)));
    return values;
}

LayerSpec
layerFromJson(const obs::JsonValue& v, std::size_t index)
{
    if (v.kind != obs::JsonValue::Kind::Object)
        throw std::runtime_error("each layer must be an object");
    const std::string type = v.stringAt("type", "conv");
    const std::string name =
        v.stringAt("name", "layer" + std::to_string(index));
    auto dim = [&](const char* key, double fallback = 0.0) {
        return layerField<std::uint64_t>(v, key, fallback);
    };
    LayerSpec layer;
    if (type == "gemm") {
        layer = LayerSpec::gemm(name, dim("m"), dim("n"), dim("k"));
    } else if (type == "conv") {
        layer = LayerSpec::conv(name, dim("ifmapH"), dim("ifmapW"),
                                dim("filterH"), dim("filterW"),
                                dim("channels"), dim("numFilters"),
                                dim("stride", 1.0));
    } else {
        throw std::runtime_error("unknown layer type '" + type + "'");
    }
    layer.repetitions = layerField<std::uint32_t>(v, "repetitions", 1.0);
    layer.batch = dim("batch", 1.0);
    layer.sparseN = layerField<std::uint32_t>(v, "sparseN", 0.0, false);
    layer.sparseM = layerField<std::uint32_t>(v, "sparseM", 0.0, false);
    const std::string tail = v.stringAt("tail");
    if (!tail.empty())
        layer.tail = vectorTailFromString(tail);
    return layer;
}

/** "workload": built-in name, or "topology": inline layer list. */
Topology
topologyFromRequest(const obs::JsonValue& req)
{
    if (const obs::JsonValue* inline_topo = req.find("topology")) {
        if (inline_topo->kind != obs::JsonValue::Kind::Object)
            throw std::runtime_error("'topology' must be an object");
        Topology topo;
        topo.name = inline_topo->stringAt("name", "inline");
        const obs::JsonValue* layers = inline_topo->find("layers");
        if (!layers || layers->kind != obs::JsonValue::Kind::Array
            || layers->items.empty()) {
            throw std::runtime_error(
                "'topology.layers' must be a non-empty array");
        }
        for (std::size_t i = 0; i < layers->items.size(); ++i)
            topo.layers.push_back(layerFromJson(layers->items[i], i));
        return topo;
    }
    const std::string workload = req.stringAt("workload");
    if (workload.empty()) {
        throw std::runtime_error(
            "request needs 'workload' or 'topology'");
    }
    return workloads::byName(workload);
}

/** Echo the request's "id" member, whatever scalar kind it was. */
void
writeId(obs::JsonWriter& json, const obs::JsonValue* id)
{
    if (!id)
        return;
    json.key("id");
    switch (id->kind) {
      case obs::JsonValue::Kind::Number:
        json.value(id->number);
        break;
      case obs::JsonValue::Kind::String:
        json.value(id->text);
        break;
      case obs::JsonValue::Kind::Bool:
        json.value(id->boolean);
        break;
      default:
        json.null();
        break;
    }
}

void
writeFlatStats(obs::JsonWriter& json, const obs::StatsRegistry& stats)
{
    json.key("stats").beginObject();
    for (const auto& [name, value] : stats.flatten())
        json.field(name, value);
    json.endObject();
}

/**
 * The request's "cache" flag: absent means use the cache. Read once for
 * `run` and `sweep`; a non-boolean is an error rather than a silent
 * bypass.
 */
bool
cacheRequested(const obs::JsonValue& req)
{
    const obs::JsonValue* flag = req.find("cache");
    if (!flag)
        return true;
    if (flag->kind != obs::JsonValue::Kind::Bool)
        throw std::runtime_error("'cache' must be true or false");
    return flag->boolean;
}

/**
 * Sweep result writer. Like the `run` reply, deliberately free of
 * cache counters and wall-clock self-profiling: identical requests
 * must yield byte-identical response lines whether served cold or
 * warm.
 */
void
writeSweepResult(obs::JsonWriter& json,
                 const std::vector<core::DseDetailedPoint>& detailed)
{
    std::vector<core::DsePoint> points;
    points.reserve(detailed.size());
    for (const auto& d : detailed)
        points.push_back(d.point);
    const auto pareto = core::paretoMembership(points);
    json.key("points").beginArray();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const core::DsePoint& p = points[i];
        json.beginObject();
        json.field("array", p.array);
        json.field("dataflow", toString(p.dataflow));
        json.field("sramKb", p.sramKb);
        json.field("cycles", p.cycles);
        json.field("energy_mJ", p.energyMj);
        json.field("edp", p.edp);
        json.field("pareto", static_cast<bool>(pareto[i]));
        json.endObject();
    }
    json.endArray();
    writeFlatStats(json, core::mergeSweepStats(detailed));
}

} // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      cache_(options_.cacheBudgetBytes)
{
    if (!options_.cacheFile.empty())
        cache_.load(options_.cacheFile);
}

bool
Server::saveCache() const
{
    if (options_.cacheFile.empty())
        return false;
    return cache_.save(options_.cacheFile);
}

std::string
Server::handleRequest(const std::string& line)
{
    ++requests_;
    std::ostringstream out;
    obs::JsonWriter json(out, /*pretty=*/false);

    obs::JsonValue req;
    if (!obs::parseJson(line, req)
        || req.kind != obs::JsonValue::Kind::Object) {
        ++errors_;
        json.beginObject();
        json.field("ok", false);
        json.field("error", "malformed JSON request");
        json.endObject();
        return out.str();
    }

    const obs::JsonValue* id = req.find("id");
    const std::string type = req.stringAt("type");
    try {
        json.beginObject();
        writeId(json, id);
        if (type == "ping") {
            json.field("ok", true);
            json.key("result").beginObject();
            json.field("pong", true);
            json.endObject();
        } else if (type == "stats") {
            const CacheStats snap = cache_.stats();
            json.field("ok", true);
            json.key("result").beginObject();
            json.field("requests",
                       static_cast<std::uint64_t>(requests_.load()));
            json.field("errors",
                       static_cast<std::uint64_t>(errors_.load()));
            json.key("cache").beginObject();
            snap.forEachCounter(
                [&](const char* name, const char*, std::uint64_t value) {
                    json.field(name, value);
                });
            json.field("hitRate", snap.hitRate());
            json.endObject();
            json.endObject();
        } else if (type == "shutdown") {
            shutdown_.store(true);
            json.field("ok", true);
            json.key("result").beginObject();
            json.field("shutdown", true);
            json.endObject();
        } else if (type == "run") {
            const SimConfig cfg =
                configFromRequest(options_.baseConfig, req);
            const Topology topo = topologyFromRequest(req);
            LayerResultCache* cache =
                cacheRequested(req) ? &cache_ : nullptr;
            json.field("ok", true);
            json.key("result").beginObject();
            if (options_.dryRun) {
                json.field("dryRun", true);
                json.field("workload", topo.name);
                json.field("layers", static_cast<std::uint64_t>(
                                         topo.layers.size()));
            } else {
                // The `--json` record minus its wall-clock profile and
                // per-layer detail, plus the flat stats.
                const core::RunResult run =
                    runTopologyCached(cfg, topo, cache);
                run.writeRecord(json, /*layerDetail=*/false);
                writeFlatStats(json, run.stats);
            }
            json.endObject();
        } else if (type == "sweep") {
            core::DseSweep sweep;
            sweep.base = configFromRequest(options_.baseConfig, req);
            // Axes may sit at the top level or under a "sweep" object.
            const obs::JsonValue* nested = req.find("sweep");
            const obs::JsonValue& axes = nested ? *nested : req;
            const obs::JsonValue* jobs = axes.find("jobs");
            sweep.jobs = checkedInteger<unsigned>( // 0 = auto
                jobs ? jobs : req.find("jobs"), options_.defaultJobs,
                "sweep field 'jobs'", /*nonzero=*/false);
            if (const obs::JsonValue* arrays = axes.find("arrays"))
                sweep.arraySizes = sweepAxis<std::uint32_t>(*arrays,
                                                            "arrays");
            if (const obs::JsonValue* dfs = axes.find("dataflows")) {
                sweep.dataflows.clear();
                for (const auto& d : dfs->items)
                    sweep.dataflows.push_back(dataflowFromString(d.text));
            }
            if (const obs::JsonValue* srams = axes.find("sramKb"))
                sweep.sramKbTotals = sweepAxis<std::uint64_t>(*srams,
                                                              "sramKb");
            const Topology topo = topologyFromRequest(req);
            LayerResultCache* cache =
                cacheRequested(req) ? &cache_ : nullptr;
            json.field("ok", true);
            json.key("result").beginObject();
            if (options_.dryRun) {
                json.field("dryRun", true);
                json.field("workload", topo.name);
                json.field(
                    "candidates",
                    static_cast<std::uint64_t>(
                        sweep.arraySizes.size()
                        * sweep.dataflows.size()
                        * sweep.sramKbTotals.size()));
            } else {
                const auto detailed =
                    runSweepCachedDetailed(sweep, topo, cache);
                writeSweepResult(json, detailed);
            }
            json.endObject();
        } else {
            throw std::runtime_error(
                type.empty() ? "request has no 'type'"
                             : "unknown request type '" + type + "'");
        }
        json.endObject();
        return out.str();
    } catch (const std::exception& e) {
        ++errors_;
        // The writer may hold a half-built document; start over.
        std::ostringstream err;
        obs::JsonWriter ejson(err, /*pretty=*/false);
        ejson.beginObject();
        writeId(ejson, id);
        ejson.field("ok", false);
        ejson.field("error", e.what());
        ejson.endObject();
        return err.str();
    }
}

int
Server::serve(std::istream& in, std::ostream& out)
{
    std::string line;
    while (!shutdown_.load() && std::getline(in, line)) {
        if (line.empty())
            continue;
        out << handleRequest(line) << '\n' << std::flush;
    }
    if (!options_.cacheFile.empty() && !saveCache())
        warn("failed to persist cache to %s",
             options_.cacheFile.c_str());
    return 0;
}

} // namespace scalesim::serve
