/**
 * @file
 * The one description of the simulator's result records: a layer's
 * LayerResult, the DRAM statistics and the run totals. Every writer of
 * these records walks the lists below: the run JSON
 * (RunResult::writeRecord, hence `--json` and the sweep server's `run`
 * reply), the stats registry (RunResult::registerStats and the interval
 * snapshots) and the layer-cache payload codec (serve/cached_runner).
 *
 * A walker calls its visitor `v` once per entry:
 *   - `v.field(entry, value)`: `value` is a member, or a computed value
 *     for ResultUse::Derived entries;
 *   - `v.group(entry, shown, body)`: a nested JSON object whose entries
 *     `body()` walks (a group without a key nests nothing; its entries
 *     join the enclosing object); the JSON record and the stats leave
 *     it out when `shown` is false, the payload never does;
 *   - `v.optional(entry, opt, body)`: a nested object present only when
 *     `opt` holds a value; `body(*opt)` walks it.
 * Payload entries come in the codec's wire order, so moving or
 * re-typing one invalidates every persisted layer cache.
 */

#ifndef SCALESIM_CORE_RESULT_RECORD_HH
#define SCALESIM_CORE_RESULT_RECORD_HH

#include <cstdint>
#include <utility>

#include "core/simulator.hpp"

namespace scalesim::core
{

/** Which outputs carry an entry. */
enum class ResultUse : std::uint8_t
{
    Both,        ///< a member, in the JSON record and the cache payload
    PayloadOnly, ///< a member the JSON record leaves out
    JsonOnly,    ///< a member the payload leaves out (patched at hit time)
    Derived,     ///< computed from other members; never in the payload
};

/** One result-record entry; see the file comment. */
struct ResultField
{
    /** JSON key; nullptr for entries that only register a stat. */
    const char* key;
    ResultUse use = ResultUse::Both;
    /** Stats-registry name: scalar, formula, or (on a group) vector. */
    const char* stat = nullptr;
    const char* desc = nullptr;
    /** Derived stat registered as the formula `num / den`. */
    const char* num = nullptr;
    const char* den = nullptr;
    /** Element name inside a vector-stat group (default: the key). */
    const char* elem = nullptr;
};

namespace record
{

constexpr ResultUse both = ResultUse::Both;
constexpr ResultUse payloadOnly = ResultUse::PayloadOnly;
constexpr ResultUse jsonOnly = ResultUse::JsonOnly;
constexpr ResultUse derived = ResultUse::Derived;
/** The `shown` argument of a group the outputs never leave out. */
constexpr bool always = true;

/** Plain entries of one use, given as `key, value` pairs. */
template <typename Visit>
void
fields(Visit&, ResultUse)
{
}

template <typename Visit, typename T, typename... Rest>
void
fields(Visit& v, ResultUse use, const char* key, T&& value,
       Rest&&... rest)
{
    v.field({key, use}, std::forward<T>(value));
    fields(v, use, std::forward<Rest>(rest)...);
}

} // namespace record

/** The CPI buckets, keyed by obs::CpiStack::bucketName. */
template <typename Cpi, typename Visit>
void
walkCpiStack(Cpi& c, Visit& v)
{
    for (unsigned i = 0; i < obs::CpiStack::kBucketCount; ++i)
        v.field({obs::CpiStack::bucketName(i)}, c.bucket(i));
    v.field({"total", record::derived}, c.total());
}

/** An energy breakdown in pJ; elements of `energy.breakdown_pJ`. */
template <typename Energy, typename Visit>
void
walkEnergyBreakdown(Energy& e, Visit& v)
{
    v.field({.key = "peArray_pJ", .elem = "peArray"}, e.peArray);
    v.field({.key = "glb_pJ", .elem = "glb"}, e.glb);
    v.field({.key = "noc_pJ", .elem = "noc"}, e.noc);
    v.field({.key = "dram_pJ", .elem = "dram"}, e.dram);
    v.field({.key = "static_pJ", .elem = "static"}, e.staticE);
    v.field({"total_pJ", record::derived}, e.totalPj());
}

/**
 * A layer's sparsity report. Its stats are run-level sums:
 * RunResult::registerStats walks every sparse layer's report, and
 * scalar stats add up across the walks (`sparse.layers` counts them).
 * A formula's value argument is unused: it is evaluated at dump time.
 */
template <typename Report, typename Visit>
void
walkSparseReport(Report& s, Visit& v)
{
    using namespace record;
    v.field({nullptr, derived, "sparse.layers",
             "layers with sparse filters"}, std::uint64_t{1});
    fields(v, both, "representation", s.representation, "ratioN",
           s.ratioN, "ratioM", s.ratioM);
    v.field({"denseK", both, "sparse.denseK", "summed dense K"},
            s.denseK);
    v.field({"compressedK", both, "sparse.compressedK",
             "summed compressed K"}, s.compressedK);
    v.field({"originalFilterBits", both, "sparse.originalFilterBits",
             "dense filter storage (bits)"}, s.originalFilterBits);
    v.field({"newFilterBits", both, "sparse.newFilterBits",
             "compressed values + metadata (bits)"}, s.newFilterBits);
    v.field({"metadataBits", both, "sparse.metadataBits",
             "metadata storage (bits)"}, s.metadataBits);
    v.field({nullptr, derived, "sparse.compressionRatio",
             "dense / compressed filter bits",
             "sparse.originalFilterBits", "sparse.newFilterBits"}, 0.0);
}

/** Main-memory controller statistics (the run JSON's `dram`). */
template <typename Stats, typename Visit>
void
walkDramStats(Stats& d, Visit& v)
{
    using namespace record;
    v.field({"modeled", derived}, d.reads + d.writes > 0);
    fields(v, both, "reads", d.reads, "writes", d.writes,
           "rowHits", d.rowHits, "rowMisses", d.rowMisses,
           "rowConflicts", d.rowConflicts, "refreshes", d.refreshes,
           "readBytes", d.readBytes, "writeBytes", d.writeBytes);
    fields(v, derived, "rowHitRate", d.rowHitRate(),
           "avgReadLatency", d.avgReadLatency());
    fields(v, payloadOnly, "totalReadLatency", d.totalReadLatency,
           "readQueueWait", d.readQueueWait,
           "readRefreshWait", d.readRefreshWait,
           "readServiceTime", d.readServiceTime,
           "firstArrival", d.firstArrival,
           "lastCompletion", d.lastCompletion);
}

/** One LayerResult (an element of the run JSON's `layers`). */
template <typename Layer, typename Visit>
void
walkLayerResult(Layer& r, Visit& v)
{
    using namespace record;
    fields(v, jsonOnly, "name", r.name, "repetitions", r.repetitions);
    v.group({"gemm"}, always, [&] {
        fields(v, both, "m", r.denseGemm.m, "n", r.denseGemm.n,
               "k", r.denseGemm.k);
        fields(v, payloadOnly, "effectiveM", r.effectiveGemm.m,
               "effectiveN", r.effectiveGemm.n);
        v.field({"effectiveK"}, r.effectiveGemm.k);
    });
    fields(v, both, "computeCycles", r.computeCycles,
           "simdCycles", r.simdCycles, "totalCycles", r.totalCycles,
           "stallCycles", r.stallCycles, "utilization", r.utilization,
           "speedup", r.speedup,
           "mappingEfficiency", r.mappingEfficiency,
           "layoutSlowdown", r.layoutSlowdown);
    v.group({"cpiStack"}, always, [&] { walkCpiStack(r.cpi, v); });

    auto& t = r.timing;
    v.group({"timing"}, always, [&] {
        fields(v, payloadOnly, "computeCycles", t.computeCycles,
               "totalCycles", t.totalCycles, "stallCycles", t.stallCycles);
        fields(v, both, "prefetchStallCycles", t.prefetchStallCycles,
               "drainStallCycles", t.drainStallCycles,
               "bandwidthStallCycles", t.bandwidthStallCycles);
        v.group({"cpiStack", payloadOnly}, always,
                [&] { walkCpiStack(t.cpi, v); });
        fields(v, both, "folds", t.folds,
               "dramReadWords", t.dramReadWords,
               "dramWriteWords", t.dramWriteWords,
               "dramReadRequests", t.dramReadRequests,
               "dramWriteRequests", t.dramWriteRequests,
               "avgReadLatency", t.avgReadLatency,
               "readQueueStalls", t.readQueueStalls,
               "writeQueueStalls", t.writeQueueStalls);
        fields(v, derived, "readBandwidth", t.readBandwidth(),
               "writeBandwidth", t.writeBandwidth());
    });
    v.optional({"sparse"}, r.sparse,
               [&](auto& s) { walkSparseReport(s, v); });

    auto& a = r.actions;
    auto sram = [&](const char* key, auto& s) {
        v.group({key, payloadOnly}, always, [&] {
            fields(v, both, "readRandom", s.readRandom,
                   "readRepeat", s.readRepeat,
                   "writeRandom", s.writeRandom,
                   "writeRepeat", s.writeRepeat, "idle", s.idle);
        });
    };
    v.group({"actions", payloadOnly}, always, [&] {
        fields(v, both, "macRandom", a.macRandom,
               "macConstant", a.macConstant, "macGated", a.macGated,
               "ifmapSpadRead", a.ifmapSpadRead,
               "ifmapSpadWrite", a.ifmapSpadWrite,
               "weightSpadRead", a.weightSpadRead,
               "weightSpadWrite", a.weightSpadWrite,
               "psumSpadRead", a.psumSpadRead,
               "psumSpadWrite", a.psumSpadWrite);
        sram("ifmapSram", a.ifmapSram);
        sram("filterSram", a.filterSram);
        sram("ofmapSram", a.ofmapSram);
        fields(v, both, "vectorOps", a.vectorOps,
               "dramReadWords", a.dramReadWords,
               "dramWriteWords", a.dramWriteWords,
               "nocWords", a.nocWords, "cycles", a.cycles);
    });

    v.group({nullptr}, r.energyBreakdown.totalPj() > 0.0, [&] {
        v.group({"energy"}, always,
                [&] { walkEnergyBreakdown(r.energyBreakdown, v); });
        v.field({"power_W"}, r.powerW);
    });
}

/**
 * The additive run totals (the run JSON's `totals`): the counters the
 * interval snapshots sample, next to the component stats.
 */
template <typename Run, typename Visit>
void
walkRunCounters(Run& run, Visit& v)
{
    using namespace record;
    v.field({"totalCycles", both, "sim.totalCycles",
             "wall-clock cycles incl. stalls"}, run.totalCycles);
    v.field({"computeCycles", both, "sim.computeCycles",
             "ideal compute cycles"}, run.computeCycles);
    v.field({"stallCycles", both, "sim.stallCycles",
             "memory stall cycles"}, run.stallCycles);
    v.field({"stallFraction", derived, "sim.stallFraction",
             "stalls / total", "sim.stallCycles", "sim.totalCycles"},
            run.totalCycles ? static_cast<double>(run.stallCycles)
                    / static_cast<double>(run.totalCycles)
                            : 0.0);
    v.field({"dramReadWords", both, "sim.dramReadWords",
             "main-memory words read"}, run.dramReadWords);
    v.field({"dramWriteWords", both, "sim.dramWriteWords",
             "main-memory words written"}, run.dramWriteWords);
    v.group({"cpiStack", both, "sim.cpistack",
             "per-cause cycle attribution (sums to totalCycles)"},
            always, [&] { walkCpiStack(run.cpiTotals, v); });
}

/**
 * A RunResult's own record: names, totals, DRAM stats and energy. The
 * audit, the layers (walkLayerResult each) and the power trace follow
 * it in the run JSON.
 */
template <typename Run, typename Visit>
void
walkRunTotals(Run& run, Visit& v)
{
    using namespace record;
    fields(v, both, "runName", run.runName, "workload", run.workload);
    v.field({nullptr, derived, "sim.layers", "distinct layers simulated"},
            static_cast<std::uint64_t>(run.layers.size()));
    v.group({"totals"}, always, [&] { walkRunCounters(run, v); });
    v.group({"dram"}, always, [&] { walkDramStats(run.dramStats, v); });

    const auto& e = run.totalEnergy;
    v.group({"energy"}, e.totalPj() > 0.0, [&] {
        v.group({"breakdown", both, "energy.breakdown_pJ",
                 "energy by component (pJ)"},
                always, [&] { walkEnergyBreakdown(e, v); });
        fields(v, derived, "total_mJ", e.totalMj(),
               "onChip_mJ", e.onChipMj());
        v.field({"avgPower_W", both, "energy.avgPower_W",
                 "average power (W)"}, run.avgPowerW);
        v.field({"edp", both, "energy.edp",
                 "energy-delay product (cycles x mJ)"}, run.edp);
    });
}

} // namespace scalesim::core

#endif // SCALESIM_CORE_RESULT_RECORD_HH
