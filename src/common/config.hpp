/**
 * @file
 * Run configuration: an INI-style parser mirroring SCALE-Sim's .cfg
 * format plus the typed SimConfig consumed by every module. New v3
 * sections ([sparsity], [memory], [layout], [energy]) extend the v2
 * [architecture] section, as described in the paper.
 */

#ifndef SCALESIM_COMMON_CONFIG_HH
#define SCALESIM_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace scalesim
{

/**
 * Minimal INI file: [section] headers, key = value pairs, '#'/';'
 * comments. Section and key lookups ignore case, blanks and
 * underscores. Every entry remembers its source line, so read()
 * reports malformed values as `file:line: section.key: ...` instead of
 * silently truncating.
 */
class IniFile
{
  public:
    /** Parse INI text; malformed lines trigger fatal(). */
    static IniFile parseString(const std::string& text,
                               const std::string& name = "<string>");

    /** Load and parse a file; fatal() when unreadable. */
    static IniFile load(const std::string& path);

    bool has(std::string_view section, std::string_view key) const;

    /**
     * Parse `section.key` into `value` and return true when present.
     * T is bool, std::int64_t, std::uint32_t, std::uint64_t, double or
     * std::string. An empty value keeps `value` unless T is a string.
     * Trailing garbage, negative unsigned values and overflow of T are
     * fatal(), naming file:line.
     */
    template <typename T>
    bool read(std::string_view section, std::string_view key,
              T& value) const;

    /** read() as a value: `fallback` when absent or empty. */
    template <typename T>
    T
    get(std::string_view section, std::string_view key,
        T fallback = T{}) const
    {
        read(section, key, fallback);
        return fallback;
    }

    void set(std::string_view section, std::string_view key,
             const std::string& value);

    /** fatal() on a present entry: `file:line: section.key: 'value' what`. */
    [[noreturn]] void badValue(std::string_view section,
                               std::string_view key,
                               const std::string& what) const;

    /** Number of key = value entries across all sections. */
    std::size_t size() const;

    /** fatal(), naming file:line, on an entry `known` does not name. */
    void rejectUnknown(
        const std::vector<std::pair<const char*, const char*>>& known)
        const;

  private:
    struct Entry
    {
        std::string value;
        int line = 0; ///< 0 when set programmatically
        std::string section, key; ///< as written, for messages
    };

    const Entry* find(std::string_view section,
                      std::string_view key) const;
    std::string where(const Entry& entry) const;

    std::string name_ = "<string>";
    // canonical(section) -> canonical(key) -> entry
    std::map<std::string, std::map<std::string, Entry>> sections_;
};

/** How the compute engine is evaluated. */
enum class SimMode
{
    /** Closed-form runtime and access counts (fast sweeps). */
    Analytical,
    /** Fold-by-fold per-cycle demand streaming (stall-accurate). */
    Trace,
};

/** Parse "trace"/"analytical"; throws std::invalid_argument otherwise. */
SimMode simModeFromString(std::string_view text);

/** Double-buffered on-chip SRAM sizes and operand address regions. */
struct MemoryConfig
{
    std::uint64_t ifmapSramKb = 256;
    std::uint64_t filterSramKb = 256;
    std::uint64_t ofmapSramKb = 128;

    /** Base address of each operand region (word addresses). */
    Addr ifmapOffset = 0;
    Addr filterOffset = 10'000'000;
    Addr ofmapOffset = 20'000'000;

    /** Element size in bytes (affects DRAM traffic and storage). */
    std::uint32_t wordBytes = 1;

    /**
     * v2-style "pure bandwidth" main-memory model: words per compute
     * cycle available when the detailed DRAM model is disabled.
     */
    double bandwidthWordsPerCycle = 10.0;

    /** Words per main-memory transaction issued by the scratchpad. */
    std::uint32_t burstWords = 64;

    /** Demand requests the memory front-end can issue per cycle. */
    std::uint32_t issuePerCycle = 1;

    /** Folds the prefetcher may run ahead (1 = double buffering). */
    std::uint32_t prefetchDepth = 1;

    /**
     * Address convolution ifmaps through the real (H, W, C) tensor
     * with overlapping-window reuse (default). false reverts to
     * SCALE-Sim v2's im2col-expanded M x K accounting, where every
     * window element is a distinct address (more DRAM traffic).
     */
    bool im2colAddressing = true;

    /**
     * Record per-fold compute spans for timeline (Chrome trace)
     * export. Off by default — large layers have many folds.
     */
    bool recordFoldSpans = false;
};

/** Sparse-filter representation (paper §IV-C). */
enum class SparseRep
{
    Dense,
    Csr,
    Csc,
    EllpackBlock,
};

std::string toString(SparseRep rep);
SparseRep sparseRepFromString(std::string_view text);

/** [sparsity] section knobs (paper §IV-B Step 1). */
struct SparsityConfig
{
    /** SparsitySupport knob: enables layer-wise sparsity. */
    bool enabled = false;
    /** OptimizedMapping knob: enables row-wise N:M sparsity. */
    bool optimizedMapping = false;
    /** Storage representation; paper evaluations use ellpack_block. */
    SparseRep rep = SparseRep::EllpackBlock;
    /** BlockSize knob: the M of the N:M ratio for row-wise sparsity. */
    std::uint32_t blockSize = 4;
    /** Seed for randomized per-row N values. */
    std::uint64_t seed = 0xC0FFEEull;
};

/** [memory]/[dram] section knobs (paper §V). */
struct DramConfig
{
    /** Enables the detailed DRAM model (Ramulator substitute). */
    bool enabled = false;
    /** Technology preset name, e.g. DDR4_2400, LPDDR4_3200, HBM2. */
    std::string tech = "DDR4_2400";
    std::uint32_t channels = 1;
    std::uint32_t ranksPerChannel = 1;
    /** Finite request queues; the accelerator stalls when full. */
    std::uint32_t readQueueSize = 128;
    std::uint32_t writeQueueSize = 128;
    /** Compute-clock frequency in MHz, for clock-domain crossing. */
    double coreClockMhz = 1000.0;
};

/**
 * Read by nothing and outside walkConfigFields, so no INI key sets it.
 * Kept only because perfbench/probe.cpp names it; goes at the next
 * benchmark re-anchor.
 */
struct MultiCoreEngineConfig
{
    /** Kept only for perfbench/probe.cpp; goes at the next benchmark
        re-anchor. */
    std::string engine = "serial";
    /** Kept only for perfbench/probe.cpp; goes at the next benchmark
        re-anchor. */
    std::uint32_t jobs = 0;
};

/** [layout] section knobs (paper §VI). */
struct LayoutModelConfig
{
    /** Enables bank-conflict (data layout) modeling. */
    bool enabled = false;
    std::uint32_t banks = 16;
    std::uint32_t portsPerBank = 2;
    /** Total on-chip words deliverable per cycle across all banks. */
    std::uint32_t onChipBandwidth = 128;
};

/** [energy] section knobs (paper §VII). */
struct EnergyConfig
{
    /** Enables Accelergy-style energy/power estimation. */
    bool enabled = false;
    /** 'row size': words fetched per SRAM access (repeat lookup). */
    std::uint32_t rowSize = 32;
    /** 'bank size': row buffers per SRAM bank (reuse across cycles). */
    std::uint32_t bankSize = 4;
    /** Clock for power = energy / time. */
    double frequencyGhz = 1.0;
    /** Technology node tag used to select the energy table. */
    std::string node = "65nm";
};

/** Complete simulator configuration. */
struct SimConfig
{
    std::string runName = "scale_sim_v3";
    std::uint32_t arrayRows = 32;
    std::uint32_t arrayCols = 32;
    Dataflow dataflow = Dataflow::OutputStationary;
    SimMode mode = SimMode::Trace;

    /**
     * Read by nothing and outside walkConfigFields, so no INI key sets
     * it. Kept only for perfbench/probe.cpp; goes at the next
     * benchmark re-anchor.
     */
    bool foldCache = true;

    /**
     * Audit cross-module conservation laws after every layer and at
     * end of run (check::InvariantAuditor); violations surface through
     * sim.audit.* stats and the JSON report. `--audit` on the CLI.
     */
    bool audit = false;

    /**
     * Emit a time-series stats snapshot every N simulated cycles
     * (RunResult::intervals; gem5-style repeated stats sections, CSV/
     * JSON series, Perfetto counter tracks). 0 disables sampling.
     * `--interval N` on the CLI, `IntervalCycles` in [general].
     */
    std::uint64_t intervalCycles = 0;

    /** Vector/SIMD unit next to the array (§III-C). */
    std::uint32_t simdLanes = 16;
    /** Cycles per vector instruction (customizable latency). */
    std::uint32_t simdLatencyPerOp = 1;

    MemoryConfig memory;
    SparsityConfig sparsity;
    DramConfig dram;
    MultiCoreEngineConfig multicore;
    LayoutModelConfig layout;
    EnergyConfig energy;

    /** Number of PEs in the array. */
    std::uint64_t numPes() const
    {
        return static_cast<std::uint64_t>(arrayRows) * arrayCols;
    }

    /**
     * Check the positive fields of walkConfigFields (zero dimensions,
     * empty queues, bad clocks, ...) and the cross-field rules;
     * fatal() with a precise message on the first violation.
     */
    void validate() const;

    /**
     * Build a typed config from a parsed INI file; an entry that
     * walkConfigFields does not name, or a bad value, is fatal().
     */
    static SimConfig fromIni(const IniFile& ini);

    /** Load from a .cfg path. */
    static SimConfig load(const std::string& path);

    /** TPU-v2-like preset used by the paper's overhead study. */
    static SimConfig tpuV2Like();

    /** Google-TPU-like preset used by the paper's memory study (§V-C). */
    static SimConfig tpuMemoryStudy();
};

/** One SimConfig field as walkConfigFields describes it. */
struct ConfigField
{
    const char* section;
    const char* key;
    /** Mixed into serve::layerCacheKey: it changes a layer's numbers. */
    bool cacheKey;
    /** validate() requires the value > 0 ... */
    bool positive = false;
    /** ... while this enable flag is set (nullptr: always). */
    const bool* gate = nullptr;
    /** Accepted spellings of an enumerated field, e.g. "os|ws|is". */
    const char* spellings = nullptr;
};

/**
 * The one description of every SimConfig field, walked by
 * SimConfig::fromIni, SimConfig::validate and serve::layerCacheKey:
 * `field(entry, member)` per field, `member` referring into `cfg`.
 * Cache-key fields come in layerCacheKey's hashing order, so moving
 * one changes every cache digest.
 */
template <typename Config, typename Visit>
void
walkConfigFields(Config& cfg, Visit&& field)
{
    constexpr bool key = true;
    constexpr bool cosmetic = false;
    constexpr bool positive = true;
    const char* gen = "general";
    const char* arch = "architecture";
    auto& mem = cfg.memory;
    auto& sp = cfg.sparsity;
    auto& dr = cfg.dram;
    auto& lay = cfg.layout;
    auto& en = cfg.energy;
    const bool* dram_on = &dr.enabled;
    const bool* layout_on = &lay.enabled;
    const bool* energy_on = &en.enabled;

    field({gen, "run_name", cosmetic}, cfg.runName);
    field({gen, "Audit", cosmetic}, cfg.audit);
    field({gen, "IntervalCycles", cosmetic}, cfg.intervalCycles);
    field({arch, "ArrayHeight", key, positive}, cfg.arrayRows);
    field({arch, "ArrayWidth", key, positive}, cfg.arrayCols);
    field({arch, "Dataflow", key, {}, {}, "os|ws|is"}, cfg.dataflow);
    field({gen, "mode", key, {}, {}, "trace|analytical"}, cfg.mode);
    field({arch, "SimdLanes", key, positive}, cfg.simdLanes);
    field({arch, "SimdLatency", key}, cfg.simdLatencyPerOp);
    field({arch, "IfmapSramSzkB", key, positive}, mem.ifmapSramKb);
    field({arch, "FilterSramSzkB", key, positive}, mem.filterSramKb);
    field({arch, "OfmapSramSzkB", key, positive}, mem.ofmapSramKb);
    field({arch, "IfmapOffset", key}, mem.ifmapOffset);
    field({arch, "FilterOffset", key}, mem.filterOffset);
    field({arch, "OfmapOffset", key}, mem.ofmapOffset);
    field({arch, "WordBytes", key, positive}, mem.wordBytes);
    field({arch, "Bandwidth", key, positive}, mem.bandwidthWordsPerCycle);
    field({arch, "BurstWords", key, positive}, mem.burstWords);
    field({arch, "IssuePerCycle", key, positive}, mem.issuePerCycle);
    field({arch, "PrefetchDepth", key, positive}, mem.prefetchDepth);
    field({arch, "Im2colAddressing", key}, mem.im2colAddressing);
    field({arch, "RecordFoldSpans", cosmetic}, mem.recordFoldSpans);
    field({"sparsity", "SparsitySupport", key}, sp.enabled);
    field({"sparsity", "OptimizedMapping", key}, sp.optimizedMapping);
    field({"sparsity", "SparseRep", key, {}, {},
           "dense|csr|csc|ellpack_block"}, sp.rep);
    field({"sparsity", "BlockSize", key}, sp.blockSize);
    field({"sparsity", "Seed", key}, sp.seed);
    field({"memory", "DramModel", key}, dr.enabled);
    field({"memory", "Tech", key}, dr.tech);
    field({"memory", "Channels", key, positive, dram_on}, dr.channels);
    field({"memory", "Ranks", key}, dr.ranksPerChannel);
    field({"memory", "ReadQueueSize", key, positive, dram_on},
          dr.readQueueSize);
    field({"memory", "WriteQueueSize", key, positive, dram_on},
          dr.writeQueueSize);
    field({"memory", "CoreClockMhz", key, positive, dram_on},
          dr.coreClockMhz);
    field({"layout", "LayoutModel", key}, lay.enabled);
    field({"layout", "Banks", key, positive, layout_on}, lay.banks);
    field({"layout", "PortsPerBank", key, positive, layout_on},
          lay.portsPerBank);
    field({"layout", "OnChipBandwidth", key, positive, layout_on},
          lay.onChipBandwidth);
    field({"energy", "EnergyModel", key}, en.enabled);
    field({"energy", "RowSize", key, positive, energy_on}, en.rowSize);
    field({"energy", "BankSize", key, positive, energy_on}, en.bankSize);
    field({"energy", "FrequencyGhz", key, positive, energy_on},
          en.frequencyGhz);
    field({"energy", "Node", key}, en.node);
}

} // namespace scalesim

#endif // SCALESIM_COMMON_CONFIG_HH
