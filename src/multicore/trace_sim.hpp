/**
 * @file
 * Trace-level multi-core timing (paper §III-B's hierarchical memory in
 * action): each core runs its spatial partition through its own
 * double-buffered L1 scratchpad, all stacked on one shared L2 that
 * deduplicates the row/column-replicated operand partitions, backed by
 * a common main memory. Complements the analytical MultiCoreSimulator:
 * this path surfaces L2 hit rates, the DRAM traffic the L2 saves, and
 * bandwidth-contention effects between cores.
 *
 * Contention: all cores' L1 engines are stepped against one shared
 * timeline, a round-robin arbiter granting one memory transaction at a
 * time; L2 port and DRAM bus contention emerge from real per-cycle
 * collisions (the paper's concurrent-cores model). Deterministic and
 * independent of core enumeration order.
 */

#ifndef SCALESIM_MULTICORE_TRACE_SIM_HH
#define SCALESIM_MULTICORE_TRACE_SIM_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "multicore/arbiter.hpp"
#include "multicore/shared_l2.hpp"
#include "systolic/scratchpad.hpp"

namespace scalesim::multicore
{

/** The one contention model. Kept only because perfbench/probe.cpp
    names it; goes at the next benchmark re-anchor. */
enum class ContentionModel
{
    Shared,
};

/** The one co-step engine. Kept only because perfbench/probe.cpp
    names it; goes at the next benchmark re-anchor. */
enum class MultiCoreEngine
{
    Serial,
};

/** Accepts only "serial" (case-insensitive). Kept only because
    perfbench/probe.cpp calls it; goes at the next benchmark
    re-anchor. */
MultiCoreEngine multiCoreEngineFromString(std::string_view text);

/** Configuration of the trace-level multi-core system. */
struct MultiCoreTraceConfig
{
    std::uint64_t pr = 2;
    std::uint64_t pc = 2;
    std::uint32_t arrayRows = 32;
    std::uint32_t arrayCols = 32;
    Dataflow dataflow = Dataflow::OutputStationary;
    systolic::ScratchpadConfig l1;
    SharedL2Config l2;
    bool useL2 = true;
    /** Backing main-memory bandwidth (words/cycle). */
    double dramWordsPerCycle = 32.0;
    /** Read by nothing. Kept only because perfbench/probe.cpp sets
        it; goes at the next benchmark re-anchor. */
    ContentionModel contention = ContentionModel::Shared;
    /** Read by nothing. Kept only because perfbench/probe.cpp sets
        it; goes at the next benchmark re-anchor. */
    MultiCoreEngine engine = MultiCoreEngine::Serial;
    /** Read by nothing. Kept only because perfbench/probe.cpp sets
        it; goes at the next benchmark re-anchor. */
    unsigned jobs = 0;

    /**
     * The grid `scalesim_cli --multicore PRxPC` runs: `pr` x `pc`
     * cores, each with `cfg`'s array, dataflow and SRAM sizes (as L1
     * words), sharing `cfg`'s main-memory bandwidth.
     */
    static MultiCoreTraceConfig fromSimConfig(const SimConfig& cfg,
                                              std::uint64_t pr,
                                              std::uint64_t pc);
};

/** Outcome of one layer on the multi-core system. */
struct MultiCoreTraceResult
{
    /** Slowest core's wall-clock cycles. */
    Cycle makespan = 0;
    std::vector<systolic::LayerTiming> perCore;
    SharedL2Stats l2;
    /** Words the backing main memory actually served. */
    std::uint64_t dramReadWords = 0;
    std::uint64_t dramWriteWords = 0;
    /**
     * Words the per-core L1s pulled from their backing view (the
     * shared L2 when enabled, else DRAM) — L1 *fill* traffic before
     * deduplication, not L1-internal reads. With the L2 enabled this
     * equals l2.hitWords + l2.missWords.
     */
    std::uint64_t l1FillWords = 0;
    /** Arbiter grant stats. */
    ArbiterStats arb;
    /** Per-core port stats, core-indexed (empty cores keep default
     *  entries). */
    std::vector<MemoryPortStats> ports;

    /**
     * Register this layer's stats under `prefix` (default "mc"):
     * makespan and traffic scalars, `<prefix>.l2.*` hit/miss stats,
     * `<prefix>.l2.arbConflicts` + `<prefix>.arb.*` grant stats with
     * the waiting-cores occupancy distribution, and per-core
     * `<prefix>.core<i>.*` cycles including `stallOnL2`.
     */
    void registerStats(obs::StatsRegistry& reg,
                       const std::string& prefix = "mc") const;
};

/** The trace-level multi-core simulator. */
class MultiCoreTraceSimulator
{
  public:
    explicit MultiCoreTraceSimulator(const MultiCoreTraceConfig& cfg);
    ~MultiCoreTraceSimulator();

    /**
     * Run one layer, spatially partitioned Pr x Pc over the mapped
     * (Sr, Sc) dimensions; each core's partition keeps its global
     * operand addresses so shared partitions deduplicate in the L2.
     */
    MultiCoreTraceResult runLayer(const LayerSpec& layer);

    /** A core's partition: share dims + global-address operand view. */
    struct CorePartition
    {
        GemmDims share;
        systolic::OperandMap view;
    };

    /**
     * Partition geometry of one core (exposed for tests): offsets the
     * global operand view's bases so that per-core ofmap tiles exactly
     * tile the global ofmap and replicated ifmap/filter partitions
     * land on identical addresses (the L2 dedup invariant).
     */
    static CorePartition corePartition(
        Dataflow df, const GemmDims& gemm,
        const systolic::OperandMap& global, std::uint64_t sr_off,
        std::uint64_t sr_share, std::uint64_t sc_off,
        std::uint64_t sc_share);

    /**
     * Balanced split of `total` into `parts`: entry i is share i's
     * start offset, entry `parts` the total.
     */
    static std::vector<std::uint64_t> shareStarts(std::uint64_t total,
                                                  std::uint64_t parts);

  private:
    MultiCoreTraceConfig cfg_;
    std::unique_ptr<systolic::BandwidthMemory> dram_;
    std::unique_ptr<SharedL2> l2_;
    systolic::MainMemory* coreView_; // L2 if enabled, else DRAM
};

} // namespace scalesim::multicore

#endif // SCALESIM_MULTICORE_TRACE_SIM_HH
