/**
 * @file
 * Action-count generation (paper §VII-C/D/E): the trace-driven counter
 * distinguishes repeated from random SRAM accesses using the 'row
 * size' / 'bank size' lookup, and the analytical estimator produces
 * the same structure from closed-form access counts for fast sweeps.
 */

#ifndef SCALESIM_ENERGY_ACTION_COUNTS_HH
#define SCALESIM_ENERGY_ACTION_COUNTS_HH

#include <array>
#include <compare>
#include <map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "systolic/demand.hpp"

namespace scalesim::energy
{

/** Random/repeat/idle split for one smart-buffer SRAM. */
struct SramActionCounts
{
    Count readRandom = 0;
    Count readRepeat = 0;
    Count writeRandom = 0;
    Count writeRepeat = 0;
    Count idle = 0;

    Count reads() const { return readRandom + readRepeat; }
    Count writes() const { return writeRandom + writeRepeat; }

    void
    merge(const SramActionCounts& o)
    {
        readRandom += o.readRandom;
        readRepeat += o.readRepeat;
        writeRandom += o.writeRandom;
        writeRepeat += o.writeRepeat;
        idle += o.idle;
    }

    bool operator==(const SramActionCounts&) const = default;
};

/** Complete action-count summary for one layer (or accumulated run). */
struct ActionCounts
{
    // MAC action types (§VII-E).
    Count macRandom = 0;
    Count macConstant = 0; ///< clocked, no new data
    Count macGated = 0;    ///< clock-gated idle PEs

    // PE scratchpads (§VII-E).
    Count ifmapSpadRead = 0;
    Count ifmapSpadWrite = 0;
    Count weightSpadRead = 0;
    Count weightSpadWrite = 0;
    Count psumSpadRead = 0;
    Count psumSpadWrite = 0;

    // Smart-buffer SRAMs (§VII-C/D).
    SramActionCounts ifmapSram;
    SramActionCounts filterSram;
    SramActionCounts ofmapSram;

    // Vector/SIMD unit lane-operations (§III-C tails).
    Count vectorOps = 0;

    // Main memory and interconnect.
    Count dramReadWords = 0;
    Count dramWriteWords = 0;
    Count nocWords = 0;

    Cycle cycles = 0;

    void merge(const ActionCounts& other);

    bool operator==(const ActionCounts&) const = default;
};

/**
 * Trace-driven action counter. Repeated-access lookup (§VII-C): each
 * SRAM keeps `bankSize` most-recently-used row buffers of `rowSize`
 * words in each of 32 tracker banks (row r in bank r mod 32); an
 * access falling in a live row buffer is a repeat.
 *
 * Fold memo. Within a fold, a bank's non-first touch of a row hits iff
 * fewer than bankSize other rows of the bank were touched since the
 * row's last touch, whatever the trackers held when the fold began.
 * Only the bank's first min(distinct rows, bankSize) first touches can
 * hit a row carried in (later ones find bankSize fold rows above every
 * carried row), and the bank leaves the fold holding the fold's rows in
 * recency order above the untouched carried rows. So each fold is
 * counted on empty fold-local trackers, which yield its summary: the
 * carry-independent repeats, per bank the first touches and the exit
 * MRU stack. Applying the summary resolves the first touches against
 * the live trackers (which leaves the untouched carried rows in order
 * below them) and writes the exit stack on top.
 *
 * The fold-replay cache announces every replayed fold through
 * DemandVisitor::replayFold(): its streams are a canonical fold's,
 * each shifted by a constant delta. Write a delta as q * rowSize + r
 * with 0 <= r < rowSize; then row(a + delta) = q + row(a + r), so two
 * replays of one canonical fold whose deltas agree mod rowSize touch
 * the same rows moved by q, which rotates the tracker banks by q mod
 * 32. Summaries are kept per layer in rows relative to q, keyed by
 * (canonical fold, deltas mod rowSize); a walked fold is stored under
 * its own indices with residues 0. A replay whose key is present skips
 * its cycles and applies the shifted summary. Its ofmap reads are its
 * writes when it accumulates, so the write summary drives the read
 * trackers too, and accumulate stays out of the key; the canonical
 * fold fixes the equivalence class.
 */
class ActionCountVisitor : public systolic::DemandVisitor
{
  public:
    ActionCountVisitor(const EnergyConfig& cfg, bool clock_gating = true);

    void beginLayer(const systolic::FoldGrid& grid,
                    const systolic::OperandMap& operands) override;
    void beginFold(std::uint64_t rf, std::uint64_t cf,
                   Cycle fold_start) override;
    void replayFold(std::uint64_t key, std::uint64_t canon_rf,
                    std::uint64_t canon_cf,
                    const systolic::ReplayDeltas& deltas,
                    bool accumulate) override;
    void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
               std::span<const Addr> filter_reads,
               std::span<const Addr> ofmap_reads,
               std::span<const Addr> ofmap_writes) override;
    void endFold(std::uint64_t rf, std::uint64_t cf,
                 Cycle fold_end) override;
    void endLayer(Cycle total_cycles) override;

    const ActionCounts& counts() const { return counts_; }

    /** Folds of the last layer served from the fold memo. */
    Count foldsMemoized() const { return foldsMemoized_; }
    /** Folds of the last layer counted address by address. */
    Count foldsWalked() const { return foldsWalked_; }

    const EnergyConfig& config() const { return cfg_; }
    bool clockGating() const { return clockGating_; }

  private:
    /** Number of banked row-buffer trackers per SRAM stream. */
    static constexpr std::uint32_t kTrackerBanks = 32;
    /** Summaries kept per layer; later walked folds are not stored. */
    static constexpr std::size_t kMemoCapacity = 1024;

    /**
     * SRAM access streams, each with its own trackers. The first
     * kFoldStreams are summarized per fold; ofmap reads are either a
     * replay's writes or walked live.
     */
    enum Stream : std::size_t
    {
        kIfmap,
        kFilter,
        kOfmapWrite,
        kFoldStreams,
        kOfmapRead = kFoldStreams,
        kStreams,
    };

    /**
     * Banked MRU row-buffer trackers for the repeat lookup, stored as
     * one flat `banks * capacity` array (MRU first within each bank)
     * so the per-address hot path is a single indexed load instead of
     * a pointer chase through per-bank vectors.
     */
    struct RowTrackerSet
    {
        std::vector<std::uint64_t> rows; ///< banks * capacity, MRU 1st
        std::vector<std::uint32_t> sizes; ///< live rows per bank
        std::uint32_t capacity = 4;
        void reset(std::uint32_t banks, std::uint32_t cap);
        /** Classic MRU lookup+update; true when `row` was live. */
        bool access(std::uint64_t bank, std::uint64_t row);
        /** access() of a capacity-4 set, in conditional moves only. */
        bool access4(std::uint64_t bank, std::uint64_t row);
    };

    /** Fold memo key: the canonical fold and its deltas mod rowSize. */
    struct FoldKey
    {
        std::uint64_t rf = 0;
        std::uint64_t cf = 0;
        std::array<std::uint64_t, kFoldStreams> residues{};

        auto operator<=>(const FoldKey&) const = default;
    };

    /**
     * One stream's fold summary (see the class comment), in rows
     * relative to the fold's row shift. Bank b owns entries
     * [offset[b], offset[b + 1]) of both row lists.
     */
    struct StreamSummary
    {
        Count accesses = 0;
        /** Repeats independent of the trackers' entry state. */
        Count repeats = 0;
        std::array<std::uint32_t, kTrackerBanks + 1> offset{};
        /** Each bank's first rows, in first-touch order. */
        std::vector<std::uint64_t> firstTouches;
        /** Each bank's exit MRU stack of fold rows. */
        std::vector<std::uint64_t> exitRows;
    };
    using FoldSummary = std::array<StreamSummary, kFoldStreams>;

    /** How the current cycles are counted. */
    enum class FoldMode
    {
        Outside,   ///< between folds: no cycle may arrive
        Walking,   ///< a generated fold: summarized, reads walked live
        Recording, ///< a replay missing from the memo: summarized
        Memoized,  ///< a replay in the memo: skipped
    };

    std::uint64_t
    rowOf(Addr addr) const
    {
        return rowShift_ != kNoRowShift ? addr >> rowShift_
                                        : addr / cfg_.rowSize;
    }

    void countAccesses(RowTrackerSet& trackers,
                       std::span<const Addr> addrs, Count& random,
                       Count& repeat);
    /** Summarize one stream's accesses of the current fold. */
    void summarize(Stream s, std::span<const Addr> addrs);
    /** Complete `walk_` from the fold-local trackers. */
    void finishSummary();
    /** Apply `summary`, shifted by `rows`, to `s`'s trackers and
     *  counts. */
    void applySummary(Stream s, const StreamSummary& summary,
                      std::uint64_t rows);
    /** The random and repeat counters `s` adds to. */
    std::pair<Count*, Count*> streamCounts(Stream s);

    /** rowShift_ sentinel: row size is not a power of two, divide. */
    static constexpr std::uint32_t kNoRowShift = ~0u;

    EnergyConfig cfg_;
    bool clockGating_;
    /** log2(rowSize) when rowSize is a power of two, else sentinel. */
    std::uint32_t rowShift_ = kNoRowShift;
    ActionCounts counts_;
    /** counts_ snapshot taken at beginLayer, for per-layer deltas. */
    ActionCounts layerStart_;
    // One tracker bank set per SRAM stream (rows hash across banks),
    // each bank holding `bankSize` open row buffers.
    std::array<RowTrackerSet, kStreams> trackers_;
    double utilization_ = 0.0;
    std::uint32_t arrayRows_ = 1;
    std::uint32_t arrayCols_ = 1;

    // The layer's fold memo and the current fold: its mode and memo
    // key, per-stream row shift q, whether its writes double as ofmap
    // reads, the summary being walked with its fold-local trackers
    // and first touches (`bankSize` slots per bank), or the memoized
    // summary it replays.
    std::map<FoldKey, FoldSummary> memo_;
    FoldMode mode_ = FoldMode::Outside;
    FoldKey foldKey_;
    std::array<std::uint64_t, kFoldStreams> foldRows_{};
    bool accumulate_ = false;
    FoldSummary walk_;
    std::array<RowTrackerSet, kFoldStreams> foldTrackers_;
    std::array<std::vector<std::uint64_t>, kFoldStreams> foldFirst_;
    const FoldSummary* memoized_ = nullptr;
    Count foldsMemoized_ = 0;
    Count foldsWalked_ = 0;
};

/**
 * Closed-form action counts for the analytical path. Streaming-operand
 * accesses are mostly sequential, so their repeat fraction is
 * (rowSize - 1) / rowSize; stationary-tile loads stride across the
 * operand and count as random.
 */
ActionCounts analyticalActionCounts(const systolic::FoldGrid& grid,
                                    const EnergyConfig& cfg,
                                    bool clock_gating = true);

} // namespace scalesim::energy

#endif // SCALESIM_ENERGY_ACTION_COUNTS_HH
