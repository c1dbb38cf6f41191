/**
 * @file
 * Shared L2 scratchpad (paper §III-B): a line-granular LRU cache that
 * sits between the per-core L1 scratchpads and main memory. Cores in
 * the same row/column of the partition grid request identical input/
 * weight partitions; the L2 serves the duplicates from on-chip storage
 * instead of refetching them from DRAM.
 *
 * Implemented as a MainMemory decorator so any core-side scratchpad
 * can stack on top of any backing memory (bandwidth model or the
 * detailed DRAM system).
 */

#ifndef SCALESIM_MULTICORE_SHARED_L2_HH
#define SCALESIM_MULTICORE_SHARED_L2_HH

#include <cstdint>
#include <vector>

#include "systolic/memory.hpp"

namespace scalesim::multicore
{

/** Shared-L2 configuration. */
struct SharedL2Config
{
    /** Total L2 capacity in words. */
    std::uint64_t capacityWords = 4 * 1024 * 1024;
    /** Allocation/lookup granularity in words. */
    std::uint32_t lineWords = 256;
    /** Hit latency in core cycles. */
    Cycle hitLatency = 8;
    /** L2 port bandwidth shared by all cores, words per cycle. */
    double wordsPerCycle = 256.0;
};

/**
 * Hit/miss statistics of the shared L2. `hitWords`/`missWords` count
 * the words of each *request* served from a resident/missing line
 * (request-overlap granularity), so hitWords + missWords equals the
 * words the cores pulled through the L2 — see
 * MultiCoreTraceResult::l1FillWords. Line-granular refill traffic to
 * the backing memory is visible in that memory's own stats instead.
 */
struct SharedL2Stats
{
    Count lookups = 0;
    Count hits = 0;
    std::uint64_t hitWords = 0;
    std::uint64_t missWords = 0;
    std::uint64_t writeWords = 0;

    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits) / lookups : 0.0;
    }
};

/** The shared L2 cache as a MainMemory decorator. */
class SharedL2 : public systolic::MainMemory
{
  public:
    SharedL2(const SharedL2Config& cfg, systolic::MainMemory& backing);

    Cycle issueRead(Addr addr, Count words, Cycle now) override;
    Cycle issueWrite(Addr addr, Count words, Cycle now) override;

    Cycle lastIssueWait() const override { return lastWait_; }

    const SharedL2Stats& l2Stats() const { return l2Stats_; }
    systolic::MainMemory& backing() { return backing_; }

    /** Drop all cached lines (new workload). */
    void invalidate();

    /** Rewind the port cursor (see BandwidthMemory::resetTimeline). */
    void resetTimeline() { busFree_ = 0.0; }

  private:
    /** True if the line is resident; inserts it (LRU) otherwise. */
    bool lookup(std::uint64_t line);
    /** Occupy the shared L2 port; returns transfer completion. */
    Cycle busOccupy(Count words, Cycle now);

    /** Home bucket of `line` in table_. */
    std::size_t home(std::uint64_t line) const;
    /** Bucket holding `line`, or the empty bucket ending its probe. */
    std::size_t probe(std::uint64_t line) const;
    /** Empty bucket `pos`, shifting later entries of its probe run
     *  back so lookups never need tombstones. */
    void eraseBucket(std::size_t pos);
    /** Double table_ and re-insert every resident slot. */
    void growTable();
    /** Unlink slot `s` from the recency list. */
    void unlink(std::uint32_t s);
    /** Link slot `s` in as the most recently used. */
    void pushFront(std::uint32_t s);

    SharedL2Config cfg_;
    systolic::MainMemory& backing_;
    SharedL2Stats l2Stats_;
    std::uint64_t capacityLines_;

    /** No slot: list ends and empty table buckets. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    /** One resident line and its links in the recency list. */
    struct Slot
    {
        std::uint64_t line;
        std::uint32_t prev;
        std::uint32_t next;
    };
    /**
     * Resident lines, one slot each, allocated as lines arrive (never
     * beyond capacityLines_); once full, a miss reuses the LRU slot.
     * Replacement walks the intrusive list head_..tail_ (most to least
     * recent), never table_, so hash order cannot influence hit/miss
     * sequences (scalesim_lint unordered-iteration-to-output).
     */
    std::vector<Slot> slots_;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
    /** Open-addressed (linear probing) line -> slot index, kNil for
     *  empty; a power of two at most half full. */
    std::vector<std::uint32_t> table_;
    int tableBits_ = 0;
    double busFree_ = 0.0;
    Cycle lastWait_ = 0;
};

} // namespace scalesim::multicore

#endif // SCALESIM_MULTICORE_SHARED_L2_HH
