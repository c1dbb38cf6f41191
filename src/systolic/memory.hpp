/**
 * @file
 * Main-memory abstraction seen by the scratchpad: burst transactions
 * with per-request round-trip completion times. Two implementations
 * exist — the v2-style fixed-bandwidth model (here) and the detailed
 * DRAM model (src/dram, adapted in src/core) — plus the finite request
 * queues of §V-A.2 that stall the accelerator when full.
 */

#ifndef SCALESIM_SYSTOLIC_MEMORY_HH
#define SCALESIM_SYSTOLIC_MEMORY_HH

#include <queue>
#include <vector>

#include "common/types.hpp"

namespace scalesim::systolic
{

/** Aggregate transaction statistics of a main-memory model. */
struct MemoryStats
{
    Count readRequests = 0;
    Count writeRequests = 0;
    Count readWords = 0;
    Count writeWords = 0;
    /** Sum of (completion - issue) over reads, for mean latency. */
    Cycle totalReadLatency = 0;
    Cycle totalWriteLatency = 0;

    /**
     * Component decomposition of read latency, used by the CPI-stack
     * layer as apportionment weights (each model reports them in its
     * native clock — only their ratios matter, so no clock-domain
     * conversion is done):
     *   readPortWait — wait behind other cores at a shared L2/arbiter
     *   readQueueWait — wait in the controller queue / behind the bus
     *   readRefresh — wait for a refresh window to complete
     *   readService — actual bank access + data transfer
     * Models without a given structure leave its component 0.
     */
    Cycle readPortWait = 0;
    Cycle readQueueWait = 0;
    Cycle readRefresh = 0;
    Cycle readService = 0;

    double
    avgReadLatency() const
    {
        return readRequests
            ? static_cast<double>(totalReadLatency) / readRequests : 0.0;
    }

    void
    merge(const MemoryStats& other)
    {
        readRequests += other.readRequests;
        writeRequests += other.writeRequests;
        readWords += other.readWords;
        writeWords += other.writeWords;
        totalReadLatency += other.totalReadLatency;
        totalWriteLatency += other.totalWriteLatency;
        readPortWait += other.readPortWait;
        readQueueWait += other.readQueueWait;
        readRefresh += other.readRefresh;
        readService += other.readService;
    }
};

/**
 * Main-memory model interface. All times are in core (compute) cycles.
 * issueRead returns the cycle the data lands in the scratchpad;
 * issueWrite returns the cycle the controller accepts the write (writes
 * are posted, per §V-A.2).
 */
class MainMemory
{
  public:
    virtual ~MainMemory() = default;

    virtual Cycle issueRead(Addr addr, Count words, Cycle now) = 0;
    virtual Cycle issueWrite(Addr addr, Count words, Cycle now) = 0;

    /**
     * Cycles the most recent issueRead/issueWrite spent waiting behind
     * other traffic before its transfer started (0 for models without
     * a shared serialization point). Lets a decorator attribute
     * contention wait per requester in a shared-timeline co-simulation.
     */
    virtual Cycle lastIssueWait() const { return 0; }

    const MemoryStats& stats() const { return stats_; }

  protected:
    MemoryStats stats_;
};

/**
 * SCALE-Sim v2's monolithic main memory: a fixed-bandwidth bus with a
 * fixed base latency and no contention structure beyond serialization.
 */
class BandwidthMemory : public MainMemory
{
  public:
    /**
     * @param words_per_cycle sustained words per core cycle
     * @param base_latency    flat added latency per transaction
     */
    explicit BandwidthMemory(double words_per_cycle,
                             Cycle base_latency = 0);

    Cycle issueRead(Addr addr, Count words, Cycle now) override;
    Cycle issueWrite(Addr addr, Count words, Cycle now) override;

    Cycle lastIssueWait() const override { return lastWait_; }

    /**
     * Rewind the bus cursor to time zero. Used at a layer barrier,
     * where every agent sharing the bus starts again at cycle 0.
     */
    void resetTimeline() { busFree_ = 0.0; }

  private:
    Cycle busOccupy(Count words, Cycle now);

    double wordsPerCycle_;
    Cycle baseLatency_;
    double busFree_ = 0.0;
    Cycle lastWait_ = 0;
};

/**
 * Finite request queue (§V-A.2): entries are occupied from issue until
 * the transaction's completion time; an issue attempted while full is
 * delayed until the earliest retirement.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(std::uint32_t capacity);

    /**
     * Earliest cycle >= now at which a slot is free. Pure query: no
     * stall accounting, so callers may poll it repeatedly.
     */
    Cycle slotAvailable(Cycle now);

    /**
     * Acquire issue permission for one request: returns the earliest
     * cycle >= now it can enter the queue and charges the wait to
     * fullStallCycles() exactly once. Call once per request, follow
     * with push().
     */
    Cycle reserve(Cycle now);

    /** Occupy a slot until `completion`. */
    void push(Cycle completion);

    /** Retire entries completed at or before `now`. */
    void drain(Cycle now);

    std::uint32_t capacity() const { return capacity_; }
    std::size_t occupancy() const { return inflight_.size(); }

    /** Cycles during which at least one issue was delayed by fullness. */
    Cycle fullStallCycles() const { return fullStalls_; }

  private:
    std::uint32_t capacity_;
    // Min-heap of in-flight completion times.
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<>>
        inflight_;
    Cycle fullStalls_ = 0;
};

} // namespace scalesim::systolic

#endif // SCALESIM_SYSTOLIC_MEMORY_HH
