/**
 * @file
 * Contention arbitration for the cycle-interleaved multi-core
 * co-simulation: a round-robin grant arbiter that picks which core's
 * pending memory transaction executes next on the shared timeline, and
 * a per-core MemoryPort decorator that attributes shared-resource wait
 * cycles and traffic to the requesting core.
 */

#ifndef SCALESIM_MULTICORE_ARBITER_HH
#define SCALESIM_MULTICORE_ARBITER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/stats.hpp"
#include "systolic/memory.hpp"

namespace scalesim::multicore
{

/** Grant statistics of the shared-memory arbiter. */
struct ArbiterStats
{
    /** Transactions granted. */
    Count grants = 0;
    /**
     * Grants where at least one other core wanted the same cycle:
     * each such grant adds (contenders - 1). Zero means the cores
     * never collided and the static 1/N split would have been exact.
     */
    Count arbConflicts = 0;
    /** Contenders left waiting at each grant (occupancy of the
     *  arbitration queue; bucket 0 = uncontended grants). */
    obs::Histogram waiters;
};

/**
 * Round-robin arbiter over N requester ports. Each port advertises the
 * cycle of its next pending transaction through update() (kIdle when
 * idle/done); grant() picks the earliest, breaking same-cycle ties
 * round-robin from the port after the previous grantee.
 *
 * The state is kept incrementally, so a grant costs O(1) bookkeeping
 * between rescans: each port's next cycle, the minimum over the
 * pending ports, and a bitmask of the ports at that minimum. update()
 * adjusts the mask in place; a full rescan runs only when the last
 * port leaves the minimum set. The winner is the first set bit at or
 * after the round-robin pointer, wrapping around; the contenders are
 * the other set bits. The result equals an argmin over the total-order
 * key (cycle, cyclic distance from the pointer), which the contention
 * tests keep as the reference.
 */
class RoundRobinArbiter
{
  public:
    /** Every port starts idle. */
    explicit RoundRobinArbiter(std::size_t ports);

    /** Returned by grant() when every port is idle. */
    static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);
    /** Cycle of a port with nothing pending. */
    static constexpr Cycle kIdle = ~static_cast<Cycle>(0);

    /** Port `port`'s next pending transaction is at `cycle` (kIdle:
     *  nothing pending). */
    void update(std::size_t port, Cycle cycle);

    /**
     * Pick the next port to serve and record the grant. Returns kNone
     * when nothing is pending. The granted port keeps its cycle until
     * the caller update()s it.
     */
    std::size_t grant();

    const ArbiterStats& stats() const { return stats_; }

  private:
    /** Rebuild min_ and the minimum set from next_. */
    void rescan();

    std::size_t ports_;
    /** Each port's next pending cycle (kIdle when idle). */
    std::vector<Cycle> next_;
    /** Minimum of next_ over pending ports; valid while minCount_ > 0
     *  and !stale_. */
    Cycle min_ = kIdle;
    /** Bitmask of the ports whose next cycle equals min_. */
    std::vector<std::uint64_t> minSet_;
    /** Set bits in minSet_. */
    std::size_t minCount_ = 0;
    /** The minimum set emptied; rescan before the next grant. */
    bool stale_ = false;
    /** Port after the previous grantee gets top tie-break priority. */
    std::size_t nextPriority_ = 0;
    ArbiterStats stats_;
};

/** Per-core traffic/wait statistics of one MemoryPort. */
struct MemoryPortStats
{
    Count readRequests = 0;
    Count writeRequests = 0;
    std::uint64_t readWords = 0;
    std::uint64_t writeWords = 0;
    /**
     * Aggregate queueing delay at the shared serialization point (the
     * L2 port, or the DRAM bus when no L2 is configured): the sum over
     * this core's transactions of the cycles each spent queued before
     * service. The backlog a transaction queues behind mixes other
     * cores' traffic with this core's own earlier bursts — use the
     * arbiter's arbConflicts/waiters stats for the pure cross-core
     * collision count. `stallOnL2` in the stats output.
     */
    Cycle waitCycles = 0;
    /**
     * Port-level read-latency split, mirroring what the port's L1
     * engine sees through MainMemory::stats(). Conservation law
     * (audited under `cpi.conservation`):
     *   readPortWait + readQueueWait + readRefresh + readService
     *     == totalReadLatency
     * holds exactly for every shared model — the residual a backend
     * leaves unattributed (e.g. SharedL2 hit/transfer time, which the
     * L2 does not decompose) is folded into readService.
     */
    Cycle totalReadLatency = 0;
    Cycle readPortWait = 0;
    Cycle readQueueWait = 0;
    Cycle readRefresh = 0;
    Cycle readService = 0;
};

/**
 * Per-core view of the shared memory: forwards every transaction and
 * charges the shared resource's issue wait to this core. One instance
 * per core sits between its L1 engine and the shared L2/DRAM.
 */
class MemoryPort : public systolic::MainMemory
{
  public:
    explicit MemoryPort(systolic::MainMemory& shared)
        : shared_(shared)
    {
    }

    Cycle issueRead(Addr addr, Count words, Cycle now) override;
    Cycle issueWrite(Addr addr, Count words, Cycle now) override;
    Cycle lastIssueWait() const override
    {
        return shared_.lastIssueWait();
    }

    const MemoryPortStats& portStats() const { return portStats_; }

  private:
    systolic::MainMemory& shared_;
    MemoryPortStats portStats_;
};

} // namespace scalesim::multicore

#endif // SCALESIM_MULTICORE_ARBITER_HH
