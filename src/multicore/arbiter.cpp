#include "multicore/arbiter.hpp"

#include <algorithm>
#include <bit>

#include "check/contract.hpp"
#include "common/log.hpp"

namespace scalesim::multicore
{

RoundRobinArbiter::RoundRobinArbiter(std::size_t ports)
    : ports_(ports), next_(ports, kIdle), minSet_((ports + 63) / 64, 0)
{
    if (ports_ == 0)
        fatal("arbiter needs at least one port");
}

void
RoundRobinArbiter::update(std::size_t port, Cycle cycle)
{
    SIM_CHECK_LT(port, ports_, "arbiter port out of range");
    next_[port] = cycle;
    if (stale_)
        return; // the next grant rescans every port anyway
    const std::uint64_t bit = std::uint64_t{1} << (port % 64);
    if (cycle != kIdle && (minCount_ == 0 || cycle < min_)) {
        // A new strict minimum: this port is alone at it.
        std::fill(minSet_.begin(), minSet_.end(), 0);
        minSet_[port / 64] = bit;
        minCount_ = 1;
        min_ = cycle;
        return;
    }
    const bool was_in = (minSet_[port / 64] & bit) != 0;
    if (minCount_ > 0 && cycle == min_) {
        if (!was_in) {
            minSet_[port / 64] |= bit;
            ++minCount_;
        }
    } else if (was_in) {
        minSet_[port / 64] &= ~bit;
        if (--minCount_ == 0)
            stale_ = true;
    }
}

void
RoundRobinArbiter::rescan()
{
    min_ = std::ranges::min(next_);
    std::fill(minSet_.begin(), minSet_.end(), 0);
    minCount_ = 0;
    if (min_ != kIdle) {
        for (std::size_t i = 0; i < ports_; ++i) {
            if (next_[i] == min_) {
                minSet_[i / 64] |= std::uint64_t{1} << (i % 64);
                ++minCount_;
            }
        }
    }
    stale_ = false;
}

std::size_t
RoundRobinArbiter::grant()
{
    if (stale_)
        rescan();
    if (minCount_ == 0)
        return kNone;

    // First set bit at or after the round-robin pointer, wrapping: the
    // pointer's own word above the pointer, then the following words,
    // then the pointer's word again from bit 0 (its high bits are
    // known clear by then).
    const std::size_t words = minSet_.size();
    const std::size_t first = nextPriority_ / 64;
    std::size_t best = kNone;
    const std::uint64_t above =
        minSet_[first] & (~std::uint64_t{0} << (nextPriority_ % 64));
    if (above != 0) {
        best = first * 64 + std::countr_zero(above);
    } else {
        for (std::size_t k = 1; k <= words; ++k) {
            const std::size_t w = (first + k) % words;
            if (minSet_[w] != 0) {
                best = w * 64 + std::countr_zero(minSet_[w]);
                break;
            }
        }
    }
    SIM_CHECK(best < ports_ && next_[best] == min_,
              "the grantee is a port at the minimum cycle");

    // Contenders = the other ports that wanted the granted cycle.
    const std::uint64_t waiting = minCount_ - 1;
    ++stats_.grants;
    stats_.arbConflicts += waiting;
    stats_.waiters.sample(waiting);
    SIM_CHECK_EQ(stats_.waiters.count, stats_.grants,
                 "exactly one contention sample per grant");

    nextPriority_ = best + 1 == ports_ ? 0 : best + 1;
    return best;
}

Cycle
MemoryPort::issueRead(Addr addr, Count words, Cycle now)
{
    // Delta-capture the shared model's latency components across the
    // call: the co-simulation scheduler runs one transaction at a
    // time, so the delta belongs entirely to this request. The issue
    // wait at the shared serialization point is reclassified from
    // queue wait to port wait — that is the cross-core contention the
    // CPI stack surfaces as l2Wait.
    const systolic::MemoryStats& shared = shared_.stats();
    const Cycle queue_before = shared.readQueueWait;
    const Cycle refresh_before = shared.readRefresh;
    const Cycle service_before = shared.readService;
    const Cycle done = shared_.issueRead(addr, words, now);
    const Cycle wait = shared_.lastIssueWait();
    const Cycle latency = done - now;
    const Cycle queue_delta = shared.readQueueWait - queue_before;
    const Cycle refresh_delta = shared.readRefresh - refresh_before;
    const Cycle service_delta = shared.readService - service_before;
    // The issue wait is reclassified from queue wait to port wait, but
    // only the overlap actually present in the backend's queue
    // accounting: when the backend reports less queue wait than the
    // issue wait (SharedL2 reports none at all), reclassifying the
    // full `wait` would make cycles vanish from the split. Whatever
    // the backend left unattributed (L2 hit/fill/transfer time) lands
    // in readService, so the four components always sum to
    // totalReadLatency — the port-level cpi.conservation law.
    const Cycle reclass = std::min(wait, queue_delta);
    const Cycle queue_kept = queue_delta - reclass;
    const Cycle attributed =
        wait + queue_kept + refresh_delta + service_delta;
    const Cycle residual = latency > attributed ? latency - attributed
                                                : 0;
    ++portStats_.readRequests;
    portStats_.readWords += words;
    portStats_.waitCycles += wait;
    portStats_.totalReadLatency += latency;
    portStats_.readPortWait += wait;
    portStats_.readQueueWait += queue_kept;
    portStats_.readRefresh += refresh_delta;
    portStats_.readService += service_delta + residual;
    ++stats_.readRequests;
    stats_.readWords += words;
    stats_.totalReadLatency += latency;
    stats_.readPortWait += wait;
    stats_.readQueueWait += queue_kept;
    stats_.readRefresh += refresh_delta;
    stats_.readService += service_delta + residual;
    return done;
}

Cycle
MemoryPort::issueWrite(Addr addr, Count words, Cycle now)
{
    const Cycle done = shared_.issueWrite(addr, words, now);
    ++portStats_.writeRequests;
    portStats_.writeWords += words;
    portStats_.waitCycles += shared_.lastIssueWait();
    ++stats_.writeRequests;
    stats_.writeWords += words;
    stats_.totalWriteLatency += done - now;
    return done;
}

} // namespace scalesim::multicore
