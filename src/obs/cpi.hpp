/**
 * @file
 * CPI-stack cycle accounting: every core cycle of a run is attributed
 * to exactly one bucket, so `total()` equals the simulated cycle count
 * by construction and the InvariantAuditor can pin the conservation
 * law `Σ buckets == totalCycles` per layer and per run.
 *
 * Attribution follows the one-cycle-one-bucket rule at component
 * boundaries: the component that *stalled the core* owns the cycle,
 * and stall cycles whose root cause lives below the memory front-end
 * (prefetch-miss stalls) are apportioned across the backend components
 * (L2 arbiter, DRAM queue, DRAM service, refresh shadow) pro-rata to
 * the per-layer latency each backend component contributed.
 */

#ifndef SCALESIM_OBS_CPI_HH
#define SCALESIM_OBS_CPI_HH

#include <cstdint>
#include <string_view>

namespace scalesim::obs
{

class StatsRegistry;

/** One bucket per root cause; see file comment. */
struct CpiStack
{
    std::uint64_t compute = 0;      ///< systolic array busy
    std::uint64_t vectorUnit = 0;   ///< SIMD post-processing ops
    std::uint64_t drain = 0;        ///< ofmap writeback drain stall
    std::uint64_t bandwidth = 0;    ///< write-queue bandwidth stall
    std::uint64_t prefetchMiss = 0; ///< front-end miss, cause on-chip
    std::uint64_t l2Wait = 0;       ///< L2-arbiter wait (multicore)
    std::uint64_t dramQueue = 0;    ///< DRAM controller queue wait
    std::uint64_t dramService = 0;  ///< DRAM bank/bus service
    std::uint64_t refresh = 0;      ///< refresh-shadow wait

    /** Number of buckets, for index-based iteration in writers. */
    static constexpr unsigned kBucketCount = 9;

    /** Stable bucket name for element `i` (registration order). */
    static const char* bucketName(unsigned i);

    /** Bucket `i` itself (bucketName order). */
    std::uint64_t& bucket(unsigned i);
    const std::uint64_t& bucket(unsigned i) const;
    std::uint64_t bucketValue(unsigned i) const { return bucket(i); }

    /** Sum of every bucket — the conserved quantity. */
    std::uint64_t total() const;

    /** Add `other`, each bucket scaled by `reps` repetitions. */
    void accumulate(const CpiStack& other, std::uint64_t reps = 1);

    /**
     * Register as a vector stat `name` with one element per bucket.
     * Every bucket is always emitted (schema-stable dumps), so the
     * dump's `::total` line equals the owning scope's totalCycles.
     */
    void registerStats(StatsRegistry& reg, std::string_view name,
                       std::string_view desc) const;

    bool operator==(const CpiStack&) const = default;
};

} // namespace scalesim::obs

#endif // SCALESIM_OBS_CPI_HH
