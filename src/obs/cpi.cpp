#include "obs/cpi.hpp"

#include <utility>

#include "common/log.hpp"
#include "obs/stats.hpp"

namespace scalesim::obs
{

namespace
{

/** Bucket names and members, in bucket order. */
constexpr std::pair<const char*, std::uint64_t CpiStack::*>
    kBuckets[CpiStack::kBucketCount] = {
        {"compute", &CpiStack::compute},
        {"vector", &CpiStack::vectorUnit},
        {"drain", &CpiStack::drain},
        {"bandwidth", &CpiStack::bandwidth},
        {"prefetchMiss", &CpiStack::prefetchMiss},
        {"l2Wait", &CpiStack::l2Wait},
        {"dramQueue", &CpiStack::dramQueue},
        {"dramService", &CpiStack::dramService},
        {"refresh", &CpiStack::refresh},
};

const std::pair<const char*, std::uint64_t CpiStack::*>&
bucketEntry(unsigned i)
{
    if (i >= CpiStack::kBucketCount)
        panic("CpiStack bucket index %u out of range", i);
    return kBuckets[i];
}

} // namespace

const char*
CpiStack::bucketName(unsigned i)
{
    return bucketEntry(i).first;
}

std::uint64_t&
CpiStack::bucket(unsigned i)
{
    return this->*bucketEntry(i).second;
}

const std::uint64_t&
CpiStack::bucket(unsigned i) const
{
    return this->*bucketEntry(i).second;
}

std::uint64_t
CpiStack::total() const
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < kBucketCount; ++i)
        sum += bucket(i);
    return sum;
}

void
CpiStack::accumulate(const CpiStack& other, std::uint64_t reps)
{
    for (unsigned i = 0; i < kBucketCount; ++i)
        bucket(i) += other.bucket(i) * reps;
}

void
CpiStack::registerStats(StatsRegistry& reg, std::string_view name,
                        std::string_view desc) const
{
    for (unsigned i = 0; i < kBucketCount; ++i) {
        reg.addVectorElem(name, bucketName(i), desc,
                          static_cast<double>(bucket(i)));
    }
}

} // namespace scalesim::obs
