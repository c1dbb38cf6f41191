/**
 * @file
 * gem5-style hierarchical statistics registry (the observability
 * substrate of every run): components register Scalar / Vector /
 * Distribution / Formula stats under dotted group names
 * ("dram.ch0.bank3.rowHits"), and the registry renders them as a
 * gem5-format stats.txt or a machine-readable stats.json.
 *
 * The registry is a plain value type: every stat — including formulas,
 * which reference other stats *by name* and are evaluated at dump time
 * — is data, so registries can be copied, stored in results, and
 * merged across parallel sweep workers without aliasing hazards. Each
 * worker owns its registry; merge() folds them deterministically.
 */

#ifndef SCALESIM_OBS_STATS_HH
#define SCALESIM_OBS_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace scalesim
{
class ByteWriter;
class ByteReader;
} // namespace scalesim

namespace scalesim::obs
{

/**
 * Power-of-two-bucketed sample accumulator backing Distribution stats.
 * Samples must be non-negative (enforced by a SIM_CHECK contract;
 * negative values are clamped to 0 when contracts are compiled out).
 * Bucket 0 counts samples in [0, 1) — not just exact zeros — and
 * bucket i (i >= 1) counts samples in [2^(i-1), 2^i); the last bucket
 * is the overflow. Cheap enough to live inside hot components: an
 * integer sample costs one clz + increment.
 */
struct Histogram
{
    static constexpr unsigned kBuckets = 16;

    std::uint64_t buckets[kBuckets] = {};
    std::uint64_t count = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double minSample = 0.0;
    double maxSample = 0.0;

    void sample(double value);
    /** Integer sample: the same bucket, count and moments as
     *  sample(double(value)), found with a bit scan. */
    void sample(std::uint64_t value);
    void merge(const Histogram& other);

    double mean() const { return count ? sum / count : 0.0; }
    double stdev() const;

    /**
     * Bucket-interpolated quantile estimate for q in [0, 1]: walks the
     * cumulative bucket counts and interpolates linearly inside the
     * bucket containing the target rank, clamped to the observed
     * [minSample, maxSample] envelope. Exact when a bucket holds one
     * distinct value; a power-of-two-bounded estimate otherwise.
     */
    double quantile(double q) const;

    /** Inclusive-exclusive [lo, hi) value range of bucket `i`. */
    static std::pair<double, double> bucketRange(unsigned i);

  private:
    /** Count `value` in `bucket` and fold it into the moments. */
    void add(double value, unsigned bucket);
};

/**
 * Derived stat: scale * (sum of coeff*stat) / (sum of coeff*stat),
 * resolved against the owning registry at evaluation time. An empty
 * denominator means "divide by 1"; a zero denominator evaluates to 0
 * (never nan/inf). Signed coefficients allow differences, e.g. bus
 * utilization = busBusy / (lastCompletion - firstArrival).
 */
struct FormulaSpec
{
    std::vector<std::pair<std::string, double>> numerator;
    std::vector<std::pair<std::string, double>> denominator;
    double scale = 1.0;
};

/** Hierarchical stats container; see file comment. */
class StatsRegistry
{
  public:
    /** Create-or-accumulate a scalar stat. */
    void addScalar(std::string_view name, std::string_view desc,
                   double value);

    /** Create-or-accumulate one named element of a vector stat. */
    void addVectorElem(std::string_view name, std::string_view elem,
                       std::string_view desc, double value);

    /** Create-or-merge a distribution stat from a histogram. */
    void addDistribution(std::string_view name, std::string_view desc,
                         const Histogram& data);

    /** Register a formula (first registration wins on re-adds). */
    void addFormula(std::string_view name, std::string_view desc,
                    FormulaSpec spec);

    /** Scalar value by full name (0 if absent or not a scalar). */
    double scalarValue(std::string_view name) const;

    /** Evaluate a stat: scalar value, vector total, distribution
     *  sample count, or formula result; 0 if absent. */
    double evaluate(std::string_view name) const;

    bool has(std::string_view name) const;
    std::size_t size() const { return stats_.size(); }
    bool empty() const { return stats_.empty(); }
    void clear() { stats_.clear(); }

    /**
     * Fold another registry into this one: scalars and vector elements
     * add, distributions merge, formulas are kept from whichever
     * registry defined them first. Deterministic for any merge order of
     * identical-schema registries.
     */
    void merge(const StatsRegistry& other);

    /** gem5-format text dump (sorted by name). */
    void dump(std::ostream& out) const;

    /** Machine-readable dump: one JSON object keyed by stat name. */
    void dumpJson(std::ostream& out) const;

    /**
     * Flatten the additive stats into sorted (name, value) pairs for
     * interval snapshot/delta use: scalars as-is, vector elements as
     * "name::elem", distributions as "name::samples" / "name::sum".
     * Formulas are derived, not additive, and are skipped — a delta of
     * a ratio is meaningless.
     */
    std::vector<std::pair<std::string, double>> flatten() const;

    /**
     * Lossless binary encoding for the layer-result cache: doubles are
     * stored as bit patterns, so a serialize/deserialize round trip
     * reproduces dump()/dumpJson() byte-for-byte.
     */
    void serialize(ByteWriter& out) const;

    /**
     * Decode a registry previously written by serialize, replacing the
     * current contents. Returns false (leaving the registry cleared)
     * on a truncated or structurally invalid buffer — never crashes.
     */
    bool deserialize(ByteReader& in);

  private:
    struct VectorData
    {
        /** Element order is registration order (stable dumps). */
        std::vector<std::pair<std::string, double>> elems;
    };

    struct Entry
    {
        std::string desc;
        std::variant<double, VectorData, Histogram, FormulaSpec> data;
    };

    double evaluateFormula(const FormulaSpec& spec) const;

    /** Sorted by name: dumps are deterministic byte-for-byte. */
    std::map<std::string, Entry, std::less<>> stats_;
};

} // namespace scalesim::obs

#endif // SCALESIM_OBS_STATS_HH
