/**
 * @file
 * Content-addressed per-layer result cache backing the sweep server
 * (ROADMAP item 2). Entries are keyed on an FNV-1a hash of (canonical
 * layer shape, config slice that affects timing/energy) — see
 * cached_runner.hpp for what goes into the key — and hold the opaque
 * serialized payload of one layer's isolated evaluation. DSE sweeps
 * share most layers across design points, so a warm sweep is served
 * almost entirely from here.
 *
 * The cache is thread-safe (one mutex; payload encode/decode happens
 * outside it), evicts least-recently-used entries against a byte
 * budget, and can persist to disk in a versioned format whose loader
 * tolerates truncation and corruption: a bad tail is dropped with a
 * warning, never a crash. The locking discipline is annotated for
 * clang's thread-safety analysis (check/thread_safety.hpp): every
 * mutable member is SIM_GUARDED_BY(mutex_) and every public method
 * acquires the mutex internally (SIM_EXCLUDES).
 *
 * Determinism note: entries_ is an unordered_map but is only ever
 * accessed by key — anything order-dependent (LRU eviction, disk
 * persistence) walks the lru_ list, so hash-table iteration order can
 * never leak into persisted bytes or responses (pinned by
 * tests/determinism_test.cpp; the scalesim_lint
 * `unordered-iteration-to-output` check keeps it that way).
 */

#ifndef SCALESIM_SERVE_CACHE_HH
#define SCALESIM_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "check/thread_safety.hpp"

namespace scalesim::obs
{
class StatsRegistry;
}

namespace scalesim::serve
{

/** Monotonic counters describing cache behavior (sim.cache.*). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /** Entries accepted from a persisted cache file. */
    std::uint64_t loadedEntries = 0;
    /** Persisted entries rejected (bad checksum, truncation, ...). */
    std::uint64_t loadRejected = 0;
    /** Hits whose payload failed to decode (counted as misses). */
    std::uint64_t undecodable = 0;
    /** Current payload bytes held (excludes per-entry overhead). */
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;

    double
    hitRate() const
    {
        const std::uint64_t lookups = hits + misses;
        return lookups ? static_cast<double>(hits) / lookups : 0.0;
    }

    /**
     * Each counter as `fn(name, description, value)`: the one list
     * behind registerStats and the server's `stats` reply.
     */
    template <typename Fn>
    void
    forEachCounter(Fn&& fn) const
    {
        fn("hits", "layer results served from cache", hits);
        fn("misses", "layer lookups that simulated", misses);
        fn("inserts", "entries inserted", inserts);
        fn("evictions", "entries evicted by the LRU byte budget",
           evictions);
        fn("loadedEntries", "entries accepted from a persisted cache file",
           loadedEntries);
        fn("loadRejected", "persisted entries rejected as corrupt",
           loadRejected);
        fn("undecodable", "hits whose payload failed to decode",
           undecodable);
        fn("bytes", "payload bytes currently held", bytes);
        fn("entries", "entries currently held", entries);
    }
};

/** Thread-safe LRU byte-budget cache; see file comment. */
class LayerResultCache
{
  public:
    /** `budgetBytes` caps held payload bytes; 0 means unlimited. */
    explicit LayerResultCache(std::uint64_t budgetBytes = 0)
        : budgetBytes_(budgetBytes)
    {
    }

    /**
     * Look up a key; on hit, copies the payload into `payload`,
     * refreshes LRU order, and counts a hit. Counts a miss otherwise.
     */
    bool lookup(std::uint64_t key, std::string& payload)
        SIM_EXCLUDES(mutex_);

    /**
     * Insert (or refresh) a payload. An entry larger than the whole
     * budget is not inserted (it would immediately evict everything);
     * otherwise LRU entries are evicted until the budget holds.
     */
    void insert(std::uint64_t key, std::string payload)
        SIM_EXCLUDES(mutex_);

    /**
     * Drop the entry a lookup just returned because its payload did not
     * decode: that lookup counts as a miss instead of a hit, and as
     * `undecodable`. The caller then inserts a fresh payload.
     */
    void discardUndecodable(std::uint64_t key) SIM_EXCLUDES(mutex_);

    CacheStats stats() const SIM_EXCLUDES(mutex_);

    /**
     * Register sim.cache.* counters into a registry. Deliberately NOT
     * part of any run/sweep result registry: hit/miss counts differ
     * between cold and warm evaluation of the same request, and result
     * registries are required to be byte-identical either way.
     */
    void registerStats(obs::StatsRegistry& reg,
                       const std::string& prefix = "sim.cache") const;

    /**
     * Persist every entry to `path` (atomic: temp file + rename).
     * Format: magic + version, then per-entry [key, size, payload,
     * FNV-1a(payload)]. Returns false on I/O failure.
     */
    bool save(const std::string& path) const SIM_EXCLUDES(mutex_);

    /**
     * Load entries persisted by save() on top of the current contents.
     * Corruption-tolerant: stops at the first short read, checksum
     * mismatch, or absurd size, keeping the valid prefix and counting
     * the rest as loadRejected. A missing file is just a cold start.
     */
    bool load(const std::string& path) SIM_EXCLUDES(mutex_);

    void clear() SIM_EXCLUDES(mutex_);

  private:
    struct Entry
    {
        std::string payload;
        /** Position in lru_ (front = most recently used). */
        std::list<std::uint64_t>::iterator lruPos;
    };

    /**
     * insert() without the `inserts` count, which load() must not
     * bump. Returns whether a new entry was stored (lock held).
     */
    bool store(std::uint64_t key, std::string payload)
        SIM_REQUIRES(mutex_);

    /** Evict LRU entries until bytes_ fits the budget (lock held). */
    void evictToBudget() SIM_REQUIRES(mutex_);

    mutable CheckedMutex mutex_;
    /** Immutable after construction, so safely read without the lock. */
    std::uint64_t budgetBytes_;
    std::uint64_t bytes_ SIM_GUARDED_BY(mutex_) = 0;
    std::list<std::uint64_t> lru_ SIM_GUARDED_BY(mutex_);
    std::unordered_map<std::uint64_t, Entry> entries_
        SIM_GUARDED_BY(mutex_);
    CacheStats stats_ SIM_GUARDED_BY(mutex_);
};

} // namespace scalesim::serve

#endif // SCALESIM_SERVE_CACHE_HH
