/**
 * @file
 * Sweep server and layer-result cache tests: cache-key discrimination
 * and invariance, byte-identical cached-vs-uncached evaluation, the
 * result-record table and its payload codec, LRU eviction,
 * corruption-tolerant persistence, StatsRegistry binary round-trips,
 * the ndjson request protocol, and concurrent request handling (run
 * under TSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "core/result_record.hpp"
#include "obs/json_read.hpp"
#include "obs/stats.hpp"
#include "serve/cache.hpp"
#include "serve/cached_runner.hpp"
#include "serve/server.hpp"

#include "config_fields.hpp"
#include "json_check.hpp"

using namespace scalesim;
using namespace scalesim::serve;

namespace
{

Topology
smallTopology()
{
    Topology topo;
    topo.name = "serve-test";
    topo.layers.push_back(
        LayerSpec::conv("conv", 14, 14, 3, 3, 16, 32, 1));
    topo.layers.push_back(LayerSpec::gemm("fc", 4, 64, 128));
    return topo;
}

SimConfig
baseConfig()
{
    SimConfig cfg;
    cfg.arrayRows = 16;
    cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Trace;
    return cfg;
}

core::DseSweep
smallSweep()
{
    core::DseSweep sweep;
    sweep.base = baseConfig();
    sweep.base.energy.enabled = true;
    sweep.arraySizes = {16, 32};
    sweep.dataflows = {Dataflow::OutputStationary,
                       Dataflow::WeightStationary};
    sweep.sramKbTotals = {512};
    sweep.jobs = 1;
    return sweep;
}

std::string
dump(const obs::StatsRegistry& reg)
{
    std::ostringstream out;
    reg.dump(out);
    return out.str();
}

std::string
sweepFingerprint(const std::vector<core::DseDetailedPoint>& points)
{
    std::ostringstream out;
    for (const auto& d : points) {
        out << d.point.array << '|' << toString(d.point.dataflow)
            << '|' << d.point.sramKb << '|' << d.point.cycles << '|'
            << d.point.energyMj << '|' << d.point.edp << '\n';
        d.stats.dump(out);
    }
    return out.str();
}

/** The five CSV reports of a run, concatenated. */
std::string
reports(const core::RunResult& run)
{
    std::ostringstream out;
    run.writeComputeReport(out);
    run.writeBandwidthReport(out);
    run.writeSparseReport(out);
    run.writeEnergyReport(out);
    run.writePowerReport(out);
    return out.str();
}

/** A run's writeJson document minus its wall-clock self-profile. */
obs::JsonValue
runDoc(const core::RunResult& run)
{
    std::ostringstream text;
    run.writeJson(text);
    obs::JsonValue doc;
    EXPECT_TRUE(obs::parseJson(text.str(), doc));
    EXPECT_NE(doc.find("layers"), nullptr);
    EXPECT_EQ(doc.members.erase("profile"), 1u);
    return doc;
}

std::string
runJson(const core::RunResult& run)
{
    return jsoncheck::canonical(runDoc(run));
}

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

/** Parse a one-line server response; fails the test on bad JSON. */
obs::JsonValue
response(Server& server, const std::string& request)
{
    obs::JsonValue doc;
    EXPECT_TRUE(obs::parseJson(server.handleRequest(request), doc))
        << request;
    return doc;
}

} // namespace

// ---------------------------------------------------------------------
// Cache key: timing-relevant fields discriminate, cosmetic ones don't.

TEST(CacheKey, TimingRelevantConfigFieldsDiscriminate)
{
    const SimConfig cfg = baseConfig();
    const LayerSpec layer = smallTopology().layers[0];
    const std::uint64_t base_key = layerCacheKey(cfg, layer, 0);

    SimConfig prefetch = cfg;
    prefetch.memory.prefetchDepth = cfg.memory.prefetchDepth + 1;
    EXPECT_NE(layerCacheKey(prefetch, layer, 0), base_key);

    SimConfig dram = cfg;
    dram.dram.enabled = true;
    EXPECT_NE(layerCacheKey(dram, layer, 0), base_key);

    SimConfig array = cfg;
    array.arrayRows = 32;
    EXPECT_NE(layerCacheKey(array, layer, 0), base_key);

    SimConfig sram = cfg;
    sram.memory.ifmapSramKb *= 2;
    EXPECT_NE(layerCacheKey(sram, layer, 0), base_key);

    // Every cache-key field of the config table, one at a time.
    int keyed = 0;
    for (std::size_t i = 0; i < configfields::count(); ++i) {
        ConfigField f{};
        const SimConfig changed = configfields::perturbed(cfg, i, &f);
        if (!f.cacheKey)
            continue;
        ++keyed;
        EXPECT_NE(layerCacheKey(changed, layer, 0), base_key)
            << f.section << "." << f.key;
    }
    EXPECT_EQ(keyed, 39);
}

TEST(CacheKey, SparsityPatternDiscriminates)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    LayerSpec layer = smallTopology().layers[0];
    layer.sparseN = 2;
    layer.sparseM = 4;
    const std::uint64_t key24 = layerCacheKey(cfg, layer, 0);

    LayerSpec other = layer;
    other.sparseN = 1;
    EXPECT_NE(layerCacheKey(cfg, other, 0), key24);

    // Sparse patterns are seeded by layer position, so the index must
    // join the key — but only when sparsity is on.
    EXPECT_NE(layerCacheKey(cfg, layer, 1), key24);
    SimConfig dense = baseConfig();
    EXPECT_EQ(layerCacheKey(dense, smallTopology().layers[0], 0),
              layerCacheKey(dense, smallTopology().layers[0], 7));
}

TEST(CacheKey, CosmeticConfigFieldsDoNotDiscriminate)
{
    const SimConfig cfg = baseConfig();
    const LayerSpec layer = smallTopology().layers[0];
    const std::uint64_t base_key = layerCacheKey(cfg, layer, 0);

    SimConfig named = cfg;
    named.runName = "somebody-else";
    EXPECT_EQ(layerCacheKey(named, layer, 0), base_key);

    SimConfig audited = cfg;
    audited.audit = true;
    EXPECT_EQ(layerCacheKey(audited, layer, 0), base_key);

    LayerSpec renamed = layer;
    renamed.name = "another-name";
    renamed.repetitions = 9;
    EXPECT_EQ(layerCacheKey(cfg, renamed, 0), base_key);

    // Every other field of the config table, one at a time: run name,
    // audit, interval sampling and fold spans.
    int cosmetic = 0;
    for (std::size_t i = 0; i < configfields::count(); ++i) {
        ConfigField f{};
        const SimConfig changed = configfields::perturbed(cfg, i, &f);
        if (f.cacheKey)
            continue;
        ++cosmetic;
        EXPECT_EQ(layerCacheKey(changed, layer, 0), base_key)
            << f.section << "." << f.key;
    }
    EXPECT_EQ(cosmetic, 4);
}

TEST(CacheKey, DigestsArePinned)
{
    // Persisted caches stay valid only while these digests hold:
    // reordering or re-typing a cache-key field of the config table
    // changes them (and must bump kCacheSchemaVersion).
    const LayerSpec conv = smallTopology().layers[0];
    const LayerSpec gemm = smallTopology().layers[1];
    const SimConfig example =
        SimConfig::load(SCALESIM_SOURCE_DIR "/configs/scale_example.cfg");
    EXPECT_EQ(layerCacheKey(baseConfig(), conv, 0),
              10775879003158663087ull);
    EXPECT_EQ(layerCacheKey(baseConfig(), gemm, 1),
              1797184880676310626ull);
    EXPECT_EQ(layerCacheKey(example, conv, 0), 17115611647806449048ull);
    EXPECT_EQ(layerCacheKey(example, gemm, 1), 7291079043152023164ull);
}

// ---------------------------------------------------------------------
// Byte-identity: cached, uncached, warm, and parallel evaluation all
// produce the same bytes.

TEST(CachedRunner, CachedSweepMatchesUncachedByteForByte)
{
    const core::DseSweep sweep = smallSweep();
    const Topology topo = workloads::resnet18Prefix(6);

    LayerResultCache cache;
    const auto cached = runSweepCachedDetailed(sweep, topo, &cache);
    const auto uncached =
        runSweepCachedDetailed(sweep, topo, nullptr);

    ASSERT_EQ(cached.size(), uncached.size());
    EXPECT_EQ(sweepFingerprint(cached), sweepFingerprint(uncached));
    EXPECT_GT(cache.stats().inserts, 0u);
}

TEST(CachedRunner, WarmSweepIsAllHitsAndIdentical)
{
    const core::DseSweep sweep = smallSweep();
    const Topology topo = workloads::resnet18Prefix(6);

    LayerResultCache cache;
    const auto cold = runSweepCachedDetailed(sweep, topo, &cache);
    const auto before = cache.stats();
    const auto warm = runSweepCachedDetailed(sweep, topo, &cache);
    const auto after = cache.stats();

    EXPECT_EQ(sweepFingerprint(cold), sweepFingerprint(warm));
    EXPECT_EQ(after.misses, before.misses) << "warm sweep missed";
    EXPECT_GT(after.hits, before.hits);
}

TEST(CachedRunner, ParallelSweepSharingOneCacheIsDeterministic)
{
    core::DseSweep sweep = smallSweep();
    const Topology topo = smallTopology();

    LayerResultCache shared;
    sweep.jobs = 4;
    const auto parallel = runSweepCachedDetailed(sweep, topo, &shared);
    sweep.jobs = 1;
    LayerResultCache fresh;
    const auto sequential = runSweepCachedDetailed(sweep, topo, &fresh);

    EXPECT_EQ(sweepFingerprint(parallel),
              sweepFingerprint(sequential));
}

TEST(CachedRunner, RunMatchesCachedRunByteForByte)
{
    // Every feature on, and a sparse layer, so that every field of the
    // layer payload codec reaches an output compared below: a dropped
    // or reordered codec field changes a warm run's reports.
    SimConfig cfg = baseConfig();
    cfg.dram.enabled = true;
    cfg.energy.enabled = true;
    cfg.layout.enabled = true;
    cfg.sparsity.enabled = true;
    Topology topo = smallTopology();
    LayerSpec sparse = LayerSpec::gemm("sparse-fc", 8, 32, 64);
    sparse.sparseN = 2;
    sparse.sparseM = 4;
    sparse.repetitions = 3;
    sparse.tail = VectorTail::Softmax;
    topo.layers.push_back(sparse);

    LayerResultCache cache;
    const core::RunResult cold = runTopologyCached(cfg, topo, &cache);
    const core::RunResult warm = runTopologyCached(cfg, topo, &cache);
    const core::RunResult plain =
        runTopologyCached(cfg, topo, nullptr);
    ASSERT_EQ(cache.stats().hits, topo.layers.size());
    ASSERT_TRUE(plain.layers.back().sparse.has_value());

    EXPECT_EQ(dump(cold.stats), dump(plain.stats));
    EXPECT_EQ(dump(warm.stats), dump(plain.stats));
    EXPECT_EQ(reports(warm), reports(plain));
    EXPECT_EQ(runJson(warm), runJson(plain));
    // Fields no report prints (action counts, the DRAM latency split).
    EXPECT_TRUE(warm.layers == plain.layers);
    EXPECT_TRUE(warm.dramStats == plain.dramStats);
}

TEST(CachedRunner, UndecodablePayloadIsReplaced)
{
    // A payload that failed to decode used to count as a hit and stay
    // cached, so every later run re-simulated the layer.
    const SimConfig cfg = baseConfig();
    Topology topo = smallTopology();
    topo.layers.resize(1);
    LayerResultCache cache;
    cache.insert(layerCacheKey(cfg, topo.layers[0], 0), "garbage");

    (void)runTopologyCached(cfg, topo, &cache);
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.undecodable, 1u);

    const core::RunResult warm = runTopologyCached(cfg, topo, &cache);
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.undecodable, 1u);
    const core::RunResult plain = runTopologyCached(cfg, topo, nullptr);
    EXPECT_EQ(runJson(warm), runJson(plain));
    EXPECT_TRUE(warm.layers == plain.layers);
}

TEST(CachedRunner, AuditConfigBypassesCache)
{
    SimConfig cfg = baseConfig();
    cfg.audit = true;
    LayerResultCache cache;
    const core::RunResult run =
        runTopologyCached(cfg, smallTopology(), &cache);
    EXPECT_TRUE(run.audited);
    EXPECT_TRUE(run.audit.clean());
    EXPECT_EQ(cache.stats().inserts, 0u)
        << "audited runs must not populate the cache";
}

// ---------------------------------------------------------------------
// The result-record table (core/result_record.hpp) and its codec.

namespace
{

/**
 * A layer record and its DRAM stats with every member set to a
 * distinct non-default value, so a member the table misses, or walks
 * in the wrong direction, breaks a round trip.
 */
void
filledRecord(core::LayerResult& r, dram::DramStats& ds)
{
    // Member values: 101, 102, ... in declaration order (doubles as
    // n + 0.25), so the payload digest below is reproducible.
    std::uint64_t next = 100;
    auto u = [&next] { return ++next; };
    auto d = [&next] { return static_cast<double>(++next) + 0.25; };
    auto cpi = [&](obs::CpiStack& c) {
        c = {u(), u(), u(), u(), u(), u(), u(), u(), u()};
    };
    auto sram = [&](energy::SramActionCounts& s) {
        s = {u(), u(), u(), u(), u()};
    };

    r.denseGemm = {u(), u(), u()};
    r.effectiveGemm = {u(), u(), u()};
    r.computeCycles = u();
    r.simdCycles = u();
    r.totalCycles = u();
    r.stallCycles = u();
    r.utilization = d();
    r.speedup = d();
    r.mappingEfficiency = d();
    r.layoutSlowdown = d();
    cpi(r.cpi);
    auto& t = r.timing;
    t.computeCycles = u();
    t.totalCycles = u();
    t.stallCycles = u();
    t.prefetchStallCycles = u();
    t.drainStallCycles = u();
    t.bandwidthStallCycles = u();
    cpi(t.cpi);
    t.folds = u();
    t.dramReadWords = u();
    t.dramWriteWords = u();
    t.dramReadRequests = u();
    t.dramWriteRequests = u();
    t.avgReadLatency = d();
    t.readQueueStalls = u();
    t.writeQueueStalls = u();
    auto& s = r.sparse.emplace();
    s.representation = "ellpack_block";
    s.ratioN = static_cast<std::uint32_t>(u());
    s.ratioM = static_cast<std::uint32_t>(u());
    s.denseK = u();
    s.compressedK = u();
    s.originalFilterBits = u();
    s.newFilterBits = u();
    s.metadataBits = u();
    auto& a = r.actions;
    a.macRandom = u();
    a.macConstant = u();
    a.macGated = u();
    a.ifmapSpadRead = u();
    a.ifmapSpadWrite = u();
    a.weightSpadRead = u();
    a.weightSpadWrite = u();
    a.psumSpadRead = u();
    a.psumSpadWrite = u();
    sram(a.ifmapSram);
    sram(a.filterSram);
    sram(a.ofmapSram);
    a.vectorOps = u();
    a.dramReadWords = u();
    a.dramWriteWords = u();
    a.nocWords = u();
    a.cycles = u();
    r.energyBreakdown = {d(), d(), d(), d(), d()};
    r.powerW = d();

    ds.reads = u();
    ds.writes = u();
    ds.rowHits = u();
    ds.rowMisses = u();
    ds.rowConflicts = u();
    ds.refreshes = u();
    ds.readBytes = u();
    ds.writeBytes = u();
    ds.totalReadLatency = u();
    ds.readQueueWait = u();
    ds.readRefreshWait = u();
    ds.readServiceTime = u();
    ds.firstArrival = u();
    ds.lastCompletion = u();
    // Left out of the payload: patched from the request at hit time.
    r.name = "layer";
    r.repetitions = 3;
    s.layerName = "layer";
}

} // namespace

TEST(ResultRecord, CodecRoundTripsEveryMember)
{
    core::LayerResult r;
    dram::DramStats ds;
    filledRecord(r, ds);
    obs::StatsRegistry comp;
    comp.addScalar("spad.reads", "reads", 12.5);

    core::LayerResult back;
    dram::DramStats back_dram;
    obs::StatsRegistry back_comp;
    ASSERT_TRUE(decodeLayerPayload(encodeLayerPayload(r, ds, comp), back,
                                   back_dram, back_comp));
    back.name = r.name;
    back.repetitions = r.repetitions;
    ASSERT_TRUE(back.sparse.has_value());
    back.sparse->layerName = r.sparse->layerName;
    EXPECT_TRUE(back == r);
    EXPECT_TRUE(back_dram == ds);
    EXPECT_EQ(dump(back_comp), dump(comp));

    // A dense layer round-trips without its sparse report.
    r.sparse.reset();
    core::LayerResult dense;
    ASSERT_TRUE(decodeLayerPayload(encodeLayerPayload(r, ds, comp), dense,
                                   back_dram, back_comp));
    dense.name = r.name;
    dense.repetitions = r.repetitions;
    EXPECT_TRUE(dense == r);
}

TEST(ResultRecord, PayloadBytesArePinned)
{
    // The payload is the persisted cache format: these digests were
    // taken from the hand-written codec the table replaced, so a moved
    // or re-typed payload entry fails here (and would need a new
    // kCacheSchemaVersion) instead of misreading persisted caches.
    core::LayerResult r;
    dram::DramStats ds;
    filledRecord(r, ds);
    const obs::StatsRegistry comp;
    const std::string sparse = encodeLayerPayload(r, ds, comp);
    r.sparse.reset();
    const std::string dense = encodeLayerPayload(r, ds, comp);
    EXPECT_EQ(Fnv1a::of(sparse.data(), sparse.size()), 10706315151079960249ull);
    EXPECT_EQ(Fnv1a::of(dense.data(), dense.size()), 8442272622671900559ull);
}

namespace
{

/**
 * Walks the table counting each JSON key per enclosing object and each
 * stat name the way RunResult::registerStats registers it.
 */
struct TableCensus
{
    std::vector<std::string> path{""};
    std::map<std::string, int> keys;
    std::map<std::string, int> stats;
    const core::ResultField* vector = nullptr;

    void
    field(const core::ResultField& f, const auto&)
    {
        if (f.key)
            ++keys[path.back() + "/" + f.key];
        if (vector && f.use != core::ResultUse::Derived)
            ++stats[std::string(vector->stat) + "::"
                    + (f.elem ? f.elem : f.key)];
        else if (!vector && f.stat)
            ++stats[f.stat];
    }

    void
    group(const core::ResultField& g, bool, const auto& body)
    {
        const core::ResultField* outer = vector;
        if (g.key) {
            ++keys[path.back() + "/" + g.key];
            path.push_back(path.back() + "/" + g.key);
        }
        if (g.stat) {
            ++stats[g.stat];
            vector = &g;
        }
        body();
        vector = outer;
        if (g.key)
            path.pop_back();
    }

    template <typename T>
    void
    optional(const core::ResultField& g, const std::optional<T>& value,
             const auto& body)
    {
        group(g, true, [&] { body(*value); });
    }
};

} // namespace

TEST(ResultRecord, KeysAreUniquePerObjectAndStatsNamedOnce)
{
    core::RunResult run;
    core::LayerResult layer;
    layer.sparse.emplace();
    TableCensus census;
    core::walkRunTotals(run, census);
    census.path = {"/layers"};
    core::walkLayerResult(layer, census);
    census.path = {"registerStats"};
    core::walkSparseReport(*layer.sparse, census);

    for (const auto& [key, count] : census.keys)
        EXPECT_EQ(count, 1) << "JSON key " << key;
    // The sparse report is walked twice above (in the layer and on its
    // own, as registerStats does): its stats add up by design.
    for (const auto& [stat, count] : census.stats) {
        EXPECT_EQ(count, stat.rfind("sparse.", 0) == 0 ? 2 : 1)
            << "stat " << stat;
    }
    EXPECT_EQ(census.stats.count("sim.totalCycles"), 1u);
    EXPECT_EQ(census.stats.count("energy.breakdown_pJ::static"), 1u);
    EXPECT_EQ(census.keys.count("/layers/timing/folds"), 1u);
    for (unsigned i = 0; i < obs::CpiStack::kBucketCount; ++i) {
        EXPECT_EQ(census.stats.count(std::string("sim.cpistack::")
                                     + obs::CpiStack::bucketName(i)),
                  1u);
    }
}

// ---------------------------------------------------------------------
// StatsRegistry binary round-trip.

TEST(StatsSerialize, RoundTripReproducesDump)
{
    obs::StatsRegistry reg;
    reg.addScalar("a.scalar", "a scalar", 1.0 / 3.0);
    reg.addVectorElem("b.vector", "x", "a vector", 2.5);
    reg.addVectorElem("b.vector", "y", "a vector", -0.125);
    obs::Histogram h;
    h.sample(1.0);
    h.sample(100.0);
    h.sample(12345.0);
    reg.addDistribution("c.dist", "a distribution", h);
    obs::FormulaSpec f;
    f.numerator = {{"a.scalar", 2.0}};
    f.denominator = {{"b.vector", 1.0}};
    reg.addFormula("d.formula", "a formula", f);

    ByteWriter out;
    reg.serialize(out);
    ByteReader in(out.buffer());
    obs::StatsRegistry copy;
    ASSERT_TRUE(copy.deserialize(in));
    EXPECT_EQ(dump(copy), dump(reg));
}

TEST(StatsSerialize, TruncatedBufferRejectedCleanly)
{
    obs::StatsRegistry reg;
    reg.addScalar("a", "a", 1.0);
    reg.addScalar("b", "b", 2.0);
    ByteWriter out;
    reg.serialize(out);

    for (std::size_t cut = 0; cut < out.size(); cut += 7) {
        ByteReader in(std::string_view(out.buffer()).substr(0, cut));
        obs::StatsRegistry copy;
        EXPECT_FALSE(copy.deserialize(in)) << "cut=" << cut;
        EXPECT_TRUE(copy.empty());
    }
}

// ---------------------------------------------------------------------
// Cache mechanics: LRU eviction and persistence.

TEST(LayerCache, EvictsLeastRecentlyUsedUnderByteBudget)
{
    const std::string payload(100, 'p');
    LayerResultCache cache(250);
    cache.insert(1, payload);
    cache.insert(2, payload);
    std::string got;
    ASSERT_TRUE(cache.lookup(1, got)); // refresh 1; 2 is now LRU
    cache.insert(3, payload);          // evicts 2

    EXPECT_TRUE(cache.lookup(1, got));
    EXPECT_FALSE(cache.lookup(2, got));
    EXPECT_TRUE(cache.lookup(3, got));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.bytes, 250u);

    // An entry bigger than the whole budget is refused outright.
    cache.insert(4, std::string(1000, 'x'));
    EXPECT_FALSE(cache.lookup(4, got));
}

TEST(LayerCache, PersistenceRoundTrip)
{
    const std::string path = tempPath("cache_roundtrip.bin");
    LayerResultCache cache;
    cache.insert(10, "alpha");
    cache.insert(20, std::string("beta\0gamma", 10));
    ASSERT_TRUE(cache.save(path));

    LayerResultCache loaded;
    ASSERT_TRUE(loaded.load(path));
    const auto stats = loaded.stats();
    EXPECT_EQ(stats.loadedEntries, 2u);
    EXPECT_EQ(stats.inserts, 0u);
    std::string got;
    ASSERT_TRUE(loaded.lookup(10, got));
    EXPECT_EQ(got, "alpha");
    ASSERT_TRUE(loaded.lookup(20, got));
    EXPECT_EQ(got, std::string("beta\0gamma", 10));
    std::remove(path.c_str());
}

TEST(LayerCache, MissingFileIsAColdStart)
{
    LayerResultCache cache;
    EXPECT_FALSE(cache.load(tempPath("never_written.bin")));
    EXPECT_EQ(cache.stats().loadRejected, 0u);
}

TEST(LayerCache, TruncatedFileKeepsValidPrefix)
{
    const std::string path = tempPath("cache_truncated.bin");
    LayerResultCache cache;
    cache.insert(1, std::string(64, 'a'));
    cache.insert(2, std::string(64, 'b'));
    ASSERT_TRUE(cache.save(path));

    // Chop into the last entry: its checksum cannot verify.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() - 10);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes;

    LayerResultCache reloaded;
    reloaded.load(path);
    const auto stats = reloaded.stats();
    EXPECT_EQ(stats.loadedEntries, 1u);
    EXPECT_GE(stats.loadRejected, 1u);
    std::string got;
    EXPECT_TRUE(reloaded.lookup(1, got)
                || reloaded.lookup(2, got));
    std::remove(path.c_str());
}

TEST(LayerCache, CorruptPayloadRejectedByChecksum)
{
    const std::string path = tempPath("cache_corrupt.bin");
    LayerResultCache cache;
    cache.insert(1, std::string(64, 'a'));
    ASSERT_TRUE(cache.save(path));

    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40); // inside the payload
    f.put('Z');
    f.close();

    LayerResultCache reloaded;
    reloaded.load(path);
    EXPECT_EQ(reloaded.stats().loadedEntries, 0u);
    EXPECT_GE(reloaded.stats().loadRejected, 1u);
    std::remove(path.c_str());
}

TEST(LayerCache, OtherSchemaFileRejected)
{
    // A file saved under another schema must not serve this cache: its
    // keys and payloads may mean something else.
    const std::string path = tempPath("cache_schema.bin");
    LayerResultCache cache;
    cache.insert(1, "alpha");
    cache.insert(2, "beta");
    ASSERT_TRUE(cache.save(path));

    LayerResultCache same;
    EXPECT_TRUE(same.load(path));
    EXPECT_EQ(same.stats().loadedEntries, 2u);

    // The schema follows the 4-byte magic and the 4-byte file version.
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t bumped = kCacheSchemaVersion + 1;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&bumped), sizeof(bumped));
    f.close();

    LayerResultCache reloaded;
    EXPECT_FALSE(reloaded.load(path));
    EXPECT_EQ(reloaded.stats().loadedEntries, 0u);
    EXPECT_EQ(reloaded.stats().loadRejected, 1u);
    EXPECT_EQ(reloaded.stats().entries, 0u);
    std::remove(path.c_str());
}

TEST(LayerCache, GarbageHeaderRejected)
{
    const std::string path = tempPath("cache_garbage.bin");
    std::ofstream(path, std::ios::binary)
        << "this is not a cache file at all";
    LayerResultCache cache;
    EXPECT_FALSE(cache.load(path));
    EXPECT_GE(cache.stats().loadRejected, 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
    std::remove(path.c_str());
}

TEST(LayerCache, StatsRegistryExportsCounters)
{
    LayerResultCache cache;
    cache.insert(1, "x");
    std::string got;
    cache.lookup(1, got);
    cache.lookup(2, got);
    obs::StatsRegistry reg;
    cache.registerStats(reg);
    EXPECT_EQ(reg.scalarValue("sim.cache.hits"), 1.0);
    EXPECT_EQ(reg.scalarValue("sim.cache.misses"), 1.0);
    EXPECT_EQ(reg.scalarValue("sim.cache.inserts"), 1.0);
    EXPECT_DOUBLE_EQ(reg.evaluate("sim.cache.hitRate"), 0.5);
    EXPECT_TRUE(reg.has("sim.cache.undecodable"));
    EXPECT_EQ(reg.scalarValue("sim.cache.undecodable"), 0.0);
}

// ---------------------------------------------------------------------
// Request protocol.

TEST(ServerProtocol, MalformedJsonReportsError)
{
    Server server({});
    obs::JsonValue doc;
    ASSERT_TRUE(
        obs::parseJson(server.handleRequest("{nope"), doc));
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_NE(doc.stringAt("error"), "");
}

TEST(ServerProtocol, UnknownTypeAndMissingWorkloadReportErrors)
{
    Server server({});
    obs::JsonValue doc =
        response(server, R"({"id": 7, "type": "frobnicate"})");
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_DOUBLE_EQ(doc.numberAt("id"), 7.0);

    doc = response(server, R"({"type": "run"})");
    EXPECT_FALSE(doc.find("ok")->boolean);

    doc = response(server,
                   R"({"type": "run", "workload": "nonesuch"})");
    EXPECT_FALSE(doc.find("ok")->boolean);
}

TEST(ServerProtocol, PingStatsShutdown)
{
    Server server({});
    obs::JsonValue doc = response(server, R"({"type": "ping"})");
    EXPECT_TRUE(doc.find("ok")->boolean);

    doc = response(server, R"({"type": "stats"})");
    EXPECT_TRUE(doc.find("ok")->boolean);
    ASSERT_NE(doc.findPath("result.cache"), nullptr);

    std::istringstream in(R"({"type": "shutdown"})"
                          "\n{\"type\": \"ping\"}\n");
    std::ostringstream out;
    EXPECT_EQ(server.serve(in, out), 0);
    // One response only: shutdown stops the loop before the ping.
    const std::string transcript = out.str();
    EXPECT_EQ(
        std::count(transcript.begin(), transcript.end(), '\n'), 1);
}

TEST(ServerProtocol, InlineTopologyRunWithConfigOverlay)
{
    Server server({});
    const obs::JsonValue doc = response(server, R"({
        "id": "req-1", "type": "run",
        "config": {"architecture": {"ArrayHeight": 8,
                                    "ArrayWidth": 8}},
        "topology": {"name": "inline", "layers": [
            {"type": "gemm", "name": "g", "m": 16, "n": 16, "k": 16},
            {"type": "conv", "name": "c", "ifmapH": 8, "ifmapW": 8,
             "filterH": 3, "filterW": 3, "channels": 4,
             "numFilters": 8, "stride": 1}
        ]}})");
    ASSERT_TRUE(doc.find("ok")->boolean) << doc.stringAt("error");
    EXPECT_EQ(doc.stringAt("id"), "req-1");
    const obs::JsonValue* layers = doc.findPath("result.layers");
    ASSERT_NE(layers, nullptr);
    ASSERT_EQ(layers->items.size(), 2u);
    EXPECT_EQ(layers->items[0].stringAt("name"), "g");
    EXPECT_GT(layers->items[0].numberAt("totalCycles"), 0.0);
}

TEST(ServerProtocol, LayerNumbersOutsideTheirTypeAreRejected)
{
    // Each of these used to reach a static_cast from double (undefined
    // behaviour) or a zero stride; "m": -5 answered ok: true, and a
    // string stride silently meant 1.
    Server server({});
    const std::string gemm = R"("type": "gemm", "n": 8, "k": 8)";
    const std::string conv =
        R"("type": "conv", "ifmapH": 8, "ifmapW": 8, "filterH": 3,
           "filterW": 3, "channels": 4, "numFilters": 8)";
    for (const auto& [layer, field] :
         std::vector<std::pair<std::string, std::string>>{
             {gemm + R"(, "m": -5)", "'m'"},
             {gemm + R"(, "m": 2.5)", "'m'"},
             {R"("type": "gemm", "m": 8, "n": 8, "k": 1e300)", "'k'"},
             {gemm + R"(, "m": 8, "repetitions": 5e9)", "'repetitions'"},
             {conv + R"(, "stride": 0)", "'stride'"},
             {conv + R"(, "stride": "2")", "'stride'"}}) {
        const obs::JsonValue doc = response(
            server, R"({"type": "run", "topology": {"layers": [{)"
                        + layer + "}]}}");
        EXPECT_FALSE(doc.find("ok")->boolean) << layer;
        EXPECT_NE(doc.stringAt("error").find("layer field " + field),
                  std::string::npos)
            << layer << ": " << doc.stringAt("error");
    }
}

TEST(ServerProtocol, SweepAxesOutsideTheirTypeAreRejected)
{
    // "arrays": [4294967312] used to answer as a 16x16 array and
    // [16.7] as 16, both with ok: true (and an undefined cast).
    Server server({});
    const std::string sweep =
        R"({"type": "sweep", "workload": "resnet18", )";
    for (const auto& [axes, field] :
         std::vector<std::pair<std::string, std::string>>{
             {R"("arrays": [4294967312])", "sweep axis 'arrays'"},
             {R"("arrays": [16.7])", "sweep axis 'arrays'"},
             {R"("arrays": [0])", "sweep axis 'arrays'"},
             {R"("arrays": ["16"])", "sweep axis 'arrays'"},
             {R"("sramKb": [0])", "sweep axis 'sramKb'"},
             {R"("sramKb": [1e300])", "sweep axis 'sramKb'"},
             {R"("jobs": -1)", "sweep field 'jobs'"},
             {R"("sweep": {"jobs": 2.5})", "sweep field 'jobs'"}}) {
        const obs::JsonValue doc =
            response(server, sweep + axes + "}");
        EXPECT_FALSE(doc.find("ok")->boolean) << axes;
        EXPECT_NE(doc.stringAt("error").find(field), std::string::npos)
            << axes << ": " << doc.stringAt("error");
    }
    // jobs 0 means auto and stays accepted.
    Server dry([] {
        Server::Options options;
        options.dryRun = true;
        return options;
    }());
    const obs::JsonValue ok = response(
        dry, sweep + R"("arrays": [16, 32], "sramKb": [512], "jobs": 0})");
    EXPECT_TRUE(ok.find("ok")->boolean) << ok.stringAt("error");
}

TEST(ServerProtocol, UnknownConfigKeysAreRejected)
{
    // Each of these used to answer ok: true with the base config's
    // numbers (or trace mode, for the misspelled mode).
    Server server({});
    for (const auto& [overlay, needle] :
         std::vector<std::pair<std::string, std::string>>{
             {R"({"architecture": {"ArrayHieght": 64}})",
              "architecture.ArrayHieght"},
             {R"({"archtecture": {"ArrayHeight": 64}})",
              "archtecture.ArrayHeight"},
             {R"({"general": {"mode": "analytic"}})", "general.mode"}}) {
        const obs::JsonValue doc = response(
            server, R"({"type": "run", "workload": "alexnet", "config": )"
                        + overlay + "}");
        EXPECT_FALSE(doc.find("ok")->boolean) << overlay;
        EXPECT_NE(doc.stringAt("error").find(needle), std::string::npos)
            << overlay << ": " << doc.stringAt("error");
    }
}

TEST(ServerProtocol, RepeatedRunsAreByteIdenticalAndWarm)
{
    Server server({});
    const std::string request =
        R"({"type": "run", "workload": "resnet18"})";
    const std::string first = server.handleRequest(request);
    const auto cold = server.cache().stats();
    const std::string second = server.handleRequest(request);
    const auto warm = server.cache().stats();

    EXPECT_EQ(first, second);
    EXPECT_EQ(warm.misses, cold.misses);
    EXPECT_GT(warm.hits, cold.hits);
}

TEST(ServerProtocol, CacheFalseBypassesCache)
{
    Server server({});
    const std::string request =
        R"({"type": "run", "workload": "resnet18", "cache": false})";
    (void)server.handleRequest(request);
    const auto stats = server.cache().stats();
    EXPECT_EQ(stats.inserts, 0u);
    EXPECT_EQ(stats.hits + stats.misses, 0u);
}

TEST(ServerProtocol, NonBooleanCacheFlagIsRejected)
{
    // "cache": "true" and "cache": 1 used to run with the cache
    // silently bypassed.
    Server server({});
    for (const std::string type : {"run", "sweep"}) {
        for (const std::string flag : {R"("true")", "1", "null"}) {
            const obs::JsonValue doc = response(
                server, R"({"type": ")" + type
                            + R"(", "workload": "alexnet", "cache": )"
                            + flag + "}");
            EXPECT_FALSE(doc.find("ok")->boolean) << type << flag;
            EXPECT_NE(doc.stringAt("error").find("'cache'"),
                      std::string::npos)
                << doc.stringAt("error");
        }
    }
    const auto stats = server.cache().stats();
    EXPECT_EQ(stats.hits + stats.misses, 0u);
}

TEST(ServerProtocol, RunResultIsTheRunRecord)
{
    // A run reply's result is the `--json` record minus its wall-clock
    // profile, the power trace and each layer's nested objects, plus
    // the flat stats.
    auto check = [](const std::string& request, const SimConfig& cfg,
                    const Topology& topo) {
        Server server({});
        obs::JsonValue doc = response(server, request);
        ASSERT_TRUE(doc.find("ok")->boolean) << doc.stringAt("error");
        obs::JsonValue result = doc.members["result"];
        EXPECT_EQ(result.members.erase("stats"), 1u);

        obs::JsonValue full = runDoc(runTopologyCached(cfg, topo, nullptr));
        ASSERT_EQ(full.members.erase("powerTrace"),
                  cfg.energy.enabled ? 1u : 0u);
        for (auto& layer : full.members["layers"].items) {
            std::erase_if(layer.members, [](const auto& member) {
                return member.second.kind == obs::JsonValue::Kind::Object;
            });
        }
        EXPECT_EQ(jsoncheck::canonical(result), jsoncheck::canonical(full));
    };
    check(R"({"type": "run", "workload": "resnet18"})", SimConfig{},
          workloads::byName("resnet18"));

    SimConfig sparse_cfg;
    sparse_cfg.sparsity.enabled = true;
    sparse_cfg.energy.enabled = true;
    Topology topo;
    topo.name = "sp";
    topo.layers.push_back(LayerSpec::gemm("a", 32, 64, 128));
    topo.layers.back().sparseN = 2;
    topo.layers.back().sparseM = 4;
    topo.layers.back().repetitions = 2;
    check(R"({"type": "run",
        "config": {"sparsity": {"SparsitySupport": true},
                   "energy": {"EnergyModel": true}},
        "topology": {"name": "sp", "layers": [{"type": "gemm",
            "name": "a", "m": 32, "n": 64, "k": 128, "sparseN": 2,
            "sparseM": 4, "repetitions": 2}]}})",
          sparse_cfg, topo);
}

TEST(ServerProtocol, ConcurrentRequestsShareTheCacheSafely)
{
    Server server({});
    const std::string request = R"({"type": "run",
        "topology": {"name": "t", "layers": [
            {"type": "gemm", "m": 32, "n": 32, "k": 32}]}})";
    const std::string expected = server.handleRequest(request);

    std::vector<std::thread> threads;
    std::vector<std::string> results(8);
    for (std::size_t i = 0; i < results.size(); ++i) {
        threads.emplace_back([&, i] {
            for (int rep = 0; rep < 4; ++rep)
                results[i] = server.handleRequest(request);
        });
    }
    for (auto& t : threads)
        t.join();
    for (const auto& r : results)
        EXPECT_EQ(r, expected);
}
