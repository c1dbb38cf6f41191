/**
 * @file
 * Unit tests for the multi-core module: partition runtime equations
 * (Eqs. 1-3), footprint and L2-dedup accounting, partition search,
 * SIMD/vector units, heterogeneous cores, and non-uniform (NoP-aware)
 * workload partitioning.
 */

#include <algorithm>
#include <list>
#include <random>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "multicore/nop.hpp"
#include "multicore/system.hpp"
#include "multicore/trace_sim.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

TEST(Partition, EquationOneSpatial)
{
    // OS mapping: Sr = M, Sc = N, T = K.
    const GemmDims gemm{1000, 5000, 2000};
    const std::uint32_t r = 16, c = 16;
    const auto eval = evaluatePartition(gemm,
                                        Dataflow::OutputStationary, r,
                                        c, 4, 8,
                                        PartitionScheme::Spatial);
    const Cycle expect = (2ull * r + c + 2000 - 2)
        * ceilDiv(1000, 4ull * r) * ceilDiv(5000, 8ull * c);
    EXPECT_EQ(eval.cycles, expect);
}

TEST(Partition, EquationTwoSpatioTemporal1)
{
    const GemmDims gemm{1000, 5000, 2000};
    const std::uint32_t r = 16, c = 16;
    const auto eval = evaluatePartition(
        gemm, Dataflow::OutputStationary, r, c, 4, 8,
        PartitionScheme::SpatioTemporal1);
    const Cycle expect = (2ull * r + c + ceilDiv(2000, 8) - 2)
        * ceilDiv(1000, 4ull * r) * ceilDiv(5000, c);
    EXPECT_EQ(eval.cycles, expect);
}

TEST(Partition, EquationThreeSpatioTemporal2)
{
    const GemmDims gemm{1000, 5000, 2000};
    const std::uint32_t r = 16, c = 16;
    const auto eval = evaluatePartition(
        gemm, Dataflow::OutputStationary, r, c, 4, 8,
        PartitionScheme::SpatioTemporal2);
    const Cycle expect = (2ull * r + c + ceilDiv(2000, 4) - 2)
        * ceilDiv(1000, static_cast<std::uint64_t>(r))
        * ceilDiv(5000, 8ull * c);
    EXPECT_EQ(eval.cycles, expect);
}

TEST(Partition, SingleCoreMatchesFoldGrid)
{
    const GemmDims gemm{300, 200, 100};
    const systolic::FoldGrid grid(gemm, Dataflow::WeightStationary, 32,
                                  32);
    const auto eval = evaluatePartition(gemm,
                                        Dataflow::WeightStationary, 32,
                                        32, 1, 1,
                                        PartitionScheme::Spatial);
    EXPECT_EQ(eval.cycles, grid.totalCycles());
}

TEST(Partition, MoreCoresNeverSlower)
{
    const GemmDims gemm{4096, 4096, 1024};
    Cycle prev = ~static_cast<Cycle>(0);
    for (std::uint64_t cores : {1ull, 4ull, 16ull, 64ull}) {
        const auto evals = enumeratePartitions(
            gemm, Dataflow::OutputStationary, 16, 16, cores,
            PartitionScheme::Spatial);
        const Cycle best = bestByCycles(evals).cycles;
        EXPECT_LE(best, prev);
        prev = best;
    }
}

TEST(Partition, L2DedupSavesForSpatial)
{
    const GemmDims gemm{1024, 1024, 1024};
    const auto eval = evaluatePartition(gemm,
                                        Dataflow::OutputStationary, 16,
                                        16, 4, 4,
                                        PartitionScheme::Spatial);
    EXPECT_LT(eval.l2FootprintWords, eval.footprintWords);
}

TEST(Partition, SpatioTemporalTradesFootprintForCycles)
{
    // Paper Fig. 3a: among compute-optimal choices, spatio-temporal
    // partitioning sometimes achieves a smaller memory footprint at
    // competitive cycles (it stores Sr x T once instead of Pc copies);
    // Fig. 3b: among footprint-optimal choices, spatial usually wins.
    bool st_smaller_when_compute_optimal = false;
    bool spatial_wins_somewhere = false;
    for (std::uint64_t m : {1000ull, 5000ull, 10000ull}) {
        for (std::uint64_t k : {1000ull, 5000ull, 10000ull}) {
            const GemmDims gemm{m, 5000, k};
            for (std::uint64_t cores : {16ull, 64ull}) {
                const auto spatial = bestByCycles(enumeratePartitions(
                    gemm, Dataflow::OutputStationary, 16, 16, cores,
                    PartitionScheme::Spatial));
                const auto st1 = bestByCycles(enumeratePartitions(
                    gemm, Dataflow::OutputStationary, 16, 16, cores,
                    PartitionScheme::SpatioTemporal1));
                if (st1.cycles <= spatial.cycles * 105 / 100
                    && st1.footprintWords < spatial.footprintWords) {
                    st_smaller_when_compute_optimal = true;
                }
                if (spatial.footprintWords <= st1.footprintWords
                    && spatial.cycles <= st1.cycles) {
                    spatial_wins_somewhere = true;
                }
            }
        }
    }
    EXPECT_TRUE(st_smaller_when_compute_optimal);
    EXPECT_TRUE(spatial_wins_somewhere);
}

TEST(Partition, EnumerateCoversAllFactorizations)
{
    const GemmDims gemm{128, 128, 128};
    const auto evals = enumeratePartitions(gemm,
                                           Dataflow::OutputStationary,
                                           8, 8, 12,
                                           PartitionScheme::Spatial);
    // 12 = 1x12, 2x6, 3x4, 4x3, 6x2, 12x1.
    EXPECT_EQ(evals.size(), 6u);
    for (const auto& e : evals)
        EXPECT_EQ(e.cores(), 12u);
}

TEST(Partition, BestSelectorsDiffer)
{
    const GemmDims gemm{10000, 1000, 1000};
    const auto evals = enumeratePartitions(gemm,
                                           Dataflow::OutputStationary,
                                           16, 16, 16,
                                           PartitionScheme::Spatial);
    const auto by_cycles = bestByCycles(evals);
    const auto by_footprint = bestByFootprint(evals);
    EXPECT_LE(by_cycles.cycles, by_footprint.cycles);
    EXPECT_LE(by_footprint.footprintWords, by_cycles.footprintWords);
}

TEST(Simd, CyclesScaleWithLanesAndLatency)
{
    SimdConfig simd;
    simd.lanes = 16;
    simd.latencyPerOp = 1;
    EXPECT_EQ(simdCycles(simd, VectorOp::Activation, 256), 16u);
    EXPECT_EQ(simdCycles(simd, VectorOp::Activation, 257), 17u);
    EXPECT_EQ(simdCycles(simd, VectorOp::Softmax, 256), 48u);
    EXPECT_EQ(simdCycles(simd, VectorOp::None, 256), 0u);
    simd.latencyPerOp = 4; // customizable latency (§III-C)
    EXPECT_EQ(simdCycles(simd, VectorOp::Activation, 256), 64u);
    simd.lanes = 64;
    simd.latencyPerOp = 1;
    EXPECT_EQ(simdCycles(simd, VectorOp::Activation, 256), 4u);
}

TEST(TensorCore, GemmPlusTail)
{
    TensorCoreConfig core;
    core.arrayRows = 16;
    core.arrayCols = 16;
    const GemmDims gemm{64, 64, 64};
    const Cycle plain = tensorCoreCycles(core, gemm,
                                         Dataflow::OutputStationary);
    const Cycle with_tail = tensorCoreCycles(
        core, gemm, Dataflow::OutputStationary, VectorOp::Softmax);
    EXPECT_GT(with_tail, plain);
    const systolic::FoldGrid grid(gemm, Dataflow::OutputStationary, 16,
                                  16);
    EXPECT_EQ(plain, grid.totalCycles());
}

TEST(System, HomogeneousGridRuns)
{
    TensorCoreConfig core;
    core.arrayRows = 16;
    core.arrayCols = 16;
    const auto cfg = MultiCoreConfig::homogeneous(core, 2, 2);
    MultiCoreSimulator sim(cfg);
    const GemmDims gemm{512, 512, 256};
    const auto result = sim.runGemm(gemm, Dataflow::OutputStationary);
    EXPECT_GT(result.makespan, 0u);
    EXPECT_EQ(result.perCore.size(), 4u);
    EXPECT_GE(result.imbalance, 1.0);
    EXPECT_LT(result.l2FootprintWords, result.l1FootprintWords);
}

TEST(System, MulticoreFasterThanSingle)
{
    TensorCoreConfig core;
    core.arrayRows = 32;
    core.arrayCols = 32;
    const GemmDims gemm{2048, 2048, 512};
    MultiCoreSimulator one(MultiCoreConfig::homogeneous(core, 1, 1));
    MultiCoreSimulator sixteen(
        MultiCoreConfig::homogeneous(core, 4, 4));
    EXPECT_LT(sixteen.runGemm(gemm, Dataflow::WeightStationary).makespan,
              one.runGemm(gemm, Dataflow::WeightStationary).makespan);
}

TEST(System, HeterogeneousCoresImbalance)
{
    // One big core next to three small ones: the small cores lag.
    TensorCoreConfig small;
    small.arrayRows = small.arrayCols = 8;
    TensorCoreConfig big;
    big.arrayRows = big.arrayCols = 32;
    MultiCoreConfig cfg;
    cfg.pr = 2;
    cfg.pc = 2;
    cfg.cores = {big, small, small, small};
    MultiCoreSimulator sim(cfg);
    const auto result = sim.runGemm({1024, 1024, 256},
                                    Dataflow::OutputStationary);
    EXPECT_GT(result.imbalance, 1.05);
}

TEST(System, NonUniformPartitioningHelpsSkewedNop)
{
    TensorCoreConfig core;
    core.arrayRows = core.arrayCols = 16;
    MultiCoreConfig cfg = MultiCoreConfig::homogeneous(core, 4, 1);
    cfg.nop.latencyPerHop = 50;
    cfg.nop.wordsPerCycle = 1.0;
    cfg.nop.hops = {1, 2, 6, 12}; // Simba-style distance profile
    MultiCoreSimulator uniform(cfg);
    cfg.nonUniform = true;
    MultiCoreSimulator nonuniform(cfg);
    const GemmDims gemm{4096, 256, 256};
    const auto u = uniform.runGemm(gemm, Dataflow::OutputStationary);
    const auto n = nonuniform.runGemm(gemm, Dataflow::OutputStationary);
    EXPECT_LE(n.makespan, u.makespan);
    // The far core should have received less work.
    EXPECT_LT(n.perCore[3].rowShare, u.perCore[3].rowShare);
}

TEST(System, ConfigValidation)
{
    MultiCoreConfig cfg;
    cfg.pr = 2;
    cfg.pc = 2;
    cfg.cores.resize(3); // wrong
    EXPECT_THROW(MultiCoreSimulator sim(cfg), FatalError);
}

TEST(System, LayerEntryPoint)
{
    TensorCoreConfig core;
    core.arrayRows = core.arrayCols = 16;
    MultiCoreSimulator sim(MultiCoreConfig::homogeneous(core, 2, 2));
    const LayerSpec layer = LayerSpec::conv("c", 28, 28, 3, 3, 64, 128,
                                            1);
    const auto result = sim.runLayer(layer, Dataflow::WeightStationary);
    EXPECT_GT(result.makespan, 0u);
}

TEST(SharedL2, HitsOnRepeatedLines)
{
    systolic::BandwidthMemory dram(4.0);
    SharedL2Config cfg;
    cfg.capacityWords = 4096;
    cfg.lineWords = 64;
    SharedL2 l2(cfg, dram);
    // First read misses and fills from DRAM.
    const Cycle first = l2.issueRead(0, 64, 0);
    // Second read of the same line hits at L2 latency.
    const Cycle second = l2.issueRead(0, 64, 1000);
    EXPECT_GT(first, cfg.hitLatency);
    EXPECT_LE(second - 1000, cfg.hitLatency + 1);
    EXPECT_EQ(l2.l2Stats().hits, 1u);
    EXPECT_EQ(l2.l2Stats().lookups, 2u);
    // Only the miss reached DRAM.
    EXPECT_EQ(dram.stats().readWords, 64u);
}

TEST(SharedL2, LruEviction)
{
    systolic::BandwidthMemory dram(1e9);
    SharedL2Config cfg;
    cfg.capacityWords = 128; // two 64-word lines
    cfg.lineWords = 64;
    SharedL2 l2(cfg, dram);
    l2.issueRead(0, 64, 0);    // line 0
    l2.issueRead(64, 64, 0);   // line 1
    l2.issueRead(128, 64, 0);  // line 2 evicts line 0
    l2.issueRead(0, 64, 0);    // line 0 misses again
    EXPECT_EQ(l2.l2Stats().hits, 0u);
    EXPECT_EQ(l2.l2Stats().lookups, 4u);
}

TEST(SharedL2, WriteThroughAllocates)
{
    systolic::BandwidthMemory dram(1e9);
    SharedL2Config cfg;
    SharedL2 l2(cfg, dram);
    l2.issueWrite(0, 256, 0);
    EXPECT_EQ(dram.stats().writeWords, 256u);
    // Subsequent read of written lines hits.
    l2.issueRead(0, 256, 10);
    EXPECT_EQ(l2.l2Stats().hits, 1u); // 256 words = 1 line (default)
}

namespace
{

/** The list + hash-map LRU the flat slot arrays replaced. */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity) {}

    bool
    lookup(std::uint64_t line)
    {
        auto it = index_.find(line);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return true;
        }
        lru_.push_front(line);
        index_[line] = lru_.begin();
        if (lru_.size() > capacity_) {
            index_.erase(lru_.back());
            lru_.pop_back();
        }
        return false;
    }

    void
    clear()
    {
        lru_.clear();
        index_.clear();
    }

  private:
    std::uint64_t capacity_;
    std::list<std::uint64_t> lru_;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        index_;
};

} // namespace

TEST(SharedL2, FlatLruMatchesListLru)
{
    // Seeded random read/write streams of 1-4 line requests over a pool
    // of about twice the capacity, invalidated halfway: every request
    // must hit exactly the lines the reference LRU hits, and the stats
    // and refill traffic must agree at the end.
    constexpr std::uint32_t line_words = 8;
    for (const std::uint64_t capacity : {1u, 2u, 3u, 16384u}) {
        systolic::BandwidthMemory dram(1e9);
        SharedL2Config cfg;
        cfg.capacityWords = capacity * line_words;
        cfg.lineWords = line_words;
        SharedL2 l2(cfg, dram);
        ReferenceLru ref(capacity);
        SharedL2Stats want;
        std::mt19937_64 rng(capacity);
        const std::uint64_t pool = 2 * capacity + 3;
        constexpr int kRequests = 100000;
        for (int r = 0; r < kRequests; ++r) {
            if (r == kRequests / 2) {
                l2.invalidate();
                ref.clear();
            }
            const Addr addr = (rng() % pool) * line_words
                + rng() % line_words;
            const Count words = 1 + rng() % (3 * line_words);
            const std::uint64_t first = addr / line_words;
            const std::uint64_t last = (addr + words - 1) / line_words;
            if (rng() % 4 == 0) {
                for (std::uint64_t line = first; line <= last; ++line)
                    ref.lookup(line);
                want.writeWords += words;
                l2.issueWrite(addr, words, 0);
                continue;
            }
            Count hits = 0;
            for (std::uint64_t line = first; line <= last; ++line) {
                ++want.lookups;
                const std::uint64_t lo = line * line_words;
                const std::uint64_t overlap =
                    std::min<std::uint64_t>(addr + words, lo + line_words)
                    - std::max<std::uint64_t>(addr, lo);
                if (ref.lookup(line)) {
                    ++hits;
                    want.hitWords += overlap;
                } else {
                    want.missWords += overlap;
                }
            }
            want.hits += hits;
            const Count hits_before = l2.l2Stats().hits;
            l2.issueRead(addr, words, 0);
            ASSERT_EQ(l2.l2Stats().hits - hits_before, hits)
                << "capacity " << capacity << " request " << r;
        }
        const SharedL2Stats& got = l2.l2Stats();
        EXPECT_EQ(got.lookups, want.lookups) << capacity;
        EXPECT_EQ(got.hits, want.hits) << capacity;
        EXPECT_EQ(got.hitWords, want.hitWords) << capacity;
        EXPECT_EQ(got.missWords, want.missWords) << capacity;
        EXPECT_EQ(got.writeWords, want.writeWords) << capacity;
        EXPECT_EQ(dram.stats().readWords,
                  (want.lookups - want.hits) * line_words)
            << capacity;
        EXPECT_GT(want.hits, 0u) << capacity;
    }
}

TEST(TraceSim, SharedL2DeduplicatesPartitions)
{
    // WS 2x2 grid: cores in the same row share the ifmap k-slice,
    // cores in the same column share the filter slice; with the L2 on,
    // DRAM traffic should drop well below the sum of core requests.
    const LayerSpec layer = LayerSpec::gemm("g", 256, 128, 128);
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 2;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.l1.ifmapWords = 4096; // small L1s -> cores re-request
    cfg.l1.filterWords = 4096;

    MultiCoreTraceConfig no_l2 = cfg;
    no_l2.useL2 = false;
    MultiCoreTraceSimulator with(cfg);
    MultiCoreTraceSimulator without(no_l2);
    const auto w = with.runLayer(layer);
    const auto wo = without.runLayer(layer);
    ASSERT_EQ(w.perCore.size(), 4u);
    EXPECT_GT(w.l2.hitRate(), 0.2);
    EXPECT_LT(w.dramReadWords, wo.dramReadWords);
    EXPECT_LT(w.dramReadWords, w.l1FillWords);
}

TEST(TraceSim, PartitionsCoverTheWholeProblem)
{
    // Every core writes its own output share exactly once: summed
    // write traffic equals M x N.
    const LayerSpec layer = LayerSpec::gemm("g", 96, 64, 48);
    MultiCoreTraceConfig cfg;
    cfg.pr = 2;
    cfg.pc = 2;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::OutputStationary;
    cfg.useL2 = false;
    MultiCoreTraceSimulator sim(cfg);
    const auto result = sim.runLayer(layer);
    std::uint64_t writes = 0;
    for (const auto& core : result.perCore)
        writes += core.dramWriteWords;
    EXPECT_EQ(writes, 96u * 64u);
}

TEST(TraceSim, MakespanBelowSingleCore)
{
    const LayerSpec layer = LayerSpec::gemm("g", 512, 512, 128);
    MultiCoreTraceConfig multi;
    multi.pr = multi.pc = 2;
    multi.arrayRows = multi.arrayCols = 16;
    multi.dramWordsPerCycle = 1024.0; // compute-bound regime
    MultiCoreTraceConfig single = multi;
    single.pr = single.pc = 1;
    MultiCoreTraceSimulator m(multi);
    MultiCoreTraceSimulator s(single);
    EXPECT_LT(m.runLayer(layer).makespan, s.runLayer(layer).makespan);
}

TEST(TraceSim, RejectsCoreCountOverflow)
{
    // 2^32 x 2^32 cores wraps a 64-bit product to 0; the constructor
    // must refuse it instead of sizing per-core state from the wrap.
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = std::uint64_t{1} << 32;
    EXPECT_THROW(MultiCoreTraceSimulator sim(cfg), FatalError);
    cfg.pc = 1;
    EXPECT_NO_THROW(MultiCoreTraceSimulator sim(cfg));
}

TEST(TraceSim, FromSimConfigGivesEachCoreTheConfiguredArray)
{
    SimConfig cfg = SimConfig::tpuV2Like();
    cfg.memory.wordBytes = 2;
    const auto mc = MultiCoreTraceConfig::fromSimConfig(cfg, 4, 2);
    EXPECT_EQ(mc.pr * mc.pc, 8u);
    EXPECT_EQ(mc.arrayRows * mc.arrayCols, 128u * 128u);
    EXPECT_EQ(mc.dataflow, Dataflow::WeightStationary);
    EXPECT_DOUBLE_EQ(mc.dramWordsPerCycle, 100.0);
    EXPECT_EQ(mc.l1.filterWords, 6144u * 512);
    EXPECT_EQ(mc.l1.ofmapWords, 2048u * 512);
}

TEST(MeshNop, HopGeometry)
{
    const auto mesh = MeshNop::cornerAttached(4, 4);
    EXPECT_EQ(mesh.hops(0, 0), 1u);
    EXPECT_EQ(mesh.hops(0, 3), 4u);
    EXPECT_EQ(mesh.hops(3, 0), 4u);
    EXPECT_EQ(mesh.hops(3, 3), 7u);
    EXPECT_EQ(mesh.maxHops(), 7u);
    EXPECT_EQ(mesh.hopVector().size(), 16u);

    const auto edge = MeshNop::edgeCenterAttached(2, 4);
    EXPECT_EQ(edge.hops(0, 2), 1u);
    EXPECT_EQ(edge.hops(1, 0), 4u);
    // Edge-center attach shrinks the worst-case distance.
    EXPECT_LT(edge.maxHops(), MeshNop::cornerAttached(2, 4).maxHops());
}

TEST(MeshNop, RejectsInvalidPositions)
{
    EXPECT_THROW(MeshNop(2, 2, 2, 0), FatalError);
    EXPECT_THROW(MeshNop(0, 2, 0, 0), FatalError);
}

TEST(MeshNop, DrivesNonUniformPartitioning)
{
    TensorCoreConfig core;
    core.arrayRows = core.arrayCols = 16;
    const auto mesh = MeshNop::cornerAttached(4, 1);
    MultiCoreConfig cfg = MultiCoreConfig::homogeneous(core, 4, 1);
    cfg.nop = mesh.toNopConfig(50, 1.0);
    MultiCoreSimulator uniform(cfg);
    cfg.nonUniform = true;
    MultiCoreSimulator skewed(cfg);
    const GemmDims gemm{4096, 256, 256};
    EXPECT_LE(skewed.runGemm(gemm, Dataflow::OutputStationary).makespan,
              uniform.runGemm(gemm, Dataflow::OutputStationary)
                  .makespan);
}
