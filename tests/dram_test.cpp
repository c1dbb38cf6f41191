/**
 * @file
 * Unit tests for the DRAM substrate: timing presets, row-buffer
 * outcomes and their latency ordering, bank-level parallelism, channel
 * scaling, FR-FCFS reordering, address mapping, and the clock-domain
 * adapter.
 */

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "dram/system.hpp"

using namespace scalesim;
using namespace scalesim::dram;

namespace
{

DramSystemConfig
config(std::uint32_t channels = 1, const char* tech = "DDR4_2400")
{
    DramSystemConfig cfg;
    cfg.timing = timingPreset(tech);
    cfg.channels = channels;
    return cfg;
}

} // namespace

TEST(Timing, AllPresetsResolve)
{
    for (const auto& name : timingPresetNames()) {
        const DramTiming t = timingPreset(name);
        EXPECT_EQ(t.name, name);
        EXPECT_GT(t.clockMhz, 0.0);
        EXPECT_GT(t.tRCD, 0u);
        EXPECT_GT(t.tRP, 0u);
        EXPECT_GT(t.tCL, 0u);
        // JEDEC invariants.
        EXPECT_GE(t.tRAS, t.tRCD);
        EXPECT_GE(t.tRC, t.tRAS);
        EXPECT_GE(t.rowBytes, t.burstBytes);
        EXPECT_GT(t.colsPerRow(), 0u);
    }
    EXPECT_THROW(timingPreset("DDR9"), FatalError);
}

TEST(Timing, CaseInsensitiveLookup)
{
    EXPECT_EQ(timingPreset("ddr4-2400").name, "DDR4_2400");
    EXPECT_EQ(timingPreset("hbm2").name, "HBM2");
}

TEST(Channel, FirstAccessPaysActivateAndCas)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    const Cycle done = sys.request(0, 64, false, 0);
    // Closed bank: ACT + tRCD + tCL + tBurst lower bound.
    EXPECT_GE(done, t.tRCD + t.tCL + t.tBurst);
    const DramStats stats = sys.totalStats();
    EXPECT_EQ(stats.reads, 1u);
    EXPECT_EQ(stats.rowMisses, 1u);
}

TEST(Channel, RowHitFasterThanConflict)
{
    // Same row twice -> second is a hit.
    DramSystem sys_hit(config());
    sys_hit.request(0, 64, false, 0);
    const Cycle hit_done = sys_hit.request(64, 64, false, 1000);
    EXPECT_EQ(sys_hit.totalStats().rowHits, 1u);

    // Same bank, different row -> conflict (row stride apart).
    DramSystem sys_conf(config());
    const DramTiming& t = sys_conf.config().timing;
    sys_conf.request(0, 64, false, 0);
    // With RoBaRaCoCh and 1 channel, addresses one full row apart in
    // the same bank differ by rowBytes * 1 (col bits exhausted).
    const Addr same_bank_other_row = t.rowBytes
        * t.banksPerRank; // advance past the bank bits
    const Cycle conf_done = sys_conf.request(same_bank_other_row, 64,
                                             false, 1000);
    EXPECT_EQ(sys_conf.totalStats().rowConflicts, 1u);
    EXPECT_LT(hit_done - 1000, conf_done - 1000);
}

TEST(Channel, SequentialStreamMostlyHits)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    for (int i = 0; i < 64; ++i)
        sys.request(static_cast<Addr>(i) * t.burstBytes, t.burstBytes,
                    false, 0);
    const DramStats stats = sys.totalStats();
    EXPECT_GT(stats.rowHitRate(), 0.9);
}

TEST(Channel, RandomRowsMostlyMiss)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    // Stride one full bank's row so each access opens a new row in the
    // same bank.
    const Addr stride = t.rowBytes * t.banksPerRank;
    for (int i = 0; i < 64; ++i)
        sys.request(static_cast<Addr>(i) * stride, 64, false, 0);
    const DramStats stats = sys.totalStats();
    EXPECT_LT(stats.rowHitRate(), 0.1);
    EXPECT_GE(stats.rowConflicts, 60u);
}

TEST(Channel, ReadLatencyDecompositionConserves)
{
    // Queue wait + refresh wait + service time must account for every
    // read-latency cycle — the component split is exact, not sampled.
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    const Addr stride = t.rowBytes * t.banksPerRank;
    for (int i = 0; i < 256; ++i) {
        // Mix row hits (sequential) with conflicts (bank-row stride)
        // and bursts arriving at the same cycle to exercise queueing.
        const Addr addr = (i % 2 == 0)
            ? static_cast<Addr>(i) * t.burstBytes
            : static_cast<Addr>(i) * stride;
        sys.request(addr, t.burstBytes, false,
                    static_cast<Cycle>(i / 8));
    }
    const DramStats stats = sys.totalStats();
    ASSERT_EQ(stats.reads, 256u);
    EXPECT_GT(stats.totalReadLatency, 0u);
    EXPECT_GT(stats.readServiceTime, 0u);
    EXPECT_EQ(stats.readQueueWait + stats.readRefreshWait
                  + stats.readServiceTime,
              stats.totalReadLatency);
}

TEST(Channel, BankParallelismBeatsSameBank)
{
    // N requests spread over banks finish sooner than N conflicts in
    // one bank.
    auto run = [](bool spread) {
        DramSystem sys(config());
        const DramTiming& t = sys.config().timing;
        Cycle last = 0;
        for (int i = 0; i < 16; ++i) {
            const Addr addr = spread
                ? static_cast<Addr>(i) * t.rowBytes // distinct banks
                : static_cast<Addr>(i) * t.rowBytes * t.banksPerRank;
            last = std::max(last, sys.request(addr, 64, false, 0));
        }
        return last;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(System, ChannelScalingIncreasesThroughput)
{
    auto makespan = [](std::uint32_t channels) {
        DramSystem sys(config(channels));
        const DramTiming& t = sys.config().timing;
        Cycle last = 0;
        for (int i = 0; i < 512; ++i) {
            last = std::max(last,
                            sys.request(static_cast<Addr>(i)
                                            * t.burstBytes,
                                        t.burstBytes, false, 0));
        }
        return last;
    };
    const Cycle one = makespan(1);
    const Cycle four = makespan(4);
    EXPECT_LT(four, one);
    // Should be roughly proportional for a streaming pattern.
    EXPECT_LT(four, one / 2);
}

TEST(System, DecodeRoundTripsDistinctly)
{
    DramSystem sys(config(2));
    const DramTiming& t = sys.config().timing;
    std::uint32_t ch0 = 99, ch1 = 99;
    const DecodedAddr a = sys.decode(0, ch0);
    const DecodedAddr b = sys.decode(t.burstBytes, ch1);
    // Consecutive bursts interleave channels under RoBaRaCoCh.
    EXPECT_NE(ch0, ch1);
    EXPECT_EQ(a.row, b.row);
}

TEST(System, MappingVariants)
{
    for (auto name : {"RoBaRaCoCh", "RoRaCoBaCh", "RoRaBaChCo"}) {
        DramSystemConfig cfg = config(2);
        cfg.mapping = addressMappingFromString(name);
        DramSystem sys(cfg);
        std::uint32_t ch = 0;
        const DecodedAddr d = sys.decode(123456, ch);
        EXPECT_LT(ch, 2u);
        EXPECT_LT(d.bank, cfg.timing.banksPerRank);
    }
    EXPECT_THROW(addressMappingFromString("bogus"), FatalError);
}

TEST(Trace, FrFcfsReorderingHelpsInterleavedRows)
{
    // Two interleaved row streams: reordering services row hits first.
    const DramTiming t = timingPreset("DDR4_2400");
    auto run = [&](std::uint32_t window) {
        DramSystemConfig cfg = config();
        cfg.reorderWindow = window;
        DramSystem sys(cfg);
        std::vector<TraceEntry> trace;
        const Addr row_a = 0;
        const Addr row_b = t.rowBytes * t.banksPerRank; // same bank
        for (int i = 0; i < 32; ++i) {
            trace.push_back({0, row_a + static_cast<Addr>(i) * 64,
                             false});
            trace.push_back({0, row_b + static_cast<Addr>(i) * 64,
                             false});
        }
        return sys.runTrace(trace);
    };
    const TraceResult fcfs = run(1);
    const TraceResult frfcfs = run(64);
    EXPECT_GT(frfcfs.stats.rowHits, fcfs.stats.rowHits);
    EXPECT_LE(frfcfs.makespan, fcfs.makespan);
}

TEST(Trace, LatenciesReportedPerRequest)
{
    DramSystem sys(config());
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 8; ++i)
        trace.push_back({static_cast<Cycle>(i * 100),
                         static_cast<Addr>(i) * 64, i % 2 == 1});
    const TraceResult result = sys.runTrace(trace);
    ASSERT_EQ(result.latency.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].write) {
            // Posted writes may be accepted instantly.
            EXPECT_GE(result.latency[i], 0u);
        } else {
            EXPECT_GT(result.latency[i], 0u);
        }
    }
    EXPECT_EQ(result.stats.reads + result.stats.writes, 8u);
    EXPECT_GT(result.bytesPerClock(), 0.0);
}

TEST(Trace, WritesArePosted)
{
    DramSystem sys(config());
    std::vector<TraceEntry> trace = {{0, 0, true}, {0, 64, false}};
    const TraceResult result = sys.runTrace(trace);
    // The write completes at its column command; the read carries the
    // full data latency.
    EXPECT_LT(result.latency[0], result.latency[1] + 1000);
    EXPECT_EQ(result.stats.writes, 1u);
}

TEST(DramMemory, ClockDomainConversion)
{
    DramConfig cfg;
    cfg.tech = "DDR4_2400"; // 1200 MHz controller
    cfg.coreClockMhz = 600.0;
    DramMemory mem(cfg, 1);
    EXPECT_EQ(mem.toMem(100), 200u);
    EXPECT_EQ(mem.toCore(200), 100u);
    const Cycle done = mem.issueRead(0, 64, 10);
    EXPECT_GT(done, 10u);
    EXPECT_EQ(mem.stats().readRequests, 1u);
}

TEST(DramMemory, MultiburstRequestsSplit)
{
    DramConfig cfg;
    DramMemory mem(cfg, 1);
    mem.issueRead(0, 256, 0); // 256 bytes = 4 bursts of 64
    EXPECT_EQ(mem.system().totalStats().reads, 4u);
}

TEST(DramStats, MergeAccumulates)
{
    DramStats a, b;
    a.reads = 3;
    a.rowHits = 2;
    a.lastCompletion = 10;
    b.reads = 4;
    b.rowConflicts = 1;
    b.lastCompletion = 20;
    a.merge(b);
    EXPECT_EQ(a.reads, 7u);
    EXPECT_EQ(a.rowHits, 2u);
    EXPECT_EQ(a.rowConflicts, 1u);
    EXPECT_EQ(a.lastCompletion, 20u);
}

TEST(Refresh, PeriodicRefreshesAreCounted)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    // Requests spread far beyond several tREFI periods.
    for (int i = 0; i < 10; ++i) {
        sys.request(static_cast<Addr>(i) * 64, 64, false,
                    static_cast<Cycle>(i) * t.tREFI * 2);
    }
    EXPECT_GE(sys.totalStats().refreshes, 10u);
}

TEST(Refresh, RequestDuringRefreshWaits)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    // Land a request exactly at the start of the first refresh window.
    const Cycle done = sys.request(0, 64, false, t.tREFI);
    // It cannot complete before the refresh finishes plus a full
    // closed-bank access.
    EXPECT_GE(done, t.tREFI + t.tRFC + t.tRCD + t.tCL + t.tBurst);
}

TEST(Refresh, ClosesOpenRows)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    sys.request(0, 64, false, 0);
    // Same row, but after a refresh window: must not be a row hit.
    sys.request(64, 64, false, t.tREFI + 1);
    const DramStats stats = sys.totalStats();
    EXPECT_EQ(stats.rowHits, 0u);
    EXPECT_EQ(stats.rowMisses, 2u);
}

TEST(Refresh, TwoRanksRefreshIndependently)
{
    // tREFI/tRFC are per-rank: each rank follows its own cadence and a
    // refresh closes only that rank's row buffers. The old channel-wide
    // nextRefresh_ both undercounted (one shared cadence for two
    // ranks) and closed every rank's rows on each refresh. Both
    // engines must pin the same count — the closed-form catch-up of
    // EventSkip is exact, not approximate.
    DramTiming t = timingPreset("DDR4_2400");
    t.tREFI = 1000;
    t.tRFC = 100;
    for (const DramEngine eng :
         {DramEngine::EventSkip, DramEngine::Stepped}) {
        Channel ch(t, 2, 32, 16, PagePolicy::Open, eng);
        auto read = [&](std::uint32_t rank, Cycle arrival) {
            DecodedAddr a;
            a.rank = rank;
            return ch.serviceUntil(ch.enqueue(a, false, arrival));
        };
        read(0, 1000); // lands in rank 0's first window: 1 refresh
        read(1, 1500); // rank 1 catches up its own missed window: +1
        read(0, 3500); // rank 0 catches up the 2000/3000 windows: +2
        read(1, 3600); // rank 1 catches up the same two windows: +2
        EXPECT_EQ(ch.stats().refreshes, 6u) << toString(eng);
        // Every access found its bank closed (first touch or
        // refreshed).
        EXPECT_EQ(ch.stats().rowMisses, 4u) << toString(eng);
        EXPECT_EQ(ch.stats().rowHits, 0u) << toString(eng);
    }
}

TEST(Refresh, ClosedFormCatchUpCountIsExact)
{
    // One request after a gap spanning many tREFI windows: the
    // event-skipping engine must fold the missed windows into exactly
    // floor((dt - tRFC - next) / tREFI) + 1 refreshes — the count the
    // stepped loop produces one iteration at a time.
    DramTiming t = timingPreset("DDR4_2400");
    t.tREFI = 1000;
    t.tRFC = 100;
    for (const DramEngine eng :
         {DramEngine::EventSkip, DramEngine::Stepped}) {
        Channel ch(t, 1, 32, 16, PagePolicy::Open, eng);
        DecodedAddr a;
        // Windows start at 1000; ends 1100, 2100, ..., 57100 <= 57321.
        ch.serviceUntil(ch.enqueue(a, false, 57'321));
        EXPECT_EQ(ch.stats().refreshes, 57u) << toString(eng);
    }
}

// ---------------------------------------------------------------------
// Engine A/B equivalence: EventSkip (production) vs Stepped
// (reference). Identical completions, stats, and makespans on every
// traffic shape.
// ---------------------------------------------------------------------

namespace
{

void
expectStatsEqual(const DramStats& a, const DramStats& b,
                 const char* what)
{
    EXPECT_EQ(a.reads, b.reads) << what;
    EXPECT_EQ(a.writes, b.writes) << what;
    EXPECT_EQ(a.rowHits, b.rowHits) << what;
    EXPECT_EQ(a.rowMisses, b.rowMisses) << what;
    EXPECT_EQ(a.rowConflicts, b.rowConflicts) << what;
    EXPECT_EQ(a.refreshes, b.refreshes) << what;
    EXPECT_EQ(a.readBytes, b.readBytes) << what;
    EXPECT_EQ(a.writeBytes, b.writeBytes) << what;
    EXPECT_EQ(a.totalReadLatency, b.totalReadLatency) << what;
    EXPECT_EQ(a.firstArrival, b.firstArrival) << what;
    EXPECT_EQ(a.lastCompletion, b.lastCompletion) << what;
}

/** Run `trace` through both engines and demand bit-identity. */
void
expectEnginesAgree(DramSystemConfig cfg,
                   const std::vector<TraceEntry>& trace,
                   const char* what)
{
    cfg.engine = DramEngine::EventSkip;
    DramSystem skip(cfg);
    const TraceResult a = skip.runTrace(trace);
    cfg.engine = DramEngine::Stepped;
    DramSystem step(cfg);
    const TraceResult b = step.runTrace(trace);
    ASSERT_EQ(a.latency.size(), b.latency.size());
    for (std::size_t i = 0; i < a.latency.size(); ++i)
        EXPECT_EQ(a.latency[i], b.latency[i]) << what << " req " << i;
    EXPECT_EQ(a.makespan, b.makespan) << what;
    expectStatsEqual(a.stats, b.stats, what);
}

} // namespace

TEST(Engine, FromStringAndToString)
{
    EXPECT_STREQ(toString(DramEngine::EventSkip), "eventskip");
    EXPECT_STREQ(toString(DramEngine::Stepped), "stepped");
}

TEST(Engine, AbStreamingIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 256; ++i)
        trace.push_back({static_cast<Cycle>(i) * 2,
                         static_cast<Addr>(i) * t.burstBytes, false});
    expectEnginesAgree(config(), trace, "streaming");
}

TEST(Engine, AbRowThrashIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    const Addr stride = t.rowBytes * t.banksPerRank;
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 128; ++i)
        trace.push_back({static_cast<Cycle>(i) * 7,
                         static_cast<Addr>(i % 3) * stride, false});
    expectEnginesAgree(config(), trace, "row thrash");
}

TEST(Engine, AbMixedReadWriteIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 128; ++i) {
        // Pseudo-random bank/row walk with read/write turnarounds.
        const Addr addr = static_cast<Addr>((i * 2654435761u) % 4096)
            * t.burstBytes;
        trace.push_back({static_cast<Cycle>(i) * 5, addr, i % 3 == 0});
    }
    expectEnginesAgree(config(), trace, "mixed rw");
}

TEST(Engine, AbLongIdleGapsIdentical)
{
    // Idle stretches spanning 1, 40, and 500 tREFI windows between
    // bursts of traffic: the closed-form refresh catch-up and the
    // stepped per-window loop must land on identical bank state.
    const DramTiming t = timingPreset("DDR4_2400");
    std::vector<TraceEntry> trace;
    Cycle now = 0;
    const Cycle gaps[] = {t.tREFI + 3, 40 * t.tREFI + 17,
                          500 * t.tREFI + 1};
    for (const Cycle gap : gaps) {
        for (int i = 0; i < 16; ++i)
            trace.push_back({now + static_cast<Cycle>(i),
                             static_cast<Addr>(i) * t.burstBytes,
                             false});
        now += gap;
    }
    expectEnginesAgree(config(), trace, "idle gaps");
}

TEST(Engine, AbTwoRanksFourChannelsIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    DramSystemConfig cfg = config(4);
    cfg.ranks = 2;
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 256; ++i) {
        const Addr addr = static_cast<Addr>((i * 40503u) % 16384)
            * t.burstBytes;
        trace.push_back({static_cast<Cycle>(i) * 3, addr, i % 4 == 0});
    }
    expectEnginesAgree(cfg, trace, "two ranks four channels");
}

TEST(Engine, AbClosedPageIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    DramSystemConfig cfg = config();
    cfg.pagePolicy = PagePolicy::Closed;
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 128; ++i)
        trace.push_back({static_cast<Cycle>(i) * 11,
                         static_cast<Addr>(i) * t.burstBytes, false});
    expectEnginesAgree(cfg, trace, "closed page");
}

TEST(Engine, AbOutOfOrderArrivalsIdentical)
{
    // Arrival times deliberately not monotone in enqueue order — the
    // ordered-insert queue must give both engines the same earliest-
    // first service order.
    const DramTiming t = timingPreset("DDR4_2400");
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 64; ++i) {
        const Cycle arrival = static_cast<Cycle>((i * 37) % 64) * 50;
        trace.push_back({arrival, static_cast<Addr>(i) * t.burstBytes,
                         false});
    }
    expectEnginesAgree(config(), trace, "out-of-order arrivals");
}

TEST(Engine, AbCoupledRequestFlowIdentical)
{
    // The synchronous request() path (scratchpad flow) drains after
    // each enqueue; both engines must return identical completions.
    const DramTiming t = timingPreset("DDR4_2400");
    auto run = [&](DramEngine eng) {
        DramSystemConfig cfg = config();
        cfg.engine = eng;
        DramSystem sys(cfg);
        std::vector<Cycle> done;
        for (int i = 0; i < 96; ++i) {
            const Addr addr = static_cast<Addr>((i * 131) % 1024)
                * t.burstBytes;
            done.push_back(sys.request(addr, 3 * t.burstBytes,
                                       i % 5 == 0,
                                       static_cast<Cycle>(i) * 20));
        }
        return std::make_pair(done, sys.totalStats());
    };
    const auto [skip_done, skip_stats] = run(DramEngine::EventSkip);
    const auto [step_done, step_stats] = run(DramEngine::Stepped);
    EXPECT_EQ(skip_done, step_done);
    expectStatsEqual(skip_stats, step_stats, "coupled flow");
}

TEST(Channel, NextEventCycleTracksEarliestArrival)
{
    const DramTiming t = timingPreset("DDR4_2400");
    Channel ch(t, 1);
    EXPECT_EQ(ch.nextEventCycle(), Channel::kNoEvent);
    DecodedAddr a;
    ch.enqueue(a, false, 5000);
    EXPECT_EQ(ch.nextEventCycle(), 5000u);
    // An earlier arrival enqueued later must surface at the front.
    a.col = 1;
    ch.enqueue(a, false, 200);
    EXPECT_EQ(ch.nextEventCycle(), 200u);
    ch.drainAll();
    EXPECT_EQ(ch.nextEventCycle(), Channel::kNoEvent);
}

TEST(Channel, GappedArrivalsServiceEarliestFirst)
{
    // Regression for the pickNext fallback: when no pending request
    // has arrived yet, the scheduler must jump to the earliest
    // arrival — not whichever request happened to be enqueued first.
    const DramTiming t = timingPreset("DDR4_2400");
    Channel ch(t, 1);
    DecodedAddr late; // same bank, row 1
    late.row = 1;
    DecodedAddr early; // same bank, row 0
    const std::uint64_t late_seq = ch.enqueue(late, false, 9'000);
    const std::uint64_t early_seq = ch.enqueue(early, false, 1'000);
    const Cycle late_done = ch.serviceUntil(late_seq);
    const Cycle early_done = ch.serviceUntil(early_seq);
    EXPECT_LT(early_done, late_done);
    // The early request opened the bank (miss); the late one then
    // conflicted — service order row 0 before row 1.
    EXPECT_EQ(ch.stats().rowMisses, 1u);
    EXPECT_EQ(ch.stats().rowConflicts, 1u);
}

TEST(Refresh, AllPresetsHaveRefreshTiming)
{
    for (const auto& name : timingPresetNames()) {
        const DramTiming t = timingPreset(name);
        EXPECT_GT(t.tREFI, t.tRFC) << name;
        EXPECT_GT(t.tRFC, 0u) << name;
    }
}

/** Property sweep over every DRAM technology preset. */
class PresetSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetSweep, FirstAccessLatencyLowerBound)
{
    DramSystem sys(config(1, GetParam().c_str()));
    const DramTiming& t = sys.config().timing;
    const Cycle done = sys.request(0, t.burstBytes, false, 0);
    EXPECT_GE(done, t.tRCD + t.tCL + t.tBurst);
    EXPECT_LE(done, t.tRC + t.tCL + t.tBurst + t.tRFC);
}

TEST_P(PresetSweep, StreamingHitsRows)
{
    DramSystem sys(config(1, GetParam().c_str()));
    const DramTiming& t = sys.config().timing;
    for (int i = 0; i < 32; ++i)
        sys.request(static_cast<Addr>(i) * t.burstBytes, t.burstBytes,
                    false, 0);
    EXPECT_GT(sys.totalStats().rowHitRate(), 0.8);
}

TEST_P(PresetSweep, WritesThenReadsHonorTurnaround)
{
    DramSystem sys(config(1, GetParam().c_str()));
    const DramTiming& t = sys.config().timing;
    const Cycle w = sys.request(0, t.burstBytes, true, 0);
    const Cycle r = sys.request(t.burstBytes, t.burstBytes, false, w);
    // The read's data cannot arrive before write data + tWTR + tCL.
    EXPECT_GE(r, w + t.tWTR);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetSweep,
    ::testing::Values("DDR3_1600", "DDR4_2400", "DDR4_3200",
                      "LPDDR4_3200", "GDDR5_6000", "HBM2"),
    [](const auto& tpi) { return tpi.param; });

TEST(Channel, FawThrottlesActivationBursts)
{
    // Five activations to distinct banks: the fifth waits for tFAW.
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    Cycle completions[5];
    for (int i = 0; i < 5; ++i) {
        completions[i] = sys.request(
            static_cast<Addr>(i) * t.rowBytes, 64, false, 0);
    }
    // Lower bound: the fifth ACT waits until first ACT + tFAW.
    EXPECT_GE(completions[4], t.tFAW + t.tRCD + t.tCL + t.tBurst);
}

TEST(PagePolicy, ClosedPageNeverHitsNorConflicts)
{
    DramSystemConfig cfg = config();
    cfg.pagePolicy = PagePolicy::Closed;
    DramSystem sys(cfg);
    const DramTiming& t = sys.config().timing;
    for (int i = 0; i < 32; ++i)
        sys.request(static_cast<Addr>(i) * t.burstBytes, 64, false, 0);
    const DramStats stats = sys.totalStats();
    EXPECT_EQ(stats.rowHits, 0u);
    EXPECT_EQ(stats.rowConflicts, 0u);
    EXPECT_EQ(stats.rowMisses, 32u);
}

TEST(PagePolicy, ClosedBeatsOpenOnRowThrash)
{
    // Alternating rows in one bank with idle gaps: open-page exposes
    // the precharge (tRP) on every access's critical path; closed-page
    // precharges during the gap, paying only ACT + CAS.
    const DramTiming t = timingPreset("DDR4_2400");
    auto total_latency = [&](PagePolicy policy) {
        DramSystemConfig cfg = config();
        cfg.pagePolicy = policy;
        DramSystem sys(cfg);
        const Addr stride = t.rowBytes * t.banksPerRank;
        Cycle total = 0;
        for (int i = 0; i < 64; ++i) {
            const Cycle arrival = static_cast<Cycle>(i) * 200;
            const Cycle done = sys.request(
                (i % 2) ? stride : 0, 64, false, arrival);
            total += done - arrival;
        }
        return total;
    };
    EXPECT_LT(total_latency(PagePolicy::Closed),
              total_latency(PagePolicy::Open));
}

TEST(PagePolicy, OpenBeatsClosedOnStreaming)
{
    const DramTiming t = timingPreset("DDR4_2400");
    auto makespan = [&](PagePolicy policy) {
        DramSystemConfig cfg = config();
        cfg.pagePolicy = policy;
        DramSystem sys(cfg);
        Cycle last = 0;
        for (int i = 0; i < 64; ++i) {
            last = std::max(last, sys.request(
                static_cast<Addr>(i) * t.burstBytes, 64, false, 0));
        }
        return last;
    };
    EXPECT_LT(makespan(PagePolicy::Open), makespan(PagePolicy::Closed));
}
