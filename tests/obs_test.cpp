/**
 * @file
 * Tests for the observability substrate: the stats registry (scalar /
 * vector / distribution / formula semantics, percentiles, merging,
 * deterministic dumps and flattening), the streaming JSON writer, the
 * Chrome-trace builder, CPI-stack cycle conservation, interval
 * time-series sampling/serialization, and the determinism contract of
 * detailed DSE sweeps (parallel stats dumps and interval series
 * byte-identical to sequential ones).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "obs/cpi.hpp"
#include "obs/interval.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

#include "json_check.hpp"

using namespace scalesim;

TEST(Histogram, BucketsByPowerOfTwo)
{
    obs::Histogram h;
    h.sample(0.0);
    h.sample(1.0);
    h.sample(2.0);
    h.sample(3.0);
    h.sample(1000.0);
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.buckets[0], 1u); // zero
    EXPECT_EQ(h.buckets[1], 1u); // [1, 2)
    EXPECT_EQ(h.buckets[2], 2u); // [2, 4)
    EXPECT_DOUBLE_EQ(h.minSample, 0.0);
    EXPECT_DOUBLE_EQ(h.maxSample, 1000.0);
    EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);
}

TEST(Histogram, MergeAddsCountsAndMoments)
{
    obs::Histogram a, b;
    a.sample(1.0);
    a.sample(2.0);
    b.sample(8.0);
    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_DOUBLE_EQ(a.sum, 11.0);
    EXPECT_DOUBLE_EQ(a.maxSample, 8.0);
    EXPECT_DOUBLE_EQ(a.minSample, 1.0);
}

TEST(Histogram, EmptyHasNoNan)
{
    obs::Histogram h;
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.stdev(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, BucketZeroCoversSubUnitSamples)
{
    // Bucket 0 is [0, 1): every fractional latency lands there, and
    // 1.0 starts bucket 1.
    obs::Histogram h;
    h.sample(0.0);
    h.sample(0.25);
    h.sample(0.99);
    EXPECT_EQ(h.buckets[0], 3u);
    h.sample(1.0);
    EXPECT_EQ(h.buckets[1], 1u);
}

TEST(Histogram, IntegerSamplesMatchDoubleSamples)
{
    // The integer overload finds the bucket with a bit scan instead of
    // log2: every small value, and both sides of every power of two up
    // to 2^63, must land exactly where sample(double(n)) puts it, with
    // the same moments.
    std::vector<std::uint64_t> values;
    for (std::uint64_t n = 0; n <= (1u << 16); ++n)
        values.push_back(n);
    for (unsigned k = 1; k <= 63; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        values.insert(values.end(), {p - 1, p, p + 1});
    }
    obs::Histogram by_int, by_double;
    for (const std::uint64_t n : values) {
        by_int.sample(n);
        by_double.sample(static_cast<double>(n));
        if (!std::equal(std::begin(by_int.buckets),
                        std::end(by_int.buckets),
                        std::begin(by_double.buckets))) {
            ADD_FAILURE() << "bucket differs at " << n;
            break;
        }
    }
    EXPECT_EQ(by_int.count, by_double.count);
    EXPECT_EQ(by_int.sum, by_double.sum);
    EXPECT_EQ(by_int.sumSq, by_double.sumSq);
    EXPECT_EQ(by_int.minSample, by_double.minSample);
    EXPECT_EQ(by_int.maxSample, by_double.maxSample);
    EXPECT_EQ(by_int.buckets[0], 1u); // only 0 is below 1
    EXPECT_EQ(by_int.buckets[1], 2u); // 1 twice: the sweep and 2^1 - 1
}

TEST(Histogram, QuantilesInterpolateWithinBuckets)
{
    obs::Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    // q <= 0 / q >= 1 clamp to the observed envelope.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.0);
    // Bucket 6 spans [32, 64) with 32 samples and cumulative 32
    // below it; target 50 interpolates to exactly 50.0.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
    // Higher quantiles stay ordered and inside the envelope.
    const double p90 = h.quantile(0.9);
    const double p99 = h.quantile(0.99);
    EXPECT_GE(p90, h.quantile(0.5));
    EXPECT_GE(p99, p90);
    EXPECT_LE(p99, h.maxSample);
}

TEST(Histogram, DumpEmitsPercentileLines)
{
    obs::StatsRegistry reg;
    obs::Histogram h;
    for (int i = 1; i <= 16; ++i)
        h.sample(static_cast<double>(i));
    reg.addDistribution("dram.readLatency", "latency", h);

    std::ostringstream out;
    reg.dump(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("dram.readLatency::p50"), std::string::npos);
    EXPECT_NE(text.find("dram.readLatency::p90"), std::string::npos);
    EXPECT_NE(text.find("dram.readLatency::p99"), std::string::npos);

    std::ostringstream json_out;
    reg.dumpJson(json_out);
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(json_out.str(), doc));
    const jsoncheck::Value* dist = doc.find("dram.readLatency");
    ASSERT_NE(dist, nullptr);
    ASSERT_NE(dist->find("p50"), nullptr);
    EXPECT_DOUBLE_EQ(dist->find("p50")->number, h.quantile(0.5));
}

TEST(StatsRegistry, ScalarsAccumulate)
{
    obs::StatsRegistry reg;
    reg.addScalar("a.x", "x", 2.0);
    reg.addScalar("a.x", "x", 3.0);
    EXPECT_DOUBLE_EQ(reg.scalarValue("a.x"), 5.0);
    EXPECT_DOUBLE_EQ(reg.scalarValue("absent"), 0.0);
}

TEST(StatsRegistry, VectorElementsAccumulateAndTotal)
{
    obs::StatsRegistry reg;
    reg.addVectorElem("v", "e0", "v", 1.0);
    reg.addVectorElem("v", "e1", "v", 2.0);
    reg.addVectorElem("v", "e0", "v", 10.0);
    EXPECT_DOUBLE_EQ(reg.evaluate("v"), 13.0); // vector total
}

TEST(StatsRegistry, FormulaEvaluatesAgainstRegistry)
{
    obs::StatsRegistry reg;
    reg.addScalar("hits", "h", 30.0);
    reg.addScalar("misses", "m", 10.0);
    obs::FormulaSpec rate;
    rate.numerator = {{"hits", 1.0}};
    rate.denominator = {{"hits", 1.0}, {"misses", 1.0}};
    reg.addFormula("hitRate", "hits / accesses", rate);
    EXPECT_DOUBLE_EQ(reg.evaluate("hitRate"), 0.75);
}

TEST(StatsRegistry, FormulaZeroDenominatorIsZeroNotNan)
{
    obs::StatsRegistry reg;
    reg.addScalar("num", "n", 5.0);
    obs::FormulaSpec f;
    f.numerator = {{"num", 1.0}};
    f.denominator = {{"absent", 1.0}};
    reg.addFormula("ratio", "r", f);
    const double v = reg.evaluate("ratio");
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(StatsRegistry, MergeAddsAndDumpIsDeterministic)
{
    obs::StatsRegistry a, b;
    a.addScalar("s", "s", 1.0);
    a.addVectorElem("v", "e", "v", 2.0);
    obs::Histogram h;
    h.sample(4.0);
    a.addDistribution("d", "d", h);

    b.addScalar("s", "s", 9.0);
    b.addVectorElem("v", "e", "v", 3.0);
    b.addDistribution("d", "d", h);

    obs::StatsRegistry ab = a;
    ab.merge(b);
    obs::StatsRegistry ba = b;
    ba.merge(a);
    EXPECT_DOUBLE_EQ(ab.scalarValue("s"), 10.0);

    std::ostringstream out_ab, out_ba;
    ab.dump(out_ab);
    ba.dump(out_ba);
    EXPECT_EQ(out_ab.str(), out_ba.str());
    EXPECT_NE(out_ab.str().find("Begin Simulation Statistics"),
              std::string::npos);
}

TEST(StatsRegistry, DumpJsonParses)
{
    obs::StatsRegistry reg;
    reg.addScalar("sim.cycles", "cycles", 42.0);
    reg.addVectorElem("spad.stallBreakdown", "drain", "stalls", 7.0);
    obs::Histogram h;
    h.sample(3.0);
    reg.addDistribution("dram.queueOccupancy", "occupancy", h);
    obs::FormulaSpec f;
    f.numerator = {{"sim.cycles", 1.0}};
    reg.addFormula("sim.rate", "rate", f);

    std::ostringstream out;
    reg.dumpJson(out);
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(out.str(), doc));
    ASSERT_EQ(doc.kind, jsoncheck::Value::Kind::Object);
    const jsoncheck::Value* cycles = doc.find("sim.cycles");
    ASSERT_NE(cycles, nullptr);
    const jsoncheck::Value* value = cycles->find("value");
    ASSERT_NE(value, nullptr);
    EXPECT_DOUBLE_EQ(value->number, 42.0);
}

TEST(JsonWriter, ProducesValidNestedDocument)
{
    std::ostringstream out;
    obs::JsonWriter json(out);
    json.beginObject();
    json.field("name", "run \"x\" \n tab\t");
    json.field("count", static_cast<std::uint64_t>(7));
    json.key("list").beginArray();
    json.value(1.5);
    json.value(true);
    json.null();
    json.endArray();
    json.key("nested").beginObject();
    json.field("deep", -3);
    json.endObject();
    json.endObject();

    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(out.str(), doc));
    EXPECT_EQ(doc.find("count")->number, 7.0);
    EXPECT_EQ(doc.find("list")->items.size(), 3u);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    std::ostringstream out;
    obs::JsonWriter json(out);
    json.beginObject();
    json.field("a", std::numeric_limits<double>::quiet_NaN());
    json.field("b", std::numeric_limits<double>::infinity());
    json.endObject();
    const std::string text = out.str();
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(text, doc));
    EXPECT_EQ(doc.find("a")->kind, jsoncheck::Value::Kind::Null);
    EXPECT_EQ(doc.find("b")->kind, jsoncheck::Value::Kind::Null);
}

TEST(TraceBuilder, EmitsValidChromeTraceJson)
{
    obs::TraceBuilder trace;
    trace.setProcessName(0, "accelerator");
    trace.setThreadName(0, 0, "layers");
    trace.addSpan(0, 0, "conv1", "layer", 0, 100,
                  {{"utilization", 0.5}});
    trace.addCounter(0, "power_W", 0, "power", 1.25);
    trace.addMetadata("workload", "tiny");

    std::ostringstream out;
    trace.write(out);
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(out.str(), doc));
    const jsoncheck::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, jsoncheck::Value::Kind::Array);
    // 2 metadata + 1 span + 1 counter.
    EXPECT_EQ(events->items.size(), 4u);
    bool saw_span = false, saw_counter = false;
    for (const auto& ev : events->items) {
        const jsoncheck::Value* ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        saw_span = saw_span || ph->text == "X";
        saw_counter = saw_counter || ph->text == "C";
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_counter);
}

TEST(StatsRegistry, FlattenIsSortedAndSkipsFormulas)
{
    obs::StatsRegistry reg;
    reg.addScalar("z.cycles", "c", 5.0);
    reg.addVectorElem("a.vec", "e1", "v", 2.0);
    reg.addVectorElem("a.vec", "e0", "v", 1.0);
    obs::Histogram h;
    h.sample(3.0);
    reg.addDistribution("m.dist", "d", h);
    obs::FormulaSpec f;
    f.numerator = {{"z.cycles", 1.0}};
    reg.addFormula("z.rate", "r", f);

    const auto flat = reg.flatten();
    ASSERT_TRUE(std::is_sorted(flat.begin(), flat.end()));
    auto value_of = [&](const std::string& name) -> double {
        for (const auto& [n, v] : flat)
            if (n == name)
                return v;
        ADD_FAILURE() << "missing flattened stat " << name;
        return std::nan("");
    };
    EXPECT_DOUBLE_EQ(value_of("z.cycles"), 5.0);
    EXPECT_DOUBLE_EQ(value_of("a.vec::e0"), 1.0);
    EXPECT_DOUBLE_EQ(value_of("a.vec::e1"), 2.0);
    EXPECT_DOUBLE_EQ(value_of("m.dist::samples"), 1.0);
    EXPECT_DOUBLE_EQ(value_of("m.dist::sum"), 3.0);
    for (const auto& [n, v] : flat)
        EXPECT_NE(n, "z.rate") << "formulas must not be flattened";
}

TEST(CpiStack, AccumulateAndNamesAreStable)
{
    obs::CpiStack a;
    a.compute = 10;
    a.drain = 2;
    obs::CpiStack b;
    b.compute = 3;
    b.dramQueue = 5;
    a.accumulate(b, 2);
    EXPECT_EQ(a.compute, 16u);
    EXPECT_EQ(a.dramQueue, 10u);
    EXPECT_EQ(a.total(), 28u);

    // Bucket order is part of the stats schema; pin it.
    EXPECT_STREQ(obs::CpiStack::bucketName(0), "compute");
    EXPECT_STREQ(obs::CpiStack::bucketName(1), "vector");
    EXPECT_STREQ(
        obs::CpiStack::bucketName(obs::CpiStack::kBucketCount - 1),
        "refresh");
    std::uint64_t by_bucket = 0;
    for (unsigned i = 0; i < obs::CpiStack::kBucketCount; ++i)
        by_bucket += a.bucketValue(i);
    EXPECT_EQ(by_bucket, a.total());
}

namespace
{

obs::StatsRegistry
cumulativeAt(double a, double b)
{
    obs::StatsRegistry reg;
    reg.addScalar("sim.a", "a", a);
    reg.addScalar("sim.b", "b", b);
    return reg;
}

double
deltaOf(const obs::IntervalRow& row, std::string_view name)
{
    for (const auto& [n, v] : row.deltas)
        if (n == name)
            return v;
    ADD_FAILURE() << "missing delta " << name;
    return std::nan("");
}

} // namespace

TEST(IntervalSampler, EmitsRowsAtBoundariesAndFinishTail)
{
    obs::IntervalSampler off(0);
    EXPECT_FALSE(off.enabled());

    obs::IntervalSampler s(100);
    ASSERT_TRUE(s.enabled());
    s.sample(50, cumulativeAt(10, 1)); // before the first boundary
    s.sample(150, cumulativeAt(30, 2)); // crosses cycle 100
    s.sample(160, cumulativeAt(40, 3)); // next boundary is 200
    s.finish(180, cumulativeAt(45, 4)); // partial tail row

    const obs::IntervalSeries series = s.takeSeries();
    EXPECT_EQ(series.interval, 100u);
    ASSERT_EQ(series.rows.size(), 2u);
    // First row's deltas are the cumulative values so far.
    EXPECT_EQ(series.rows[0].cycle, 150u);
    EXPECT_DOUBLE_EQ(deltaOf(series.rows[0], "sim.a"), 30.0);
    EXPECT_DOUBLE_EQ(deltaOf(series.rows[0], "sim.b"), 2.0);
    // The tail row carries only what accrued past the last row.
    EXPECT_EQ(series.rows[1].cycle, 180u);
    EXPECT_DOUBLE_EQ(deltaOf(series.rows[1], "sim.a"), 15.0);
    EXPECT_DOUBLE_EQ(deltaOf(series.rows[1], "sim.b"), 2.0);
}

TEST(IntervalSampler, FinishWithoutNewCyclesAddsNoRow)
{
    obs::IntervalSampler s(10);
    s.sample(10, cumulativeAt(5, 0));
    s.finish(10, cumulativeAt(5, 0));
    EXPECT_EQ(s.series().rows.size(), 1u);
}

TEST(IntervalSeries, SerializationsAreValidAndConsistent)
{
    obs::IntervalSampler s(100);
    s.sample(150, cumulativeAt(30, 2));
    s.finish(180, cumulativeAt(45, 4));
    const obs::IntervalSeries series = s.takeSeries();

    std::ostringstream text;
    series.writeStatsText(text);
    EXPECT_NE(text.str().find("Begin Interval Statistics"),
              std::string::npos);
    EXPECT_NE(text.str().find("cycle 150"), std::string::npos);
    EXPECT_NE(text.str().find("cycle 180"), std::string::npos);

    std::ostringstream csv;
    series.writeCsv(csv);
    EXPECT_EQ(csv.str().rfind("cycle,sim.a,sim.b\n", 0), 0u)
        << csv.str();

    std::ostringstream json_out;
    series.writeJson(json_out);
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(json_out.str(), doc));
    EXPECT_DOUBLE_EQ(doc.find("interval")->number, 100.0);
    const jsoncheck::Value* rows = doc.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items.size(), 2u);
    const jsoncheck::Value* stats = rows->items[0].find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_DOUBLE_EQ(stats->find("sim.a")->number, 30.0);

    // Counter tracks: one Perfetto counter sample per row for the
    // prefix-selected stats.
    obs::TraceBuilder trace;
    series.toCounterTracks(trace, 0, "sim.a", "a");
    std::ostringstream trace_out;
    trace.write(trace_out);
    jsoncheck::Value trace_doc;
    ASSERT_TRUE(jsoncheck::valid(trace_out.str(), trace_doc));
}

namespace
{

Topology
tinyTopology()
{
    Topology topo;
    topo.name = "tiny";
    topo.layers.push_back(LayerSpec::conv("conv", 14, 14, 3, 3, 8, 16,
                                          1));
    topo.layers.push_back(LayerSpec::gemm("fc", 4, 32, 64));
    return topo;
}

core::DseSweep
smallSweep(unsigned jobs)
{
    core::DseSweep sweep;
    sweep.arraySizes = {8, 16};
    sweep.dataflows = {Dataflow::OutputStationary,
                       Dataflow::WeightStationary};
    sweep.sramKbTotals = {256};
    sweep.base.mode = SimMode::Analytical;
    sweep.jobs = jobs;
    return sweep;
}

} // namespace

TEST(Simulator, CpiStackConservesCyclesWithDramAndIntervals)
{
    SimConfig cfg;
    cfg.dram.enabled = true;
    cfg.audit = true;
    cfg.intervalCycles = 2000;
    core::Simulator sim(cfg);
    const core::RunResult run = sim.run(tinyTopology());

    // The auditor saw every per-layer and run-level CPI stack.
    EXPECT_TRUE(run.audited);
    EXPECT_TRUE(run.audit.clean());

    // One cycle, one bucket: stacks partition wall-clock time exactly.
    EXPECT_EQ(run.cpiTotals.total(), run.totalCycles);
    for (const auto& layer : run.layers)
        EXPECT_EQ(layer.cpi.total(), layer.totalCycles) << layer.name;

    // With DRAM on, some stall bucket beyond compute/vector is live.
    EXPECT_LT(run.cpiTotals.compute + run.cpiTotals.vectorUnit,
              run.totalCycles);

    // Interval rows exist and their cpistack deltas telescope back to
    // the run total (sampling must not lose or duplicate cycles).
    ASSERT_FALSE(run.intervals.empty());
    double series_cycles = 0.0;
    for (const auto& row : run.intervals.rows)
        for (unsigned i = 0; i < obs::CpiStack::kBucketCount; ++i)
            series_cycles += deltaOf(
                row, std::string("sim.cpistack::")
                         + obs::CpiStack::bucketName(i));
    EXPECT_DOUBLE_EQ(series_cycles,
                     static_cast<double>(run.totalCycles));
}

TEST(DseDetailed, ParallelStatsDumpsMatchSequential)
{
    const Topology topo = tinyTopology();
    const auto seq = core::runSweepDetailed(smallSweep(1), topo);
    const auto par = core::runSweepDetailed(smallSweep(4), topo);
    ASSERT_EQ(seq.size(), par.size());

    // Per-point dumps are byte-identical regardless of jobs.
    for (std::size_t i = 0; i < seq.size(); ++i) {
        std::ostringstream s, p;
        seq[i].stats.dump(s);
        par[i].stats.dump(p);
        EXPECT_EQ(s.str(), p.str()) << "point " << i;
        EXPECT_FALSE(seq[i].stats.empty());
    }

    // And so is the index-order merged aggregate.
    std::ostringstream s, p;
    core::mergeSweepStats(seq).dump(s);
    core::mergeSweepStats(par).dump(p);
    EXPECT_EQ(s.str(), p.str());
}

TEST(DseDetailed, ParallelIntervalSeriesMatchSequential)
{
    const Topology topo = tinyTopology();
    auto sweep_with_intervals = [](unsigned jobs) {
        core::DseSweep sweep = smallSweep(jobs);
        sweep.base.intervalCycles = 64;
        return sweep;
    };
    const auto seq =
        core::runSweepDetailed(sweep_with_intervals(1), topo);
    const auto par =
        core::runSweepDetailed(sweep_with_intervals(4), topo);
    ASSERT_EQ(seq.size(), par.size());

    // Every serialization of every point's time-series must be
    // byte-identical regardless of the jobs count.
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_FALSE(seq[i].intervals.empty()) << "point " << i;
        using Writer =
            void (obs::IntervalSeries::*)(std::ostream&) const;
        for (Writer writer : {&obs::IntervalSeries::writeStatsText,
                              &obs::IntervalSeries::writeCsv,
                              &obs::IntervalSeries::writeJson}) {
            std::ostringstream s, p;
            (seq[i].intervals.*writer)(s);
            (par[i].intervals.*writer)(p);
            EXPECT_EQ(s.str(), p.str()) << "point " << i;
        }
    }
}

TEST(DseDetailed, RunSweepMatchesDetailedPoints)
{
    const Topology topo = tinyTopology();
    const auto points = core::runSweep(smallSweep(1), topo);
    const auto detailed = core::runSweepDetailed(smallSweep(1), topo);
    ASSERT_EQ(points.size(), detailed.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].cycles, detailed[i].point.cycles);
        EXPECT_DOUBLE_EQ(points[i].energyMj,
                         detailed[i].point.energyMj);
    }
}
