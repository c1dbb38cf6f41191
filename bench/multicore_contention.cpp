/**
 * @file
 * Multi-core contention benchmark: runs the trace-mode multi-core
 * simulator on a sweep of grid/bandwidth/dataflow points and records,
 * per point, the makespan, the arbiter's conflict and grant counts, the
 * cores' aggregate queueing at the shared port and the wall-clock cost
 * into BENCH_multicore.json.
 *
 *   multicore_contention [output.json] [--jobs N]
 *
 * Points are independent (each owns its simulator), so `--jobs N`
 * sweeps them on N threads — results are identical for every N; the
 * TSan CI job runs this with --jobs 4 to race-check the interleaved
 * engine.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "multicore/trace_sim.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

namespace
{

struct Point
{
    const char* name;
    std::uint64_t pr, pc;
    Dataflow dataflow;
    bool useL2;
    double dramWordsPerCycle;
    LayerSpec layer;
};

struct Outcome
{
    Cycle makespan = 0;
    std::uint64_t arbConflicts = 0;
    std::uint64_t grants = 0;
    std::uint64_t stallOnL2 = 0;
    double seconds = 0.0;
};

MultiCoreTraceConfig
configFor(const Point& p)
{
    MultiCoreTraceConfig cfg;
    cfg.pr = p.pr;
    cfg.pc = p.pc;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = p.dataflow;
    cfg.useL2 = p.useL2;
    cfg.dramWordsPerCycle = p.dramWordsPerCycle;
    cfg.l1.ifmapWords = 4096;
    cfg.l1.filterWords = 4096;
    return cfg;
}

Outcome
runPoint(const Point& p)
{
    Outcome out;
    benchutil::Timer t;
    MultiCoreTraceSimulator sim(configFor(p));
    const auto result = sim.runLayer(p.layer);
    out.seconds = t.seconds();
    out.makespan = result.makespan;
    out.arbConflicts = result.arb.arbConflicts;
    out.grants = result.arb.grants;
    for (const auto& port : result.ports)
        out.stallOnL2 += port.waitCycles;
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_multicore.json";
    if (argc > 1 && argv[1][0] != '-')
        out_path = argv[1];
    const unsigned jobs = jobsFromArgs(argc, argv, 1);
    const unsigned hw_threads = std::thread::hardware_concurrency();

    const std::vector<Point> points = {
        {"ws_l2_ample", 2, 2, Dataflow::WeightStationary, true, 32.0,
         LayerSpec::gemm("g", 256, 128, 128)},
        {"ws_l2_starved", 2, 2, Dataflow::WeightStationary, true, 4.0,
         LayerSpec::gemm("g", 256, 128, 128)},
        {"os_nol2_starved", 2, 2, Dataflow::OutputStationary, false,
         4.0, LayerSpec::gemm("g", 96, 64, 48)},
        {"os_nol2_ample", 2, 2, Dataflow::OutputStationary, false,
         64.0, LayerSpec::gemm("g", 96, 64, 48)},
        {"is_conv_l2", 1, 4, Dataflow::InputStationary, true, 8.0,
         LayerSpec::conv("c", 14, 14, 3, 3, 32, 64, 1)},
        {"ws_wide_grid", 4, 4, Dataflow::WeightStationary, true, 16.0,
         LayerSpec::gemm("g", 512, 256, 256)},
    };

    std::vector<Outcome> outcomes(points.size());
    benchutil::Timer total;
    parallelFor(points.size(), jobs, [&](std::uint64_t i) {
        outcomes[i] = runPoint(points[i]);
    });
    const double total_s = total.seconds();

    benchutil::Table table({16, 12, 12, 12, 12, 10});
    table.row({"point", "makespan", "arbConf", "grants", "stallOnL2",
               "wall(s)"});
    table.rule();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& o = outcomes[i];
        table.row({points[i].name, benchutil::num(o.makespan),
                   benchutil::num(o.arbConflicts),
                   benchutil::num(o.grants), benchutil::num(o.stallOnL2),
                   benchutil::fmt("%.3f", o.seconds)});
    }

    std::ofstream out(out_path);
    if (!out)
        fatal("cannot write %s", out_path.c_str());
    out << "{\n"
        << "  \"benchmark\": \"multicore_contention\",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"hardwareThreads\": " << hw_threads << ",\n"
        << "  \"totalWallSeconds\": "
        << benchutil::fmt("%.6f", total_s) << ",\n"
        << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        const auto& o = outcomes[i];
        out << "    {\n"
            << "      \"name\": \"" << p.name << "\",\n"
            << "      \"grid\": \"" << p.pr << "x" << p.pc << "\",\n"
            << "      \"dataflow\": \"" << toString(p.dataflow)
            << "\",\n"
            << "      \"useL2\": " << (p.useL2 ? "true" : "false")
            << ",\n"
            << "      \"dramWordsPerCycle\": "
            << benchutil::fmt("%.1f", p.dramWordsPerCycle) << ",\n"
            << "      \"sharedMakespan\": " << o.makespan << ",\n"
            << "      \"arbConflicts\": " << o.arbConflicts << ",\n"
            << "      \"arbGrants\": " << o.grants << ",\n"
            << "      \"stallOnL2\": " << o.stallOnL2 << ",\n"
            << "      \"sharedSeconds\": "
            << benchutil::fmt("%.6f", o.seconds) << "\n"
            << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s (%u jobs, %.3f s)\n", out_path.c_str(), jobs,
                total_s);

    // The acceptance check: on the same layer, real collisions must
    // make the starved no-L2 bus strictly slower than the ample one.
    const Outcome& starved = outcomes[2]; // os_nol2_starved
    const Outcome& ample = outcomes[3];   // os_nol2_ample
    if (starved.makespan <= ample.makespan || starved.arbConflicts == 0) {
        std::fprintf(stderr,
                     "FAIL: starved bus shows no contention slowdown\n");
        return 1;
    }
    return 0;
}
