/**
 * @file
 * Reproduces Table IV: simulation-time overhead of each v3 feature
 * relative to v2 running the same configuration, on a TPU-v2-like
 * array, for AlexNet, ResNet-18, ViT-L and ViT-S.
 *
 *   table4_sim_overhead [out.json] [--jobs N]
 *
 * Every cell times one run a user can make. The baseline is
 * `scalesim_cli -s` (v2's run is trace generation): one
 * core::Simulator::run in trace mode with SRAM traces attached, whose
 * bytes are counted and discarded so disk speed stays out of the
 * ratio. Sparse 2:4 and 1:4, energy, DRAM and layout are that run with
 * one feature on. Multi-core is `scalesim_cli --multicore 4x4` of
 * 32x32 cores (the PEs of one 128x128 array), configured by the CLI's
 * own mapping; it writes no per-core traces. The bench exits 1 naming
 * any cell that skipped its feature's work.
 *
 * Each cell keeps its fastest of kReps runs, made in separate rounds,
 * which filters out host interference (it only ever adds time).
 * `--jobs N` spreads a round's cells over N threads; each cell owns
 * its simulator, so the rows do not depend on N. `out.json` gets the
 * mean overhead ratios (and the paper's) and every cell's seconds; CI
 * gates the Layout and Energy ratios against BENCH_table4.json.
 */

#include <fstream>
#include <streambuf>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"
#include "multicore/trace_sim.hpp"
#include "obs/json.hpp"

using namespace scalesim;

namespace
{

/** Counts the trace bytes it is given and discards them. */
class ByteCounter : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    std::streamsize
    xsputn(const char*, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }

    int_type
    overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            ++bytes;
        return traits_type::not_eof(ch);
    }
};

/** One timed run; `missing` names the feature work it skipped. */
struct Cell
{
    double seconds = 0;
    std::string missing;
};

/** Run `topo` with `feature` switched on ("" for the baseline). */
Cell
runCell(const Topology& topo, const std::string& feature)
{
    SimConfig cfg = SimConfig::tpuV2Like();
    cfg.mode = SimMode::Trace;
    Cell cell;
    if (feature == "multicore") {
        cfg.arrayRows = cfg.arrayCols = 32;
        benchutil::Timer timer;
        multicore::MultiCoreTraceSimulator sim(
            multicore::MultiCoreTraceConfig::fromSimConfig(cfg, 4, 4));
        Cycle makespan = 0;
        for (const auto& layer : topo.layers)
            makespan += sim.runLayer(layer).makespan;
        cell.seconds = timer.seconds();
        if (makespan == 0)
            cell.missing = "makespan";
        return cell;
    }

    const bool sparse = feature == "sparse24" || feature == "sparse14";
    const Topology run_topo = sparse
        ? workloads::withUniformSparsity(
              topo, feature == "sparse24" ? 2 : 1, 4)
        : topo;
    cfg.sparsity.enabled = sparse;
    cfg.energy.enabled = feature == "energy";
    cfg.dram.enabled = feature == "dram";
    if (feature == "layout") {
        cfg.layout.enabled = true;
        cfg.layout.banks = 32;
        cfg.layout.onChipBandwidth = 256;
    }
    ByteCounter counter;
    std::ostream traces(&counter);
    benchutil::Timer timer;
    core::Simulator sim(cfg);
    sim.attachTraces({&traces, &traces, &traces, &traces});
    const core::RunResult run = sim.run(run_topo);
    cell.seconds = timer.seconds();

    if (counter.bytes == 0)
        cell.missing = "SRAM trace bytes";
    for (const auto& layer : run.layers) {
        if (sparse && !layer.sparse)
            cell.missing = "sparse report on layer " + layer.name;
    }
    if (feature == "dram"
        && run.dramStats.reads + run.dramStats.writes == 0)
        cell.missing = "DRAM requests";
    if (feature == "energy" && !(run.totalEnergy.totalPj() > 0))
        cell.missing = "energy";
    return cell;
}

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    const std::string json_path =
        argc > 1 && argv[1][0] != '-' ? argv[1] : "";
    const unsigned jobs = jobsFromArgs(argc, argv, 1);
    std::printf("=== Table IV: simulation-time overhead vs v2-style "
                "trace run (TPU-v2-like config, jobs=%u) ===\n",
                resolveJobs(jobs));
    const char* workload_names[] = {"alexnet", "resnet18", "vit_large",
                                    "vit_small"};
    const char* features[] = {"multicore", "sparse24", "sparse14",
                              "energy", "dram", "layout"};
    const double paper_means[] = {2.29, 0.42, 0.29, 1.19, 2.13, 16.03};
    constexpr int kWorkloads = 4;
    constexpr int kFeatures = 6;
    constexpr int kReps = 3;

    // One cell per (workload, baseline-or-feature) pair, stored by
    // index, so any --jobs value prints the same table rows. Each round
    // runs every cell once, so a cell's runs are spread over the whole
    // bench and a burst of host load slows at most one of them.
    constexpr int kPerWorkload = 1 + kFeatures;
    benchutil::Timer wall;
    std::vector<Cell> cells(
        static_cast<std::size_t>(kWorkloads) * kPerWorkload);
    for (int r = 0; r < kReps; ++r) {
        parallelFor(cells.size(), jobs, [&](std::uint64_t i) {
            const int w = static_cast<int>(i) / kPerWorkload;
            const int f = static_cast<int>(i) % kPerWorkload;
            Cell cell = runCell(workloads::byName(workload_names[w]),
                                f == 0 ? "" : features[f - 1]);
            if (r == 0 || cell.seconds < cells[i].seconds)
                cells[i] = std::move(cell);
        });
    }
    const double wall_seconds = wall.seconds();
    auto cell_at = [&](int w, int f) -> const Cell& {
        return cells[static_cast<std::size_t>(w * kPerWorkload + f)];
    };

    benchutil::Table table({10, 9, 11, 11, 11, 8, 8, 8});
    table.row({"Workload", "Base (s)", "Multi-core", "Sparse 2:4",
               "Sparse 1:4", "Energy", "DRAM", "Layout"});
    table.rule();
    double mean[kFeatures] = {};
    for (int w = 0; w < kWorkloads; ++w) {
        const double base = std::max(cell_at(w, 0).seconds, 1e-9);
        std::vector<std::string> row = {
            workload_names[w], benchutil::fmt("%.3f", base)};
        for (int f = 0; f < kFeatures; ++f) {
            const double overhead = cell_at(w, 1 + f).seconds / base;
            mean[f] += overhead;
            row.push_back(benchutil::fmt("%.2fx", overhead));
        }
        table.row(row);
    }
    std::vector<std::string> mean_row = {"Mean", ""};
    for (int f = 0; f < kFeatures; ++f)
        mean_row.push_back(benchutil::fmt("%.2fx", mean[f] / kWorkloads));
    table.rule();
    table.row(mean_row);
    std::printf("(paper means: multi-core 2.29x, 2:4 0.42x, 1:4 "
                "0.29x, Accelergy 1.19x, Ramulator 2.13x, Layout "
                "16.03x)\n");
    std::printf("bench wall-clock: %.3f s at jobs=%u\n", wall_seconds,
                resolveJobs(jobs));

    int skipped = 0;
    for (int w = 0; w < kWorkloads; ++w) {
        for (int f = 0; f < kPerWorkload; ++f) {
            const Cell& cell = cell_at(w, f);
            if (cell.missing.empty())
                continue;
            std::fprintf(stderr, "error: %s %s cell produced no %s\n",
                         workload_names[w],
                         f == 0 ? "baseline" : features[f - 1],
                         cell.missing.c_str());
            ++skipped;
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot write %s", json_path.c_str());
        obs::JsonWriter json(out);
        json.beginObject();
        json.field("benchmark", "table4_sim_overhead");
        json.field("jobs", resolveJobs(jobs));
        json.key("meanOverhead").beginObject();
        for (int f = 0; f < kFeatures; ++f)
            json.field(features[f], mean[f] / kWorkloads);
        json.endObject();
        json.key("paperMeanOverhead").beginObject();
        for (int f = 0; f < kFeatures; ++f)
            json.field(features[f], paper_means[f]);
        json.endObject();
        json.key("cellSeconds").beginObject();
        for (int w = 0; w < kWorkloads; ++w) {
            json.key(workload_names[w]).beginObject();
            json.field("baseline", cell_at(w, 0).seconds);
            for (int f = 0; f < kFeatures; ++f)
                json.field(features[f], cell_at(w, 1 + f).seconds);
            json.endObject();
        }
        json.endObject();
        json.field("wallSeconds", wall_seconds);
        json.endObject();
        out << "\n";
    }
    return skipped == 0 ? 0 : 1;
}
