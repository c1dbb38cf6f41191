#include "core/dse.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"

namespace scalesim::core
{

SramSplit
splitSramKb(std::uint64_t totalKb)
{
    SramSplit split;
    split.filterKb = totalKb / 4;
    split.ofmapKb = totalKb / 4;
    // Remainder to the ifmap partition: the split must conserve the
    // labeled total (totalKb % 4 != 0 would otherwise sweep a smaller
    // memory than the point claims).
    split.ifmapKb = totalKb - split.filterKb - split.ofmapKb;
    return split;
}

std::vector<DseDetailedPoint>
runSweepDetailed(const DseSweep& sweep, const Topology& topology)
{
    return runSweepDetailed(sweep, [&](const SimConfig& cfg) {
        // Worker-private Simulator/DramMemory: per-layer timeline_
        // coupling behaves exactly as in the sequential run.
        Simulator sim(cfg);
        return sim.run(topology);
    });
}

std::vector<DseDetailedPoint>
runSweepDetailed(const DseSweep& sweep,
                 const std::function<RunResult(const SimConfig&)>& evaluate)
{
    if (sweep.arraySizes.empty() || sweep.dataflows.empty()
        || sweep.sramKbTotals.empty()) {
        fatal("DSE sweep has an empty axis");
    }
    // Flatten the axes into an index space so candidates can run on
    // any thread while results land at their sequential-order slot.
    struct Candidate
    {
        std::uint32_t array;
        Dataflow dataflow;
        std::uint64_t sramKb;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(sweep.arraySizes.size() * sweep.dataflows.size()
                       * sweep.sramKbTotals.size());
    for (std::uint32_t array : sweep.arraySizes)
        for (Dataflow df : sweep.dataflows)
            for (std::uint64_t sram_kb : sweep.sramKbTotals)
                candidates.push_back({array, df, sram_kb});

    std::vector<DseDetailedPoint> points(candidates.size());
    parallelFor(candidates.size(), sweep.jobs, [&](std::uint64_t i) {
        const Candidate& cand = candidates[i];
        SimConfig cfg = sweep.base;
        cfg.arrayRows = cfg.arrayCols = cand.array;
        cfg.dataflow = cand.dataflow;
        cfg.energy.enabled = true;
        const SramSplit split = splitSramKb(cand.sramKb);
        cfg.memory.ifmapSramKb = split.ifmapKb;
        cfg.memory.filterSramKb = split.filterKb;
        cfg.memory.ofmapSramKb = split.ofmapKb;
        RunResult run = evaluate(cfg);
        DsePoint point;
        point.array = cand.array;
        point.dataflow = cand.dataflow;
        point.sramKb = cand.sramKb;
        point.cycles = run.totalCycles;
        point.energyMj = run.totalEnergy.totalMj();
        point.edp = run.edp;
        // The worker's registry moves into the candidate's index slot:
        // no shared state, and identical output for every jobs value.
        points[i].point = point;
        points[i].stats = std::move(run.stats);
        points[i].intervals = std::move(run.intervals);
    });
    return points;
}

std::vector<DsePoint>
runSweep(const DseSweep& sweep, const Topology& topology)
{
    std::vector<DseDetailedPoint> detailed =
        runSweepDetailed(sweep, topology);
    std::vector<DsePoint> points;
    points.reserve(detailed.size());
    for (const auto& d : detailed)
        points.push_back(d.point);
    return points;
}

obs::StatsRegistry
mergeSweepStats(const std::vector<DseDetailedPoint>& points)
{
    obs::StatsRegistry merged;
    merged.addScalar("sweep.points", "design points evaluated",
                     static_cast<double>(points.size()));
    for (const auto& p : points)
        merged.merge(p.stats);
    return merged;
}

namespace
{

template <typename Key>
DsePoint
bestBy(const std::vector<DsePoint>& points, Key key)
{
    if (points.empty())
        fatal("no DSE points to rank");
    return *std::min_element(points.begin(), points.end(),
                             [&](const DsePoint& a, const DsePoint& b) {
                                 return key(a) < key(b);
                             });
}

} // namespace

DsePoint
bestByLatency(const std::vector<DsePoint>& points)
{
    return bestBy(points, [](const DsePoint& p) {
        return static_cast<double>(p.cycles);
    });
}

DsePoint
bestByEnergy(const std::vector<DsePoint>& points)
{
    return bestBy(points, [](const DsePoint& p) { return p.energyMj; });
}

DsePoint
bestByEdp(const std::vector<DsePoint>& points)
{
    return bestBy(points, [](const DsePoint& p) { return p.edp; });
}

std::vector<DsePoint>
paretoFrontier(std::vector<DsePoint> points)
{
    // Sort by cycles, then sweep keeping strictly improving energy.
    std::sort(points.begin(), points.end(),
              [](const DsePoint& a, const DsePoint& b) {
                  if (a.cycles != b.cycles)
                      return a.cycles < b.cycles;
                  return a.energyMj < b.energyMj;
              });
    std::vector<DsePoint> frontier;
    double best_energy = std::numeric_limits<double>::max();
    for (const auto& point : points) {
        if (point.energyMj < best_energy) {
            frontier.push_back(point);
            best_energy = point.energyMj;
        }
    }
    return frontier;
}

std::vector<bool>
paretoMembership(const std::vector<DsePoint>& points)
{
    const auto frontier = paretoFrontier(points);
    std::vector<bool> member(points.size(), false);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DsePoint& p = points[i];
        for (const auto& f : frontier) {
            if (f.array == p.array && f.dataflow == p.dataflow
                && f.sramKb == p.sramKb) {
                member[i] = true;
                break;
            }
        }
    }
    return member;
}

void
writeDseReport(std::ostream& out, const std::vector<DsePoint>& points)
{
    const auto pareto = paretoMembership(points);
    CsvWriter csv(out);
    csv.writeRow({"Array", "Dataflow", "SramKB", "Cycles", "Energy_mJ",
                  "EdP", "Pareto"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DsePoint& p = points[i];
        csv.writeRow({std::to_string(p.array), toString(p.dataflow),
                      std::to_string(p.sramKb),
                      std::to_string(p.cycles),
                      format("%.4f", p.energyMj),
                      format("%.4g", p.edp),
                      pareto[i] ? "yes" : "no"});
    }
}

} // namespace scalesim::core
