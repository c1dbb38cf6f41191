/**
 * @file
 * Energy and power estimation (paper §VII): multiplies action counts by
 * the ERT, adds static energy for PEs and SRAMs, and reports the
 * breakdown (PE array / GLB / NoC / DRAM / static), average and
 * instantaneous power, and energy-delay product.
 */

#ifndef SCALESIM_ENERGY_MODEL_HH
#define SCALESIM_ENERGY_MODEL_HH

#include <string>
#include <vector>

#include "common/config.hpp"
#include "energy/action_counts.hpp"
#include "energy/ert.hpp"

namespace scalesim::energy
{

/** Energy breakdown of one layer or run, in picojoules. */
struct EnergyBreakdown
{
    double peArray = 0.0; ///< MACs + PE scratchpads
    double glb = 0.0;     ///< smart-buffer SRAM dynamic energy
    double noc = 0.0;     ///< array-edge interconnect
    double dram = 0.0;    ///< main-memory access energy
    double staticE = 0.0; ///< leakage over the run's cycles

    double
    totalPj() const
    {
        return peArray + glb + noc + dram + staticE;
    }
    /** Total excluding main memory (the chip's own energy). */
    double onChipPj() const { return peArray + glb + noc + staticE; }
    double onChipMj() const { return onChipPj() * 1e-9; }
    double totalUj() const { return totalPj() * 1e-6; }
    double totalMj() const { return totalPj() * 1e-9; }

    void
    merge(const EnergyBreakdown& o)
    {
        peArray += o.peArray;
        glb += o.glb;
        noc += o.noc;
        dram += o.dram;
        staticE += o.staticE;
    }

    bool operator==(const EnergyBreakdown&) const = default;
};

/** One sample of the instantaneous power trace. */
struct PowerSample
{
    std::string label;   ///< layer name
    Cycle cycles = 0;    ///< duration of the epoch
    double powerW = 0.0; ///< energy / time over the epoch
};

/**
 * The energy model: ERT plus the hardware quantities static energy
 * depends on (PE count, total SRAM capacity).
 */
class EnergyModel
{
  public:
    EnergyModel(const Ert& ert, const EnergyConfig& cfg,
                std::uint64_t num_pes, double sram_total_kb);

    const Ert& ert() const { return ert_; }

    /** Dynamic + static energy of a set of action counts. */
    EnergyBreakdown energy(const ActionCounts& counts) const;

    /** Average power in watts over `cycles` at the configured clock. */
    double averagePowerW(const EnergyBreakdown& breakdown,
                         Cycle cycles) const;

    /** Runtime of `cycles` in seconds at the configured clock. */
    double seconds(Cycle cycles) const;

    /**
     * Command-granular main-memory energy (pJ) from detailed DRAM
     * statistics: row misses/conflicts pay activations, every burst
     * pays array + IO energy, refreshes pay tRFC energy. Replaces the
     * flat per-word estimate when the DRAM model ran.
     */
    double dramCommandEnergyPj(Count activates, Count read_bursts,
                               Count write_bursts,
                               Count refreshes) const;

    /** Energy-delay product in cycles x mJ. */
    double
    edp(const EnergyBreakdown& breakdown, Cycle cycles) const
    {
        return breakdown.totalMj() * static_cast<double>(cycles);
    }

  private:
    Ert ert_;
    EnergyConfig cfg_;
    std::uint64_t numPes_;
    double sramTotalKb_;
};

} // namespace scalesim::energy

#endif // SCALESIM_ENERGY_MODEL_HH
