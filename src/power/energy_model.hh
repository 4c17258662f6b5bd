/**
 * @file
 * Wattch-style activity-energy model.
 *
 * Each floorplan block has a per-access dynamic energy (the Wattch
 * "afb" capacitance model collapsed to an energy table calibrated for a
 * 4 GHz, 1.1 V next-generation part, Table 1 of the paper), a leakage
 * power, and a share of the globally gated clock power charged only for
 * cycles the pipeline is active. Per-sensor-interval block power is
 *
 *   P[b] = accesses[b] * Eacc[b] * f / cycles
 *        + leak[b] + clock[b] * activeCycles / cycles.
 */

#ifndef HS_POWER_ENERGY_MODEL_HH
#define HS_POWER_ENERGY_MODEL_HH

#include <array>
#include <vector>

#include "common/blocks.hh"
#include "common/types.hh"
#include "power/activity.hh"

namespace hs {

/** Tunable electrical parameters of the power model. */
struct EnergyParams
{
    double frequencyHz = 4e9; ///< Table 1: 4 GHz
    double vdd = 1.1;         ///< Table 1: 1.1 V

    /** Per-access dynamic energy for each block, joules. */
    std::array<double, numBlocks> accessEnergy{};

    /** Leakage power per block, watts (always on). */
    std::array<double, numBlocks> leakage{};

    /** Clock-tree + idle-logic power per block, watts, charged in
     *  proportion to the fraction of active (un-gated) cycles. */
    std::array<double, numBlocks> clockPower{};

    /** @return parameters with the library's calibrated defaults. */
    static EnergyParams defaults();
};

/** Converts windowed activity counts to per-block power. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params =
                             EnergyParams::defaults());

    /**
     * Compute average block power over a window into @p out (resized
     * to numBlocks; allocation-free once sized, for the hot path).
     *
     * @param counters   the pipeline's activity counters
     * @param snapshot   window start snapshot; advanced to now on return
     * @param window_cycles total cycles in the window
     * @param active_cycles cycles the pipeline clock was running
     * @param out        power per block, watts
     */
    void windowPowerInto(const ActivityCounters &counters,
                         ActivityCounters::Snapshot &snapshot,
                         Cycles window_cycles, Cycles active_cycles,
                         std::vector<Watts> &out) const;

    /**
     * Block power for a hypothetical steady activity level, used to
     * initialise the thermal model before simulation.
     * @param accesses_per_cycle per-block access rate
     */
    std::vector<Watts>
    steadyPower(const std::array<double, numBlocks> &accesses_per_cycle)
        const;

    /** Idle power (leakage only; clock gated) per block. */
    std::vector<Watts> idlePower() const;

    /** Total watts over a block-power vector. */
    static Watts total(const std::vector<Watts> &power);

    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
};

} // namespace hs

#endif // HS_POWER_ENERGY_MODEL_HH
