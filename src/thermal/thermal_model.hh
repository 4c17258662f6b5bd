/**
 * @file
 * HotSpot-style compact thermal model of the die + package.
 *
 * Builds an RC network from the floorplan: one silicon node per block
 * (vertical resistance through die + thermal interface material to a
 * lumped heat spreader, lateral resistances between adjacent blocks),
 * a spreader node, and a heat-sink node tied to the ambient through the
 * convection resistance of Table 1 (0.8 K/W for the realistic package).
 *
 * Supports the paper's "ideal heat sink" configuration (infinite heat
 * removal: temperatures never rise; Section 5.3) and time-scaling for
 * fast experiments (all capacitances divided by the scale so that a
 * 1/S-length run shows the same number of heat/cool episodes).
 */

#ifndef HS_THERMAL_THERMAL_MODEL_HH
#define HS_THERMAL_THERMAL_MODEL_HH

#include <array>
#include <memory>
#include <vector>

#include "common/blocks.hh"
#include "common/types.hh"
#include "thermal/floorplan.hh"
#include "thermal/rc_network.hh"
#include "thermal/topology.hh"

namespace hs {

class StateReader;
class StateWriter;

/** Package and material parameters. */
struct ThermalParams
{
    Kelvin ambient = 300.85;       ///< calibrated so the IntReg sits at
                                   ///< ~354 K in normal operation
    double convectionR = 0.8;      ///< K/W, Table 1 (realistic sink)
    double sinkC = 140.0;          ///< J/K, lumped heat sink
    double spreaderC = 3.2;        ///< J/K, lumped copper spreader
    double spreaderToSinkR = 0.1;  ///< K/W
    double siliconThickness = 0.5e-3;  ///< m
    double timThickness = 20e-6;       ///< m, thermal interface material
    double kSilicon = 100.0;           ///< W/(m K) at hot-die temps
    double kTim = 4.0;                 ///< W/(m K)
    double cvSilicon = 1.75e6;         ///< J/(m^3 K)
    double lateralScale = 2.0;  ///< spreading-resistance derating for
                                ///< lateral flow (paper Section 2.1:
                                ///< lateral flow is "not appreciable")
    bool idealSink = false;     ///< infinite heat-removal package
    double timeScale = 1.0;     ///< divide capacitances by this
    double dieShrink = 1.0;     ///< linear shrink applied to the
                                ///< floorplan (technology scaling)
};

/** The die + package thermal model. */
class ThermalModel
{
  public:
    ThermalModel(const Floorplan &floorplan,
                 const ThermalParams &params = {});

    /**
     * Many-core construction: compose one per-block RC subgraph per
     * core tile, cross-core lateral couplings along the tile seams,
     * and a single shared spreader/sink package whose capacitances
     * (and spreader-to-sink conductance) scale with the core count.
     * With a 1-core topology this builds exactly the same network as
     * the floorplan constructor above.
     */
    ThermalModel(const Topology &topology,
                 const ThermalParams &params = {});

    /**
     * Initialise node temperatures to the steady state under
     * @p block_power (watts per block). Call once before simulation so
     * normal-operation temperatures are already established (HotSpot's
     * standard warm-up).
     */
    void initSteadyState(const std::vector<Watts> &block_power);

    /** Advance by @p dt seconds with @p block_power injected. */
    void step(const std::vector<Watts> &block_power, double dt);

    /** Steady-state block temperatures for @p block_power (no state
     *  change). */
    std::vector<Kelvin>
    steadyTemps(const std::vector<Watts> &block_power) const;

    Kelvin blockTemp(Block b) const;
    /** Temperature of @p b on core @p core. */
    Kelvin coreBlockTemp(int core, Block b) const;
    Kelvin spreaderTemp() const;
    Kelvin sinkTemp() const;

    /** Hottest block (on any core) and its temperature. */
    std::pair<Block, Kelvin> hottest() const;

    int numCores() const { return numCores_; }
    /** Block-power entries step() expects (numCores * numBlocks). */
    int totalBlocks() const { return numCores_ * numBlocks; }

    const ThermalParams &params() const { return params_; }
    /** The underlying RC network (node layout: core-major blocks, then
     *  spreader, then sink). */
    const RcNetwork &network() const { return *net_; }
    const Floorplan &floorplan() const { return floorplan_; }
    /** The tiling, when built from one (nullptr for the legacy
     *  single-core constructor). */
    const Topology *topology() const { return topo_.get(); }

    /** The stiffest time constant of the network, seconds. */
    double minTimeConstant() const;

    /** Serialise node temperatures — the only dynamic state; topology
     *  and derived caches are rebuilt from the config (snapshot
     *  support). */
    void saveState(StateWriter &w) const;

    /** Restore temperatures captured by saveState() on a same-topology
     *  model. */
    void restoreState(StateReader &r);

  private:
    std::vector<Watts> padPower(const std::vector<Watts> &block_power)
        const;

    Floorplan floorplan_;
    ThermalParams params_;
    std::unique_ptr<Topology> topo_; ///< set by the topology ctor
    int numCores_ = 1;
    std::unique_ptr<RcNetwork> net_;
    int spreaderNode_;
    int sinkNode_;
    std::vector<Watts> padBuf_; ///< reused padded power (hot path)
};

} // namespace hs

#endif // HS_THERMAL_THERMAL_MODEL_HH
