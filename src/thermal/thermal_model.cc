#include "thermal/thermal_model.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/state_buffer.hh"

namespace hs {

ThermalModel::ThermalModel(const Floorplan &floorplan,
                           const ThermalParams &params)
    : floorplan_(params.dieShrink == 1.0
                     ? floorplan
                     : floorplan.scaled(params.dieShrink)),
      params_(params)
{
    int n = numBlocks + 2;
    spreaderNode_ = numBlocks;
    sinkNode_ = numBlocks + 1;
    net_ = std::make_unique<RcNetwork>(n);

    // Block nodes: capacitance and vertical path to the spreader.
    for (int i = 0; i < numBlocks; ++i) {
        double area = floorplan_.area(blockFromIndex(i));
        double cap = params_.cvSilicon * params_.siliconThickness * area;
        net_->setCapacitance(i, cap);
        double r_vert =
            params_.siliconThickness / (params_.kSilicon * area) +
            params_.timThickness / (params_.kTim * area);
        net_->addConductance(i, spreaderNode_, 1.0 / r_vert);
    }

    // Lateral coupling between adjacent blocks.
    double sheet_k = params_.kSilicon * params_.siliconThickness;
    for (const Adjacency &adj : floorplan_.adjacencies()) {
        const Rect &ra = floorplan_.rect(adj.a);
        const Rect &rb = floorplan_.rect(adj.b);
        // Distance from each block centre to the shared edge, in the
        // direction perpendicular to the edge.
        double da = adj.vertical ? ra.h / 2 : ra.w / 2;
        double db = adj.vertical ? rb.h / 2 : rb.w / 2;
        double r_lat = params_.lateralScale * (da + db) /
                       (sheet_k * adj.sharedEdge);
        net_->addConductance(blockIndex(adj.a), blockIndex(adj.b),
                             1.0 / r_lat);
    }

    // Package: spreader -> sink -> ambient.
    net_->setCapacitance(spreaderNode_, params_.spreaderC);
    net_->setCapacitance(sinkNode_, params_.sinkC);
    net_->addConductance(spreaderNode_, sinkNode_,
                         1.0 / params_.spreaderToSinkR);
    double conv_r = params_.idealSink ? 1e-9 : params_.convectionR;
    net_->addBathConductance(sinkNode_, 1.0 / conv_r, params_.ambient);

    if (params_.timeScale != 1.0)
        net_->scaleCapacitances(1.0 / params_.timeScale);

    net_->setAllTemps(params_.ambient);
}

ThermalModel::ThermalModel(const Topology &topology,
                           const ThermalParams &params)
    : floorplan_(params.dieShrink == 1.0
                     ? topology.tile()
                     : topology.tile().scaled(params.dieShrink)),
      params_(params),
      topo_(std::make_unique<Topology>(floorplan_, topology.params())),
      numCores_(topology.numCores())
{
    int nb = numCores_ * numBlocks;
    spreaderNode_ = nb;
    sinkNode_ = nb + 1;
    net_ = std::make_unique<RcNetwork>(nb + 2);

    double sheet_k = params_.kSilicon * params_.siliconThickness;

    // Per-core subgraphs: block capacitances, vertical paths into the
    // shared spreader, then the tile's own lateral couplings — the
    // same element order as the single-core constructor, repeated per
    // tile, so a 1-core topology builds a bit-identical network.
    for (int c = 0; c < numCores_; ++c) {
        int base = c * numBlocks;
        for (int i = 0; i < numBlocks; ++i) {
            double area = floorplan_.area(blockFromIndex(i));
            double cap =
                params_.cvSilicon * params_.siliconThickness * area;
            net_->setCapacitance(base + i, cap);
            double r_vert =
                params_.siliconThickness / (params_.kSilicon * area) +
                params_.timThickness / (params_.kTim * area);
            net_->addConductance(base + i, spreaderNode_, 1.0 / r_vert);
        }
        for (const Adjacency &adj : floorplan_.adjacencies()) {
            const Rect &ra = floorplan_.rect(adj.a);
            const Rect &rb = floorplan_.rect(adj.b);
            double da = adj.vertical ? ra.h / 2 : ra.w / 2;
            double db = adj.vertical ? rb.h / 2 : rb.w / 2;
            double r_lat = params_.lateralScale * (da + db) /
                           (sheet_k * adj.sharedEdge);
            net_->addConductance(base + blockIndex(adj.a),
                                 base + blockIndex(adj.b), 1.0 / r_lat);
        }
    }

    // Cross-core couplings along the tile seams: the intra-tile sheet
    // formula lengthened by the inter-tile gap, times the explicit
    // coupling knob (0 decouples the cores).
    const TopologyParams &tp = topo_->params();
    double spacing =
        params_.dieShrink == 1.0 ? tp.coreSpacing
                                 : tp.coreSpacing * params_.dieShrink;
    for (const CrossEdge &e : topo_->crossEdges()) {
        const Rect &ra = floorplan_.rect(e.blockA);
        const Rect &rb = floorplan_.rect(e.blockB);
        double da = e.vertical ? ra.h / 2 : ra.w / 2;
        double db = e.vertical ? rb.h / 2 : rb.w / 2;
        double r_lat = params_.lateralScale * (da + db + spacing) /
                       (sheet_k * e.sharedEdge);
        net_->addConductance(e.coreA * numBlocks + blockIndex(e.blockA),
                             e.coreB * numBlocks + blockIndex(e.blockB),
                             tp.couplingScale / r_lat);
    }

    // Shared package: every stage grows with the die — spreader/sink
    // capacitance, spreader-to-sink conductance, and the convection
    // interface (an N-core part carries an N-cores'-worth sink, i.e.
    // convectionR is the per-core Table 1 budget). With a symmetric
    // nominal load every tile then sits at the same temperatures as
    // the single-core die, so DTM thresholds keep their calibration
    // and cross-core heating is attributable to the attacker, not to
    // an undersized package.
    net_->setCapacitance(spreaderNode_, params_.spreaderC * numCores_);
    net_->setCapacitance(sinkNode_, params_.sinkC * numCores_);
    net_->addConductance(spreaderNode_, sinkNode_,
                         numCores_ / params_.spreaderToSinkR);
    double conv_r = params_.idealSink ? 1e-9 : params_.convectionR;
    net_->addBathConductance(sinkNode_, numCores_ / conv_r,
                             params_.ambient);

    if (params_.timeScale != 1.0)
        net_->scaleCapacitances(1.0 / params_.timeScale);

    net_->setAllTemps(params_.ambient);
}

std::vector<Watts>
ThermalModel::padPower(const std::vector<Watts> &block_power) const
{
    if (block_power.size() != static_cast<size_t>(totalBlocks()))
        fatal("ThermalModel: expected %d block powers, got %zu",
              totalBlocks(), block_power.size());
    std::vector<Watts> padded(block_power);
    padded.push_back(0.0); // spreader
    padded.push_back(0.0); // sink
    return padded;
}

void
ThermalModel::initSteadyState(const std::vector<Watts> &block_power)
{
    net_->setTemps(net_->solveSteadyState(padPower(block_power)));
}

void
ThermalModel::step(const std::vector<Watts> &block_power, double dt)
{
    if (params_.idealSink) {
        // Infinite heat removal: hold every node at its initial
        // (steady) temperature.
        return;
    }
    size_t nb = static_cast<size_t>(totalBlocks());
    if (block_power.size() != nb)
        fatal("ThermalModel: expected %d block powers, got %zu",
              totalBlocks(), block_power.size());
    // Hot path: reuse the padded buffer instead of allocating one per
    // sensor interval (spreader and sink nodes inject no power).
    padBuf_.resize(nb + 2);
    std::copy(block_power.begin(), block_power.end(), padBuf_.begin());
    padBuf_[nb] = 0.0;
    padBuf_[nb + 1] = 0.0;
    net_->step(padBuf_, dt);
}

std::vector<Kelvin>
ThermalModel::steadyTemps(const std::vector<Watts> &block_power) const
{
    std::vector<Kelvin> all = net_->solveSteadyState(padPower(block_power));
    all.resize(static_cast<size_t>(totalBlocks()));
    return all;
}

Kelvin
ThermalModel::blockTemp(Block b) const
{
    return net_->temp(blockIndex(b));
}

Kelvin
ThermalModel::coreBlockTemp(int core, Block b) const
{
    if (core < 0 || core >= numCores_)
        panic("ThermalModel: core %d out of range [0,%d)", core,
              numCores_);
    return net_->temp(core * numBlocks + blockIndex(b));
}

Kelvin
ThermalModel::spreaderTemp() const
{
    return net_->temp(spreaderNode_);
}

Kelvin
ThermalModel::sinkTemp() const
{
    return net_->temp(sinkNode_);
}

std::pair<Block, Kelvin>
ThermalModel::hottest() const
{
    Block best = Block::L2;
    Kelvin best_t = -1;
    int nb = totalBlocks();
    for (int i = 0; i < nb; ++i) {
        Kelvin t = net_->temp(i);
        if (t > best_t) {
            best_t = t;
            best = blockFromIndex(i % numBlocks);
        }
    }
    return {best, best_t};
}

double
ThermalModel::minTimeConstant() const
{
    return net_->minTimeConstant();
}

template <class IO>
void
ThermalModel::serialize(IO &io)
{
    io.tag(stateTag("THRM"), "ThermalModel");
    std::vector<Kelvin> temps = net_->temps();
    io.table(temps, "thermal node count");
    if constexpr (IO::kReading)
        net_->setTemps(temps);
}

template void ThermalModel::serialize(StateWriter &);
template void ThermalModel::serialize(StateReader &);

} // namespace hs
