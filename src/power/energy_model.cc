#include "power/energy_model.hh"

#include "common/log.hh"

namespace hs {

namespace {

void
set(std::array<double, numBlocks> &arr, Block b, double v)
{
    arr[static_cast<size_t>(blockIndex(b))] = v;
}

} // namespace

EnergyParams
EnergyParams::defaults()
{
    EnergyParams p;

    // Per-access dynamic energy, joules. Calibrated so that a SPEC-like
    // two-thread mix dissipates ~30 W total and a register-file hammer
    // adds ~4-5 W of localised power (Section 4 / Table 1 regime).
    auto &e = p.accessEnergy;
    set(e, Block::L2, 1.2e-9);
    set(e, Block::L2Left, 1.2e-9);
    set(e, Block::L2Right, 1.2e-9);
    set(e, Block::Icache, 0.35e-9);
    set(e, Block::Dcache, 0.40e-9);
    set(e, Block::Bpred, 0.08e-9);
    set(e, Block::Dtb, 0.04e-9);
    set(e, Block::FpAdd, 0.20e-9);
    set(e, Block::FpReg, 0.06e-9);
    set(e, Block::FpMul, 0.25e-9);
    set(e, Block::FpMap, 0.05e-9);
    set(e, Block::IntMap, 0.04e-9);
    set(e, Block::IntQ, 0.03e-9);
    set(e, Block::IntReg, 0.16e-9);
    set(e, Block::IntExec, 0.12e-9);
    set(e, Block::LdStQ, 0.15e-9);
    set(e, Block::Itb, 0.04e-9);

    // Leakage, watts (roughly area-proportional; ~6 W total).
    auto &l = p.leakage;
    set(l, Block::L2, 2.0);
    set(l, Block::L2Left, 0.8);
    set(l, Block::L2Right, 0.8);
    set(l, Block::Icache, 0.5);
    set(l, Block::Dcache, 0.5);
    set(l, Block::Bpred, 0.15);
    set(l, Block::Dtb, 0.10);
    set(l, Block::FpAdd, 0.10);
    set(l, Block::FpReg, 0.05);
    set(l, Block::FpMul, 0.10);
    set(l, Block::FpMap, 0.06);
    set(l, Block::IntMap, 0.06);
    set(l, Block::IntQ, 0.08);
    set(l, Block::IntReg, 0.12);
    set(l, Block::IntExec, 0.30);
    set(l, Block::LdStQ, 0.12);
    set(l, Block::Itb, 0.06);

    // Clock tree + idle logic, watts when un-gated (~13 W total).
    auto &c = p.clockPower;
    set(c, Block::L2, 2.0);
    set(c, Block::L2Left, 0.7);
    set(c, Block::L2Right, 0.7);
    set(c, Block::Icache, 1.2);
    set(c, Block::Dcache, 1.2);
    set(c, Block::Bpred, 0.5);
    set(c, Block::Dtb, 0.3);
    set(c, Block::FpAdd, 0.35);
    set(c, Block::FpReg, 0.10);
    set(c, Block::FpMul, 0.30);
    set(c, Block::FpMap, 0.15);
    set(c, Block::IntMap, 0.20);
    set(c, Block::IntQ, 0.15);
    set(c, Block::IntReg, 0.30);
    set(c, Block::IntExec, 1.5);
    set(c, Block::LdStQ, 0.5);
    set(c, Block::Itb, 0.2);

    return p;
}

EnergyModel::EnergyModel(const EnergyParams &params) : params_(params)
{
}

void
EnergyModel::windowPowerInto(const ActivityCounters &counters,
                             ActivityCounters::Snapshot &snapshot,
                             Cycles window_cycles, Cycles active_cycles,
                             std::vector<Watts> &out) const
{
    if (window_cycles == 0)
        fatal("EnergyModel::windowPowerInto: zero-length window");
    out.resize(static_cast<size_t>(numBlocks));
    double window_seconds =
        static_cast<double>(window_cycles) / params_.frequencyHz;
    double active_frac = static_cast<double>(active_cycles) /
                         static_cast<double>(window_cycles);
    for (int b = 0; b < numBlocks; ++b) {
        uint64_t accesses = 0;
        for (ThreadId t = 0; t < counters.numThreads(); ++t)
            accesses += snapshot.delta(t, blockFromIndex(b));
        size_t i = static_cast<size_t>(b);
        out[i] = static_cast<double>(accesses) *
                     params_.accessEnergy[i] / window_seconds +
                 params_.leakage[i] +
                 params_.clockPower[i] * active_frac;
    }
    snapshot.take();
}

std::vector<Watts>
EnergyModel::steadyPower(
    const std::array<double, numBlocks> &accesses_per_cycle) const
{
    std::vector<Watts> power(numBlocks, 0.0);
    for (int b = 0; b < numBlocks; ++b) {
        size_t i = static_cast<size_t>(b);
        power[i] = accesses_per_cycle[i] * params_.accessEnergy[i] *
                       params_.frequencyHz +
                   params_.leakage[i] + params_.clockPower[i];
    }
    return power;
}

std::vector<Watts>
EnergyModel::idlePower() const
{
    std::vector<Watts> power(numBlocks, 0.0);
    for (int b = 0; b < numBlocks; ++b)
        power[static_cast<size_t>(b)] =
            params_.leakage[static_cast<size_t>(b)];
    return power;
}

Watts
EnergyModel::total(const std::vector<Watts> &power)
{
    Watts sum = 0;
    for (Watts w : power)
        sum += w;
    return sum;
}

} // namespace hs
