/** @file Unit tests for the Wattch-style energy model. */

#include <gtest/gtest.h>

#include "power/energy_model.hh"

namespace hs {
namespace {

size_t
idx(Block b)
{
    return static_cast<size_t>(blockIndex(b));
}

TEST(EnergyModel, IdlePowerIsLeakageOnly)
{
    EnergyModel em;
    std::vector<Watts> idle = em.idlePower();
    for (int b = 0; b < numBlocks; ++b)
        EXPECT_DOUBLE_EQ(idle[static_cast<size_t>(b)],
                         em.params().leakage[static_cast<size_t>(b)]);
}

TEST(EnergyModel, WindowPowerBasicAccounting)
{
    EnergyModel em;
    ActivityCounters ac(1);
    ActivityCounters::Snapshot snap(ac);
    // 20000 accesses to IntReg over a 20000-cycle fully active window
    // = 1 access/cycle = E * f watts of dynamic power.
    ac.record(0, Block::IntReg, 20000);
    std::vector<Watts> p;
    em.windowPowerInto(ac, snap, 20000, 20000, p);
    double expected = em.params().accessEnergy[idx(Block::IntReg)] *
                          em.params().frequencyHz +
                      em.params().leakage[idx(Block::IntReg)] +
                      em.params().clockPower[idx(Block::IntReg)];
    EXPECT_NEAR(p[idx(Block::IntReg)], expected, 1e-9);
}

TEST(EnergyModel, ClockGatedWindow)
{
    EnergyModel em;
    ActivityCounters ac(1);
    ActivityCounters::Snapshot snap(ac);
    // No activity, zero active cycles: leakage only.
    std::vector<Watts> p;
    em.windowPowerInto(ac, snap, 20000, 0, p);
    for (int b = 0; b < numBlocks; ++b)
        EXPECT_DOUBLE_EQ(p[static_cast<size_t>(b)],
                         em.params().leakage[static_cast<size_t>(b)]);
}

TEST(EnergyModel, HalfActiveWindowChargesHalfClock)
{
    EnergyModel em;
    ActivityCounters ac(1);
    ActivityCounters::Snapshot snap(ac);
    std::vector<Watts> p;
    em.windowPowerInto(ac, snap, 20000, 10000, p);
    size_t i = idx(Block::Icache);
    EXPECT_NEAR(p[i],
                em.params().leakage[i] + 0.5 * em.params().clockPower[i],
                1e-12);
}

TEST(EnergyModel, WindowAdvancesSnapshot)
{
    EnergyModel em;
    ActivityCounters ac(1);
    ActivityCounters::Snapshot snap(ac);
    ac.record(0, Block::Dcache, 100);
    std::vector<Watts> p;
    em.windowPowerInto(ac, snap, 1000, 1000, p);
    // Second window with no new activity: dynamic part must be zero.
    em.windowPowerInto(ac, snap, 1000, 1000, p);
    size_t i = idx(Block::Dcache);
    EXPECT_NEAR(p[i],
                em.params().leakage[i] + em.params().clockPower[i],
                1e-12);
}

TEST(EnergyModel, SteadyPowerMatchesWindowPower)
{
    // steadyPower(r) must equal windowPowerInto with r accesses/cycle.
    EnergyModel em;
    std::array<double, numBlocks> rates{};
    rates[idx(Block::IntReg)] = 2.5;
    std::vector<Watts> steady = em.steadyPower(rates);

    ActivityCounters ac(1);
    ActivityCounters::Snapshot snap(ac);
    ac.record(0, Block::IntReg, 25000);
    std::vector<Watts> window;
    em.windowPowerInto(ac, snap, 10000, 10000, window);
    EXPECT_NEAR(steady[idx(Block::IntReg)], window[idx(Block::IntReg)],
                1e-9);
}

TEST(EnergyModel, MultiThreadActivitySummed)
{
    EnergyModel em;
    ActivityCounters ac(2);
    ActivityCounters::Snapshot snap(ac);
    ac.record(0, Block::IntReg, 5000);
    ac.record(1, Block::IntReg, 5000);
    std::vector<Watts> p;
    em.windowPowerInto(ac, snap, 10000, 10000, p);
    size_t i = idx(Block::IntReg);
    double expected = 1.0 * em.params().accessEnergy[i] *
                          em.params().frequencyHz +
                      em.params().leakage[i] + em.params().clockPower[i];
    EXPECT_NEAR(p[i], expected, 1e-9);
}

TEST(EnergyModel, WindowOverwritesAReusedBuffer)
{
    // The hot path hands the same buffer in every sample: a stale size
    // or stale values must not leak into the next window.
    EnergyModel em;
    ActivityCounters ac(1);
    ActivityCounters::Snapshot snap(ac);
    std::vector<Watts> p(3, -1.0);
    em.windowPowerInto(ac, snap, 1000, 0, p);
    ASSERT_EQ(p.size(), static_cast<size_t>(numBlocks));
    for (int b = 0; b < numBlocks; ++b)
        EXPECT_DOUBLE_EQ(p[static_cast<size_t>(b)],
                         em.params().leakage[static_cast<size_t>(b)]);
}

TEST(EnergyModel, TotalSums)
{
    std::vector<Watts> p{1.0, 2.5, 3.5};
    EXPECT_DOUBLE_EQ(EnergyModel::total(p), 7.0);
}

// Helper mirroring the simulator's nominal rates without linking hs_sim.
std::array<double, numBlocks>
simConfigLikeRates()
{
    std::array<double, numBlocks> rates{};
    rates[idx(Block::Icache)] = 1.8;
    rates[idx(Block::Itb)] = 1.8;
    rates[idx(Block::IntQ)] = 13.5;
    rates[idx(Block::IntReg)] = 11.5;
    rates[idx(Block::IntExec)] = 2.3;
    rates[idx(Block::Dcache)] = 1.1;
    return rates;
}

TEST(EnergyModel, DefaultsInPlausibleRange)
{
    // Whole-chip sanity for a next-generation 4 GHz part (Table 1):
    // idle in single digits of watts, typical activity 20-45 W.
    EnergyModel em;
    EXPECT_GT(EnergyModel::total(em.idlePower()), 3.0);
    EXPECT_LT(EnergyModel::total(em.idlePower()), 12.0);
    auto p = em.steadyPower(simConfigLikeRates());
    double total = EnergyModel::total(p);
    EXPECT_GT(total, 20.0);
    EXPECT_LT(total, 45.0);
}

} // namespace
} // namespace hs
