/** @file Unit tests for the selective-sedation state machine
 *  (Section 3.2.2), driven through a fake DtmControl. */

#include <gtest/gtest.h>

#include "core/sedation.hh"

namespace hs {
namespace {

class FakeControl : public DtmControl
{
  public:
    void stallPipeline(bool s) override { stalled = s; }
    void
    sedateThread(ThreadId tid, bool s) override
    {
        sedated[static_cast<size_t>(tid)] = s;
    }
    void throttlePipeline(int k) override { throttle = k; }
    bool
    threadActive(ThreadId tid) const override
    {
        return active[static_cast<size_t>(tid)];
    }

    bool stalled = false;
    int throttle = 1;
    std::array<bool, 8> sedated{};
    std::array<bool, 8> active{true, true, true, true,
                               true, true, true, true};
};

std::vector<Kelvin>
oneHot(Block b, Kelvin hot, Kelvin rest = 350.0)
{
    std::vector<Kelvin> t(static_cast<size_t>(numBlocks), rest);
    t[static_cast<size_t>(blockIndex(b))] = hot;
    return t;
}

/** Feed the monitor so thread @p hot_thread looks like the hammerer. */
void
primeMonitor(SelectiveSedation &policy, ActivityCounters &ac,
             ThreadId hot_thread, int windows = 400)
{
    for (int i = 0; i < windows; ++i) {
        ac.record(0, Block::IntReg, hot_thread == 0 ? 12000 : 4000);
        ac.record(1, Block::IntReg, hot_thread == 1 ? 12000 : 4000);
        policy.atMonitorSample(static_cast<Cycles>(i * 1000), ac);
    }
}

SedationParams
fastParams()
{
    SedationParams p;
    p.recheckCycles = 100000;
    p.ewmaShift = 7;
    return p;
}

TEST(Sedation, SedatesHighestUsageThreadAtUpperThreshold)
{
    SelectiveSedation policy(2, fastParams());
    FakeControl ctl;
    ActivityCounters ac(2);
    primeMonitor(policy, ac, 1);

    // Below the threshold: nothing happens.
    policy.atSensorSample(1000, oneHot(Block::IntReg, 355.5), ctl);
    EXPECT_FALSE(ctl.sedated[0]);
    EXPECT_FALSE(ctl.sedated[1]);

    // Upper threshold crossed: the hammering thread is sedated.
    policy.atSensorSample(2000, oneHot(Block::IntReg, 356.2), ctl);
    EXPECT_FALSE(ctl.sedated[0]);
    EXPECT_TRUE(ctl.sedated[1]);
    ASSERT_EQ(policy.events().size(), 1u);
    EXPECT_EQ(policy.events()[0].thread, 1);
    EXPECT_EQ(policy.events()[0].resource, Block::IntReg);
}

TEST(Sedation, ReleasesAtLowerThreshold)
{
    SelectiveSedation policy(2, fastParams());
    FakeControl ctl;
    ActivityCounters ac(2);
    primeMonitor(policy, ac, 1);
    policy.atSensorSample(1000, oneHot(Block::IntReg, 356.5), ctl);
    ASSERT_TRUE(ctl.sedated[1]);
    // Still warm: stays sedated.
    policy.atSensorSample(2000, oneHot(Block::IntReg, 355.4), ctl);
    EXPECT_TRUE(ctl.sedated[1]);
    // Cooled to the lower threshold: released.
    policy.atSensorSample(3000, oneHot(Block::IntReg, 354.9), ctl);
    EXPECT_FALSE(ctl.sedated[1]);
    EXPECT_FALSE(policy.isSedated(1));
}

TEST(Sedation, NeverSedatesTheLastThread)
{
    // Section 3.2.2: the last un-sedated thread cannot hurt anyone and
    // must be left to the stop-and-go safety net.
    SelectiveSedation policy(2, fastParams());
    FakeControl ctl;
    ctl.active = {true, false, false, false, false, false, false, false};
    ActivityCounters ac(2);
    primeMonitor(policy, ac, 0);
    policy.atSensorSample(1000, oneHot(Block::IntReg, 357.0), ctl);
    EXPECT_FALSE(ctl.sedated[0]);
    EXPECT_TRUE(policy.events().empty());
}

TEST(Sedation, RecheckSedatesSecondAttacker)
{
    // Two attackers: after twice the cooling time with no relief, the
    // next-highest thread is sedated too (3-context machine so the
    // last-thread exception does not apply).
    SedationParams params = fastParams();
    SelectiveSedation policy(3, params);
    FakeControl ctl;
    ActivityCounters ac(3);
    for (int i = 0; i < 400; ++i) {
        ac.record(0, Block::IntReg, 3000);  // victim
        ac.record(1, Block::IntReg, 12000); // attacker A
        ac.record(2, Block::IntReg, 11000); // attacker B
        policy.atMonitorSample(static_cast<Cycles>(i * 1000), ac);
    }
    policy.atSensorSample(1000, oneHot(Block::IntReg, 356.5), ctl);
    EXPECT_TRUE(ctl.sedated[1]);
    EXPECT_FALSE(ctl.sedated[2]);
    // Before the recheck interval: no new action even though hot.
    policy.atSensorSample(50000, oneHot(Block::IntReg, 357.0), ctl);
    EXPECT_FALSE(ctl.sedated[2]);
    // After the recheck: attacker B is sedated as well.
    policy.atSensorSample(1000 + params.recheckCycles + 1,
                          oneHot(Block::IntReg, 357.0), ctl);
    EXPECT_TRUE(ctl.sedated[2]);
    EXPECT_FALSE(ctl.sedated[0]) << "victim stays un-sedated (last)";
    // Cooling releases both.
    policy.atSensorSample(500000, oneHot(Block::IntReg, 354.5), ctl);
    EXPECT_FALSE(ctl.sedated[1]);
    EXPECT_FALSE(ctl.sedated[2]);
}

TEST(Sedation, OsReportCallbackFires)
{
    SelectiveSedation policy(2, fastParams());
    FakeControl ctl;
    ActivityCounters ac(2);
    primeMonitor(policy, ac, 1);
    std::vector<SedationEvent> reported;
    policy.setOsReport([&](const SedationEvent &e) {
        reported.push_back(e);
    });
    policy.atSensorSample(7777, oneHot(Block::IntReg, 356.5), ctl);
    ASSERT_EQ(reported.size(), 1u);
    EXPECT_EQ(reported[0].cycle, 7777u);
    EXPECT_EQ(reported[0].thread, 1);
    EXPECT_GT(reported[0].weightedAvg, 8000.0);
}

TEST(Sedation, SedatedThreadEwmaFrozen)
{
    SelectiveSedation policy(2, fastParams());
    FakeControl ctl;
    ActivityCounters ac(2);
    primeMonitor(policy, ac, 1);
    policy.atSensorSample(1000, oneHot(Block::IntReg, 356.5), ctl);
    ASSERT_TRUE(ctl.sedated[1]);
    double avg = policy.monitor().weightedAvg(1, Block::IntReg);
    // Many idle windows while sedated: the average must not decay.
    for (int i = 0; i < 500; ++i)
        policy.atMonitorSample(static_cast<Cycles>(500000 + i * 1000),
                               ac);
    EXPECT_DOUBLE_EQ(policy.monitor().weightedAvg(1, Block::IntReg),
                     avg);
}

TEST(Sedation, IndependentResourcesTrackSeparately)
{
    // A second resource crossing its threshold sedates based on ITS
    // usage ranking.
    SelectiveSedation policy(2, fastParams());
    FakeControl ctl;
    ActivityCounters ac(2);
    for (int i = 0; i < 400; ++i) {
        ac.record(0, Block::FpReg, 9000);   // thread 0 hammers FP regs
        ac.record(1, Block::IntReg, 9000);  // thread 1 hammers int regs
        policy.atMonitorSample(static_cast<Cycles>(i * 1000), ac);
    }
    policy.atSensorSample(1000, oneHot(Block::FpReg, 356.5), ctl);
    EXPECT_TRUE(ctl.sedated[0]);
    EXPECT_FALSE(ctl.sedated[1]);
}

TEST(Sedation, RefcountAcrossResources)
{
    // A thread sedated for two resources stays sedated until both
    // release it.
    SelectiveSedation policy(2, fastParams());
    FakeControl ctl;
    ActivityCounters ac(2);
    for (int i = 0; i < 400; ++i) {
        ac.record(1, Block::IntReg, 12000);
        ac.record(1, Block::FpReg, 12000);
        ac.record(0, Block::IntReg, 2000);
        policy.atMonitorSample(static_cast<Cycles>(i * 1000), ac);
    }
    std::vector<Kelvin> temps(static_cast<size_t>(numBlocks), 350.0);
    temps[static_cast<size_t>(blockIndex(Block::IntReg))] = 356.5;
    temps[static_cast<size_t>(blockIndex(Block::FpReg))] = 356.5;
    policy.atSensorSample(1000, temps, ctl);
    EXPECT_TRUE(ctl.sedated[1]);
    // IntReg cools, FpReg stays hot: still sedated.
    temps[static_cast<size_t>(blockIndex(Block::IntReg))] = 354.0;
    policy.atSensorSample(2000, temps, ctl);
    EXPECT_TRUE(ctl.sedated[1]);
    EXPECT_TRUE(policy.isSedated(1));
    // FpReg cools too: released.
    temps[static_cast<size_t>(blockIndex(Block::FpReg))] = 354.0;
    policy.atSensorSample(3000, temps, ctl);
    EXPECT_FALSE(ctl.sedated[1]);
}

TEST(Sedation, UsageThresholdAblationTriggersWithoutHeat)
{
    // The Section 3.2.1 ablation: an absolute usage threshold sedates
    // on usage alone — including a legitimate bursty thread (the
    // false-positive problem the temperature trigger avoids).
    SedationParams params = fastParams();
    params.useUsageThreshold = true;
    params.usageThreshold = 8000.0;
    SelectiveSedation policy(2, params);
    FakeControl ctl;
    ActivityCounters ac(2);
    primeMonitor(policy, ac, 1);
    // Temperatures entirely normal, yet the policy fires.
    policy.atSensorSample(1000, oneHot(Block::IntReg, 352.0), ctl);
    EXPECT_TRUE(ctl.sedated[1]);
}

TEST(Sedation, TemperatureTriggerAvoidsColdFalsePositives)
{
    SelectiveSedation policy(2, fastParams());
    FakeControl ctl;
    ActivityCounters ac(2);
    primeMonitor(policy, ac, 1); // bursty but resource stays cool
    policy.atSensorSample(1000, oneHot(Block::IntReg, 353.0), ctl);
    EXPECT_FALSE(ctl.sedated[0]);
    EXPECT_FALSE(ctl.sedated[1]);
}

TEST(Sedation, RejectsBadThresholds)
{
    SedationParams params;
    params.upperThreshold = 355.0;
    params.lowerThreshold = 356.0;
    EXPECT_DEATH(SelectiveSedation policy(2, params), "threshold");
}

class SedationThresholdSweep
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(SedationThresholdSweep, TriggersExactlyAtUpper)
{
    // Robustness across threshold choices (Section 5.6): behaviour is
    // driven by the configured upper threshold, wherever it is set.
    auto [upper, lower] = GetParam();
    SedationParams params = fastParams();
    params.upperThreshold = upper;
    params.lowerThreshold = lower;
    SelectiveSedation policy(2, params);
    FakeControl ctl;
    ActivityCounters ac(2);
    primeMonitor(policy, ac, 1);
    policy.atSensorSample(1000, oneHot(Block::IntReg, upper - 0.2), ctl);
    EXPECT_FALSE(ctl.sedated[1]);
    policy.atSensorSample(2000, oneHot(Block::IntReg, upper + 0.1), ctl);
    EXPECT_TRUE(ctl.sedated[1]);
    policy.atSensorSample(3000, oneHot(Block::IntReg, lower - 0.1), ctl);
    EXPECT_FALSE(ctl.sedated[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, SedationThresholdSweep,
    ::testing::Values(std::make_pair(355.5, 354.5),
                      std::make_pair(356.0, 355.0),
                      std::make_pair(356.5, 355.5),
                      std::make_pair(357.0, 355.0),
                      std::make_pair(357.5, 356.0)));

} // namespace
} // namespace hs
