/** @file Unit tests for the stop-and-go DTM policy (and the DVFS
 *  throttle extension), driven through a fake DtmControl. */

#include <gtest/gtest.h>

#include "core/dvfs.hh"
#include "core/stop_and_go.hh"

namespace hs {
namespace {

/** Records the control actions a policy takes. */
class FakeControl : public DtmControl
{
  public:
    void stallPipeline(bool stalled) override { this->stalled = stalled; }
    void
    sedateThread(ThreadId tid, bool s) override
    {
        sedated[static_cast<size_t>(tid)] = s;
    }
    void throttlePipeline(int k) override { throttle = k; }
    bool threadActive(ThreadId) const override { return true; }

    bool stalled = false;
    int throttle = 1;
    std::array<bool, 8> sedated{};
};

std::vector<Kelvin>
allAt(Kelvin t)
{
    return std::vector<Kelvin>(static_cast<size_t>(numBlocks), t);
}

std::vector<Kelvin>
oneHot(Block b, Kelvin hot, Kelvin rest = 350.0)
{
    std::vector<Kelvin> t = allAt(rest);
    t[static_cast<size_t>(blockIndex(b))] = hot;
    return t;
}

TEST(StopAndGo, StallsAtTriggerTemp)
{
    StopAndGo policy;
    FakeControl ctl;
    policy.atSensorSample(1000, oneHot(Block::IntReg, 357.9), ctl);
    EXPECT_FALSE(ctl.stalled);
    policy.atSensorSample(2000, oneHot(Block::IntReg, 358.1), ctl);
    EXPECT_TRUE(ctl.stalled);
    EXPECT_EQ(policy.triggers(), 1u);
}

TEST(StopAndGo, ReleasesOnlyBelowResume)
{
    StopAndGo policy;
    FakeControl ctl;
    policy.atSensorSample(0, oneHot(Block::IntReg, 359.0), ctl);
    ASSERT_TRUE(ctl.stalled);
    // Between resume and trigger: stay stalled.
    policy.atSensorSample(100, oneHot(Block::IntReg, 353.0), ctl);
    EXPECT_TRUE(ctl.stalled);
    policy.atSensorSample(200,
                          oneHot(Block::IntReg,
                                 policy.params().resumeTemp - 0.1,
                                 policy.params().resumeTemp - 3.0),
                          ctl);
    EXPECT_FALSE(ctl.stalled);
}

TEST(StopAndGo, AccountsStallCycles)
{
    StopAndGo policy;
    FakeControl ctl;
    policy.atSensorSample(1000, allAt(360.0), ctl);
    policy.atSensorSample(51000, allAt(340.0), ctl);
    EXPECT_EQ(policy.stallCycles(), 50000u);
}

TEST(StopAndGo, AnyBlockCanTrigger)
{
    StopAndGo policy;
    FakeControl ctl;
    policy.atSensorSample(0, oneHot(Block::FpReg, 358.5), ctl);
    EXPECT_TRUE(ctl.stalled);
}

TEST(StopAndGo, RepeatedCyclesCounted)
{
    StopAndGo policy;
    FakeControl ctl;
    for (int i = 0; i < 5; ++i) {
        policy.atSensorSample(static_cast<Cycles>(i * 1000),
                              allAt(359.0), ctl);
        policy.atSensorSample(static_cast<Cycles>(i * 1000 + 500),
                              allAt(340.0), ctl);
    }
    EXPECT_EQ(policy.triggers(), 5u);
    EXPECT_FALSE(ctl.stalled);
}

TEST(DvfsThrottle, ThrottlesWhenHotRestoresWhenCool)
{
    DvfsThrottle policy;
    FakeControl ctl;
    policy.atSensorSample(0, allAt(357.5), ctl);
    EXPECT_EQ(ctl.throttle, 2);
    EXPECT_TRUE(policy.engaged());
    policy.atSensorSample(100, allAt(356.0), ctl);
    EXPECT_EQ(ctl.throttle, 2) << "must stay engaged until resume temp";
    policy.atSensorSample(200, allAt(354.0), ctl);
    EXPECT_EQ(ctl.throttle, 1);
    EXPECT_EQ(policy.triggers(), 1u);
}

TEST(DvfsThrottle, CustomSlowdownFactor)
{
    DvfsParams params;
    params.slowdownFactor = 4;
    DvfsThrottle policy(params);
    FakeControl ctl;
    policy.atSensorSample(0, allAt(358.0), ctl);
    EXPECT_EQ(ctl.throttle, 4);
}

} // namespace
} // namespace hs
