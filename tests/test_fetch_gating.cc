/** @file Tests for the fetch-gating DTM baseline and the sensor-noise
 *  robustness of selective sedation. */

#include <gtest/gtest.h>

#include "core/fetch_gating.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace hs {
namespace {

class FakeControl : public DtmControl
{
  public:
    void stallPipeline(bool s) override { stalled = s; }
    void
    sedateThread(ThreadId tid, bool s) override
    {
        gated[static_cast<size_t>(tid)] = s;
    }
    void throttlePipeline(int k) override { throttle = k; }
    bool threadActive(ThreadId) const override { return true; }

    bool stalled = false;
    int throttle = 1;
    std::array<bool, 8> gated{};
};

std::vector<Kelvin>
allAt(Kelvin t)
{
    return std::vector<Kelvin>(static_cast<size_t>(numBlocks), t);
}

TEST(FetchGating, GatesAllButOneWhenHot)
{
    FetchGating policy(2);
    FakeControl ctl;
    policy.atSensorSample(0, allAt(357.5), ctl);
    EXPECT_TRUE(policy.engaged());
    int gated = ctl.gated[0] + ctl.gated[1];
    EXPECT_EQ(gated, 1) << "exactly one thread gated per sample";
}

TEST(FetchGating, RotatesTheAllowedThread)
{
    FetchGating policy(2);
    FakeControl ctl;
    policy.atSensorSample(0, allAt(357.5), ctl);
    bool first = ctl.gated[0];
    policy.atSensorSample(1, allAt(357.5), ctl);
    EXPECT_NE(ctl.gated[0], first) << "gate must rotate";
}

TEST(FetchGating, ReleasesEveryoneWhenCool)
{
    FetchGating policy(2);
    FakeControl ctl;
    policy.atSensorSample(0, allAt(357.5), ctl);
    policy.atSensorSample(1, allAt(354.0), ctl);
    EXPECT_FALSE(policy.engaged());
    EXPECT_FALSE(ctl.gated[0]);
    EXPECT_FALSE(ctl.gated[1]);
}

TEST(FetchGating, RejectsBadParams)
{
    FetchGatingParams params;
    params.resumeTemp = 358.0;
    params.triggerTemp = 357.0;
    EXPECT_DEATH(FetchGating policy(2, params), "resume");
}

TEST(FetchGating, EndToEndStillHurtsTheVictim)
{
    // The point of the ablation: an indiscriminate thread-granular
    // mechanism still punishes the victim for the attacker's heat.
    ExperimentOptions opts;
    opts.timeScale = 100.0;
    opts.dtm = DtmMode::StopAndGo;
    RunResult solo = executeRunSpec(soloSpec("gcc", opts));

    SimConfig cfg = makeSimConfig(opts);
    cfg.dtm = DtmMode::FetchGating;
    Simulator sim(cfg);
    sim.setWorkload(0, synthesizeSpec("gcc"));
    sim.setWorkload(1, makeVariant(2, makeMaliciousParams(opts)));
    RunResult gated = sim.run();
    EXPECT_LT(gated.threads[0].ipc, 0.9 * solo.threads[0].ipc);
}

TEST(SensorNoise, SedationRobustToHalfKelvinError)
{
    // Section 5.6 robustness, extended: with +-0.5 K sensor error the
    // defense still identifies and contains the attacker.
    ExperimentOptions opts;
    opts.timeScale = 100.0;
    opts.dtm = DtmMode::SelectiveSedation;
    SimConfig cfg = makeSimConfig(opts);
    cfg.sensorNoiseK = 0.5;
    Simulator sim(cfg);
    sim.setWorkload(0, synthesizeSpec("gcc"));
    sim.setWorkload(1, makeVariant(2, makeMaliciousParams(opts)));
    RunResult noisy = sim.run();

    ASSERT_FALSE(noisy.sedationEvents.empty());
    for (const SedationEvent &e : noisy.sedationEvents)
        EXPECT_EQ(e.thread, 1);
    EXPECT_LE(noisy.emergencies, 2u);
}

TEST(SensorNoise, EmergenciesCountedOnTrueTemperature)
{
    // Huge sensor noise must not manufacture (or hide) emergencies in
    // the physical accounting of a cool run.
    ExperimentOptions opts;
    opts.timeScale = 500.0;
    opts.dtm = DtmMode::StopAndGo;
    SimConfig cfg = makeSimConfig(opts);
    cfg.sensorNoiseK = 10.0;
    Simulator sim(cfg);
    sim.setWorkload(0, synthesizeSpec("twolf"));
    RunResult r = sim.run();
    EXPECT_EQ(r.emergencies, 0u);
}

} // namespace
} // namespace hs
