/** @file Tests for the canned experiment configurations. */

#include <cstdlib>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace hs {
namespace {

TEST(Experiment, ConfigScalesQuantumAndThermals)
{
    ExperimentOptions opts;
    opts.timeScale = 50.0;
    SimConfig cfg = makeSimConfig(opts);
    EXPECT_EQ(cfg.quantumCycles, 10000000u); // 500M / 50
    EXPECT_DOUBLE_EQ(cfg.thermal.timeScale, 50.0);
    // Recheck = 2 * 12.5 ms * 4 GHz / 50 = 2 M cycles.
    EXPECT_EQ(cfg.sedation.recheckCycles, 2000000u);
}

TEST(Experiment, PaperScaleConfig)
{
    ExperimentOptions opts;
    opts.timeScale = 1.0;
    SimConfig cfg = makeSimConfig(opts);
    EXPECT_EQ(cfg.quantumCycles, 500000000u);
    EXPECT_EQ(cfg.sedation.recheckCycles, 100000000u);
    EXPECT_EQ(cfg.sedation.ewmaShift, 9); // x = 1/512 (Section 4)
}

TEST(Experiment, ScaledRunsUseShorterEwmaWindow)
{
    ExperimentOptions opts;
    opts.timeScale = 50.0;
    EXPECT_EQ(makeSimConfig(opts).sedation.ewmaShift, 7);
}

TEST(Experiment, IdealSinkDisablesDtm)
{
    ExperimentOptions opts;
    opts.sink = SinkType::Ideal;
    opts.dtm = DtmMode::StopAndGo;
    SimConfig cfg = makeSimConfig(opts);
    EXPECT_TRUE(cfg.thermal.idealSink);
    EXPECT_EQ(cfg.dtm, DtmMode::None);
}

TEST(Experiment, ConvectionResistancePlumbs)
{
    ExperimentOptions opts;
    opts.convectionR = 0.4;
    EXPECT_DOUBLE_EQ(makeSimConfig(opts).thermal.convectionR, 0.4);
}

TEST(Experiment, ThresholdsPlumb)
{
    ExperimentOptions opts;
    opts.upperThreshold = 357.0;
    opts.lowerThreshold = 355.5;
    SimConfig cfg = makeSimConfig(opts);
    EXPECT_DOUBLE_EQ(cfg.sedation.upperThreshold, 357.0);
    EXPECT_DOUBLE_EQ(cfg.sedation.lowerThreshold, 355.5);
}

TEST(Experiment, MaliciousParamsScale)
{
    ExperimentOptions opts;
    opts.timeScale = 100.0;
    MaliciousParams mp = makeMaliciousParams(opts);
    EXPECT_EQ(mp.hammerIters, MaliciousParams{}.hammerIters / 100);
}

TEST(Experiment, EnvScaleOverride)
{
    setenv("HS_SCALE", "123", 1);
    EXPECT_DOUBLE_EQ(ExperimentOptions::fromEnv().timeScale, 123.0);
    unsetenv("HS_SCALE");
    EXPECT_DOUBLE_EQ(ExperimentOptions::fromEnv().timeScale,
                     ExperimentOptions{}.timeScale);
}

TEST(Experiment, RunSoloSmoke)
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0; // 250 K-cycle quantum: fast smoke
    RunResult r = executeRunSpec(soloSpec("gzip", opts));
    ASSERT_EQ(r.threads.size(), 1u);
    EXPECT_EQ(r.threads[0].program, "gzip");
    EXPECT_GT(r.threads[0].ipc, 0.1);
}

TEST(Experiment, RunPairSmoke)
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    RunResult r = executeRunSpec(specPairSpec("gzip", "mesa", opts));
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_GT(r.threads[0].committed, 0u);
    EXPECT_GT(r.threads[1].committed, 0u);
}

TEST(Experiment, RunWithVariantSmoke)
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    RunResult r = executeRunSpec(withVariantSpec("gzip", 1, opts));
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_EQ(r.threads[1].program, "variant1");
    // The hammer out-accesses the SPEC program.
    EXPECT_GT(r.threads[1].intRegAccessRate,
              r.threads[0].intRegAccessRate);
}

} // namespace
} // namespace hs
