/** @file Tests for selective throttling — the per-thread slow-down
 *  alternative to full sedation (Section 3.2 discusses slowing the
 *  problematic thread in general; full fetch-stop is the paper's
 *  concrete mechanism). */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "smt/pipeline.hh"

namespace hs {
namespace {

TEST(Throttling, PipelineThrottleSlowsOneThread)
{
    Program a = assemble("top:\naddi r1, r1, 1\njmp top\n");
    Program b = assemble("top:\naddi r2, r2, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 2;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &a);
    pipe.setThreadProgram(1, &b);
    pipe.setThreadThrottle(1, 4);
    for (int i = 0; i < 40000; ++i)
        pipe.tick();
    // Thread 1 fetches 1/4 of the time; thread 0 fills the gap.
    EXPECT_GT(pipe.committed(0), 2 * pipe.committed(1));
    EXPECT_GT(pipe.committed(1), 1000u) << "throttled, not stopped";
    EXPECT_GT(pipe.thread(1).sedationCycles, 20000u);

    pipe.setThreadThrottle(1, 1);
    uint64_t before = pipe.committed(1);
    for (int i = 0; i < 20000; ++i)
        pipe.tick();
    EXPECT_GT(pipe.committed(1) - before, 5000u) << "restored";
}

TEST(Throttling, ThrottleFactorOneIsNoOp)
{
    Program a = assemble("top:\naddi r1, r1, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 1;
    Pipeline full(params), noop(params);
    full.setThreadProgram(0, &a);
    noop.setThreadProgram(0, &a);
    noop.setThreadThrottle(0, 1);
    for (int i = 0; i < 20000; ++i) {
        full.tick();
        noop.tick();
    }
    EXPECT_EQ(full.committed(0), noop.committed(0));
}

TEST(Throttling, SedationPolicyCanThrottleInstead)
{
    // Selective throttling contains the attack while letting the
    // culprit retain some throughput.
    ExperimentOptions opts;
    opts.timeScale = 100.0;
    opts.dtm = DtmMode::SelectiveSedation;
    SimConfig cfg = makeSimConfig(opts);
    cfg.sedation.throttleFactor = 4;
    Simulator sim(cfg);
    sim.setWorkload(0, synthesizeSpec("gcc"));
    sim.setWorkload(1, makeVariant(2, makeMaliciousParams(opts)));
    RunResult throttled = sim.run();

    // Contained: no (or almost no) emergencies.
    EXPECT_LE(throttled.emergencies, 2u);
    ASSERT_FALSE(throttled.sedationEvents.empty());
    for (const SedationEvent &e : throttled.sedationEvents)
        EXPECT_EQ(e.thread, 1);

    // Compare with full sedation: over a whole quantum the two
    // mechanisms trade instantaneous rate against engagement length
    // (throttling runs slower but stays engaged longer), so total
    // attacker progress ends up in the same ballpark while both keep
    // the chip safe.
    SimConfig full_cfg = makeSimConfig(opts);
    Simulator full(full_cfg);
    full.setWorkload(0, synthesizeSpec("gcc"));
    full.setWorkload(1, makeVariant(2, makeMaliciousParams(opts)));
    RunResult stopped = full.run();
    EXPECT_LE(stopped.emergencies, 2u);
    double ratio = static_cast<double>(throttled.threads[1].committed) /
                   static_cast<double>(
                       std::max<uint64_t>(1,
                                          stopped.threads[1].committed));
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(Throttling, VictimStillRecoversUnderThrottling)
{
    ExperimentOptions opts;
    opts.timeScale = 100.0;
    opts.dtm = DtmMode::StopAndGo;
    RunResult solo = executeRunSpec(soloSpec("gcc", opts));
    RunResult attacked = executeRunSpec(withVariantSpec("gcc", 2, opts));

    opts.dtm = DtmMode::SelectiveSedation;
    SimConfig cfg = makeSimConfig(opts);
    cfg.sedation.throttleFactor = 4;
    Simulator sim(cfg);
    sim.setWorkload(0, synthesizeSpec("gcc"));
    sim.setWorkload(1, makeVariant(2, makeMaliciousParams(opts)));
    RunResult throttled = sim.run();

    EXPECT_GT(throttled.threads[0].ipc, attacked.threads[0].ipc);
    EXPECT_GT(throttled.threads[0].ipc, 0.75 * solo.threads[0].ipc);
}

} // namespace
} // namespace hs
