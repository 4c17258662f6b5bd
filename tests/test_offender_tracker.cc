/** @file Unit and integration tests for the OS repeat-offender
 *  tracker (the paper's Section 3.3 OS response, implemented as an
 *  extension). */

#include <gtest/gtest.h>

#include "core/offender_tracker.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace hs {
namespace {

SedationEvent
event(ThreadId tid, Cycles cycle = 0)
{
    SedationEvent e;
    e.cycle = cycle;
    e.thread = tid;
    e.resource = Block::IntReg;
    return e;
}

TEST(OffenderTracker, CountsReportsPerThread)
{
    OffenderTracker tracker(2);
    tracker.onReport(event(0));
    tracker.onReport(event(1));
    tracker.onReport(event(1));
    EXPECT_EQ(tracker.reports(0), 1);
    EXPECT_EQ(tracker.reports(1), 2);
}

TEST(OffenderTracker, FlagsAtThreshold)
{
    OffenderPolicy policy;
    policy.reportsBeforeDeschedule = 3;
    OffenderTracker tracker(2, policy);
    ThreadId flagged = invalidThreadId;
    tracker.setOnDeschedule([&](ThreadId tid) { flagged = tid; });
    tracker.onReport(event(1));
    tracker.onReport(event(1));
    EXPECT_FALSE(tracker.descheduled(1));
    EXPECT_EQ(flagged, invalidThreadId);
    tracker.onReport(event(1));
    EXPECT_TRUE(tracker.descheduled(1));
    EXPECT_EQ(flagged, 1);
    ASSERT_EQ(tracker.offenders().size(), 1u);
    EXPECT_EQ(tracker.offenders()[0], 1);
}

TEST(OffenderTracker, CallbackFiresOnce)
{
    OffenderPolicy policy;
    policy.reportsBeforeDeschedule = 1;
    OffenderTracker tracker(1, policy);
    int calls = 0;
    tracker.setOnDeschedule([&](ThreadId) { ++calls; });
    tracker.onReport(event(0));
    tracker.onReport(event(0));
    tracker.onReport(event(0));
    EXPECT_EQ(calls, 1);
}

TEST(OffenderTracker, RejectsBadConfig)
{
    EXPECT_DEATH(OffenderTracker t(0), "thread");
    OffenderPolicy policy;
    policy.reportsBeforeDeschedule = 0;
    EXPECT_DEATH(OffenderTracker t(2, policy), "threshold");
}

TEST(OffenderTracker, EndToEndDeschedulesAttacker)
{
    // gcc + variant2 with the OS extension enabled: after the second
    // sedation report the attacker is pulled from the machine for the
    // rest of the quantum, and the victim runs nearly solo.
    ExperimentOptions opts;
    opts.timeScale = 50.0;
    opts.dtm = DtmMode::SelectiveSedation;
    SimConfig cfg = makeSimConfig(opts);
    cfg.descheduleRepeatOffenders = true;
    cfg.offenderPolicy.reportsBeforeDeschedule = 2;

    Simulator sim(cfg);
    sim.setWorkload(0, synthesizeSpec("gcc"));
    sim.setWorkload(1, makeVariant(2, makeMaliciousParams(opts)));
    RunResult r = sim.run();

    ASSERT_EQ(r.descheduledThreads.size(), 1u);
    EXPECT_EQ(r.descheduledThreads[0], 1);
    EXPECT_TRUE(sim.offenderTracker()->descheduled(1));

    // Victim performance approaches solo once the attacker is gone.
    opts.dtm = DtmMode::StopAndGo;
    RunResult solo = executeRunSpec(soloSpec("gcc", opts));
    EXPECT_GT(r.threads[0].ipc, 0.85 * solo.threads[0].ipc);
    // The attacker stays sedated to the end of the quantum.
    EXPECT_GT(r.threads[1].sedationCycles, r.cycles / 3);
}

TEST(OffenderTracker, UserCallbackStillChained)
{
    ExperimentOptions opts;
    opts.timeScale = 200.0;
    opts.dtm = DtmMode::SelectiveSedation;
    SimConfig cfg = makeSimConfig(opts);
    cfg.descheduleRepeatOffenders = true;
    cfg.offenderPolicy.reportsBeforeDeschedule = 1;
    Simulator sim(cfg);
    sim.setWorkload(0, synthesizeSpec("gcc"));
    sim.setWorkload(1, makeVariant(2, makeMaliciousParams(opts)));
    int user_reports = 0;
    sim.setOsReport([&](const SedationEvent &) { ++user_reports; });
    RunResult r = sim.run();
    EXPECT_EQ(static_cast<size_t>(user_reports),
              r.sedationEvents.size());
}

} // namespace
} // namespace hs
