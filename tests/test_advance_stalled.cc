/**
 * @file
 * Tests for the idle-cycle skip, the one way a pipeline moves forward
 * without ticking, on running and on stalled pipelines: zero-length
 * skips, stalls whose release lands exactly on a sensor boundary, and
 * stalls clipped by the end of the quantum. A skip must be
 * indistinguishable from ticking through the stretch cycle by cycle:
 * the same state bytes, the same per-thread cooling, sedated and
 * normal accounting, the same number of sensor samples.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/state_buffer.hh"
#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "smt/pipeline.hh"
#include "workload/generator.hh"
#include "workload/malicious.hh"

namespace hs {
namespace {

// --- pipeline level ----------------------------------------------------

TEST(Pipeline, StalledSkipZeroIsANoOp)
{
    Program a = assemble("top:\naddi r1, r1, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &a);
    for (int i = 0; i < 100; ++i)
        pipe.tick();
    pipe.setGlobalStall(true);

    Cycles c0 = pipe.cycle();
    uint64_t cool0 = pipe.thread(0).coolingCycles;
    pipe.skipIdle(pipe.idleCycles(0));
    EXPECT_EQ(pipe.cycle(), c0);
    EXPECT_EQ(pipe.thread(0).coolingCycles, cool0);

    // And the very next non-empty skip behaves normally.
    pipe.skipIdle(pipe.idleCycles(1));
    EXPECT_EQ(pipe.cycle(), c0 + 1);
    EXPECT_EQ(pipe.thread(0).coolingCycles, cool0 + 1);
}

TEST(Pipeline, StalledSkipSkipsInactiveThreads)
{
    Program loop = assemble("top:\naddi r1, r1, 1\njmp top\n");
    Program halt = assemble("halt\n");
    SmtParams params;
    params.numThreads = 2;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &loop);
    pipe.setThreadProgram(1, &halt);
    for (int i = 0; i < 1000; ++i)
        pipe.tick();
    ASSERT_EQ(pipe.thread(1).state, ThreadState::Halted);

    pipe.setGlobalStall(true);
    uint64_t cool0 = pipe.thread(0).coolingCycles;
    uint64_t cool1 = pipe.thread(1).coolingCycles;
    pipe.skipIdle(pipe.idleCycles(500));
    EXPECT_EQ(pipe.thread(0).coolingCycles, cool0 + 500);
    EXPECT_EQ(pipe.thread(1).coolingCycles, cool1);
}

/** The snapshot bytes of @p pipe. */
std::vector<uint8_t>
stateOf(const Pipeline &pipe)
{
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    w.record(pipe);
    return bytes;
}

/**
 * Two memory-bound threads, one pipeline ticked cycle by cycle and one
 * that jumps every idle stretch after a tick that moved nothing. Thread
 * 1 is sedated for a while, so the skip also accounts sedated cycles,
 * and then the whole pipeline is stalled, so it accounts cooling ones.
 * At each checkpoint the two must hold the same bytes.
 */
TEST(Pipeline, IdleSkipMatchesTicking)
{
    Program mcf = synthesizeSpec("mcf");
    Program art = synthesizeSpec("art");
    SmtParams params;
    Pipeline ticked(params), skipping(params);
    for (Pipeline *p : {&ticked, &skipping}) {
        p->setThreadProgram(0, &mcf);
        p->setThreadProgram(1, &art);
    }
    Cycles skipped = 0;
    bool idle = false;
    for (Cycles target = 10000; target <= 200000; target += 10000) {
        bool sedate = target > 60000 && target <= 120000;
        bool stall = target > 140000 && target <= 170000;
        for (Pipeline *p : {&ticked, &skipping}) {
            p->setSedated(1, sedate);
            p->setGlobalStall(stall);
        }
        while (ticked.cycle() < target)
            ticked.tick();
        while (skipping.cycle() < target) {
            if (idle) {
                Cycles n = skipping.idleCycles(target - skipping.cycle());
                skipping.skipIdle(n);
                skipped += n;
                if (skipping.cycle() == target)
                    break;
            }
            idle = !skipping.tick();
        }
        ASSERT_EQ(stateOf(skipping), stateOf(ticked)) << "cycle " << target;
    }
    EXPECT_GT(skipped, 10000u);
    EXPECT_GT(skipping.thread(1).sedationCycles, 0u);
    EXPECT_GE(skipping.thread(0).coolingCycles, 30000u);
}

TEST(Pipeline, IdleSkipRefusesThrottledPipelines)
{
    // A thread waiting on a divide chain: idle between completions.
    Program divs = assemble(R"(
        addi r1, r0, 7
    top:
        div r1, r1, r1
        div r1, r1, r1
        jmp top
    )");
    SmtParams params;
    params.numThreads = 1;
    params.ruuEntries = 4;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &divs);
    while (pipe.tick() || pipe.idleCycles(100) == 0)
        ASSERT_LT(pipe.cycle(), 10000u);
    EXPECT_GT(pipe.idleCycles(100), 0u);
    EXPECT_EQ(pipe.idleCycles(0), 0u);

    pipe.setThrottle(2);
    EXPECT_EQ(pipe.idleCycles(100), 0u);
    pipe.setThrottle(1);
    pipe.setThreadThrottle(0, 2);
    EXPECT_EQ(pipe.idleCycles(100), 0u);
    pipe.setThreadThrottle(0, 1);
    // A stalled tick ignores the throttle: every cycle is idle.
    pipe.setThrottle(2);
    pipe.setGlobalStall(true);
    EXPECT_EQ(pipe.idleCycles(100), 100u);
}

// --- simulator level ---------------------------------------------------

/**
 * Stop-and-go with a trigger below ambient: the policy engages at the
 * very first sensor sample (cycle 20 K) and, since the die can never
 * cool below ambient, never releases. Every subsequent cycle is one
 * long stall the run-loop skips monitor interval by monitor interval.
 */
SimConfig
permanentStallConfig(Cycles quantum)
{
    SimConfig cfg;
    cfg.quantumCycles = quantum;
    cfg.thermal.timeScale = 1000.0;
    cfg.dtm = DtmMode::StopAndGo;
    cfg.stopAndGo.triggerTemp = 300.0;
    cfg.stopAndGo.resumeTemp = 290.0;
    cfg.sedation.recheckCycles = 100000;
    cfg.sedation.ewmaShift = 6;
    return cfg;
}

TEST(Simulator, StallEndingExactlyOnASensorBoundary)
{
    // 240 K cycles = 12 sensor intervals: the stall's end coincides
    // with the final sensor boundary AND the quantum end.
    Simulator sim(permanentStallConfig(240000));
    sim.setProfiling(true);
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();

    EXPECT_EQ(r.cycles, 240000u);
    EXPECT_EQ(r.stopAndGoTriggers, 1u);
    const ThreadResult &t = r.threads[0];
    EXPECT_EQ(t.normalCycles, 20000u);
    EXPECT_EQ(t.coolingCycles, 220000u);
    EXPECT_EQ(t.sedationCycles, 0u);
    EXPECT_EQ(t.normalCycles + t.coolingCycles, r.cycles);

    const SimProfile &p = sim.profile();
    EXPECT_EQ(p.stalledCycles, 220000u);
    EXPECT_EQ(p.tickedCycles, 20000u);
    // One sample per boundary, stalled or not: 240 K / 20 K.
    EXPECT_EQ(p.sensorSamples, 12u);
}

TEST(Simulator, StallSpanningTheQuantumEnd)
{
    // 250 K cycles is NOT a multiple of the 20 K sensor interval: the
    // last boundary is 240 K and the final fast-forward must clip at
    // the quantum end instead of overshooting to 260 K.
    Simulator sim(permanentStallConfig(250000));
    sim.setProfiling(true);
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();

    EXPECT_EQ(r.cycles, 250000u);
    const ThreadResult &t = r.threads[0];
    EXPECT_EQ(t.normalCycles, 20000u);
    EXPECT_EQ(t.coolingCycles, 230000u);
    EXPECT_EQ(t.normalCycles + t.coolingCycles, r.cycles);

    const SimProfile &p = sim.profile();
    EXPECT_EQ(p.stalledCycles, 230000u);
    EXPECT_EQ(p.tickedCycles, 20000u);
    // Boundaries at 20 K..240 K sampled; no sample at the (unaligned)
    // quantum end.
    EXPECT_EQ(p.sensorSamples, 12u);
}

TEST(Simulator, IntermittentStallAccountingStaysClosed)
{
    // A realistic on/off stop-and-go pattern (an attack workload at a
    // reachable trigger): whatever mix of stalls and releases occurs,
    // the per-thread accounting must tile the quantum exactly.
    SimConfig cfg;
    cfg.quantumCycles = 500000;
    cfg.thermal.timeScale = 1000.0;
    cfg.dtm = DtmMode::StopAndGo;
    cfg.sedation.recheckCycles = 100000;
    cfg.sedation.ewmaShift = 6;
    Simulator sim(cfg);
    sim.setProfiling(true);
    sim.setWorkload(0, makeVariant(1, MaliciousParams{}.scaled(1000.0)));
    RunResult r = sim.run();

    EXPECT_GT(r.stopAndGoTriggers, 1u);
    const ThreadResult &t = r.threads[0];
    EXPECT_GT(t.coolingCycles, 0u);
    EXPECT_EQ(t.normalCycles + t.coolingCycles + t.sedationCycles,
              r.cycles);

    const SimProfile &p = sim.profile();
    EXPECT_EQ(p.stalledCycles, t.coolingCycles);
    EXPECT_EQ(p.stalledCycles + p.tickedCycles, r.cycles);
    // Stalls begin and end on sensor boundaries, so the stalled total
    // is a whole number of sensor intervals (the quantum is aligned,
    // so no clipped tail is possible here).
    EXPECT_EQ(p.stalledCycles % cfg.sensorInterval, 0u);
}

} // namespace
} // namespace hs
