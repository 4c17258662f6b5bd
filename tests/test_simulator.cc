/** @file Tests for the top-level simulator plumbing. */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "isa/assembler.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

namespace hs {
namespace {

SimConfig
tinyConfig(DtmMode dtm = DtmMode::StopAndGo)
{
    SimConfig cfg;
    cfg.quantumCycles = 400000;
    cfg.thermal.timeScale = 1000.0;
    cfg.dtm = dtm;
    cfg.sedation.recheckCycles = 100000;
    cfg.sedation.ewmaShift = 6;
    return cfg;
}

TEST(Simulator, RunsOneQuantum)
{
    Simulator sim(tinyConfig());
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();
    EXPECT_EQ(r.cycles, 400000u);
    ASSERT_EQ(r.threads.size(), 1u);
    EXPECT_EQ(r.threads[0].program, "gzip");
    EXPECT_GT(r.threads[0].committed, 1000u);
    EXPECT_GT(r.threads[0].ipc, 0.0);
}

TEST(Simulator, HaltedProgramEndsRunEarly)
{
    Simulator sim(tinyConfig());
    Program p = assemble("addi r1, r0, 1\nhalt\n");
    sim.setWorkload(0, std::move(p));
    RunResult r = sim.run();
    EXPECT_LT(r.cycles, 100000u);
    EXPECT_EQ(r.threads[0].committed, 2u);
}

TEST(Simulator, TwoThreadResultsReported)
{
    Simulator sim(tinyConfig());
    sim.setWorkload(0, synthesizeSpec("gzip"));
    sim.setWorkload(1, synthesizeSpec("mesa"));
    RunResult r = sim.run();
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_EQ(r.threads[0].program, "gzip");
    EXPECT_EQ(r.threads[1].program, "mesa");
    EXPECT_GT(r.threads[0].committed, 0u);
    EXPECT_GT(r.threads[1].committed, 0u);
}

TEST(Simulator, NormalRunHasNormalTemps)
{
    Simulator sim(tinyConfig());
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();
    EXPECT_EQ(r.emergencies, 0u);
    EXPECT_GT(r.peakTempOverall, 330.0);
    EXPECT_LT(r.peakTempOverall, 358.0);
    EXPECT_GT(r.avgTotalPowerW, 10.0);
    EXPECT_LT(r.avgTotalPowerW, 60.0);
}

TEST(Simulator, StallAccountingConsistent)
{
    Simulator sim(tinyConfig());
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();
    const ThreadResult &t = r.threads[0];
    EXPECT_EQ(t.normalCycles + t.coolingCycles + t.sedationCycles,
              r.cycles);
}

TEST(Simulator, TempTraceRecordsWhenEnabled)
{
    SimConfig cfg = tinyConfig();
    cfg.recordTempTrace = true;
    cfg.tempTraceInterval = 40000;
    Simulator sim(cfg);
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();
    EXPECT_GE(r.tempTrace.size(), 8u);
    for (const TempSample &s : r.tempTrace) {
        EXPECT_GT(s.intRegTemp, 300.0);
        EXPECT_GE(s.hottestTemp, s.intRegTemp - 1e-9);
    }
}

TEST(Simulator, TraceDisabledByDefault)
{
    Simulator sim(tinyConfig());
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();
    EXPECT_TRUE(r.tempTrace.empty());
}

TEST(Simulator, DtmModeNoneNeverStalls)
{
    Simulator sim(tinyConfig(DtmMode::None));
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();
    EXPECT_EQ(r.threads[0].coolingCycles, 0u);
    EXPECT_EQ(r.stopAndGoTriggers, 0u);
}

TEST(Simulator, SedationModeBuildsBothPolicies)
{
    Simulator sim(tinyConfig(DtmMode::SelectiveSedation));
    EXPECT_NE(sim.sedationPolicy(), nullptr);
    EXPECT_NE(sim.stopAndGoPolicy(), nullptr);
}

TEST(Simulator, StopAndGoModeHasNoSedation)
{
    Simulator sim(tinyConfig(DtmMode::StopAndGo));
    EXPECT_EQ(sim.sedationPolicy(), nullptr);
    EXPECT_NE(sim.stopAndGoPolicy(), nullptr);
}

TEST(Simulator, RejectsBadIntervals)
{
    SimConfig cfg = tinyConfig();
    cfg.sensorInterval = 1500; // not a multiple of monitorInterval
    EXPECT_DEATH(Simulator sim(cfg), "multiple");
}

TEST(Simulator, RejectsBadWorkloadThread)
{
    Simulator sim(tinyConfig());
    EXPECT_DEATH(sim.setWorkload(5, synthesizeSpec("gzip")),
                 "out of range");
}

TEST(Simulator, DtmModeNames)
{
    EXPECT_STREQ(dtmModeName(DtmMode::None), "none");
    EXPECT_STREQ(dtmModeName(DtmMode::StopAndGo), "stop-and-go");
    EXPECT_STREQ(dtmModeName(DtmMode::SelectiveSedation),
                 "selective-sedation");
    EXPECT_STREQ(dtmModeName(DtmMode::DvfsThrottle), "dvfs-throttle");
}

// --- result bytes ------------------------------------------------------

/** Every DtmMode, in declaration order. */
constexpr DtmMode kAllModes[] = {DtmMode::None, DtmMode::StopAndGo,
                                 DtmMode::SelectiveSedation,
                                 DtmMode::DvfsThrottle, DtmMode::FetchGating};

ExperimentOptions
scaleOpts(double scale)
{
    ExperimentOptions opts;
    opts.timeScale = scale;
    return opts;
}

/** One cell's pinned result: the size and checksum64 of its encoding. */
struct ResultPin
{
    struct Bytes
    {
        size_t size;
        uint64_t sum;
    };
    RunSpec spec;
    Bytes bytes;
};

/** encodeRunResult(@p r) with the two host-timed fields zeroed: the
 *  bytes every simulated field, histograms included, determines. */
std::vector<uint8_t>
simulatedBytes(RunResult r)
{
    r.hostSeconds = 0.0;
    r.simCyclesPerHostSec = 0.0;
    return encodeRunResult(r);
}

void
expectPinned(const std::vector<ResultPin> &pins,
             const SimSnapshot *snap = nullptr)
{
    for (const ResultPin &pin : pins) {
        SCOPED_TRACE(pin.spec.canonicalKey());
        std::vector<uint8_t> bytes =
            simulatedBytes(executeRunSpec(pin.spec, snap));
        EXPECT_EQ(bytes.size(), pin.bytes.size);
        EXPECT_EQ(checksum64(bytes.data(), bytes.size()), pin.bytes.sum);
    }
}

/** One pinned cell per DtmMode, in kAllModes order. */
std::vector<ResultPin>
perMode(const RunSpec &spec, const ResultPin::Bytes (&bytes)[5])
{
    std::vector<ResultPin> pins;
    for (size_t m = 0; m < std::size(kAllModes); ++m)
        pins.push_back({spec.withDtm(kAllModes[m]), bytes[m]});
    return pins;
}

// The cycle loop may get faster but never different: these sums were
// taken before any change to the tick and must not move. A scale-500
// quantum is hot enough for every policy to act on an attack cell.

TEST(ResultBytes, Variant1CellsArePinned)
{
    expectPinned(perMode(withVariantSpec("gcc", 1, scaleOpts(500.0)),
                         {{5082, 0xf235316b482ef9b1ull},
                          {5082, 0x0f970167fe120453ull},
                          {5418, 0xb7a3979493292dbeull},
                          {5082, 0x5a5f5f947dc745a5ull},
                          {5082, 0xda3cf49b43cbb260ull}}));
}

TEST(ResultBytes, Variant2CellsArePinned)
{
    expectPinned(perMode(withVariantSpec("gcc", 2, scaleOpts(500.0)),
                         {{5082, 0x00fbc31dcd95149full},
                          {5082, 0x2e2d47b2303c43cdull},
                          {5250, 0x4ee52b396a80963dull},
                          {5082, 0x741d739e81eccb9dull},
                          {5082, 0xeb075e52e3aab47bull}}));
}

TEST(ResultBytes, BenignCellsArePinned)
{
    // No policy acts on this pair, so every mode writes the same bytes.
    RunSpec benign = specPairSpec("gcc", "mesa", scaleOpts(1000.0));
    std::vector<ResultPin> pins =
        perMode(benign, {{5078, 0x1fca29f4ff6ce123ull},
                         {5078, 0x1fca29f4ff6ce123ull},
                         {5078, 0x1fca29f4ff6ce123ull},
                         {5078, 0x1fca29f4ff6ce123ull},
                         {5078, 0x1fca29f4ff6ce123ull}});
    pins.push_back({benign.withTopology(2, {0, 1}),
                    {10276, 0xd39e00de24167287ull}});
    pins.push_back(
        {soloSpec("mcf", scaleOpts(1000.0)), {4982, 0x3c1f2510f0c86443ull}});
    expectPinned(pins);
}

TEST(ResultBytes, ConfigExtrasArePinned)
{
    ExperimentOptions sed = scaleOpts(500.0);
    sed.dtm = DtmMode::SelectiveSedation;
    RunSpec noisy = withVariantSpec("gcc", 2, sed);
    noisy.sensorNoiseK = 2.0;
    RunSpec deschedule = withVariantSpec("gcc", 1, sed);
    deschedule.descheduleAfter = 2;
    ExperimentOptions usage = sed;
    usage.sedationUsageThreshold = true;
    expectPinned({{noisy, {5250, 0x0f83089141ae6985ull}},
                  {deschedule, {5134, 0x0f9527d56d786adbull}},
                  {withVariantSpec("gcc", 1, usage),
                   {5802, 0xfade75f599b17668ull}}});
}

TEST(ResultBytes, PartiallyStalledDieIsPinned)
{
    // gcc + variant 1 on core 0 and mesa alone on core 1: stop-and-go
    // stalls core 0 for about a third of the quantum while core 1 keeps
    // running, so no cycle has every core stalled.
    RunSpec die = withVariantSpec("gcc", 1, scaleOpts(500.0));
    die.workloads.push_back(WorkloadSpec::spec("mesa"));
    die = die.withTopology(2, {0, 0, 1});
    const ResultPin pins[] = {
        {die.withDtm(DtmMode::StopAndGo), {10376, 0x3a0651032fdb38e5ull}},
        {die.withDtm(DtmMode::SelectiveSedation),
         {10712, 0x3ac6de0a283d3958ull}}};
    for (const ResultPin &pin : pins) {
        SCOPED_TRACE(pin.spec.canonicalKey());
        SimProfile prof;
        RunResult r = executeRunSpec(pin.spec, nullptr, &prof);
        std::vector<uint8_t> bytes = simulatedBytes(r);
        EXPECT_EQ(bytes.size(), pin.bytes.size);
        EXPECT_EQ(checksum64(bytes.data(), bytes.size()), pin.bytes.sum);
        ASSERT_EQ(r.threads.size(), 3u);
        EXPECT_GT(r.threads[0].coolingCycles, 0u);
        EXPECT_EQ(r.threads[2].coolingCycles, 0u);
        EXPECT_EQ(prof.stalledCycles, 0u);
        EXPECT_EQ(prof.tickedCycles, r.cycles);
    }
}

TEST(ResultBytes, PrefixForkIsPinned)
{
    // Snapshot.UsageCellForksBeforeItsTrigger's attack cell: its
    // prefix stops at the usage trigger, early in the quantum, so most
    // of the forked run executes past the snapshot.
    ExperimentOptions sed = scaleOpts(2000.0);
    sed.dtm = DtmMode::SelectiveSedation;
    sed.sedationUsageThreshold = true;
    sed.convectionR = 0.4;
    RunSpec spec = withVariantSpec("gcc", 1, sed);
    SimSnapshot snap;
    Cycles fork = makePrefixSimulator(spec)->runPrefix(
        divergeRule(makeSimulator(spec)->config()), 4, snap);
    EXPECT_EQ(fork, 80000u);
    EXPECT_EQ(snap.bytes.size(), 915591u);
    EXPECT_EQ(checksum64(snap.bytes.data(), snap.bytes.size()),
              0xee693af819392e8bull);
    expectPinned({{spec, {5226, 0x4f7f69c8eecea198ull}}}, &snap);
}

} // namespace
} // namespace hs
