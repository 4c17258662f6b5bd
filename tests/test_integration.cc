/** @file End-to-end integration tests: the paper's headline claims on
 *  the full simulator stack (time-scaled for test runtime).
 *
 *  Shared runs are computed once and reused across assertions. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace hs {
namespace {

constexpr double kScale = 50.0;

ExperimentOptions
opts(DtmMode dtm = DtmMode::StopAndGo, SinkType sink = SinkType::Realistic)
{
    ExperimentOptions o;
    o.timeScale = kScale;
    o.dtm = dtm;
    o.sink = sink;
    return o;
}

const RunResult &
soloRealistic()
{
    static const RunResult r = executeRunSpec(soloSpec("gcc", opts()));
    return r;
}

const RunResult &
attackedStopAndGo()
{
    static const RunResult r =
        executeRunSpec(withVariantSpec("gcc", 2, opts()));
    return r;
}

const RunResult &
attackedSedation()
{
    static const RunResult r =
        executeRunSpec(withVariantSpec("gcc", 2,
                                       opts(DtmMode::SelectiveSedation)));
    return r;
}

TEST(Integration, SoloSpecRunsWithoutEmergencies)
{
    const RunResult &r = soloRealistic();
    EXPECT_EQ(r.emergencies, 0u);
    EXPECT_GT(r.threads[0].ipc, 1.0);
    EXPECT_EQ(r.threads[0].coolingCycles, 0u);
}

TEST(Integration, HeatStrokeDegradesVictim)
{
    // The attack: under conventional stop-and-go the victim loses a
    // large fraction of its performance and the chip sees repeated
    // temperature emergencies (paper Figures 4-5).
    const RunResult &solo = soloRealistic();
    const RunResult &attacked = attackedStopAndGo();
    EXPECT_GE(attacked.emergencies, 6u);
    EXPECT_LT(attacked.threads[0].ipc, 0.75 * solo.threads[0].ipc);
    EXPECT_GT(attacked.coolingFraction(0), 0.15);
}

TEST(Integration, HotSpotIsTheIntegerRegisterFile)
{
    const RunResult &attacked = attackedStopAndGo();
    EXPECT_EQ(attacked.hottestBlock, Block::IntReg);
    size_t ir = static_cast<size_t>(blockIndex(Block::IntReg));
    EXPECT_EQ(attacked.emergenciesPerBlock[ir], attacked.emergencies);
}

TEST(Integration, SedationRestoresVictim)
{
    // The contribution: selective sedation restores the victim to
    // near-solo performance (paper Figure 5).
    const RunResult &solo = soloRealistic();
    const RunResult &defended = attackedSedation();
    EXPECT_GT(defended.threads[0].ipc, 0.8 * solo.threads[0].ipc);
    EXPECT_LT(defended.emergencies, attackedStopAndGo().emergencies / 3);
}

TEST(Integration, SedationTargetsTheAttackerOnly)
{
    const RunResult &defended = attackedSedation();
    ASSERT_FALSE(defended.sedationEvents.empty());
    for (const SedationEvent &e : defended.sedationEvents) {
        EXPECT_EQ(e.thread, 1) << "victim was sedated at cycle "
                               << e.cycle;
        EXPECT_EQ(e.resource, Block::IntReg);
    }
    // The attacker spends a large part of the quantum sedated while
    // the victim barely stalls (paper Figure 6).
    EXPECT_GT(defended.sedationFraction(1), 0.15);
    EXPECT_LT(defended.coolingFraction(0) + defended.sedationFraction(0),
              0.1);
}

TEST(Integration, IdealSinkShowsAttackIsThermal)
{
    // Section 5.3: with infinite heat removal variant2 causes no
    // thermal degradation — the damage under the realistic sink is a
    // power-density effect, not fetch monopolisation.
    ExperimentOptions ideal_sink = opts(DtmMode::StopAndGo, SinkType::Ideal);
    RunResult solo_ideal = executeRunSpec(soloSpec("gcc", ideal_sink));
    RunResult ideal = executeRunSpec(withVariantSpec("gcc", 2, ideal_sink));
    EXPECT_EQ(ideal.emergencies, 0u);
    EXPECT_EQ(ideal.threads[0].coolingCycles, 0u);
    EXPECT_GT(ideal.threads[0].ipc, 0.7 * solo_ideal.threads[0].ipc);
    // And the realistic-sink victim does far worse than the
    // ideal-sink victim.
    EXPECT_LT(attackedStopAndGo().threads[0].ipc,
              0.85 * ideal.threads[0].ipc);
}

TEST(Integration, Variant1MonopolizesFetchEvenOnIdealSink)
{
    // Variant1's high IPC grabs the pipeline under ICOUNT even with
    // perfect cooling (the contrast case of Section 5.3).
    ExperimentOptions ideal_sink = opts(DtmMode::StopAndGo, SinkType::Ideal);
    RunResult solo_ideal = executeRunSpec(soloSpec("gcc", ideal_sink));
    RunResult v1_ideal = executeRunSpec(withVariantSpec("gcc", 1, ideal_sink));
    RunResult v2_ideal = executeRunSpec(withVariantSpec("gcc", 2, ideal_sink));
    double v1_share = v1_ideal.threads[0].ipc / solo_ideal.threads[0].ipc;
    double v2_share = v2_ideal.threads[0].ipc / solo_ideal.threads[0].ipc;
    EXPECT_LT(v1_share, v2_share)
        << "variant1 must hurt the victim more than variant2 when "
           "thermal effects are removed";
}

TEST(Integration, Variant3WeakerButStealthier)
{
    RunResult v3 = executeRunSpec(withVariantSpec("gcc", 3, opts()));
    const RunResult &v2 = attackedStopAndGo();
    // Weaker attack: fewer emergencies, less degradation.
    EXPECT_LT(v3.emergencies, v2.emergencies);
    EXPECT_GT(v3.threads[0].ipc, v2.threads[0].ipc);
    // Stealthier: lower observed register-file rate.
    EXPECT_LT(v3.threads[1].intRegAccessRate,
              v2.threads[1].intRegAccessRate);
}

TEST(Integration, LastThreadExceptionLeavesSoloAttackerToSafetyNet)
{
    // A malicious thread running alone cannot hurt anyone: sedation
    // must not engage (Section 3.2.2) and the stop-and-go safety net
    // handles the emergencies.
    ExperimentOptions o = opts(DtmMode::SelectiveSedation);
    SimConfig cfg = makeSimConfig(o);
    Simulator sim(cfg);
    sim.setWorkload(0, makeVariant(2, makeMaliciousParams(o)));
    RunResult r = sim.run();
    EXPECT_TRUE(r.sedationEvents.empty());
    EXPECT_GT(r.stopAndGoTriggers, 0u);
}

TEST(Integration, SpecPairUnaffectedBySedationPolicy)
{
    // Section 5.7: with no malicious thread, enabling selective
    // sedation must not cost performance. (The hottest SPEC pairs can
    // brush the upper threshold — the paper makes the same concession
    // for programs with inherent power-density problems — so this
    // asserts the common case on a typical pair.)
    RunResult plain = executeRunSpec(specPairSpec("gcc", "twolf", opts()));
    RunResult guarded = executeRunSpec(
        specPairSpec("gcc", "twolf", opts(DtmMode::SelectiveSedation)));
    EXPECT_TRUE(guarded.sedationEvents.empty());
    EXPECT_NEAR(guarded.threads[0].ipc, plain.threads[0].ipc,
                0.02 * plain.threads[0].ipc + 0.01);
    EXPECT_NEAR(guarded.threads[1].ipc, plain.threads[1].ipc,
                0.02 * plain.threads[1].ipc + 0.01);
}

TEST(Integration, TimeScalingPreservesEpisodeDensity)
{
    // Scale invariance: emergencies per quantum should be roughly
    // preserved when everything is scaled together.
    ExperimentOptions coarse = opts();
    coarse.timeScale = 100.0;
    RunResult fast = executeRunSpec(withVariantSpec("gcc", 2, coarse));
    const RunResult &slow = attackedStopAndGo(); // scale 100
    ASSERT_GT(slow.emergencies, 0u);
    double ratio = static_cast<double>(fast.emergencies) /
                   static_cast<double>(slow.emergencies);
    EXPECT_GT(ratio, 0.3);
    EXPECT_LT(ratio, 3.0);
}

TEST(Integration, TwoAttackersBothGetSedated)
{
    // Section 3.2.2's multiple-attacker case on a 3-context SMT: after
    // sedating the first culprit fails to cool the resource within
    // twice the cooling time, the second is sedated too; the victim is
    // never sedated (last-thread exception).
    ExperimentOptions o = opts(DtmMode::SelectiveSedation);
    SimConfig cfg = makeSimConfig(o);
    cfg.smt.numThreads = 3;
    Simulator sim(cfg);
    MaliciousParams mp = makeMaliciousParams(o);
    sim.setWorkload(0, synthesizeSpec("gcc"));
    sim.setWorkload(1, makeVariant(2, mp));
    sim.setWorkload(2, makeVariant(1, mp));
    RunResult r = sim.run();
    ASSERT_FALSE(r.sedationEvents.empty());
    bool sedated1 = false, sedated2 = false;
    for (const SedationEvent &e : r.sedationEvents) {
        EXPECT_NE(e.thread, 0) << "victim sedated at cycle " << e.cycle;
        sedated1 = sedated1 || e.thread == 1;
        sedated2 = sedated2 || e.thread == 2;
    }
    EXPECT_TRUE(sedated2) << "the stronger attacker must be sedated";
    EXPECT_TRUE(sedated1 || sedated2);
    // The victim keeps making progress while both attackers exist.
    EXPECT_GT(r.threads[0].ipc, 0.5);
}

TEST(Integration, DvfsThrottleAlsoSuffersGlobally)
{
    // Extension ablation: DVFS-style throttling is still a global
    // mechanism, so the victim still degrades under attack.
    RunResult throttled = executeRunSpec(
        withVariantSpec("gcc", 2, opts(DtmMode::DvfsThrottle)));
    const RunResult &solo = soloRealistic();
    EXPECT_LT(throttled.threads[0].ipc, 0.93 * solo.threads[0].ipc);
}

} // namespace
} // namespace hs
