/**
 * @file
 * Snapshot / prefix-sharing tests.
 *
 * The contract under test is absolute: a run forked from a shared
 * warm-up snapshot must produce a RunResult that is bit-identical
 * (operator==, no tolerance) to the same spec simulated cold. The
 * family matrix below exercises every RunSpec family the bench
 * harnesses build — solo / malicious / mixed workloads, every DTM
 * mode, both sinks, the usage-threshold ablation, sensor noise,
 * temperature traces, die shrink, deschedule, wide SMT and 2-core
 * dies — at --jobs 1 and --jobs 4, with prefix sharing on and off.
 *
 * All simulation-backed tests run at HS scale 2000 (250 K-cycle
 * quanta) so the whole file stays fast.
 */

#include <cstdlib>
#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "trace/event.hh"

namespace {

using namespace hs;

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    return opts;
}

/** Sedation options with an upper trigger of @p upper (lower = -1 K). */
ExperimentOptions
sedationOpts(double upper)
{
    ExperimentOptions opts = fastOpts();
    opts.dtm = DtmMode::SelectiveSedation;
    opts.upperThreshold = upper;
    opts.lowerThreshold = upper - 1.0;
    return opts;
}

/** The innocent pair the engine is guaranteed to prefix-share: two
 *  SPEC programs whose sedation cells differ only in thresholds. */
std::vector<RunSpec>
innocentSweep(const std::vector<double> &uppers)
{
    std::vector<RunSpec> specs;
    for (double u : uppers)
        specs.push_back(specPairSpec("gcc", "mesa", sedationOpts(u)));
    return specs;
}

/** Cold reference: each spec simulated from cycle 0, serially. */
std::vector<RunResult>
runCold(const std::vector<RunSpec> &specs)
{
    std::vector<RunResult> out;
    out.reserve(specs.size());
    for (const RunSpec &s : specs)
        out.push_back(executeRunSpec(s));
    return out;
}

/** Assert prefix-shared execution matches @p cold cell for cell. */
void
expectMatches(const std::vector<RunResult> &cold,
              const std::vector<RunResult> &got)
{
    ASSERT_EQ(cold.size(), got.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(cold[i], got[i]) << "cell " << i;
}

// --- divergence key ----------------------------------------------------

TEST(RunSpecDivergence, KeyDropsExactlyThePolicyFields)
{
    RunSpec base = specPairSpec("gcc", "mesa", sedationOpts(356.0));
    const std::string dk = base.divergenceKey();

    // Policy-only mutations: canonical key changes, divergence key
    // does not — these cells may share a warm-up prefix.
    std::vector<RunSpec> policy;
    policy.push_back(base.withDtm(DtmMode::None));
    policy.push_back(base.withDtm(DtmMode::StopAndGo));
    policy.push_back(base.withDtm(DtmMode::DvfsThrottle));
    policy.push_back(base.withDtm(DtmMode::FetchGating));
    {
        RunSpec s = base;
        s.opts.upperThreshold = 357.0;
        policy.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.lowerThreshold = 354.0;
        policy.push_back(s);
    }
    {
        RunSpec s = base;
        s.descheduleAfter = 2;
        policy.push_back(s);
    }
    {
        // The usage-threshold ablation acts on monitor state, which the
        // prefix keeps running: DivergeRule's usage part covers it.
        RunSpec s = base;
        s.opts.sedationUsageThreshold = true;
        policy.push_back(s);
    }
    for (size_t i = 0; i < policy.size(); ++i) {
        EXPECT_NE(policy[i].canonicalKey(), base.canonicalKey())
            << "policy mutant " << i;
        EXPECT_EQ(policy[i].divergenceKey(), dk) << "policy mutant " << i;
    }

    // Everything else changes the trajectory itself, so it must change
    // the divergence key too.
    std::vector<RunSpec> traj;
    {
        RunSpec s = base;
        s.opts.timeScale = 2001.0;
        traj.push_back(s);
    }
    traj.push_back(base.withSink(SinkType::Ideal));
    {
        RunSpec s = base;
        s.opts.convectionR = 0.7;
        traj.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.recordTempTrace = true;
        traj.push_back(s);
    }
    {
        RunSpec s = base;
        s.numThreads = 4;
        traj.push_back(s);
    }
    {
        RunSpec s = base;
        s.dieShrink = 0.8;
        traj.push_back(s);
    }
    {
        RunSpec s = base;
        s.sensorNoiseK = 0.3;
        traj.push_back(s);
    }
    traj.push_back(specPairSpec("gcc", "mcf", sedationOpts(356.0)));
    // Die topology is trajectory state: dies of different shapes (or
    // placements) must never share a warm-up prefix.
    traj.push_back(base.withTopology(2, {0, 1}));
    traj.push_back(base.withTopology(2, {0, 0}));
    traj.push_back(base.withTopology(4, {0, 3}));
    for (size_t i = 0; i < traj.size(); ++i)
        EXPECT_NE(traj[i].divergenceKey(), dk) << "trajectory mutant " << i;

    // Labels are presentation only.
    EXPECT_EQ(base.withLabel("renamed").divergenceKey(), dk);
}

// --- direct snapshot determinism ---------------------------------------

TEST(Snapshot, RestoreThenRunIsBitIdenticalAndRepeatable)
{
    RunSpec spec = specPairSpec("gcc", "mesa", sedationOpts(356.0));

    SimSnapshot snap;
    Cycles fork = makePrefixSimulator(spec)->runPrefix(
        {spec.opts.upperThreshold}, 4, snap);
    ASSERT_GT(fork, 0u);
    ASSERT_FALSE(snap.empty());
    EXPECT_EQ(snap.cycle, fork);
    EXPECT_GT(snap.sizeBytes(), 0u);

    RunResult cold = executeRunSpec(spec);
    SimProfile prof;
    RunResult warm1 = executeRunSpec(spec, &snap, &prof);
    RunResult warm2 = executeRunSpec(spec, &snap);
    EXPECT_EQ(warm1, warm2);
    EXPECT_EQ(cold, warm1);
    // Cold, forked and remote cells share this one path; its profile
    // accounts exactly the cycles run past the fork, and one restore.
    EXPECT_EQ(prof.tickedCycles + prof.stalledCycles,
              warm1.cycles - snap.cycle);
    EXPECT_EQ(prof.snapshotOps, 1u);
}

/**
 * The usage part of the divergence rule: a gcc + variant-1 usage cell
 * first meets its usage trigger at the 100 K-cycle sensor sample, so
 * the prefix must stop at that sample and hand out the 80 K-cycle
 * snapshot. At the default 0.8 K/W the hammer also reaches the 358 K
 * stop-and-go safety net before the first sample; a 0.4 K/W sink keeps
 * it below for the whole quantum, so only the usage part can stop
 * this prefix. The innocent pair never meets the trigger and forks at
 * the end of the quantum. Both forks must reproduce the cold run
 * exactly.
 */
TEST(Snapshot, UsageCellForksBeforeItsTrigger)
{
    RunSpec attack = withVariantSpec("gcc", 1, sedationOpts(356.0));
    attack.opts.sedationUsageThreshold = true;
    attack.opts.convectionR = 0.4;
    DivergeRule rule = divergeRule(makeSimulator(attack)->config());
    ASSERT_LT(rule.usage, std::numeric_limits<double>::infinity());

    SimSnapshot snap;
    Cycles fork = makePrefixSimulator(attack)->runPrefix(rule, 4, snap);
    EXPECT_GT(fork, 0u);
    EXPECT_LE(fork, 80'000u);
    // The temperature part alone would have run on: the usage part is
    // what stopped this prefix.
    SimSnapshot later;
    EXPECT_GT(makePrefixSimulator(attack)->runPrefix({rule.temp}, 4, later),
              fork);
    EXPECT_EQ(executeRunSpec(attack, &snap), executeRunSpec(attack));

    RunSpec pair = specPairSpec("gcc", "mesa", sedationOpts(356.0));
    pair.opts.sedationUsageThreshold = true;
    const SimConfig cfg = makeSimulator(pair)->config();
    fork = makePrefixSimulator(pair)->runPrefix(divergeRule(cfg), 4, snap);
    EXPECT_GT(fork, cfg.quantumCycles - cfg.sensorInterval);
    EXPECT_EQ(executeRunSpec(pair, &snap), executeRunSpec(pair));
}

TEST(Snapshot, PrefixEngagesOnInnocentThresholdSweep)
{
    std::vector<RunSpec> specs =
        innocentSweep({355.5, 356.0, 356.5, 357.0, 357.5, 358.0});
    std::vector<RunResult> cold = runCold(specs);

    ParallelRunner runner(2);
    runner.setPrefixSharing(true);
    expectMatches(cold, runner.run(specs));

    PrefixShareStats ps = runner.prefixStats();
    EXPECT_GE(ps.groups, 1u);
    EXPECT_GE(ps.forkedRuns, 2u);
    EXPECT_GT(ps.prefixCycles, 0u);
    EXPECT_GT(ps.savedCycles, 0u);
}

/**
 * The prefix phase emits events: each prefix task logs one
 * `prefix_built` after every cell was queued and before any member of
 * its group forks, while cold cells need not wait for it.
 */
TEST(Snapshot, PrefixBuiltFollowsQueuedAndPrecedesItsForks)
{
    // Two groups of three (labels a* and b*, the b group on a cooler
    // sink) around a cold cell.
    std::vector<RunSpec> specs = innocentSweep({356.0, 356.5, 357.0});
    for (size_t i = 0; i < specs.size(); ++i)
        specs[i].label = "a" + std::to_string(i);
    RunSpec cold = soloSpec("mcf", fastOpts());
    cold.label = "cold";
    specs.push_back(cold);
    for (double u : {356.0, 356.5, 357.0}) {
        RunSpec s = specPairSpec("gcc", "mesa", sedationOpts(u));
        s.opts.convectionR = 0.7;
        s.label = "b" + std::to_string(specs.size());
        specs.push_back(s);
    }

    struct Seen
    {
        std::string event, label;
        uint64_t members = 0, forkCycle = 0;
        int64_t lane = -1;
    };
    std::mutex mu;
    std::vector<Seen> seen;
    setLogEventObserver([&](const LogEventView &ev) {
        if (std::string(ev.component) != "runner")
            return;
        Seen s{ev.event, "", 0, 0, -1};
        for (size_t f = 0; f < ev.numFields; ++f) {
            const LogField &field = ev.fields[f];
            std::string key = field.key;
            if (key == "label")
                s.label = field.str;
            else if (key == "members")
                s.members = field.u64;
            else if (key == "fork_cycle")
                s.forkCycle = field.u64;
            else if (key == "lane")
                s.lane = field.i64;
        }
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(s);
    });
    ParallelRunner runner(2);
    expectMatches(runCold(specs), runner.run(specs));
    setLogEventObserver(nullptr);

    size_t lastQueued = 0, firstBuilt = seen.size();
    std::map<char, size_t> built; // group letter -> position
    for (size_t at = 0; at < seen.size(); ++at) {
        const Seen &s = seen[at];
        if (s.event == "queued")
            lastQueued = at;
        if (s.event != "prefix_built")
            continue;
        firstBuilt = std::min(firstBuilt, at);
        EXPECT_EQ(s.members, 3u) << s.label;
        EXPECT_GT(s.forkCycle, 0u) << s.label;
        EXPECT_GE(s.lane, 0);
        EXPECT_LT(s.lane, 2);
        EXPECT_TRUE(built.emplace(s.label.at(0), at).second) << s.label;
    }
    ASSERT_EQ(built.size(), 2u);
    EXPECT_LT(lastQueued, firstBuilt);

    size_t forks = 0;
    for (size_t at = 0; at < seen.size(); ++at) {
        if (seen[at].event != "prefix_forked")
            continue;
        ++forks;
        auto group = built.find(seen[at].label.at(0));
        ASSERT_NE(group, built.end()) << seen[at].label;
        EXPECT_LT(group->second, at) << seen[at].label;
    }
    EXPECT_EQ(forks, 6u);
    EXPECT_EQ(runner.prefixStats().groups, 2u);
}

// --- the full family matrix --------------------------------------------

/**
 * Every RunSpec family the bench harnesses build, arranged as the
 * sweeps the figures actually use so divergence groups of every shape
 * appear: prefix-shareable sweeps, groups that diverge before the
 * first snapshot (attack cells), groups cut short by a member's usage
 * trigger, and singleton groups (per-cell conv values).
 */
std::vector<RunSpec>
familyMatrix()
{
    std::vector<RunSpec> specs;

    // Innocent pair, sedation threshold sweep (prefix-shared).
    for (RunSpec &s : innocentSweep({355.5, 356.0, 356.5, 357.0}))
        specs.push_back(std::move(s));

    // DTM-mode family sweep: one workload, every policy (one group).
    RunSpec pair = specPairSpec("gcc", "mesa", sedationOpts(356.0));
    specs.push_back(pair.withDtm(DtmMode::None));
    specs.push_back(pair.withDtm(DtmMode::StopAndGo));
    specs.push_back(pair.withDtm(DtmMode::DvfsThrottle));
    specs.push_back(pair.withDtm(DtmMode::FetchGating));

    // Attack cells: diverge long before the first stride boundary, so
    // the engine must fall back to cold runs — still bit-identical.
    specs.push_back(withVariantSpec("gcc", 2, sedationOpts(356.0)));
    specs.push_back(withVariantSpec("gcc", 2, sedationOpts(357.0)));
    specs.push_back(maliciousSoloSpec(1, fastOpts()));
    specs.push_back(soloSpec("mcf", fastOpts()));

    // Ideal sink: DTM never engages, so the whole quantum is prefix.
    specs.push_back(
        soloSpec("vortex", sedationOpts(356.0)).withSink(SinkType::Ideal));
    specs.push_back(
        soloSpec("vortex", fastOpts()).withSink(SinkType::Ideal));

    // Usage-threshold ablation: the trigger depends on monitor state,
    // not temperature. On the innocent pair the cells join the pair's
    // group and fork; on an attack mix the usage trigger (or the heat)
    // cuts the group's prefix short.
    for (double u : {356.0, 357.0}) {
        RunSpec s = withVariantSpec("applu", 2, sedationOpts(u));
        s.opts.sedationUsageThreshold = true;
        specs.push_back(s);
        s = specPairSpec("gcc", "mesa", sedationOpts(u));
        s.opts.sedationUsageThreshold = true;
        specs.push_back(s);
    }

    // Noisy sensors: forked runs must re-draw identical noise.
    for (double u : {356.0, 357.0}) {
        RunSpec s = specPairSpec("gcc", "mesa", sedationOpts(u));
        s.sensorNoiseK = 0.3;
        specs.push_back(s);
    }

    // OS deschedule extension (policy field; shares with its base).
    for (int after : {0, 2}) {
        RunSpec s = withVariantSpec("crafty", 3, sedationOpts(356.0));
        s.descheduleAfter = after;
        specs.push_back(s);
    }

    // Temperature traces ride in the snapshot too.
    for (double u : {356.0, 357.0}) {
        RunSpec s = specPairSpec("gcc", "mesa", sedationOpts(u));
        s.opts.recordTempTrace = true;
        specs.push_back(s);
    }

    // Structured event traces ride in the snapshot as well (the tracer
    // ring and the online episode detector). The three cells below
    // share one divergence group: two sedation thresholds plus a
    // stop-and-go cell, which forces the restore path that discards the
    // prefix's monitor-category events for policies without a monitor.
    for (double u : {356.0, 357.0})
        specs.push_back(
            specPairSpec("gcc", "mesa", sedationOpts(u))
                .withTraceEvents(true));
    specs.push_back(pair.withDtm(DtmMode::StopAndGo).withTraceEvents(true));
    // A traced usage cell joins the same group: it keeps the prefix's
    // monitor-category events, as its cold run records them too.
    {
        RunSpec s = specPairSpec("gcc", "mesa", sedationOpts(356.0))
                        .withTraceEvents(true);
        s.opts.sedationUsageThreshold = true;
        specs.push_back(s);
    }
    // A traced attack cell diverges before the first stride boundary,
    // so it must fall back to a cold (still traced) run.
    specs.push_back(
        withVariantSpec("gcc", 2, sedationOpts(356.0))
            .withTraceEvents(true));

    // Technology-scaling knob.
    for (double u : {356.0, 357.0}) {
        RunSpec s = specPairSpec("gcc", "mesa", sedationOpts(u));
        s.dieShrink = 0.8;
        specs.push_back(s);
    }

    // Convection sweep: each cell is its own divergence group.
    for (double conv : {0.6, 1.0}) {
        RunSpec s = specPairSpec("gcc", "mesa", sedationOpts(356.0));
        s.opts.convectionR = conv;
        specs.push_back(s);
    }

    // Wide SMT with a mixed three-thread workload.
    for (double u : {356.0, 357.0}) {
        RunSpec s = specPairSpec("gcc", "mesa", sedationOpts(u));
        s.workloads.push_back(WorkloadSpec::spec("mcf"));
        s.numThreads = 4;
        specs.push_back(s);
    }

    // Multi-core dies. An innocent 2-core threshold sweep forms one
    // divergence group (the prefix engine must warm up all tiles and
    // the shared package, snapshot every core, and fork); the 2-core
    // attack cell diverges early and falls back to a cold run; the
    // traced cell carries core-stamped events through the snapshot.
    for (double u : {356.0, 357.0})
        specs.push_back(specPairSpec("gcc", "mesa", sedationOpts(u))
                            .withTopology(2, {0, 1}));
    specs.push_back(withVariantSpec("gcc", 2, sedationOpts(356.0))
                        .withTopology(2, {0, 1}));
    specs.push_back(specPairSpec("gcc", "mesa", sedationOpts(356.0))
                        .withTopology(2, {0, 1})
                        .withTraceEvents(true));
    // A 2-core usage cell joins the 2-core group: the usage part of
    // the rule reads every core's monitor.
    {
        RunSpec s = specPairSpec("gcc", "mesa", sedationOpts(356.0))
                        .withTopology(2, {0, 1});
        s.opts.sedationUsageThreshold = true;
        specs.push_back(s);
    }
    // Both SMT contexts of core 0 busy while core 1 idles: placement
    // resolution with unequal per-core widths.
    for (double u : {356.0, 357.0})
        specs.push_back(specPairSpec("gcc", "mesa", sedationOpts(u))
                            .withTopology(2, {0, 0}));

    return specs;
}

TEST(Snapshot, EveryFamilyBitIdenticalAtJobs1)
{
    std::vector<RunSpec> specs = familyMatrix();
    std::vector<RunResult> cold = runCold(specs);

    for (bool prefix : {true, false}) {
        SCOPED_TRACE(prefix ? "prefix on" : "prefix off");
        ParallelRunner runner(1);
        runner.setPrefixSharing(prefix);
        expectMatches(cold, runner.run(specs));
        if (prefix)
            EXPECT_GE(runner.prefixStats().forkedRuns, 2u);
        else
            EXPECT_EQ(runner.prefixStats().forkedRuns, 0u);
    }
}

TEST(Snapshot, EveryFamilyBitIdenticalAtJobs4WithStore)
{
    std::vector<RunSpec> specs = familyMatrix();
    std::vector<RunResult> cold = runCold(specs);

    for (bool prefix : {true, false}) {
        SCOPED_TRACE(prefix ? "prefix on" : "prefix off");
        ResultStore store;
        ParallelRunner runner(4, &store);
        runner.setPrefixSharing(prefix);
        expectMatches(cold, runner.run(specs));
        if (prefix)
            EXPECT_GE(runner.prefixStats().forkedRuns, 2u);
        else
            EXPECT_EQ(runner.prefixStats().forkedRuns, 0u);

        // A second pass is served entirely by the store; the prefix
        // phase must not re-simulate already-cached groups.
        PrefixShareStats before = runner.prefixStats();
        expectMatches(cold, runner.run(specs));
        EXPECT_EQ(runner.prefixStats().groups, before.groups);
        EXPECT_EQ(runner.prefixStats().forkedRuns, before.forkedRuns);
    }
}

TEST(Snapshot, DisabledSharingStillMatchesCold)
{
    std::vector<RunSpec> specs = innocentSweep({356.0, 357.0});
    std::vector<RunResult> cold = runCold(specs);

    ParallelRunner runner(2);
    runner.setPrefixSharing(false);
    expectMatches(cold, runner.run(specs));

    PrefixShareStats ps = runner.prefixStats();
    EXPECT_EQ(ps.groups, 0u);
    EXPECT_EQ(ps.forkedRuns, 0u);
    EXPECT_EQ(ps.savedCycles, 0u);
}

// --- tracer round-trip -------------------------------------------------

/**
 * Save mid-episode, restore, keep running: the concatenated trace must
 * equal an uninterrupted run's trace event for event. At convection
 * R = 1.2 K/W the innocent pair's register file oscillates through the
 * episode detector's 348.5 K resume threshold, so by the time the
 * prefix reaches the 353 K divergence temperature the detector has
 * already seen a rise begin — its phase, the open episode's cycles,
 * and every event in the tracer ring all have to survive the
 * round-trip for the comparison to hold.
 */
TEST(Snapshot, TracerRoundTripsThroughSaveRestore)
{
    RunSpec spec = specPairSpec("gcc", "mesa", sedationOpts(356.0))
                       .withTraceEvents(true);
    spec.opts.convectionR = 1.2;

    SimSnapshot snap;
    Cycles fork =
        makePrefixSimulator(spec)->runPrefix({353.0}, /*stride=*/1, snap);
    ASSERT_GT(fork, 0u);

    RunResult cold = executeRunSpec(spec);
    RunResult warm = executeRunSpec(spec, &snap);
    EXPECT_EQ(cold, warm); // operator== covers traceEvents

    // The restored run's trace really is a concatenation: it contains
    // events recorded before the fork (inherited through the snapshot)
    // and events recorded after it.
    ASSERT_FALSE(warm.traceEvents.empty());
    EXPECT_LT(warm.traceEvents.front().cycle, fork);
    EXPECT_GE(warm.traceEvents.back().cycle, fork);

    // The detector saw a heat episode's rise begin before the fork;
    // the inherited trace must carry that episode_rise_start.
    bool rise_before_fork = false;
    for (const TraceEvent &e : warm.traceEvents) {
        if (e.kind == TraceKind::EpisodeRiseStart && e.cycle < fork)
            rise_before_fork = true;
    }
    EXPECT_TRUE(rise_before_fork)
        << "the 353 K prefix should fork after an episode rise began";
}

// --- multi-core snapshots ----------------------------------------------

/**
 * N-core save/restore round-trip, mid-episode: every core's pipeline,
 * policy state, episode detector and histograms plus the one shared
 * RC network and tracer ring must survive, and the forked run must be
 * bit-identical to the cold one — including the per-core result
 * slices and core-stamped trace events.
 */
TEST(Snapshot, MultiCoreRoundTripIsBitIdentical)
{
    RunSpec spec = specPairSpec("gcc", "mesa", sedationOpts(356.0))
                       .withTopology(2, {0, 1})
                       .withTraceEvents(true);

    SimSnapshot snap;
    Cycles fork = makePrefixSimulator(spec)->runPrefix(
        {spec.opts.upperThreshold}, 4, snap);
    ASSERT_GT(fork, 0u);
    ASSERT_FALSE(snap.empty());

    RunResult cold = executeRunSpec(spec);
    RunResult warm1 = executeRunSpec(spec, &snap);
    RunResult warm2 = executeRunSpec(spec, &snap);
    EXPECT_EQ(warm1, warm2);
    EXPECT_EQ(cold, warm1); // covers cores[], threads[].core, traces

    ASSERT_EQ(warm1.numCores, 2);
    ASSERT_EQ(warm1.cores.size(), 2u);
}

TEST(SnapshotDeathTest, MultiCoreSnapshotRefusesOtherTopologies)
{
    RunSpec two = specPairSpec("gcc", "mesa", sedationOpts(356.0))
                      .withTopology(2, {0, 1});
    SimSnapshot snap;
    ASSERT_GT(makePrefixSimulator(two)->runPrefix(
                  {two.opts.upperThreshold}, 4, snap),
              0u);

    // Same workloads, different die shape / placement: refused.
    RunSpec one = specPairSpec("gcc", "mesa", sedationOpts(356.0));
    EXPECT_EXIT(makeSimulator(one)->restore(snap),
                testing::ExitedWithCode(1), "incompatible");
    RunSpec packed = specPairSpec("gcc", "mesa", sedationOpts(356.0))
                         .withTopology(2, {0, 0});
    EXPECT_EXIT(makeSimulator(packed)->restore(snap),
                testing::ExitedWithCode(1), "incompatible");
}

// --- runPrefix()/save()/restore() preconditions --------------------------

TEST(SnapshotDeathTest, PrefixRefusesLiveThresholdsAndUsedSimulators)
{
    // A prefix must run with neutralised thresholds: the attack's
    // stop-and-go would stall the pipeline at the first sample, and a
    // rule that never fires lets the prefix reach it.
    RunSpec attack = withVariantSpec("gcc", 1, fastOpts());
    SimSnapshot snap;
    EXPECT_EXIT(makeSimulator(attack)->runPrefix(DivergeRule{}, 1, snap),
                testing::ExitedWithCode(1), "not neutralised");

    // Only a freshly constructed simulator may run a prefix.
    RunSpec spec = specPairSpec("gcc", "mesa", sedationOpts(356.0));
    auto used = makePrefixSimulator(spec);
    used->run();
    EXPECT_EXIT(used->runPrefix({spec.opts.upperThreshold}, 4, snap),
                testing::ExitedWithCode(1), "freshly constructed");
}

TEST(SnapshotDeathTest, SaveRejectsNonBoundaryCycles)
{
    RunSpec spec = specPairSpec("gcc", "mesa", sedationOpts(356.0));
    auto sim = makeSimulator(spec);
    sim->pipeline().tick();
    SimSnapshot snap;
    EXPECT_EXIT(sim->save(snap), testing::ExitedWithCode(1),
                "sensor boundary");
}

TEST(SnapshotDeathTest, RestoreRejectsBadInputs)
{
    RunSpec spec = specPairSpec("gcc", "mesa", sedationOpts(356.0));

    SimSnapshot empty;
    EXPECT_EXIT(makeSimulator(spec)->restore(empty),
                testing::ExitedWithCode(1), "empty snapshot");

    SimSnapshot snap;
    ASSERT_GT(makePrefixSimulator(spec)->runPrefix(
                  {spec.opts.upperThreshold}, 4, snap),
              0u);

    // Only a freshly constructed simulator may restore.
    auto used = makeSimulator(spec);
    used->run();
    EXPECT_EXIT(used->restore(snap), testing::ExitedWithCode(1),
                "freshly constructed");

    // A snapshot from a different trajectory configuration is refused.
    RunSpec other = spec;
    other.opts.timeScale = 1000.0;
    EXPECT_EXIT(makeSimulator(other)->restore(snap),
                testing::ExitedWithCode(1), "incompatible");
}

} // namespace
