/**
 * @file
 * Many-core topology tests.
 *
 * Three layers are pinned here:
 *
 *  - Topology itself: the near-square tiling and the cross-tile seam
 *    enumeration (counts, orientation, determinism).
 *  - ThermalModel composition: a 1-core topology builds a network
 *    bit-identical to the legacy single-floorplan constructor (every
 *    temperature EXPECT_EQ-exact through init + stepping), and N-core
 *    dies really couple — heat injected on one core warms its
 *    neighbour, monotonically in couplingScale. The network sizes at
 *    1, 16 and 64 cores are pinned, and the 64-core build is bounded
 *    in wall time.
 *  - The simulator / RunSpec surface: the default topology keys and
 *    results are byte-identical to an explicit 1-core topology, and
 *    multi-core runs are deterministic with the result shape (per-core
 *    slices, thread->core tags) the tools consume.
 *
 * Simulation-backed tests run at HS scale 2000 (250 K-cycle quanta).
 */

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/blocks.hh"
#include "sim/runner.hh"
#include "sim/run_spec.hh"
#include "thermal/floorplan.hh"
#include "thermal/thermal_model.hh"
#include "thermal/topology.hh"

namespace {

using namespace hs;

TopologyParams
params(int cores, double coupling = 1.0)
{
    TopologyParams p;
    p.numCores = cores;
    p.couplingScale = coupling;
    return p;
}

// --- tiling ------------------------------------------------------------

TEST(Topology, SingleCoreIsTheDegenerateTile)
{
    Topology t(Floorplan::ev6(), params(1));
    EXPECT_EQ(t.numCores(), 1);
    EXPECT_EQ(t.cols(), 1);
    EXPECT_EQ(t.rows(), 1);
    EXPECT_TRUE(t.crossEdges().empty());
    EXPECT_EQ(t.originX(0), 0.0);
    EXPECT_EQ(t.originY(0), 0.0);
}

TEST(Topology, FourCoresTileANearSquareGrid)
{
    Topology t(Floorplan::ev6(), params(4));
    EXPECT_EQ(t.cols(), 2);
    EXPECT_EQ(t.rows(), 2);
    // Row 0 at the bottom, filled left to right.
    EXPECT_EQ(t.col(0), 0);
    EXPECT_EQ(t.row(0), 0);
    EXPECT_EQ(t.col(3), 1);
    EXPECT_EQ(t.row(3), 1);
    EXPECT_GT(t.originX(1), t.originX(0));
    EXPECT_GT(t.originY(2), t.originY(0));

    // Exactly the four seams of a 2x2 grid, each with >= 1 coupling:
    // 0-1 and 2-3 horizontal, 0-2 and 1-3 vertical.
    bool h01 = false, h23 = false, v02 = false, v13 = false;
    for (const CrossEdge &e : t.crossEdges()) {
        ASSERT_LT(e.coreA, e.coreB);
        ASSERT_GT(e.sharedEdge, 0.0);
        if (e.coreA == 0 && e.coreB == 1 && !e.vertical)
            h01 = true;
        else if (e.coreA == 2 && e.coreB == 3 && !e.vertical)
            h23 = true;
        else if (e.coreA == 0 && e.coreB == 2 && e.vertical)
            v02 = true;
        else if (e.coreA == 1 && e.coreB == 3 && e.vertical)
            v13 = true;
        else
            FAIL() << "unexpected seam " << e.coreA << "-" << e.coreB;
    }
    EXPECT_TRUE(h01);
    EXPECT_TRUE(h23);
    EXPECT_TRUE(v02);
    EXPECT_TRUE(v13);
}

TEST(Topology, RaggedGridOnlyCouplesOccupiedTiles)
{
    // Three cores on a 2x2 grid: the top-right tile is empty, so only
    // the 0-1 (horizontal) and 0-2 (vertical) seams exist.
    Topology t(Floorplan::ev6(), params(3));
    EXPECT_EQ(t.cols(), 2);
    EXPECT_EQ(t.rows(), 2);
    for (const CrossEdge &e : t.crossEdges()) {
        bool ok = (e.coreA == 0 && e.coreB == 1 && !e.vertical) ||
                  (e.coreA == 0 && e.coreB == 2 && e.vertical);
        EXPECT_TRUE(ok) << "unexpected seam " << e.coreA << "-"
                        << e.coreB;
    }
}

TEST(Topology, CrossEdgesAreDeterministic)
{
    Topology a(Floorplan::ev6(), params(6));
    Topology b(Floorplan::ev6(), params(6));
    ASSERT_EQ(a.crossEdges().size(), b.crossEdges().size());
    for (size_t i = 0; i < a.crossEdges().size(); ++i) {
        const CrossEdge &ea = a.crossEdges()[i];
        const CrossEdge &eb = b.crossEdges()[i];
        EXPECT_EQ(ea.coreA, eb.coreA);
        EXPECT_EQ(ea.blockA, eb.blockA);
        EXPECT_EQ(ea.coreB, eb.coreB);
        EXPECT_EQ(ea.blockB, eb.blockB);
        EXPECT_EQ(ea.sharedEdge, eb.sharedEdge);
    }
}

TEST(TopologyDeathTest, RejectsBadParams)
{
    TopologyParams zero = params(0);
    EXPECT_EXIT(Topology(Floorplan::ev6(), zero),
                testing::ExitedWithCode(1), "at least one core");
    TopologyParams neg = params(2);
    neg.coreSpacing = -1e-3;
    EXPECT_EXIT(Topology(Floorplan::ev6(), neg),
                testing::ExitedWithCode(1), "spacing");
}

// --- thermal composition ----------------------------------------------

/** Synthetic per-block powers, deterministic and all distinct. */
std::vector<Watts>
syntheticPower(int total_blocks, double scale = 1.0)
{
    std::vector<Watts> p(total_blocks);
    for (int i = 0; i < total_blocks; ++i)
        p[i] = scale * (0.3 + 0.07 * (i % numBlocks));
    return p;
}

TEST(TopologyThermal, OneCoreTopologyBitIdenticalToLegacyModel)
{
    // The lock that keeps the refactor honest: a 1-core Topology must
    // build exactly the network the floorplan constructor builds —
    // same element insertion order, so every double along the
    // trajectory is EXPECT_EQ-exact, not just close.
    ThermalModel legacy(Floorplan::ev6());
    ThermalModel tiled(Topology(Floorplan::ev6(), params(1)));

    std::vector<Watts> power = syntheticPower(numBlocks);
    legacy.initSteadyState(power);
    tiled.initSteadyState(power);
    for (int step = 0; step < 200; ++step) {
        legacy.step(power, 1e-4);
        tiled.step(power, 1e-4);
    }
    for (int i = 0; i < numBlocks; ++i) {
        Block b = blockFromIndex(i);
        EXPECT_EQ(legacy.blockTemp(b), tiled.blockTemp(b))
            << blockName(b);
        EXPECT_EQ(legacy.blockTemp(b), tiled.coreBlockTemp(0, b))
            << blockName(b);
    }
    EXPECT_EQ(legacy.spreaderTemp(), tiled.spreaderTemp());
    EXPECT_EQ(legacy.sinkTemp(), tiled.sinkTemp());
}

TEST(TopologyThermal, HeatCrossesTheSeamIntoTheIdleCore)
{
    // Two tiles side by side; all power on core 0. The idle neighbour
    // must warm up through the seam + shared package, but never past
    // the heated core.
    ThermalModel model(Topology(Floorplan::ev6(), params(2)));
    ASSERT_EQ(model.numCores(), 2);
    ASSERT_EQ(model.totalBlocks(), 2 * numBlocks);

    std::vector<Watts> power(model.totalBlocks(), 0.0);
    std::vector<Watts> hot = syntheticPower(numBlocks, 4.0);
    std::copy(hot.begin(), hot.end(), power.begin());

    Kelvin ambient = model.params().ambient;
    model.initSteadyState(std::vector<Watts>(model.totalBlocks(), 0.0));
    for (int step = 0; step < 3000; ++step)
        model.step(power, 1e-4);

    Kelvin active = model.coreBlockTemp(0, Block::IntReg);
    Kelvin idle = model.coreBlockTemp(1, Block::IntReg);
    EXPECT_GT(active, idle);
    EXPECT_GT(idle, ambient + 0.01)
        << "cross-core coupling should heat the idle tile";
}

TEST(TopologyThermal, CouplingScaleControlsCrossCoreHeating)
{
    // Same experiment at couplingScale 1 and 0: with the seams severed
    // the idle core only warms through the shared spreader, so it must
    // end up measurably cooler than in the coupled die.
    auto idleTemp = [](double coupling) {
        ThermalModel model(
            Topology(Floorplan::ev6(), params(2, coupling)));
        std::vector<Watts> power(model.totalBlocks(), 0.0);
        std::vector<Watts> hot = syntheticPower(numBlocks, 4.0);
        std::copy(hot.begin(), hot.end(), power.begin());
        model.initSteadyState(
            std::vector<Watts>(model.totalBlocks(), 0.0));
        for (int step = 0; step < 3000; ++step)
            model.step(power, 1e-4);
        return model.coreBlockTemp(1, Block::IntReg);
    };
    EXPECT_GT(idleTemp(1.0), idleTemp(0.0));
}

TEST(TopologyThermal, SymmetricLoadHeatsTilesSymmetrically)
{
    // Tiles are translated copies, not mirrored ones, so the seam
    // couples *different* blocks on its two sides and the die is only
    // approximately symmetric under equal load — to within the heat
    // the seam actually carries (sub-millikelvin here). A decoupled
    // die removes that channel and the tiles match bit-for-bit.
    ThermalModel coupled(Topology(Floorplan::ev6(), params(2)));
    ThermalModel split(Topology(Floorplan::ev6(), params(2, 0.0)));
    std::vector<Watts> one = syntheticPower(numBlocks, 2.0);
    std::vector<Watts> power;
    power.insert(power.end(), one.begin(), one.end());
    power.insert(power.end(), one.begin(), one.end());

    for (ThermalModel *m : {&coupled, &split}) {
        m->initSteadyState(
            std::vector<Watts>(m->totalBlocks(), 0.0));
        for (int step = 0; step < 2000; ++step)
            m->step(power, 1e-4);
    }
    for (int i = 0; i < numBlocks; ++i) {
        Block b = blockFromIndex(i);
        EXPECT_NEAR(coupled.coreBlockTemp(0, b),
                    coupled.coreBlockTemp(1, b), 1e-2)
            << blockName(b);
        EXPECT_EQ(split.coreBlockTemp(0, b),
                  split.coreBlockTemp(1, b))
            << blockName(b);
    }
}

TEST(TopologyThermal, ManyCoreNetworkSizeAndBuildTime)
{
    // Pins the composed network's size at 1, 16 and 64 cores, and the
    // 64-core build time. The sparse build takes about a millisecond;
    // a reintroduced dense per-insert row refresh is O(n^3) over ~1100
    // nodes and busts the generous 2000 ms bound by orders of
    // magnitude.
    struct Row
    {
        int cores, nodes;
        size_t edges;
    };
    for (Row want : {Row{1, 19, 58}, Row{16, 274, 1009},
                     Row{64, 1090, 4097}}) {
        Topology topo(Floorplan::ev6(), params(want.cores));
        auto t0 = std::chrono::steady_clock::now();
        ThermalModel model(topo);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        EXPECT_EQ(model.network().numNodes(), want.nodes) << want.cores;
        EXPECT_EQ(model.network().numEdges(), want.edges) << want.cores;
        if (want.cores == 64) {
            EXPECT_LT(ms, 2000.0) << "64-core RC network build";
        }
    }
}

// --- RunSpec keying ----------------------------------------------------

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    return opts;
}

TEST(TopologyRunSpec, DefaultTopologyLeavesKeysUntouched)
{
    RunSpec base = specPairSpec("gcc", "mesa", fastOpts());
    RunSpec one = base.withTopology(1);
    EXPECT_EQ(base.canonicalKey(), one.canonicalKey());
    EXPECT_EQ(base.divergenceKey(), one.divergenceKey());
    EXPECT_EQ(base.hash(), one.hash());
    EXPECT_EQ(base.canonicalKey().find(";cores="), std::string::npos);
}

TEST(TopologyRunSpec, MultiCoreTopologyIsATrajectoryField)
{
    RunSpec base = specPairSpec("gcc", "mesa", fastOpts());
    RunSpec two = base.withTopology(2, {0, 1});
    // Dies of different shapes must never share a prefix: the
    // topology changes the divergence key, not just the canonical one.
    EXPECT_NE(two.canonicalKey(), base.canonicalKey());
    EXPECT_NE(two.divergenceKey(), base.divergenceKey());
    EXPECT_NE(two.canonicalKey().find(";cores=2;place=0,1"),
              std::string::npos);
    // Placement alone separates cells too.
    RunSpec packed = base.withTopology(2, {0, 0});
    EXPECT_NE(packed.canonicalKey(), two.canonicalKey());
    EXPECT_NE(packed.divergenceKey(), two.divergenceKey());
}

// --- simulator surface -------------------------------------------------

TEST(TopologySimulator, ExplicitOneCoreMatchesDefaultBitForBit)
{
    RunSpec base = withVariantSpec("gcc", 2, fastOpts());
    RunResult legacy = executeRunSpec(base);
    RunResult topo = executeRunSpec(base.withTopology(1));
    EXPECT_EQ(legacy, topo);
    EXPECT_EQ(topo.numCores, 1);
    EXPECT_TRUE(topo.cores.empty());
    for (const ThreadResult &t : topo.threads)
        EXPECT_EQ(t.core, 0);
}

TEST(TopologySimulator, TwoCoreRunIsDeterministicAndShaped)
{
    RunSpec spec =
        withVariantSpec("gcc", 2, fastOpts()).withTopology(2, {0, 1});
    RunResult a = executeRunSpec(spec);
    RunResult b = executeRunSpec(spec);
    EXPECT_EQ(a, b);

    EXPECT_EQ(a.numCores, 2);
    ASSERT_EQ(a.cores.size(), 2u);
    EXPECT_EQ(a.cores[0].core, 0);
    EXPECT_EQ(a.cores[1].core, 1);
    ASSERT_EQ(a.threads.size(), 2u);
    EXPECT_EQ(a.threads[0].core, 0);
    EXPECT_EQ(a.threads[1].core, 1);

    // Aggregates fold the per-core slices.
    EXPECT_EQ(a.emergencies,
              a.cores[0].emergencies + a.cores[1].emergencies);
    EXPECT_EQ(a.peakTempOverall,
              std::max(a.cores[0].peakTempOverall,
                       a.cores[1].peakTempOverall));
}

TEST(TopologySimulator, PlacementSeparatesAttackerFromVictim)
{
    // The cross-die scenario in one assertion: co-scheduled on one SMT
    // core the variant-2 attacker drags gcc through every stall; on
    // its own core the victim only feels the attacker through the
    // silicon. The victim must commit more instructions when the
    // attacker is quarantined on the far tile.
    RunSpec shared = withVariantSpec("gcc", 2, fastOpts());
    RunSpec split = shared.withTopology(2, {0, 1});
    RunResult s = executeRunSpec(shared);
    RunResult p = executeRunSpec(split);
    ASSERT_EQ(s.threads.size(), 2u);
    ASSERT_EQ(p.threads.size(), 2u);
    EXPECT_GT(p.threads[0].ipc, s.threads[0].ipc);
}

} // namespace
