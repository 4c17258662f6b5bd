/** @file Tests for the simulator's full statistics dump. */

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"

namespace hs {
namespace {

TEST(StatsDump, ContainsAllSections)
{
    ExperimentOptions opts;
    opts.timeScale = 500.0;
    opts.dtm = DtmMode::SelectiveSedation;
    Simulator sim(makeSimConfig(opts));
    sim.setWorkload(0, synthesizeSpec("gzip"));
    sim.setWorkload(1, synthesizeSpec("mesa"));
    sim.run();

    std::ostringstream os;
    sim.dumpStats(os);
    std::string out = os.str();

    for (const char *needle :
         {"sim.cycles", "sim.avg_power_w", "thread0.committed",
          "thread0.ipc", "thread1.committed", "mem.l1d.miss_rate",
          "mem.l2.misses", "bpred.accuracy", "thermal.IntReg.peak_k",
          "dtm.stop_and_go.triggers", "dtm.sedation.events"}) {
        EXPECT_NE(out.find(needle), std::string::npos)
            << "missing stat " << needle;
    }
    // Program names appear as descriptions.
    EXPECT_NE(out.find("gzip"), std::string::npos);
    EXPECT_NE(out.find("mesa"), std::string::npos);
}

TEST(StatsDump, ValuesConsistentWithRunResult)
{
    ExperimentOptions opts;
    opts.timeScale = 500.0;
    Simulator sim(makeSimConfig(opts));
    sim.setWorkload(0, synthesizeSpec("gzip"));
    RunResult r = sim.run();

    std::ostringstream os;
    sim.dumpStats(os);
    std::string out = os.str();

    // The cycle count printed must match the result record.
    std::string cycles = std::to_string(r.cycles);
    EXPECT_NE(out.find(cycles), std::string::npos);
    std::string committed = std::to_string(r.threads[0].committed);
    EXPECT_NE(out.find(committed), std::string::npos);
}

TEST(StatsDump, IdleThreadsOmitted)
{
    ExperimentOptions opts;
    opts.timeScale = 500.0;
    Simulator sim(makeSimConfig(opts));
    sim.setWorkload(0, synthesizeSpec("gzip")); // thread 1 unbound
    sim.run();
    std::ostringstream os;
    sim.dumpStats(os);
    EXPECT_EQ(os.str().find("thread1."), std::string::npos);
}

/** checksum64 and size of @p spec 's dumpStats() text after a run. */
std::pair<uint64_t, size_t>
dumpSum(const RunSpec &spec)
{
    std::unique_ptr<Simulator> sim = makeSimulator(spec);
    sim->run();
    std::ostringstream os;
    sim->dumpStats(os);
    std::string text = os.str();
    return {checksum64(reinterpret_cast<const uint8_t *>(text.data()),
                       text.size()),
            text.size()};
}

TEST(StatsDump, TextIsPinned)
{
    // hs_run --stats prints these bytes: every line's name, padding,
    // value precision and description is part of the report.
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    opts.dtm = DtmMode::SelectiveSedation;
    auto [one_sum, one_size] = dumpSum(withVariantSpec("gcc", 2, opts));
    EXPECT_EQ(one_size, 6585u);
    EXPECT_EQ(one_sum, 0x57ff601a9353e225ull);

    // Two cores: every per-core section gains its "coreN." prefix, and
    // a traced run adds the trace section.
    opts.dtm = DtmMode::StopAndGo;
    auto [two_sum, two_size] = dumpSum(withVariantSpec("gcc", 2, opts)
                                           .withTopology(2, {0, 1})
                                           .withTraceEvents(true));
    EXPECT_EQ(two_size, 10861u);
    EXPECT_EQ(two_sum, 0xf5f2e75da416a1e2ull);
}

} // namespace
} // namespace hs
