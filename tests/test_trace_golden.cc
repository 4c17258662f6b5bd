/**
 * @file
 * Golden-trace tests: the structured event tracer's output for the
 * shipped attack listings is locked down line for line.
 *
 * For each attacks/*.s listing co-scheduled with gcc, under both
 * stop-and-go and selective sedation, the DTM / thermal / episode
 * event sequence (rendered as JSON Lines) must match a checked-in
 * golden file byte for byte. The same runs must also be bit-identical
 * across --jobs 1 / --jobs 4 and with prefix sharing on or off —
 * RunResult::operator== covers the trace, so observability can never
 * fork from the physics.
 *
 * Regenerate the goldens after an intentional behaviour change with:
 *
 *     HS_REGOLDEN=1 ./build/tests/hs_tests \
 *         --gtest_filter='TraceGolden*'
 *
 * and review the diff like any other code change.
 */

#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/writers.hh"

namespace {

using namespace hs;

/** Repository root (compile-time HS_SOURCE_DIR), so attacks/ and
 *  tests/golden/ resolve from any build directory. */
const std::string kRoot = HS_SOURCE_DIR "/";

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The golden combinations: every shipped attack x both DTM policies. */
struct GoldenCase
{
    const char *attack; ///< file name under attacks/
    DtmMode dtm;
    const char *policy; ///< golden-file suffix
};

/** Prints the policy (the test name already carries the attack);
 *  gtest's default byte dump would put pointer values, which vary run
 *  to run, into the test name. */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.policy;
}

const GoldenCase kGoldenCases[] = {
    {"figure1_hammer.s", DtmMode::StopAndGo, "stopgo"},
    {"figure1_hammer.s", DtmMode::SelectiveSedation, "sedation"},
    {"figure2_two_phase.s", DtmMode::StopAndGo, "stopgo"},
    {"figure2_two_phase.s", DtmMode::SelectiveSedation, "sedation"},
    {"stealthy_burst.s", DtmMode::StopAndGo, "stopgo"},
    {"stealthy_burst.s", DtmMode::SelectiveSedation, "sedation"},
};

std::string
caseName(const GoldenCase &c)
{
    std::string stem(c.attack);
    stem = stem.substr(0, stem.rfind('.'));
    return stem + "_" + c.policy;
}

/**
 * One traced golden run: gcc (the victim, thread 0) sharing the core
 * with the attack listing (thread 1). The time scale is pinned — NOT
 * read from HS_SCALE — because the goldens encode cycle numbers.
 */
RunSpec
goldenSpec(const GoldenCase &c)
{
    ExperimentOptions opts;
    opts.timeScale = 400.0;
    opts.dtm = c.dtm;

    RunSpec s;
    s.opts = opts;
    s.traceEvents = true;
    s.workloads.push_back(WorkloadSpec::spec("gcc"));
    std::string path = kRoot + "attacks/" + c.attack;
    s.workloads.push_back(WorkloadSpec::assembly(
        std::string("attacks/") + c.attack, readFile(path)));
    s.label = caseName(c);
    return s;
}

/** Golden files hold only the policy-visible sequence. */
constexpr uint32_t kGoldenMask = traceCategoryBit(TraceCategory::Dtm) |
                                 traceCategoryBit(TraceCategory::Thermal) |
                                 traceCategoryBit(TraceCategory::Episode);

std::string
renderGolden(const RunResult &r)
{
    std::stringstream ss;
    writeTraceJsonl(ss, r.traceEvents, kGoldenMask);
    return ss.str();
}

/** Cold reference results, memoised across tests in this file. */
const RunResult &
cachedColdRun(const RunSpec &spec)
{
    static std::map<std::string, RunResult> cache;
    auto it = cache.find(spec.canonicalKey());
    if (it == cache.end())
        it = cache.emplace(spec.canonicalKey(),
                           executeRunSpec(spec)).first;
    return it->second;
}

class TraceGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(TraceGolden, MatchesCheckedInGolden)
{
    const GoldenCase &c = GetParam();
    RunSpec spec = goldenSpec(c);
    std::string got = renderGolden(cachedColdRun(spec));
    EXPECT_FALSE(got.empty()) << "golden run emitted no events";

    std::string golden_path =
        kRoot + "tests/golden/" + caseName(c) + ".jsonl";
    if (std::getenv("HS_REGOLDEN")) {
        std::ofstream out(golden_path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << got;
        GTEST_SKIP() << "regenerated " << golden_path;
    }

    ASSERT_TRUE(std::ifstream(golden_path).good())
        << "missing golden " << golden_path
        << " — generate with HS_REGOLDEN=1";
    EXPECT_EQ(readFile(golden_path), got)
        << "trace diverged from " << golden_path
        << "; if intentional, regenerate with HS_REGOLDEN=1 and "
           "review the diff";
}

INSTANTIATE_TEST_SUITE_P(
    Attacks, TraceGolden, ::testing::ValuesIn(kGoldenCases),
    [] (const ::testing::TestParamInfo<GoldenCase> &info) {
        return caseName(info.param);
    });

// --- the paper's sedation storyline, as an ordered event sequence ------

/**
 * Section 3.2's defence, observed through the tracer: the attack heats
 * the register file (an episode rise begins), the 356 K upper
 * threshold trips, the offender — and only the offender — is sedated,
 * the block cools through the 355 K lower threshold, and the thread is
 * released. The golden file freezes the exact cycles; this test
 * asserts the causal order itself, so it keeps meaning even when the
 * goldens are regenerated.
 */
TEST(TraceSequence, SedationStorylineOnHammerAttack)
{
    RunSpec spec = goldenSpec(kGoldenCases[1]); // figure1 + sedation
    const RunResult &r = cachedColdRun(spec);
    ASSERT_FALSE(r.traceEvents.empty());
    EXPECT_EQ(r.traceEventsDropped, 0u);

    const TraceKind storyline[] = {
        TraceKind::EpisodeRiseStart, TraceKind::SedUpperCross,
        TraceKind::ThreadSedated, TraceKind::SedLowerCross,
        TraceKind::ThreadReleased,
    };
    size_t want = 0;
    for (const TraceEvent &e : r.traceEvents) {
        if (want < std::size(storyline) && e.kind == storyline[want]) {
            if (e.kind == TraceKind::ThreadSedated ||
                e.kind == TraceKind::ThreadReleased) {
                // The offender is thread 1 (the attack listing), never
                // the innocent gcc victim on thread 0.
                EXPECT_EQ(e.thread, 1);
            }
            ++want;
        }
        // Sedation must never touch the victim.
        if (e.kind == TraceKind::ThreadSedated)
            EXPECT_NE(e.thread, 0);
    }
    EXPECT_EQ(want, std::size(storyline))
        << "matched only " << want << " of the 5 storyline events";
}

// --- bit-identity across execution strategies --------------------------

/**
 * The traced results — events included, via RunResult::operator== —
 * must not depend on how the engine schedules the runs: worker count
 * and prefix sharing are performance knobs, not semantics.
 */
TEST(TraceBitIdentity, SameAcrossJobsAndPrefixSharing)
{
    std::vector<RunSpec> specs;
    std::vector<RunResult> cold;
    for (const GoldenCase &c : kGoldenCases) {
        specs.push_back(goldenSpec(c));
        cold.push_back(cachedColdRun(specs.back()));
    }

    ParallelRunner serial(1);
    serial.setPrefixSharing(true);
    std::vector<RunResult> jobs1 = serial.run(specs);

    ParallelRunner wide(4);
    wide.setPrefixSharing(true);
    std::vector<RunResult> jobs4 = wide.run(specs);

    ParallelRunner unshared(2);
    unshared.setPrefixSharing(false);
    std::vector<RunResult> noprefix = unshared.run(specs);

    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(cold[i], jobs1[i]) << specs[i].label << " (jobs 1)";
        EXPECT_EQ(cold[i], jobs4[i]) << specs[i].label << " (jobs 4)";
        EXPECT_EQ(cold[i], noprefix[i])
            << specs[i].label << " (prefix off)";
    }
}

/**
 * A traced cell that actually forks from a shared warm-up snapshot
 * (the attack cells above diverge at the first sensor sample, so they
 * fall back to cold) must still reproduce the cold trace bit for bit:
 * the tracer and the online episode detector ride in the snapshot.
 */
TEST(TraceBitIdentity, PrefixForkedTraceMatchesCold)
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    opts.dtm = DtmMode::SelectiveSedation;

    std::vector<RunSpec> specs;
    for (double upper : {356.0, 357.0}) {
        ExperimentOptions o = opts;
        o.upperThreshold = upper;
        o.lowerThreshold = upper - 1.0;
        specs.push_back(
            specPairSpec("gcc", "mesa", o).withTraceEvents(true));
    }

    std::vector<RunResult> cold;
    for (const RunSpec &s : specs)
        cold.push_back(executeRunSpec(s));

    ParallelRunner runner(2);
    runner.setPrefixSharing(true);
    std::vector<RunResult> shared = runner.run(specs);
    EXPECT_GE(runner.prefixStats().forkedRuns, 1u)
        << "sweep was expected to prefix-share";

    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(cold[i], shared[i]) << "cell " << i;
        // The monitor sampled during the shared prefix, so the forked
        // trace must contain those inherited events too.
        EXPECT_FALSE(shared[i].traceEvents.empty()) << "cell " << i;
    }
}

// --- exporters over a real run -----------------------------------------

TEST(TraceExport, ChromeTraceContainsSedationSpans)
{
    RunSpec spec = goldenSpec(kGoldenCases[1]); // figure1 + sedation
    const RunResult &r = cachedColdRun(spec);

    std::stringstream ss;
    writeChromeTrace(ss, r.traceEvents, /*cycles_per_us=*/4000.0 / 400.0);
    std::string doc = ss.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"sedated\""), std::string::npos);
    EXPECT_NE(doc.find("\"ewma_t1\""), std::string::npos);
    EXPECT_NE(doc.find("\"heat_episode\""), std::string::npos);
}

} // namespace
