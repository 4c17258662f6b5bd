/**
 * @file
 * Parallel experiment engine tests: canonical keys, bit-identity of
 * parallel vs serial execution, result memoisation, submission-order
 * preservation, and the strict environment-variable validation.
 *
 * All simulation-backed tests run at HS scale 2000 (250 K-cycle
 * quanta) so the whole file stays fast.
 */

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "sim/result_store.hh"
#include "sim/runner.hh"

namespace {

using namespace hs;

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    return opts;
}

/** An 8-cell matrix touching every workload kind and both DTM paths. */
std::vector<RunSpec>
sampleMatrix()
{
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", opts));
    specs.push_back(soloSpec("mcf", opts));
    specs.push_back(maliciousSoloSpec(1, opts));
    specs.push_back(withVariantSpec("gcc", 2, opts));
    specs.push_back(withVariantSpec("crafty", 3, opts));
    specs.push_back(specPairSpec("gcc", "mesa", opts));
    specs.push_back(
        withVariantSpec("applu", 2, opts)
            .withDtm(DtmMode::SelectiveSedation));
    specs.push_back(soloSpec("vortex", opts).withSink(SinkType::Ideal));
    return specs;
}

TEST(RunSpec, CanonicalKeyCoversEveryOption)
{
    RunSpec base = withVariantSpec("gcc", 2, fastOpts());
    std::string k0 = base.canonicalKey();

    // Each outcome-affecting mutation must change the key.
    std::vector<RunSpec> mutants;
    {
        RunSpec s = base;
        s.opts.timeScale = 2001.0;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.dtm = DtmMode::SelectiveSedation;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.sink = SinkType::Ideal;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.convectionR = 0.7;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.upperThreshold = 357.0;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.lowerThreshold = 354.0;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.sedationUsageThreshold = !s.opts.sedationUsageThreshold;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.opts.recordTempTrace = true;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.numThreads = 3;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.dieShrink = 0.9;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.sensorNoiseK = 0.5;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.descheduleAfter = 2;
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.workloads.push_back(WorkloadSpec::spec("mcf"));
        mutants.push_back(s);
    }
    {
        RunSpec s = base;
        s.workloads[1] = WorkloadSpec::maliciousVariant(3);
        mutants.push_back(s);
    }

    std::set<std::string> keys{k0};
    for (const RunSpec &m : mutants) {
        EXPECT_NE(m.canonicalKey(), k0);
        keys.insert(m.canonicalKey());
    }
    // ... and all mutants must be distinct from each other too.
    EXPECT_EQ(keys.size(), mutants.size() + 1);

    // The label is presentation only.
    EXPECT_EQ(base.withLabel("renamed").canonicalKey(), k0);
    EXPECT_EQ(base.withLabel("renamed").hash(), base.hash());
}

TEST(RunSpec, HashIsStableAcrossCopies)
{
    RunSpec a = specPairSpec("crafty", "vortex", fastOpts());
    RunSpec b = a;
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a, b);
    b.opts.convectionR = 0.5;
    EXPECT_NE(a.hash(), b.hash());
}

TEST(Runner, ParallelBitIdenticalToSerial)
{
    std::vector<RunSpec> specs = sampleMatrix();

    std::vector<RunResult> serial;
    for (const RunSpec &s : specs)
        serial.push_back(executeRunSpec(s));

    ParallelRunner runner(4);
    std::vector<RunResult> parallel = runner.run(specs);

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i])
            << "mismatch for spec " << specs[i].label;
}

TEST(Runner, SubmissionOrderPreservedAtEveryWorkerCount)
{
    std::vector<RunSpec> specs = sampleMatrix();
    std::vector<RunResult> reference;
    for (const RunSpec &s : specs)
        reference.push_back(executeRunSpec(s));

    for (int jobs = 1; jobs <= 8; ++jobs) {
        ParallelRunner runner(jobs);
        EXPECT_EQ(runner.jobs(), jobs);
        std::vector<RunResult> got = runner.run(specs);
        ASSERT_EQ(got.size(), specs.size()) << "jobs=" << jobs;
        for (size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(got[i].threads[0].program,
                      reference[i].threads[0].program)
                << "jobs=" << jobs << " index " << i;
            EXPECT_EQ(got[i], reference[i])
                << "jobs=" << jobs << " index " << i;
        }
    }
}

TEST(Runner, ResultStoreMemoises)
{
    ResultStore store;
    RunSpec spec = withVariantSpec("gcc", 2, fastOpts());

    int computed = 0;
    auto compute = [&]() {
        ++computed;
        return executeRunSpec(spec);
    };

    RunResult first = store.getOrCompute(spec, compute);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_TRUE(store.contains(spec));

    RunResult again = store.getOrCompute(spec, compute);
    EXPECT_EQ(computed, 1) << "second lookup must be served from cache";
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(again, first);

    // A different label is the same cell...
    RunResult relabeled =
        store.getOrCompute(spec.withLabel("other"), compute);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(relabeled, first);

    // ...but any option change is a distinct cell.
    RunSpec changed = spec;
    changed.opts.convectionR = 0.6;
    EXPECT_FALSE(store.contains(changed));
    store.getOrCompute(changed, [&]() {
        ++computed;
        return executeRunSpec(changed);
    });
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(store.size(), 2u);

    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains(spec));
}

TEST(Runner, CachedMatrixRunsAreBitIdentical)
{
    ResultStore store;
    std::vector<RunSpec> specs = sampleMatrix();

    ParallelRunner cold(2, &store);
    std::vector<RunResult> first = cold.run(specs);
    EXPECT_EQ(store.misses(), specs.size());

    ParallelRunner warm(2, &store);
    std::vector<RunResult> second = warm.run(specs);
    EXPECT_EQ(store.misses(), specs.size())
        << "warm pass must not simulate";
    EXPECT_EQ(store.hits(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(second[i], first[i]);
}

TEST(Runner, MatrixJsonAndCsvEmission)
{
    std::vector<RunSpec> specs = {soloSpec("gcc", fastOpts())};
    std::vector<RunResult> results = {executeRunSpec(specs[0])};

    std::ostringstream json;
    writeMatrixJson(json, specs, results);
    EXPECT_NE(json.str().find("\"runs\""), std::string::npos);
    EXPECT_NE(json.str().find("\"label\": \"gcc\""), std::string::npos);
    EXPECT_NE(json.str().find("\"spec_hash\""), std::string::npos);
    EXPECT_NE(json.str().find("\"peak_temp_K\""), std::string::npos);

    std::ostringstream csv;
    writeMatrixCsv(csv, specs, results);
    const std::string text = csv.str();
    std::string header = text.substr(0, text.find('\n'));
    EXPECT_EQ(header.rfind("run,label,thread,program,", 0), 0u)
        << header;
    // Header plus one data row per thread.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
              1 + static_cast<long>(results[0].threads.size()));
}

TEST(Runner, BenchmarkSetSelection)
{
    unsetenv("HS_BENCH_SET");
    std::vector<std::string> paper = benchmarkSet();
    EXPECT_FALSE(paper.empty());

    setenv("HS_BENCH_SET", "quick", 1);
    EXPECT_EQ(benchmarkSet().size(), 4u);
    setenv("HS_BENCH_SET", "paper", 1);
    EXPECT_EQ(benchmarkSet(), paper);
    setenv("HS_BENCH_SET", "full", 1);
    EXPECT_EQ(benchmarkSet().size(), specSuite().size());
    unsetenv("HS_BENCH_SET");
}

TEST(RunnerDeathTest, BenchmarkSetRejectsUnknownName)
{
    setenv("HS_BENCH_SET", "medium", 1);
    EXPECT_EXIT(benchmarkSet(), testing::ExitedWithCode(1),
                "HS_BENCH_SET must be one of quick, paper, full");
    unsetenv("HS_BENCH_SET");
}

TEST(RunSpecDeathTest, MaliciousVariantRangeChecked)
{
    EXPECT_EXIT(WorkloadSpec::maliciousVariant(0),
                testing::ExitedWithCode(1), "variant");
    EXPECT_EXIT(WorkloadSpec::maliciousVariant(5),
                testing::ExitedWithCode(1), "variant");
}

} // namespace
