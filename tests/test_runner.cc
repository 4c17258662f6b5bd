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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
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

/**
 * Specs whose keys and hashes are pinned below: single-core, 2-core
 * with placement, an asm workload, every DtmMode, and the awkward
 * numbers (0.8, 1e-7 steps, -0.0, thirds).
 */
std::vector<RunSpec>
pinnedSpecs()
{
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", ExperimentOptions{}));
    specs.push_back(
        withVariantSpec("gcc", 2, opts).withTopology(2, {0, 1}));
    {
        RunSpec s;
        s.workloads.push_back(WorkloadSpec::spec("mesa"));
        s.workloads.push_back(WorkloadSpec::assembly(
            "loop", "loop: addi r1, r1, 1\n      jmp loop\n"));
        s.opts = opts;
        specs.push_back(s);
    }
    for (DtmMode mode :
         {DtmMode::None, DtmMode::StopAndGo, DtmMode::SelectiveSedation,
          DtmMode::DvfsThrottle, DtmMode::FetchGating})
        specs.push_back(withVariantSpec("mcf", 1, opts).withDtm(mode));
    {
        RunSpec s = specPairSpec("crafty", "vortex", opts);
        s.sensorNoiseK = 0.8;
        s.dieShrink = 1e-7 * 3;
        s.opts.convectionR = -0.0;
        s.opts.sedationUsageThreshold = true;
        s.opts.recordTempTrace = true;
        s.traceEvents = true;
        s.numThreads = 3;
        s.descheduleAfter = 2;
        specs.push_back(s);
    }
    for (int k : {1, 4096}) {
        RunSpec s = maliciousSoloSpec(4, opts);
        s.opts.convectionR += 1e-7 * k;
        s.opts.upperThreshold = 357.25;
        s.opts.lowerThreshold = 1.0 / 3.0;
        s.opts.sink = SinkType::Ideal;
        specs.push_back(s);
    }
    return specs;
}

// Every persistent store and campaign manifest is addressed by these
// bytes: a change here silently re-addresses existing stores, so the
// literals may only change together with kResultFormatVersion.
TEST(RunSpec, CanonicalKeyTextIsPinned)
{
    struct Pin
    {
        const char *key;
        uint64_t hash;
    };
    const Pin pins[] = {
        {"ts=50;sink=real;dtm=stop-and-go;conv=0.80000000000000004;"
         "upper=356;lower=355;usage=0;trace=0;etrace=0;nthreads=0;"
         "shrink=1;noise=0;desched=0|spec:gcc",
         0x9ee2b454d2bcf7d0ull},
        {"ts=2000;sink=real;dtm=stop-and-go;conv=0.80000000000000004;"
         "upper=356;lower=355;usage=0;trace=0;etrace=0;nthreads=0;"
         "shrink=1;noise=0;desched=0;cores=2;place=0,1|spec:gcc|"
         "variant:2",
         0x6b623d700b109666ull},
        {"ts=2000;sink=real;dtm=stop-and-go;conv=0.80000000000000004;"
         "upper=356;lower=355;usage=0;trace=0;etrace=0;nthreads=0;"
         "shrink=1;noise=0;desched=0|spec:mesa|asm:loop: addi r1, r1, "
         "1\n      jmp loop\n",
         0xce7d902ceb21c3b7ull},
        {"ts=2000;sink=real;dtm=none;conv=0.80000000000000004;"
         "upper=356;lower=355;usage=0;trace=0;etrace=0;nthreads=0;"
         "shrink=1;noise=0;desched=0|spec:mcf|variant:1",
         0xe58f22e8a6e22503ull},
        {"ts=2000;sink=real;dtm=stop-and-go;conv=0.80000000000000004;"
         "upper=356;lower=355;usage=0;trace=0;etrace=0;nthreads=0;"
         "shrink=1;noise=0;desched=0|spec:mcf|variant:1",
         0xd7e5ac50e9bdf9dcull},
        {"ts=2000;sink=real;dtm=selective-sedation;"
         "conv=0.80000000000000004;upper=356;lower=355;usage=0;"
         "trace=0;etrace=0;nthreads=0;shrink=1;noise=0;desched=0|"
         "spec:mcf|variant:1",
         0xbb60aff06c10c295ull},
        {"ts=2000;sink=real;dtm=dvfs-throttle;conv=0.80000000000000004;"
         "upper=356;lower=355;usage=0;trace=0;etrace=0;nthreads=0;"
         "shrink=1;noise=0;desched=0|spec:mcf|variant:1",
         0xab5e7e53cdd6bd0bull},
        {"ts=2000;sink=real;dtm=fetch-gating;conv=0.80000000000000004;"
         "upper=356;lower=355;usage=0;trace=0;etrace=0;nthreads=0;"
         "shrink=1;noise=0;desched=0|spec:mcf|variant:1",
         0x419d2b0fc71afca4ull},
        {"ts=2000;sink=real;dtm=stop-and-go;conv=-0;upper=356;"
         "lower=355;usage=1;trace=1;etrace=1;nthreads=3;"
         "shrink=2.9999999999999999e-07;noise=0.80000000000000004;"
         "desched=2|spec:crafty|spec:vortex",
         0xf7ddb1e7271137efull},
        {"ts=2000;sink=ideal;dtm=stop-and-go;conv=0.80000009999999999;"
         "upper=357.25;lower=0.33333333333333331;usage=0;trace=0;"
         "etrace=0;nthreads=0;shrink=1;noise=0;desched=0|variant:4",
         0xf33bbc526488fe53ull},
        {"ts=2000;sink=ideal;dtm=stop-and-go;conv=0.80040960000000005;"
         "upper=357.25;lower=0.33333333333333331;usage=0;trace=0;"
         "etrace=0;nthreads=0;shrink=1;noise=0;desched=0|variant:4",
         0x58c24bf263eaa721ull},
    };
    std::vector<RunSpec> specs = pinnedSpecs();
    ASSERT_EQ(specs.size(), std::size(pins));
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(specs[i].canonicalKey(), pins[i].key) << "spec " << i;
        EXPECT_EQ(specs[i].hash(), pins[i].hash) << "spec " << i;
    }
}

// Numbers in the key must print exactly as printf's "%.17g" always
// did, whatever formatter the key builder uses.
TEST(RunSpec, KeyNumbersMatchPrintfG17)
{
    std::vector<double> values = {
        0.0, -0.0, 0.8, 1.0 / 3.0, 357.25, 1e300, -1e-300,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min() * 12345,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest()};
    for (int k = 0; k < 5000; ++k)
        values.push_back(0.8 + 1e-7 * k);
    uint64_t bits = 0x9e3779b97f4a7c15ull;
    for (int k = 0; k < 5000; ++k) {
        bits ^= bits << 13;
        bits ^= bits >> 7;
        bits ^= bits << 17;
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        values.push_back(v);
    }
    RunSpec s = soloSpec("gcc", fastOpts());
    for (double v : values) {
        s.sensorNoiseK = v;
        char want[64];
        std::snprintf(want, sizeof(want), ";noise=%.17g;", v);
        EXPECT_NE(s.canonicalKey().find(want), std::string::npos)
            << want;
    }
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
    EXPECT_TRUE(store.contains(spec.canonicalKey()));

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
    EXPECT_FALSE(store.contains(changed.canonicalKey()));
    store.getOrCompute(changed, [&]() {
        ++computed;
        return executeRunSpec(changed);
    });
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(store.size(), 2u);

    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains(spec.canonicalKey()));
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
