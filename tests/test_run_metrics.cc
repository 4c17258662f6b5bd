/** @file Tests for the "metrics" object of hs_run's matrix JSON. */

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "sim/serialize.hh"

namespace hs {
namespace {

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    return opts;
}

/** The text after `"metrics": ` in a matrix JSON document. */
std::string
metricsOf(const std::string &doc)
{
    const std::string key = "\"metrics\": ";
    size_t at = doc.find(key);
    return at == std::string::npos ? std::string()
                                   : doc.substr(at + key.size());
}

TEST(RunMetrics, JsonIsPinned)
{
    // hs_run --json prints these bytes: metric names, their order,
    // counters, the peak gauge and every merged histogram. No host
    // metric is added, so the text is machine-independent.
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", opts));
    // A longer quantum heats far enough for an emergency, a stop-and-go
    // trigger and a completed heat episode.
    ExperimentOptions hot = opts;
    hot.timeScale = 500.0;
    specs.push_back(withVariantSpec("gcc", 2, hot).withTraceEvents(true));
    specs.push_back(withVariantSpec("gcc", 2, opts)
                        .withDtm(DtmMode::SelectiveSedation));
    specs.push_back(
        withVariantSpec("gcc", 2, opts).withTopology(2, {0, 1}));
    // A sedation threshold sweep: one prefix-shared group.
    for (double upper : {356.0, 356.5, 357.0}) {
        ExperimentOptions sed = opts;
        sed.dtm = DtmMode::SelectiveSedation;
        sed.upperThreshold = upper;
        sed.lowerThreshold = upper - 1.0;
        specs.push_back(specPairSpec("gcc", "mesa", sed));
    }

    ParallelRunner runner(2);
    std::vector<RunResult> results = runner.run(specs);
    PrefixShareStats engine = runner.prefixStats();
    ASSERT_GE(engine.forkedRuns, 2u);
    RunMetrics run_metrics{&engine};
    std::ostringstream os;
    writeMatrixJson(os, specs, results, &run_metrics);
    std::string metrics = metricsOf(os.str());
    EXPECT_NE(metrics.find("\"core1.sim.episode_heat_cycles\""),
              std::string::npos);
    EXPECT_NE(metrics.find("\"engine.forked_runs\""), std::string::npos);
    EXPECT_NE(metrics.find("\"hs_run.emergencies\": 1,"), std::string::npos);
    EXPECT_NE(metrics.find("\"hs_run.sedation_events\": 1,"),
              std::string::npos);
    EXPECT_EQ(metrics.find("host"), std::string::npos);
    EXPECT_EQ(metrics.size(), 2861u);
    EXPECT_EQ(checksum64(reinterpret_cast<const uint8_t *>(metrics.data()),
                         metrics.size()),
              0x7e9b6b49c6ec1dd8ull)
        << metrics;
}

Histogram
histogramOf(std::initializer_list<double> values)
{
    Histogram h;
    for (double v : values)
        h.observe(v);
    return h;
}

TEST(RunMetrics, WriteJsonIsSortedAndTyped)
{
    RunResult a;
    a.cycles = 1000;
    a.emergencies = 2;
    a.stopAndGoTriggers = 1;
    a.peakTempOverall = 358.25;
    a.histograms.push_back({"sim.ruu_occupancy", "", histogramOf({4.0})});
    RunResult b;
    b.cycles = 500;
    b.traceEventsDropped = 3;
    b.peakTempOverall = 357.5;
    b.histograms.push_back({"sim.ruu_occupancy", "", histogramOf({16.0})});
    b.histograms.push_back({"core1.sim.lsq_occupancy", "", histogramOf({})});
    PrefixShareStats engine;
    engine.groups = 1;
    engine.forkedRuns = 2;
    engine.savedCycles = 300;

    // Names sort across kinds; counters are integers, the peak gauge a
    // %.17g double, and histograms merge across results.
    std::ostringstream os;
    RunMetrics{&engine}.writeJson(os, {a, b});
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"core1.sim.lsq_occupancy\": {\"count\": 0, \"sum\": 0, "
              "\"min\": 0, \"max\": 0, \"mean\": 0, \"p50\": 0, "
              "\"p90\": 0, \"p99\": 0},\n"
              "  \"engine.forked_runs\": 2,\n"
              "  \"engine.prefix_groups\": 1,\n"
              "  \"engine.saved_cycles\": 300,\n"
              "  \"hs_run.emergencies\": 2,\n"
              "  \"hs_run.peak_temp_k\": 358.25,\n"
              "  \"hs_run.runs\": 2,\n"
              "  \"hs_run.sedation_events\": 0,\n"
              "  \"hs_run.sim_cycles\": 1500,\n"
              "  \"hs_run.stop_and_go_triggers\": 1,\n"
              "  \"hs_run.trace_events\": 0,\n"
              "  \"hs_run.trace_events_dropped\": 3,\n"
              "  \"sim.ruu_occupancy\": {\"count\": 2, \"sum\": 20, "
              "\"min\": 4, \"max\": 16, \"mean\": 10, \"p50\": 6, "
              "\"p90\": 16, \"p99\": 16}\n"
              "}");

    // Without results or engine only the run count remains.
    std::ostringstream empty;
    RunMetrics{}.writeJson(empty, {});
    EXPECT_EQ(empty.str(), "{\n  \"hs_run.runs\": 0\n}");
}

} // namespace
} // namespace hs
