/**
 * @file
 * hs_run — command-line driver for the heat-stroke simulator.
 *
 * Runs an arbitrary workload mix for one OS quantum and prints the
 * per-thread results plus (optionally) the full statistics dump, a
 * temperature-trace CSV, a structured event trace (JSONL or Chrome
 * trace_event JSON), or a structured JSON/CSV result file. With --each
 * the workloads become independent solo runs executed by the parallel
 * experiment engine; with --serve the process is a TCP worker.
 *
 * Flags and HS_* variables: the knob table in common/config.cc, printed
 * by `hs_run --help`. Malformed arguments exit 2 with the usage.
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "sim/disk_store.hh"
#include "sim/progress.hh"
#include "sim/remote.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "sim/status.hh"
#include "trace/metrics.hh"
#include "trace/writers.hh"

namespace {

using namespace hs;

WorkloadSpec
loadAsm(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open assembly file '%s'", path.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    return WorkloadSpec::assembly(path, buf.str());
}

void
printRun(const RunSpec &spec, const RunResult &r)
{
    std::printf("quantum: %llu cycles (scale 1/%g), dtm=%s, "
                "power=%.1fW, peak=%.2fK (%s), emergencies=%llu\n",
                static_cast<unsigned long long>(r.cycles),
                spec.opts.timeScale,
                dtmModeName(spec.opts.sink == SinkType::Ideal
                                ? DtmMode::None
                                : spec.opts.dtm),
                r.avgTotalPowerW, r.peakTempOverall,
                blockName(r.hottestBlock),
                static_cast<unsigned long long>(r.emergencies));
    if (r.numCores > 1) {
        TablePrinter cores_table(std::cout);
        cores_table.header({"core", "peak K", "hottest", "emergencies",
                            "stop&go", "stall cycles"});
        for (const CoreResult &cr : r.cores)
            cores_table.row(
                {std::to_string(cr.core),
                 TablePrinter::num(cr.peakTempOverall),
                 blockName(cr.hottestBlock),
                 std::to_string(cr.emergencies),
                 std::to_string(cr.stopAndGoTriggers),
                 std::to_string(cr.coolingStallCycles)});
        std::printf("\n");
    }
    TablePrinter table(std::cout);
    std::vector<std::string> head{"thread", "program", "IPC",
                                  "IntReg/cyc", "normal%", "cooling%",
                                  "sedated%"};
    if (r.numCores > 1)
        head.insert(head.begin() + 1, "core");
    table.header(head);
    for (size_t t = 0; t < r.threads.size(); ++t) {
        const ThreadResult &tr = r.threads[t];
        std::vector<std::string> row{
            std::to_string(t), tr.program, TablePrinter::num(tr.ipc),
            TablePrinter::num(tr.intRegAccessRate),
            TablePrinter::num(r.normalFraction(t) * 100, 1),
            TablePrinter::num(r.coolingFraction(t) * 100, 1),
            TablePrinter::num(r.sedationFraction(t) * 100, 1)};
        if (r.numCores > 1)
            row.insert(row.begin() + 1, std::to_string(tr.core));
        table.row(row);
    }
    if (!r.sedationEvents.empty()) {
        std::printf("%zu sedation action(s); first at cycle %llu "
                    "(thread %d, %s)\n",
                    r.sedationEvents.size(),
                    static_cast<unsigned long long>(
                        r.sedationEvents[0].cycle),
                    r.sedationEvents[0].thread,
                    blockName(r.sedationEvents[0].resource));
    }
    for (ThreadId t : r.descheduledThreads)
        std::printf("OS descheduled repeat offender: thread %d\n", t);
}

/** Cost-centre table for --profile (fed by Simulator::profile()). */
void
printProfile(const SimProfile &p)
{
    uint64_t cycles = p.tickedCycles + p.stalledCycles;
    auto cycle_share = [&](uint64_t c) {
        return cycles ? 100.0 * static_cast<double>(c) /
                            static_cast<double>(cycles)
                      : 0.0;
    };
    auto time_share = [&](double s) {
        return p.totalSeconds > 0 ? 100.0 * s / p.totalSeconds : 0.0;
    };
    std::printf("\nprofile: %.3f s wall for %llu cycles\n",
                p.totalSeconds,
                static_cast<unsigned long long>(cycles));
    TablePrinter table(std::cout);
    table.header({"cost centre", "events", "cycles", "cyc%", "seconds",
                  "time%"});
    table.row({"tick",
               TablePrinter::num(static_cast<double>(p.tickedCycles), 0),
               TablePrinter::num(static_cast<double>(p.tickedCycles), 0),
               TablePrinter::num(cycle_share(p.tickedCycles), 1),
               TablePrinter::num(p.tickSeconds, 3),
               TablePrinter::num(time_share(p.tickSeconds), 1)});
    table.row({"thermal",
               TablePrinter::num(static_cast<double>(p.sensorSamples), 0),
               "-", "-",
               TablePrinter::num(p.thermalSeconds, 3),
               TablePrinter::num(time_share(p.thermalSeconds), 1)});
    table.row({"stalled",
               TablePrinter::num(static_cast<double>(p.stalledCycles), 0),
               TablePrinter::num(static_cast<double>(p.stalledCycles), 0),
               TablePrinter::num(cycle_share(p.stalledCycles), 1),
               TablePrinter::num(p.stallSeconds, 3),
               TablePrinter::num(time_share(p.stallSeconds), 1)});
    table.row({"snapshot",
               TablePrinter::num(static_cast<double>(p.snapshotOps), 0),
               "-", "-",
               TablePrinter::num(p.snapshotSeconds, 3),
               TablePrinter::num(time_share(p.snapshotSeconds), 1)});
    std::printf("rows: tick = cycle-by-cycle execution, including idle "
                "stretches skipped exactly,\nthermal = sensor sampling + "
                "RC step, stalled = cycles with every core stalled,\n"
                "snapshot = save/restore byte copies.\n");
}

/** Open @p path for writing, with "-" meaning stdout. */
void
withOutput(const std::string &path,
           const std::function<void(std::ostream &)> &fn)
{
    if (path == "-") {
        fn(std::cout);
        return;
    }
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    fn(out);
    std::printf("wrote %s\n", path.c_str());
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cl(argc, argv, knobTable());
    if (cl.has("--list")) {
        for (const SpecProfile &p : specSuite())
            std::printf("%s\n", p.name.c_str());
        return 0;
    }
    const unsigned mode = cl.has("--serve") ? kModeServe
                          : cl.has("--stats") || cl.has("--profile")
                              ? kModeSingle
                          : cl.has("--each") ? kModeEach
                                             : kModeEngine;
    cl.requireMode(mode);
    if (mode == kModeServe) {
        // A worker takes its RunSpecs from the coordinator; its
        // operational log is what the fleet view wants.
        if (cl.has("--log-json"))
            openJsonLog(cl.text("--log-json"));
        serveWorker(static_cast<uint16_t>(cl.integer("--serve")));
        closeJsonLog();
        return 0;
    }

    std::vector<WorkloadSpec> workloads;
    for (const auto &[knob, value] : cl.given()) {
        std::string_view flag = knob->flag;
        if (flag == "--spec")
            workloads.push_back(WorkloadSpec::spec(value));
        else if (flag == "--variant")
            workloads.push_back(
                WorkloadSpec::maliciousVariant(std::stoi(value)));
        else if (flag == "--asm")
            workloads.push_back(loadAsm(value));
    }
    if (workloads.empty())
        cl.fail("no workloads given; try --spec gcc --variant 2");

    RunSpec base; // every cell's settings
    ExperimentOptions &opts = base.opts;
    opts.timeScale = cl.number("--scale");
    static const std::map<std::string, DtmMode> dtm_modes = {
        {"none", DtmMode::None}, {"stopgo", DtmMode::StopAndGo},
        {"stop-and-go", DtmMode::StopAndGo},
        {"sedation", DtmMode::SelectiveSedation},
        {"dvfs", DtmMode::DvfsThrottle}, {"fetchgate", DtmMode::FetchGating},
        {"fetch-gating", DtmMode::FetchGating}};
    opts.dtm = dtm_modes.at(cl.text("--dtm"));
    opts.sink = cl.text("--sink") == "ideal" ? SinkType::Ideal
                                             : SinkType::Realistic;
    opts.convectionR = cl.number("--conv");
    opts.upperThreshold = cl.number("--upper");
    opts.lowerThreshold = cl.number("--lower");
    // A traced run should be enough for hs_report on its own, so it
    // also carries the temperature time series.
    opts.recordTempTrace = cl.has("--trace") || cl.has("--temp-trace");
    base.sensorNoiseK = cl.number("--noise");
    base.descheduleAfter = cl.integer("--deschedule");
    base.numCores = cl.integer("--cores");
    const bool dump_stats = cl.has("--stats");
    const bool profile = cl.has("--profile");
    const std::string trace_path = cl.text("--trace");
    const std::string temp_trace_path = cl.text("--temp-trace");
    const std::string json_path = cl.text("--json");
    const std::string csv_path = cl.text("--csv");

    std::vector<int> place;
    if (cl.has("--place")) {
        const std::string list = cl.text("--place");
        const Knob entry{.type = KnobType::Int, .min = 0,
                         .max = static_cast<double>(base.numCores - 1)};
        for (size_t pos = 0;;) {
            size_t comma = list.find(',', pos);
            double core = 0;
            std::string why;
            if (!knobParse(entry, list.substr(pos, comma - pos), core,
                           why))
                cl.badValue("--place");
            place.push_back(static_cast<int>(core));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        if (place.size() != workloads.size())
            cl.fail("--place needs one core per workload");
    }
    uint32_t trace_mask = traceAllCategories;
    if (cl.has("--trace-filter")) {
        if (!cl.has("--trace"))
            cl.fail("--trace-filter requires --trace");
        if (!parseTraceFilter(cl.text("--trace-filter"), trace_mask))
            cl.badValue("--trace-filter");
    }
    std::vector<Endpoint> worker_endpoints;
    if (cl.has("--workers") &&
        !parseEndpoints(cl.text("--workers"), worker_endpoints))
        cl.badValue("--workers");

    // Declare the run matrix: one co-scheduled mix, or (--each) one
    // solo run per workload.
    std::vector<RunSpec> specs;
    if (mode == kModeEach) {
        for (const WorkloadSpec &w : workloads) {
            RunSpec s = base;
            s.workloads.push_back(w);
            s.label = w.name;
            specs.push_back(s);
        }
    } else {
        RunSpec s = base;
        s.workloads = workloads;
        s.traceEvents = !trace_path.empty();
        s.placement = place;
        s.label = "mix";
        specs.push_back(s);
    }

    // The engine modes' persistent store, and one structured event
    // stream, opened before any engine work so every lifecycle event
    // lands in it: the operational log is also the campaign timeline
    // hs_report renders. A store keeps it by default; HS_LOG_JSON
    // alone opens lazily, at the first event.
    std::unique_ptr<DiskResultStore> cli_store;
    if (mode != kModeSingle && !cl.text("--store").empty())
        cli_store = std::make_unique<DiskResultStore>(cl.text("--store"));
    if (cl.has("--log-json"))
        openJsonLog(cl.text("--log-json"));
    else if (cli_store && cl.text("--log-json").empty())
        openJsonLog(cli_store->dir() + "/events.jsonl");

    std::vector<RunResult> results;
    PrefixShareStats engine_stats;
    Histogram cell_seconds;
    // Single mode runs outside the engine: no engine.* metrics.
    RunMetrics metrics;
    if (mode == kModeSingle) {
        // The statistics/profile dumps need the live simulator, so
        // this path runs serially outside the engine.
        std::unique_ptr<Simulator> sim = makeSimulator(specs[0]);
        sim->setProfiling(profile);
        results.push_back(sim->run());
        printRun(specs[0], results[0]);
        if (dump_stats)
            sim->dumpStats(std::cout);
        if (profile)
            printProfile(sim->profile());
    } else {
        DiskResultStore *disk = cli_store.get();
        ParallelRunner runner(cl.integer("--jobs"),
                              &ResultStore::global());
        // Live status renders the runner's own cell tally.
        std::unique_ptr<StatusServer> status;
        if (const auto sport =
                static_cast<uint16_t>(cl.integer("--status-port")))
            status = std::make_unique<StatusServer>(sport, runner);
        if (disk) {
            ResultStore::global().attachDisk(disk);
            startCampaign(*disk, specs);
        }
        if (!worker_endpoints.empty())
            runner.setWorkers(worker_endpoints);
        std::unique_ptr<ProgressReporter> reporter;
        if (cl.has("--progress")) {
            ProgressOptions popts;
            popts.ansi = streamIsTty(stderr);
            reporter = std::make_unique<ProgressReporter>(
                specs.size(), runner.jobs(), popts);
            runner.setCellObserver([&](const CellEvent &ev) {
                reporter->onEvent(ev);
            });
        }
        results = runner.run(specs);
        if (reporter)
            reporter->finish();
        cell_seconds = runner.tally().cellSeconds;
        for (size_t i = 0; i < specs.size(); ++i) {
            if (i)
                std::printf("\n");
            printRun(specs[i], results[i]);
        }
        engine_stats = runner.prefixStats();
        metrics = {&engine_stats, &cell_seconds};
        if (engine_stats.groups > 0)
            std::printf("\nprefix sharing: %llu group(s), %llu forked "
                        "run(s), %.1f Mcycles not re-simulated\n",
                        static_cast<unsigned long long>(
                            engine_stats.groups),
                        static_cast<unsigned long long>(
                            engine_stats.forkedRuns),
                        static_cast<double>(engine_stats.savedCycles) /
                            1e6);
        if (disk)
            std::printf("\nstore %s: %llu disk hit(s), %llu "
                        "write(s), %llu corrupt record(s) "
                        "recomputed\n",
                        disk->dir().c_str(),
                        static_cast<unsigned long long>(disk->hits()),
                        static_cast<unsigned long long>(
                            disk->writes()),
                        static_cast<unsigned long long>(
                            disk->corrupt()));
        if (!worker_endpoints.empty()) {
            RemoteStats rs = runner.remoteStats();
            std::printf("\nremote: %llu/%zu worker(s) connected, "
                        "%llu cell(s) simulated remotely, %llu "
                        "requeued locally\n",
                        static_cast<unsigned long long>(rs.workers),
                        worker_endpoints.size(),
                        static_cast<unsigned long long>(
                            rs.remoteCells),
                        static_cast<unsigned long long>(
                            rs.requeuedCells));
            for (const WorkerTelemetry &wt : rs.perWorker)
                std::printf("  worker %s: %llu job(s), %.2fs sim, "
                            "%llu heartbeat(s), %.1f KiB snapshot "
                            "sent, %.1f KiB saved, peak rss %llu "
                            "MiB\n",
                            wt.endpoint.c_str(),
                            static_cast<unsigned long long>(wt.jobs),
                            wt.simSeconds,
                            static_cast<unsigned long long>(
                                wt.heartbeats),
                            static_cast<double>(wt.snapshotBytesSent) /
                                1024.0,
                            static_cast<double>(
                                wt.snapshotBytesSaved) /
                                1024.0,
                            static_cast<unsigned long long>(
                                wt.peakRssKb / 1024));
        }
    }

    if (!temp_trace_path.empty()) {
        const RunResult &r = results[0];
        std::ofstream csv(temp_trace_path);
        csv << "cycle,intreg_K,hottest_K,sink_K\n";
        for (const TempSample &s : r.tempTrace)
            csv << s.cycle << "," << s.intRegTemp << ","
                << s.hottestTemp << "," << s.sinkTemp << "\n";
        std::printf("wrote %zu trace samples to %s\n",
                    r.tempTrace.size(), temp_trace_path.c_str());
    }
    if (!trace_path.empty()) {
        const RunResult &r = results[0];
        withOutput(trace_path, [&](std::ostream &os) {
            if (endsWith(trace_path, ".jsonl")) {
                writeTraceJsonl(os, r.traceEvents, trace_mask);
            } else {
                double cycles_per_us =
                    makeSimConfig(opts).energy.frequencyHz / 1e6;
                writeChromeTrace(os, r.traceEvents, cycles_per_us,
                                 trace_mask);
            }
        });
        std::printf("%zu trace event(s), %llu dropped\n",
                    r.traceEvents.size(),
                    static_cast<unsigned long long>(
                        r.traceEventsDropped));
    }
    if (!json_path.empty())
        withOutput(json_path, [&](std::ostream &os) {
            writeMatrixJson(os, specs, results, &metrics);
        });
    if (!csv_path.empty())
        withOutput(csv_path, [&](std::ostream &os) {
            writeMatrixCsv(os, specs, results);
        });
    closeJsonLog();
    return 0;
}
