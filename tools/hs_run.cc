/**
 * @file
 * hs_run — command-line driver for the heat-stroke simulator.
 *
 * Runs an arbitrary workload mix for one OS quantum and prints the
 * per-thread results plus (optionally) the full statistics dump, a
 * temperature-trace CSV, a structured event trace (JSONL or Chrome
 * trace_event JSON), or a structured JSON/CSV result file. With --each
 * the workloads become independent solo runs executed by the parallel
 * experiment engine.
 *
 * Usage:
 *   hs_run [options]
 * Options (values as "--opt VALUE" or "--opt=VALUE"):
 *   --spec NAME          add a synthetic SPEC thread (repeatable)
 *   --variant N          add malicious variant N in {1..4} (repeatable)
 *   --asm FILE           add a thread assembled from FILE (repeatable)
 *   --each               run each workload as its own solo quantum
 *                        (a RunSpec matrix) instead of co-scheduled
 *   --cores N            compose N core tiles on one shared die
 *                        (default 1; see docs/TOPOLOGY.md)
 *   --place a,b,...      core of each workload in listing order
 *                        (entries in [0,cores); default: all on
 *                        core 0; needs --cores, not with --each)
 *   --jobs N             engine worker threads (default: HS_JOBS or
 *                        all hardware threads)
 *   --store DIR          persistent content-addressed result store:
 *                        finished cells are written to DIR and later
 *                        runs (any process, any machine sharing DIR)
 *                        serve them from disk instead of simulating;
 *                        a campaign manifest (DIR/manifest.hsm) makes
 *                        interrupted sweeps resumable
 *                        (default: HS_STORE; see docs/DISTRIBUTED.md)
 *   --serve PORT         run as a TCP worker: listen on PORT, execute
 *                        RunSpecs a coordinator ships, stream results
 *                        back (no workloads on the command line)
 *   --workers LIST       shard cells across TCP workers, e.g.
 *                        "host:7401,host:7402"; each worker is one
 *                        extra engine lane, with local fallback when
 *                        a worker dies
 *   --log-json FILE      write the structured operational log (one
 *                        JSON object per line; see
 *                        docs/OBSERVABILITY.md) to FILE; same sink
 *                        as HS_LOG_JSON, the flag wins
 *   --events FILE        write the campaign timeline — runner cell
 *                        lifecycle plus fleet telemetry events — to
 *                        FILE for hs_report --events (default:
 *                        <store>/events.jsonl when --store is set)
 *   --status-port P      serve live Prometheus-style campaign
 *                        counters over HTTP on port P while the
 *                        engine runs (HS_STATUS_PORT; the flag wins)
 *   --json FILE          write specs + results + metrics as JSON
 *                        ("-" = stdout)
 *   --csv FILE           write per-thread results as CSV ("-" = stdout)
 *   --dtm MODE           none|stopgo|sedation|dvfs|fetchgate
 *                        (default stopgo)
 *   --sink ideal|real    heat sink model (default real)
 *   --scale S            time scale (default 50; 1 = paper scale)
 *   --conv R             convection resistance K/W (default 0.8)
 *   --upper K --lower K  sedation thresholds (default 356 / 355)
 *   --noise K            sensor noise amplitude (default 0)
 *   --deschedule N       OS extension: deschedule after N reports
 *   --progress           live engine status on stderr: completed/total
 *                        cells, ETA from the cell-time histogram, and
 *                        a slow-cell watchdog (HS_WATCHDOG multiple of
 *                        the median). Single-line redraw on a TTY,
 *                        plain periodic lines otherwise.
 *   --trace FILE         write the structured event trace (single run
 *                        only); *.jsonl = one JSON object per line,
 *                        anything else = Chrome trace_event JSON
 *                        (load in chrome://tracing or Perfetto).
 *                        Implies the temperature trace, so a single
 *                        --trace --json run carries everything
 *                        hs_report needs.
 *   --trace-filter CATS  comma list of categories to write
 *                        (dtm,thermal,monitor,fetch,episode)
 *   --temp-trace FILE    write temperature trace CSV (single run only)
 *   --stats              dump full statistics (single run only)
 *   --profile            print per-cost-centre cycle/time shares
 *                        (single run only)
 *   --list               list available SPEC profiles and exit
 *   --help, -h           print the usage text to stdout and exit 0
 *
 * Every argument must parse exactly: unknown options, missing or
 * malformed values, and trailing garbage all exit 2 via usage().
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/disk_store.hh"
#include "sim/manifest.hh"
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

/** Print the usage text and exit with @p code: 0 (asked for with
 *  --help) prints to stdout, anything else to stderr. */
[[noreturn]] void
usage(const char *argv0, int code = 2)
{
    std::fprintf(code == 0 ? stdout : stderr,
                 "usage: %s [--spec NAME]... [--variant N]... "
                 "[--asm FILE]...\n"
                 "       [--each] [--cores N] [--place a,b,...] "
                 "[--jobs N] [--json FILE] [--csv FILE]\n"
                 "       [--store DIR] [--serve PORT] "
                 "[--workers host:port,...]\n"
                 "       [--log-json FILE] [--events FILE] "
                 "[--status-port PORT]\n"
                 "       [--dtm none|stopgo|sedation|dvfs|fetchgate] "
                 "[--sink ideal|real]\n"
                 "       [--scale S] [--conv R] [--upper K] "
                 "[--lower K] [--noise K]\n"
                 "       [--deschedule N] [--progress] [--trace FILE] "
                 "[--trace-filter CAT,...]\n"
                 "       [--temp-trace FILE] [--stats] [--profile] "
                 "[--list] [--help]\n",
                 argv0);
    std::exit(code);
}

/** Report a bad option value and exit through usage(). */
[[noreturn]] void
badValue(const char *argv0, const std::string &opt,
         const std::string &value, const char *expected)
{
    std::fprintf(stderr, "%s: bad value '%s' for %s (expected %s)\n",
                 argv0, value.c_str(), opt.c_str(), expected);
    usage(argv0);
}

/** Strict integer parse: the whole string must be consumed. */
long
parseInt(const char *argv0, const std::string &opt,
         const std::string &value)
{
    const char *s = value.c_str();
    char *end = nullptr;
    long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0')
        badValue(argv0, opt, value, "an integer");
    return v;
}

/** Strict floating-point parse: the whole string must be consumed. */
double
parseDouble(const char *argv0, const std::string &opt,
            const std::string &value)
{
    const char *s = value.c_str();
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0')
        badValue(argv0, opt, value, "a number");
    return v;
}

bool
parseDtm(const std::string &s, DtmMode &out)
{
    if (s == "none")
        out = DtmMode::None;
    else if (s == "stopgo" || s == "stop-and-go")
        out = DtmMode::StopAndGo;
    else if (s == "sedation")
        out = DtmMode::SelectiveSedation;
    else if (s == "dvfs")
        out = DtmMode::DvfsThrottle;
    else if (s == "fetchgate" || s == "fetch-gating")
        out = DtmMode::FetchGating;
    else
        return false;
    return true;
}

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
    std::printf("rows: tick = cycle-by-cycle execution, thermal = "
                "sensor sampling + RC step,\nstalled = advanceStalled "
                "fast-forward, snapshot = save/restore byte copies.\n");
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

/**
 * Live campaign counters fed by the structured-log observer and served
 * by --status-port. Pure observability: bumped off the simulated path,
 * read lock-free by the status thread.
 */
struct StatusCounters
{
    std::atomic<uint64_t> cellsTotal{0};
    std::atomic<uint64_t> cellsRunning{0};
    std::atomic<uint64_t> cellsDone{0};
    std::atomic<uint64_t> memoryHits{0};
    std::atomic<uint64_t> diskHits{0};
    std::atomic<uint64_t> remoteCells{0};
    std::atomic<uint64_t> faultFires{0};
    std::atomic<uint64_t> heartbeats{0};
};

/** Prometheus text-format snapshot of @p c. */
std::string
renderStatus(const StatusCounters &c)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "hs_cells_total %llu\n"
        "hs_cells_running %llu\n"
        "hs_cells_done %llu\n"
        "hs_hits_memory %llu\n"
        "hs_hits_disk %llu\n"
        "hs_cells_remote %llu\n"
        "hs_fault_fires %llu\n"
        "hs_worker_heartbeats %llu\n",
        static_cast<unsigned long long>(c.cellsTotal.load()),
        static_cast<unsigned long long>(c.cellsRunning.load()),
        static_cast<unsigned long long>(c.cellsDone.load()),
        static_cast<unsigned long long>(c.memoryHits.load()),
        static_cast<unsigned long long>(c.diskHits.load()),
        static_cast<unsigned long long>(c.remoteCells.load()),
        static_cast<unsigned long long>(c.faultFires.load()),
        static_cast<unsigned long long>(c.heartbeats.load()));
    return buf;
}

/** Fold one structured-log event into the live counters. */
void
countEvent(StatusCounters &c, const LogEventView &v)
{
    if (std::strcmp(v.component, "runner") == 0) {
        if (std::strcmp(v.event, "queued") == 0) {
            c.cellsTotal.fetch_add(1);
        } else if (std::strcmp(v.event, "started") == 0) {
            c.cellsRunning.fetch_add(1);
        } else if (std::strcmp(v.event, "finished") == 0) {
            c.cellsRunning.fetch_sub(1);
            c.cellsDone.fetch_add(1);
        } else if (std::strcmp(v.event, "remote_finished") == 0) {
            c.cellsRunning.fetch_sub(1);
            c.cellsDone.fetch_add(1);
            c.remoteCells.fetch_add(1);
        } else if (std::strcmp(v.event, "cache_hit") == 0) {
            c.memoryHits.fetch_add(1);
            c.cellsDone.fetch_add(1);
        } else if (std::strcmp(v.event, "disk_hit") == 0) {
            c.diskHits.fetch_add(1);
            c.cellsDone.fetch_add(1);
        }
    } else if (std::strcmp(v.component, "fault") == 0) {
        if (std::strcmp(v.event, "fire") == 0)
            c.faultFires.fetch_add(1);
    } else if (std::strcmp(v.component, "remote") == 0) {
        if (std::strcmp(v.event, "heartbeat") == 0)
            c.heartbeats.fetch_add(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<WorkloadSpec> workloads;
    ExperimentOptions opts;
    opts.timeScale = envTimeScale(50.0);
    opts.dtm = DtmMode::StopAndGo;
    double noise = 0.0;
    int deschedule = 0;
    int jobs = 0;
    std::string store_path;
    int serve_port = 0; // 0 = not a worker
    std::vector<Endpoint> worker_endpoints;
    bool each = false;
    int cores = 1;
    std::vector<int> place;
    bool have_place = false;
    std::string temp_trace_path, trace_path, trace_filter;
    std::string json_path, csv_path;
    std::string log_json_path, events_path;
    int status_port = 0; // 0 = no status server (or HS_STATUS_PORT)
    bool dump_stats = false;
    bool profile = false;
    bool progress = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both "--opt VALUE" and "--opt=VALUE".
        std::string inline_value;
        bool has_inline = false;
        if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
            size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg = arg.substr(0, eq);
                has_inline = true;
            }
        }
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                             arg.c_str());
                usage(argv[0]);
            }
            return argv[++i];
        };
        auto flagOnly = [&]() {
            if (has_inline) {
                std::fprintf(stderr, "%s: %s takes no value\n", argv[0],
                             arg.c_str());
                usage(argv[0]);
            }
        };

        if (arg == "--spec") {
            workloads.push_back(WorkloadSpec::spec(value()));
        } else if (arg == "--variant") {
            std::string v = value();
            long n = parseInt(argv[0], arg, v);
            if (n < 1 || n > 4)
                badValue(argv[0], arg, v, "1..4");
            workloads.push_back(
                WorkloadSpec::maliciousVariant(static_cast<int>(n)));
        } else if (arg == "--asm") {
            workloads.push_back(loadAsm(value()));
        } else if (arg == "--each") {
            flagOnly();
            each = true;
        } else if (arg == "--cores") {
            std::string v = value();
            long n = parseInt(argv[0], arg, v);
            if (n < 1)
                badValue(argv[0], arg, v, "a positive integer");
            cores = static_cast<int>(n);
        } else if (arg == "--place") {
            std::string v = value();
            place.clear();
            have_place = true;
            size_t pos = 0;
            while (true) {
                size_t comma = v.find(',', pos);
                std::string item = v.substr(
                    pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
                long n = parseInt(argv[0], arg, item);
                place.push_back(static_cast<int>(n));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        } else if (arg == "--jobs") {
            std::string v = value();
            long n = parseInt(argv[0], arg, v);
            if (n <= 0)
                badValue(argv[0], arg, v, "a positive integer");
            jobs = static_cast<int>(n);
        } else if (arg == "--store") {
            store_path = value();
            if (store_path.empty())
                badValue(argv[0], arg, store_path, "a directory path");
        } else if (arg == "--serve") {
            std::string v = value();
            long n = parseInt(argv[0], arg, v);
            if (n < 1 || n > 65535)
                badValue(argv[0], arg, v, "a port in 1..65535");
            serve_port = static_cast<int>(n);
        } else if (arg == "--workers") {
            std::string v = value();
            if (!parseEndpoints(v, worker_endpoints))
                badValue(argv[0], arg, v,
                         "a comma list of host:port endpoints");
        } else if (arg == "--log-json") {
            log_json_path = value();
            if (log_json_path.empty())
                badValue(argv[0], arg, log_json_path, "a file path");
        } else if (arg == "--events") {
            events_path = value();
            if (events_path.empty())
                badValue(argv[0], arg, events_path, "a file path");
        } else if (arg == "--status-port") {
            std::string v = value();
            long n = parseInt(argv[0], arg, v);
            if (n < 1 || n > 65535)
                badValue(argv[0], arg, v, "a port in 1..65535");
            status_port = static_cast<int>(n);
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--csv") {
            csv_path = value();
        } else if (arg == "--dtm") {
            std::string v = value();
            if (!parseDtm(v, opts.dtm))
                badValue(argv[0], arg, v,
                         "none|stopgo|sedation|dvfs|fetchgate");
        } else if (arg == "--sink") {
            std::string v = value();
            if (v == "ideal")
                opts.sink = SinkType::Ideal;
            else if (v == "real")
                opts.sink = SinkType::Realistic;
            else
                badValue(argv[0], arg, v, "ideal|real");
        } else if (arg == "--scale") {
            std::string v = value();
            opts.timeScale = parseDouble(argv[0], arg, v);
            if (opts.timeScale <= 0)
                badValue(argv[0], arg, v, "a positive number");
        } else if (arg == "--conv") {
            std::string v = value();
            opts.convectionR = parseDouble(argv[0], arg, v);
            if (opts.convectionR <= 0)
                badValue(argv[0], arg, v, "a positive number");
        } else if (arg == "--upper") {
            opts.upperThreshold = parseDouble(argv[0], arg, value());
        } else if (arg == "--lower") {
            opts.lowerThreshold = parseDouble(argv[0], arg, value());
        } else if (arg == "--noise") {
            std::string v = value();
            noise = parseDouble(argv[0], arg, v);
            if (noise < 0)
                badValue(argv[0], arg, v, "a non-negative number");
        } else if (arg == "--deschedule") {
            std::string v = value();
            long n = parseInt(argv[0], arg, v);
            if (n < 0)
                badValue(argv[0], arg, v, "a non-negative integer");
            deschedule = static_cast<int>(n);
        } else if (arg == "--progress") {
            flagOnly();
            progress = true;
        } else if (arg == "--trace") {
            trace_path = value();
            // A traced run should be enough for hs_report on its own,
            // so it also carries the temperature time series.
            opts.recordTempTrace = true;
        } else if (arg == "--trace-filter") {
            trace_filter = value();
        } else if (arg == "--temp-trace") {
            temp_trace_path = value();
            opts.recordTempTrace = true;
        } else if (arg == "--stats") {
            flagOnly();
            dump_stats = true;
        } else if (arg == "--profile") {
            flagOnly();
            profile = true;
        } else if (arg == "--list") {
            flagOnly();
            for (const SpecProfile &p : specSuite())
                std::printf("%s\n", p.name.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            flagOnly();
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                         argv[i]);
            usage(argv[0]);
        }
    }
    if (serve_port > 0) {
        // A worker is pure transport + compute: it takes its RunSpecs
        // from the coordinator, so a command line that also declares
        // local work is a confused command line. --log-json stays
        // legal: a worker's operational log is exactly what the fleet
        // view wants.
        if (!workloads.empty() || !worker_endpoints.empty() || each ||
            dump_stats || profile || progress || !json_path.empty() ||
            !csv_path.empty() || !trace_path.empty() ||
            !temp_trace_path.empty() || !events_path.empty() ||
            status_port > 0) {
            std::fprintf(stderr,
                         "%s: --serve runs a bare worker; drop "
                         "workloads and output options\n",
                         argv[0]);
            usage(argv[0]);
        }
        if (!log_json_path.empty())
            openJsonLog(log_json_path);
        serveWorker(static_cast<uint16_t>(serve_port));
        closeJsonLog();
        return 0;
    }
    if (workloads.empty()) {
        std::fprintf(stderr, "no workloads given; try --spec gcc "
                             "--variant 2\n");
        usage(argv[0]);
    }
    if (have_place) {
        if (each) {
            std::fprintf(stderr,
                         "%s: --place maps one co-scheduled mix; drop "
                         "--each\n",
                         argv[0]);
            usage(argv[0]);
        }
        if (place.size() != workloads.size()) {
            std::fprintf(stderr,
                         "%s: --place lists %zu cores for %zu "
                         "workloads\n",
                         argv[0], place.size(), workloads.size());
            usage(argv[0]);
        }
        for (int c : place) {
            if (c < 0 || c >= cores) {
                std::fprintf(stderr,
                             "%s: --place entry %d is outside [0, %d); "
                             "raise --cores\n",
                             argv[0], c, cores);
                usage(argv[0]);
            }
        }
    }
    uint32_t trace_mask = traceAllCategories;
    if (!trace_filter.empty()) {
        if (trace_path.empty()) {
            std::fprintf(stderr,
                         "%s: --trace-filter requires --trace\n",
                         argv[0]);
            usage(argv[0]);
        }
        if (!parseTraceFilter(trace_filter, trace_mask))
            badValue(argv[0], "--trace-filter", trace_filter,
                     "a comma list of "
                     "dtm,thermal,monitor,fetch,episode");
    }

    // Declare the run matrix: one co-scheduled mix, or (--each) one
    // solo run per workload.
    std::vector<RunSpec> specs;
    if (each) {
        if (dump_stats || profile || !temp_trace_path.empty() ||
            !trace_path.empty()) {
            std::fprintf(stderr,
                         "%s: --stats/--profile/--trace/--temp-trace "
                         "apply to a single run; drop --each\n",
                         argv[0]);
            usage(argv[0]);
        }
        for (const WorkloadSpec &w : workloads) {
            RunSpec s;
            s.workloads.push_back(w);
            s.opts = opts;
            s.sensorNoiseK = noise;
            s.descheduleAfter = deschedule;
            s.numCores = cores;
            s.label = w.name;
            specs.push_back(s);
        }
    } else {
        RunSpec s;
        s.workloads = workloads;
        s.opts = opts;
        s.sensorNoiseK = noise;
        s.descheduleAfter = deschedule;
        s.traceEvents = !trace_path.empty();
        s.numCores = cores;
        s.placement = place;
        s.label = "mix";
        specs.push_back(s);
    }

    if (!log_json_path.empty())
        openJsonLog(log_json_path);

    StatusCounters counters;
    std::ofstream events_out;
    std::atomic<uint64_t> events_written{0};
    std::unique_ptr<StatusServer> status;

    std::vector<RunResult> results;
    PrefixShareStats engine_stats;
    bool have_engine_stats = false;
    Histogram cell_seconds;
    std::unique_ptr<DiskResultStore> cli_store;
    if (dump_stats || profile) {
        if (progress) {
            std::fprintf(stderr,
                         "%s: --progress needs the engine; drop "
                         "--stats/--profile\n",
                         argv[0]);
            usage(argv[0]);
        }
        if (!worker_endpoints.empty() || !store_path.empty()) {
            std::fprintf(stderr,
                         "%s: --workers/--store need the engine; drop "
                         "--stats/--profile\n",
                         argv[0]);
            usage(argv[0]);
        }
        if (!events_path.empty() || status_port > 0) {
            std::fprintf(stderr,
                         "%s: --events/--status-port need the engine; "
                         "drop --stats/--profile\n",
                         argv[0]);
            usage(argv[0]);
        }
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
        DiskResultStore *disk = nullptr;
        if (!store_path.empty()) {
            cli_store = std::make_unique<DiskResultStore>(store_path);
            disk = cli_store.get();
        } else {
            disk = envDiskStore();
        }

        // Campaign timeline + live status: both are one observer tee
        // on the structured log, installed before any engine work so
        // every lifecycle event lands in the timeline.
        if (events_path.empty() && disk)
            events_path = disk->dir() + "/events.jsonl";
        uint16_t sport = status_port > 0
                             ? static_cast<uint16_t>(status_port)
                             : envStatusPort();
        if (!events_path.empty() || sport > 0) {
            if (!events_path.empty()) {
                events_out.open(events_path);
                if (!events_out)
                    fatal("cannot write '%s'", events_path.c_str());
            }
            setLogEventObserver([&](const LogEventView &v) {
                if (events_out.is_open()) {
                    events_out << v.jsonLine() << '\n';
                    events_out.flush();
                    events_written.fetch_add(1);
                }
                countEvent(counters, v);
            });
        }
        if (sport > 0)
            status = std::make_unique<StatusServer>(
                sport, [&counters] { return renderStatus(counters); });

        if (disk) {
            ResultStore::global().attachDisk(disk);
            // Campaign manifest: persist the matrix identity before
            // any cell simulates, so an interrupted sweep restarted
            // with the same command line resumes the missing cells.
            CampaignResume resume = prepareCampaign(*disk, specs);
            if (resume.resumed) {
                std::fprintf(stderr,
                             "[campaign] resuming: %llu of %llu cells "
                             "already stored\n",
                             static_cast<unsigned long long>(
                                 resume.storedCells),
                             static_cast<unsigned long long>(
                                 resume.totalCells));
                logEvent("runner", "campaign_resumed",
                         {LogField::num("stored", resume.storedCells),
                          LogField::num("total", resume.totalCells)});
            }
        }

        int engine_jobs = jobs > 0 ? jobs : envJobs(0);
        ParallelRunner runner(engine_jobs, &ResultStore::global());
        if (!worker_endpoints.empty())
            runner.setWorkers(worker_endpoints);
        std::unique_ptr<ProgressReporter> reporter;
        if (progress) {
            ProgressOptions popts;
            popts.ansi = streamIsTty(stderr);
            popts.watchdogFactor = envWatchdogFactor();
            reporter = std::make_unique<ProgressReporter>(
                specs.size(), runner.jobs(), popts);
            runner.setCellObserver([&](const CellEvent &ev) {
                reporter->onEvent(ev);
            });
        }
        results = runner.run(specs);
        if (reporter)
            reporter->finish();
        cell_seconds = runner.cellSecondsHistogram();
        for (size_t i = 0; i < specs.size(); ++i) {
            if (i)
                std::printf("\n");
            printRun(specs[i], results[i]);
        }
        engine_stats = runner.prefixStats();
        have_engine_stats = true;
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

    // Tear the observability tee down before its capture targets go
    // out of scope; everything after this point is plain output.
    status.reset();
    setLogEventObserver(nullptr);
    if (events_out.is_open()) {
        events_out.close();
        std::printf("wrote %llu event(s) to %s\n",
                    static_cast<unsigned long long>(
                        events_written.load()),
                    events_path.c_str());
    }

    foldRunMetrics(MetricsRegistry::global(), results,
                   have_engine_stats ? &engine_stats : nullptr,
                   have_engine_stats ? &cell_seconds : nullptr);

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
            writeMatrixJson(os, specs, results,
                            &MetricsRegistry::global());
        });
    if (!csv_path.empty())
        withOutput(csv_path, [&](std::ostream &os) {
            writeMatrixCsv(os, specs, results);
        });
    closeJsonLog();
    return 0;
}
