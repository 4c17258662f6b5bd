/**
 * @file
 * hs_perfbench: the repository benchmark driver.
 *
 *   hs_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                [--scale X] [--inject-mismatch] [--work-dir DIR]
 *                [--git-rev REV] [--src-digest HEX]
 *
 * Runs one workload (attack_matrix, policy_sweep, campaign_cold,
 * store_warm) for about S seconds and prints, in order: one
 * `metric NAME = VALUE UNIT` line per reported metric, a `provenance`
 * line with the machine and run facts behind the numbers, and as the
 * last line one JSON object {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end set, with
 * --trace 1 the per-layer set. Exits 1 when any output was wrong, 2 on
 * a usage error.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "common/log.hh"

using namespace hsbench;

namespace {

/** Every per-layer row a traced run must emit. */
const char *const kLayerNames[] = {
    "smt.tick_s", "smt.tick_mcps",
    "thermal.sample_s", "thermal.samples", "thermal.step_us",
    "thermal.stepbatch_w2_mups", "thermal.stepbatch_w8_mups",
    "thermal.stepbatch_w32_mups",
    "sim.stall_s", "sim.stalled_mcycles", "sim.build_s",
    "sim.snapshot_save_s", "sim.snapshot_restore_s", "sim.snapshot_mb",
    "runner.prepass_s", "runner.lane_busy_s", "runner.lane_idle_frac",
    "runner.forked_cells", "runner.saved_cycles_frac",
    "batch.lanes", "batch.peeled_frac", "batch.scout_mcycles",
    "serialize.encode_us", "serialize.decode_us", "serialize.result_kb",
    "store.load_us", "store.put_us", "store.hit_frac", "store.corrupt",
    "store.manifest_s",
    "remote.frame_rtt_us", "remote.job_overhead_s",
    "remote.snapshot_mb_sent", "remote.snapshot_mb_saved",
    "remote.requeued_cells", "remote.lost_workers",
    "accounting.lane_s", "accounting.layer_sum_s",
    "accounting.leftover_frac", "trace.overhead_frac",
};

[[noreturn]] void
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload attack_matrix|"
                 "policy_sweep|campaign_cold|store_warm --seed N "
                 "--seconds S --trace 0|1 [--scale X] "
                 "[--inject-mismatch] [--work-dir DIR] [--git-rev REV] "
                 "[--src-digest HEX]\n",
                 argv0, why.c_str(), argv0);
    std::exit(2);
}

double
number(const char *argv0, const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d) || d < 0)
        usage(argv0, flag + " needs a non-negative number, got '" + v +
                         "'");
    return d;
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--inject-mismatch") {
            o.injectMismatch = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0], "missing value after " + a);
        std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            double d = number(argv[0], a, v);
            if (d != std::floor(d))
                usage(argv[0], "--seed needs a whole number");
            o.seed = static_cast<uint64_t>(d);
        } else if (a == "--seconds") {
            o.seconds = number(argv[0], a, v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage(argv[0], "--trace needs 0 or 1");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--scale") {
            o.scale = number(argv[0], a, v);
            if (o.scale <= 0)
                usage(argv[0], "--scale must be positive");
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else if (a == "--git-rev") {
            o.gitRev = v;
        } else if (a == "--src-digest") {
            o.srcDigest = v;
        } else {
            usage(argv[0], "unknown argument '" + a + "'");
        }
    }
    if (o.workload.empty() || !haveTrace)
        usage(argv[0], "--workload and --trace are required");
    return o;
}

/** Nearest-rank percentile @p p of sorted @p v; @p beyond receives the
 *  number of samples ranked above it. */
double
percentile(const std::vector<double> &v, int p, size_t &beyond)
{
    size_t n = v.size();
    size_t k = static_cast<size_t>(std::ceil(p / 100.0 * n));
    k = std::max<size_t>(1, std::min(k, n));
    beyond = n - k;
    return v[k - 1];
}

std::string
num(double v)
{
    return hs::strprintf("%.9g", v);
}

void
metricLine(std::string &json, const std::string &name, double value,
           const std::string &unit)
{
    std::printf("metric %s = %s %s\n", name.c_str(), num(value).c_str(),
                unit.c_str());
    if (json.size() > 1)
        json += ", ";
    json += "\"" + name + "\": {\"value\": " + num(value) +
            ", \"unit\": \"" + unit + "\"}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    hs::setLogLevel(hs::LogLevel::Quiet);
    std::filesystem::create_directories(o.workDir);

    Report rep;
    if (o.workload == "attack_matrix")
        rep = runAttackMatrix(o);
    else if (o.workload == "policy_sweep")
        rep = runPolicySweep(o);
    else if (o.workload == "campaign_cold")
        rep = runCampaignCold(o);
    else if (o.workload == "store_warm")
        rep = runStoreWarm(o);
    else
        usage(argv[0], "unknown workload '" + o.workload + "'");

    std::vector<double> ops = rep.opS;
    std::sort(ops.begin(), ops.end());
    // The tail is the highest of these percentiles that has at least
    // ten samples ranked above it in the shortest run the loop allows,
    // so every run of a workload reports the same percentile. p99 is
    // left out: for 35 us store lookups it measured the host's vCPU
    // preemptions (spread 0.45 over ten runs), not the program.
    int tailP = 50;
    size_t tailBeyond = 0;
    double tail = 0, p50 = 0;
    if (!ops.empty()) {
        size_t floorOps = std::max(
            kMinOps, kMinPasses * (ops.size() / rep.wallS.size()));
        for (int p : {95, 90, 75, 50}) {
            tailP = p;
            if (floorOps - static_cast<size_t>(std::ceil(p / 100.0 *
                                                         floorOps)) >=
                10)
                break;
        }
        size_t b = 0;
        p50 = percentile(ops, 50, b);
        tail = percentile(ops, tailP, tailBeyond);
    }

    std::string metrics = "{";
    if (o.trace) {
        for (const char *name : kLayerNames) {
            auto it = rep.layers.find(name);
            if (it == rep.layers.end())
                hs::fatal("perfbench: layer metric %s was not measured",
                          name);
            metricLine(metrics, name, it->second.first, it->second.second);
        }
    } else {
        metricLine(metrics, "setup_s", median(rep.setupS), "s");
        metricLine(metrics, "wall_s", median(rep.wallS), "s");
        metricLine(metrics, "sim_mcycles_per_s", median(rep.mcps),
                   "Mcycles/s");
        metricLine(metrics, "op_p50_s", p50, "s");
        metricLine(metrics, "op_tail_s", tail, "s");
        metricLine(metrics, "peak_rss_mb", median(rep.rssMb), "MB");
    }
    metrics += "}";

    double failFrac =
        rep.attempted ? static_cast<double>(rep.failed) / rep.attempted
                      : 1.0;
    std::printf(
        "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
        "%s, \"trace\": %d, \"nproc\": %ld, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\", \"git_rev\": \"%s\", \"src_digest\": "
        "\"%s\", \"hs_scale\": %s, \"lanes\": %d, \"passes\": %zu, "
        "\"op\": \"%s\", \"op_samples\": %zu, \"op_tail_percentile\": %d, "
        "\"op_tail_samples_beyond\": %zu, \"fail_frac\": %s}\n",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        num(o.seconds).c_str(), o.trace ? 1 : 0,
        sysconf(_SC_NPROCESSORS_ONLN), HS_PERFBENCH_CXX,
        HS_PERFBENCH_BUILD_TYPE, o.gitRev.c_str(), o.srcDigest.c_str(),
        num(o.scale).c_str(), rep.lanes, rep.wallS.size(),
        rep.opName.c_str(), ops.size(), tailP, tailBeyond,
        num(failFrac).c_str());
    for (const std::string &f : rep.failures)
        std::fprintf(stderr, "perfbench: FAIL %s\n", f.c_str());

    bool correct = rep.failed == 0 && rep.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
