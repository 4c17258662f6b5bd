/**
 * @file
 * Hot-path microbenchmark: simulation throughput of the three cost
 * centres of a run, isolated so a regression can be attributed.
 *
 *  - tick:    gcc solo, ideal sink, no DTM. The thermal step
 *             early-returns, no policy ever acts — this is the pure
 *             Pipeline::tick() cost.
 *  - thermal: gcc solo, realistic sink, no DTM. Adds the RC network
 *             step and sensor sampling every 20 K cycles on top of the
 *             tick cost.
 *  - stalled: malicious variant 1 under stop-and-go. The pipeline
 *             spends most of the quantum globally stalled, so this
 *             measures the advanceStalled() fast-forward path.
 *  - matrix_cold / matrix_prefix / matrix_store_warm: a fig-5-style
 *             policy matrix — two benign workload pairs, each swept
 *             across every DTM mode, ten sedation thresholds and the
 *             usage ablation (32 cells) — run with the engine solo
 *             (prefix off) and with prefix sharing, plus a third pass
 *             that serves every cell from a warm persistent store
 *             (sim/disk_store.hh) without simulating anything. The
 *             cells of a pair differ only in policy fields, so
 *             prefix sharing simulates each pair's warm-up once; all
 *             three rows are checked cell-for-cell bit-identical
 *             before anything is reported. mcps here is *effective*
 *             throughput (simulated cycles delivered per host
 *             second), which is exactly what sharing improves.
 *  - rc_stepbatch_w{2,8,32}: the multi-RHS thermal kernel alone at
 *             the pinned lane widths (mups = millions of node-lane
 *             updates per host second; no mcps field, so the rows
 *             stay out of the perf gate's throughput baseline).
 *
 * Output ends with one machine-parsable line per row:
 *
 *     [hotpath] label=<row> cycles=<N> host_s=<s> mcps=<Mcycles/s>
 *
 * scripts/check_perf.sh greps these lines and compares mcps against
 * scripts/perf_baseline.json (20% regression gate). Not part of
 * run_benches.sh: wall-clock output is machine-dependent by design and
 * must not enter the byte-compared results/ tables.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/log.hh"
#include "sim/disk_store.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "thermal/thermal_model.hh"
#include "thermal/topology.hh"

int
main()
{
    using namespace hs;

    ExperimentOptions base = ExperimentOptions::fromEnv();

    ExperimentOptions tick = base;
    tick.sink = SinkType::Ideal;
    tick.dtm = DtmMode::None;

    ExperimentOptions thermal = base;
    thermal.sink = SinkType::Realistic;
    thermal.dtm = DtmMode::None;

    ExperimentOptions stalled = base;
    stalled.sink = SinkType::Realistic;
    stalled.dtm = DtmMode::StopAndGo;

    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", tick).withLabel("tick"));
    specs.push_back(soloSpec("gcc", thermal).withLabel("thermal"));
    specs.push_back(maliciousSoloSpec(1, stalled).withLabel("stalled"));

    std::vector<RunResult> results = runMatrix(specs);

    std::printf("\n=== hot-path throughput (time scale from HS_SCALE) "
                "===\n");
    std::printf("%-8s %14s %12s %14s\n", "row", "sim cycles",
                "host sec", "Mcycles/sec");
    for (size_t i = 0; i < specs.size(); ++i) {
        const RunResult &r = results[i];
        double mcps = r.hostSeconds > 0.0
                          ? static_cast<double>(r.cycles) /
                                r.hostSeconds / 1e6
                          : 0.0;
        std::printf("%-8s %14llu %12.3f %14.2f\n",
                    specs[i].label.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    r.hostSeconds, mcps);
    }
    std::printf("\nrows: tick = pipeline only (ideal sink), thermal = "
                "+RC step each sensor sample, stalled = "
                "advanceStalled fast-forward under stop-and-go.\n\n");

    // --- RC-network construction scaling -------------------------------
    //
    // Builds the full thermal model for growing die topologies and
    // reports nodes/edges/wall time. The sparse adjacency makes
    // construction O(edges); the old dense-matrix path was O(n^3) in
    // nodes and would blow far past the (deliberately generous) bound
    // asserted below long before 64 cores.

    std::printf("=== thermal model construction (sparse adjacency) "
                "===\n");
    std::printf("%-12s %8s %8s %12s\n", "topology", "nodes", "edges",
                "build ms");
    struct BuildRow
    {
        int cores;
        size_t nodes, edges;
        double ms;
    };
    std::vector<BuildRow> builds;
    for (int cores : {1, 16, 64}) {
        TopologyParams tp;
        tp.numCores = cores;
        Topology topo(Floorplan::ev6(), tp);
        auto t0 = std::chrono::steady_clock::now();
        ThermalModel model(topo);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        BuildRow row{cores,
                     static_cast<size_t>(model.network().numNodes()),
                     model.network().numEdges(), ms};
        builds.push_back(row);
        std::printf("%2d core(s)   %8zu %8zu %12.3f\n", row.cores,
                    row.nodes, row.edges, row.ms);
    }
    // Generous absolute bound: the sparse build finishes in a few
    // milliseconds even on slow hardware; a reintroduced dense
    // per-insert row refresh is O(n^3) over ~1100 nodes and busts this
    // by orders of magnitude.
    if (builds.back().ms > 2000.0)
        fatal("bench_hotpath: 64-core thermal model construction took "
              "%.1f ms — the RC network build has regressed toward the "
              "old dense O(n^3) behaviour",
              builds.back().ms);
    std::printf("\n");

    // --- engine macro-benchmark: fig-5-style policy matrix --------------
    //
    // Two benign workload pairs, each swept across every policy lane
    // the paper's figures use. Cells of a pair differ only in policy
    // fields, so they share one warm-up prefix up to the lowest
    // trigger in the pair.

    std::vector<RunSpec> sweep;
    auto addPolicyLanes = [&](const char *wa, const char *wb) {
        char label[64];
        auto lane = [&](const char *kind, ExperimentOptions o) {
            std::snprintf(label, sizeof(label), "%s+%s_%s", wa, wb,
                          kind);
            sweep.push_back(specPairSpec(wa, wb, o).withLabel(label));
        };
        ExperimentOptions o = base;
        o.sink = SinkType::Realistic;
        o.dtm = DtmMode::None;
        lane("none", o);
        o.dtm = DtmMode::StopAndGo;
        lane("stopgo", o);
        o.dtm = DtmMode::DvfsThrottle;
        lane("dvfs", o);
        o.dtm = DtmMode::FetchGating;
        lane("fetchgate", o);
        for (double upper : {355.0, 355.25, 355.5, 355.75, 356.0,
                             356.5, 357.0, 357.25, 357.5, 358.0}) {
            ExperimentOptions s = base;
            s.sink = SinkType::Realistic;
            s.dtm = DtmMode::SelectiveSedation;
            s.upperThreshold = upper;
            s.lowerThreshold = upper - 1.0;
            char kind[24];
            std::snprintf(kind, sizeof(kind), "sed%.2f", upper);
            lane(kind, s);
        }
        // The usage ablation acts on monitor state, not temperature,
        // so prefix sharing must run it cold.
        for (double upper : {356.0, 357.0}) {
            ExperimentOptions s = base;
            s.sink = SinkType::Realistic;
            s.dtm = DtmMode::SelectiveSedation;
            s.upperThreshold = upper;
            s.lowerThreshold = upper - 1.0;
            s.sedationUsageThreshold = true;
            char kind[24];
            std::snprintf(kind, sizeof(kind), "usage%.0f", upper);
            lane(kind, s);
        }
    };
    addPolicyLanes("gcc", "mesa");
    addPolicyLanes("gcc", "vortex");

    auto timeSweep = [&sweep](bool prefix_on,
                              std::vector<RunResult> &out) -> double {
        ResultStore store; // private: every pass simulates every cell
        ParallelRunner runner(envJobs(), &store);
        runner.setPrefixSharing(prefix_on);
        auto t0 = std::chrono::steady_clock::now();
        out = runner.run(sweep);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::vector<RunResult> cold_r, warm_r;
    double cold_s = timeSweep(false, cold_r);
    double warm_s = timeSweep(true, warm_r);
    for (size_t i = 0; i < sweep.size(); ++i)
        if (!(cold_r[i] == warm_r[i]))
            fatal("bench_hotpath: prefix-shared result for cell %s "
                  "differs from its cold run",
                  sweep[i].label.c_str());

    // The third way to run the matrix: a warm persistent store. Fill
    // a scratch store with the cold results, then rerun the sweep
    // through a fresh in-memory ResultStore reading through to disk —
    // every cell must be a disk hit (zero simulation) and the whole
    // pass must beat even the prefix-shared run, or the store tier is
    // not paying for itself.
    const char *store_dir = "bench_hotpath_store.tmp";
    if (std::system("rm -rf bench_hotpath_store.tmp") != 0)
        fatal("bench_hotpath: cannot clear %s", store_dir);
    double store_s = 0.0;
    {
        DiskResultStore disk(store_dir);
        for (size_t i = 0; i < sweep.size(); ++i)
            if (!disk.store(sweep[i], cold_r[i]))
                fatal("bench_hotpath: cannot fill the scratch store");
        ResultStore store;
        store.attachDisk(&disk);
        ParallelRunner runner(envJobs(), &store);
        auto t0 = std::chrono::steady_clock::now();
        std::vector<RunResult> warm = runner.run(sweep);
        store_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        if (disk.hits() != sweep.size() || disk.corrupt() != 0)
            fatal("bench_hotpath: warm store served %llu/%zu cells "
                  "(%llu corrupt) — the rerun simulated",
                  static_cast<unsigned long long>(disk.hits()),
                  sweep.size(),
                  static_cast<unsigned long long>(disk.corrupt()));
        for (size_t i = 0; i < sweep.size(); ++i)
            if (!(warm[i] == cold_r[i]))
                fatal("bench_hotpath: store-served result for cell %s "
                      "differs from its cold run",
                      sweep[i].label.c_str());
    }
    if (std::system("rm -rf bench_hotpath_store.tmp") != 0)
        warn("bench_hotpath: cannot remove %s", store_dir);
    if (store_s >= warm_s)
        fatal("bench_hotpath: warm store pass (%.3f s) is not faster "
              "than the prefix-shared run (%.3f s)",
              store_s, warm_s);

    unsigned long long sweep_cycles = 0;
    for (const RunResult &r : cold_r)
        sweep_cycles += r.cycles;
    double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
    double store_speedup = store_s > 0.0 ? cold_s / store_s : 0.0;
    std::printf("%zu-cell policy matrix (2 workload pairs x 16 policy "
                "lanes), identical results all three ways:\n",
                sweep.size());
    std::printf("  cold %.3f s, prefix-shared %.3f s (%.2fx), "
                "store-warm %.3f s (%.2fx)\n\n",
                cold_s, warm_s, speedup, store_s, store_speedup);

    // --- multi-RHS thermal kernel: lane-width scaling -------------------
    //
    // Times RcNetwork::stepBatch on the single-core EV6 network at the
    // lane widths the bit-identity tests pin down. The throughput unit
    // is millions of node-lane updates per host second, so wider rows
    // showing higher numbers is the vectorised lane-inner loop working.

    struct KernelRow
    {
        int lanes;
        double mups;
    };
    std::vector<KernelRow> kernels;
    {
        TopologyParams tp;
        Topology topo(Floorplan::ev6(), tp);
        ThermalModel model(topo);
        const RcNetwork &net = model.network();
        size_t nodes = static_cast<size_t>(net.numNodes());
        double dt = net.minTimeConstant();
        const int iters = 400;
        for (int lanes : {2, 8, 32}) {
            std::vector<Watts> power(nodes * lanes);
            std::vector<Kelvin> temps(nodes * lanes);
            for (size_t i = 0; i < nodes; ++i)
                for (int l = 0; l < lanes; ++l) {
                    power[i * lanes + l] = 0.5 + 0.01 * l;
                    temps[i * lanes + l] = 300.0 + 0.25 * l;
                }
            auto t0 = std::chrono::steady_clock::now();
            for (int it = 0; it < iters; ++it)
                net.stepBatch(power, temps, lanes, dt);
            double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
            double mups =
                s > 0.0 ? static_cast<double>(nodes) * lanes * iters /
                              s / 1e6
                        : 0.0;
            kernels.push_back(KernelRow{lanes, mups});
        }
    }
    std::printf("=== multi-RHS thermal kernel (node-lane updates) "
                "===\n");
    for (const KernelRow &k : kernels)
        std::printf("width %2d: %10.2f Mupdates/sec\n", k.lanes,
                    k.mups);
    std::printf("\n");

    for (size_t i = 0; i < specs.size(); ++i) {
        const RunResult &r = results[i];
        double mcps = r.hostSeconds > 0.0
                          ? static_cast<double>(r.cycles) /
                                r.hostSeconds / 1e6
                          : 0.0;
        std::printf("[hotpath] label=%s cycles=%llu host_s=%.4f "
                    "mcps=%.3f\n",
                    specs[i].label.c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    r.hostSeconds, mcps);
    }
    std::printf("[hotpath] label=matrix_cold cycles=%llu host_s=%.4f "
                "mcps=%.3f\n",
                sweep_cycles, cold_s,
                cold_s > 0.0
                    ? static_cast<double>(sweep_cycles) / cold_s / 1e6
                    : 0.0);
    std::printf("[hotpath] label=matrix_prefix cycles=%llu host_s=%.4f "
                "mcps=%.3f\n",
                sweep_cycles, warm_s,
                warm_s > 0.0
                    ? static_cast<double>(sweep_cycles) / warm_s / 1e6
                    : 0.0);
    std::printf("[hotpath] label=matrix_store_warm cycles=%llu "
                "host_s=%.4f mcps=%.3f\n",
                sweep_cycles, store_s,
                store_s > 0.0
                    ? static_cast<double>(sweep_cycles) / store_s / 1e6
                    : 0.0);
    std::printf("[hotpath] label=matrix_speedup x=%.3f\n", speedup);
    std::printf("[hotpath] label=matrix_store_speedup x=%.3f\n",
                store_speedup);
    // Kernel rows report node-lane updates, not simulated cycles, so
    // they use their own field and stay out of the mcps perf gate.
    for (const KernelRow &k : kernels)
        std::printf("[hotpath] label=rc_stepbatch_w%d mups=%.3f\n",
                    k.lanes, k.mups);
    // No mcps= on these rows: construction cost is not a throughput
    // and must stay out of the perf-gate baseline.
    for (const BuildRow &b : builds)
        std::printf("[hotpath] label=rc_build_%dcore nodes=%zu "
                    "edges=%zu build_ms=%.3f\n",
                    b.cores, b.nodes, b.edges, b.ms);
    return 0;
}
