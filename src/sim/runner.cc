#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <ostream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/fault.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "sim/disk_store.hh"
#include "sim/manifest.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "trace/metrics.hh"

namespace hs {

namespace {

Program
buildWorkload(const WorkloadSpec &w, const ExperimentOptions &opts)
{
    switch (w.kind) {
      case WorkloadSpec::Kind::Spec:
        return synthesizeSpec(w.name);
      case WorkloadSpec::Kind::Variant:
        return makeVariant(w.variant, makeMaliciousParams(opts));
      case WorkloadSpec::Kind::Asm: {
        Program p = assemble(w.asmText, w.name);
        // The hs_run convention: seed r24/r25 so hand-written kernels
        // have non-trivial operands.
        p.setInitReg(24, 7);
        p.setInitReg(25, 13);
        return p;
      }
    }
    panic("buildWorkload: bad WorkloadSpec kind");
}

/** Full SimConfig of @p spec (shared by cold and prefix simulators). */
SimConfig
runConfig(const RunSpec &spec)
{
    if (spec.workloads.empty())
        fatal("RunSpec '%s' has no workloads", spec.label.c_str());

    SimConfig cfg = makeSimConfig(spec.opts);
    cfg.thermal.dieShrink = spec.dieShrink;
    cfg.sensorNoiseK = spec.sensorNoiseK;
    if (spec.descheduleAfter > 0) {
        cfg.descheduleRepeatOffenders = true;
        cfg.offenderPolicy.reportsBeforeDeschedule = spec.descheduleAfter;
    }
    if (spec.numThreads > 0)
        cfg.smt.numThreads = spec.numThreads;
    if (spec.numCores > 1) {
        // smt.numThreads is contexts *per core*: widen to the most
        // heavily loaded core, not the whole workload list.
        cfg.topology.numCores = spec.numCores;
        cfg.placement = spec.placement;
        std::vector<int> perCore(static_cast<size_t>(spec.numCores), 0);
        for (size_t i = 0; i < spec.workloads.size(); ++i) {
            int c = i < spec.placement.size() ? spec.placement[i] : 0;
            if (c < 0 || c >= spec.numCores)
                fatal("RunSpec '%s': placement[%zu] = %d is outside "
                      "[0, %d)",
                      spec.label.c_str(), i, c, spec.numCores);
            ++perCore[static_cast<size_t>(c)];
        }
        int widest = *std::max_element(perCore.begin(), perCore.end());
        if (widest > cfg.smt.numThreads)
            cfg.smt.numThreads = widest;
        // The placement indexes the full global context space
        // (numCores x numThreads): pad unmapped contexts onto core 0.
        cfg.placement.resize(spec.workloads.size(), 0);
    } else if (static_cast<int>(spec.workloads.size()) >
               cfg.smt.numThreads) {
        cfg.smt.numThreads = static_cast<int>(spec.workloads.size());
    }
    cfg.traceEvents = spec.traceEvents;
    return cfg;
}

void
bindWorkloads(Simulator &sim, const RunSpec &spec)
{
    for (size_t t = 0; t < spec.workloads.size(); ++t)
        sim.setWorkload(static_cast<ThreadId>(t),
                        buildWorkload(spec.workloads[t], spec.opts));
}

/// Sensor samples between prefix snapshots: rarely enough to keep the
/// save cost negligible, often enough that the fork point trails the
/// divergence sample closely.
constexpr Cycles kPrefixStrideSamples = 4;

/**
 * Run @p fn(0 .. n-1) on up to @p workers threads, capturing the first
 * exception and rethrowing it after the pool drains.
 */
template <typename Fn>
void
poolFor(int workers, size_t n, Fn &&fn)
{
    if (n == 0)
        return;
    workers = std::min<int>(workers, static_cast<int>(n));
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMu;
    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace

std::unique_ptr<Simulator>
makeSimulator(const RunSpec &spec)
{
    auto sim = std::make_unique<Simulator>(runConfig(spec));
    bindWorkloads(*sim, spec);
    return sim;
}

std::unique_ptr<Simulator>
makePrefixSimulator(const RunSpec &spec)
{
    SimConfig cfg = runConfig(spec);
    // Neutralise every trigger: the prefix must be the history all
    // group members share, i.e. the run as it unfolds while no policy
    // has acted yet. Selective sedation is kept (with unreachable
    // thresholds) because its usage monitor updates unconditionally
    // below the trigger: forked sedation cells inherit its state, and
    // runPrefix() reads it for the usage part of the DivergeRule.
    cfg.dtm = DtmMode::SelectiveSedation;
    cfg.sedation.useUsageThreshold = false;
    cfg.sedation.upperThreshold = 1e9;
    cfg.sedation.lowerThreshold = 1e9 - 1.0;
    cfg.stopAndGo.triggerTemp = 1e9;
    cfg.descheduleRepeatOffenders = false;

    auto sim = std::make_unique<Simulator>(cfg);
    bindWorkloads(*sim, spec);
    return sim;
}

RunResult
executeRunSpec(const RunSpec &spec)
{
    return makeSimulator(spec)->run();
}

RunResult
executeFromSnapshot(const RunSpec &spec, const SimSnapshot &snap)
{
    auto sim = makeSimulator(spec);
    sim->restore(snap);
    return sim->run();
}

ParallelRunner::ParallelRunner(int jobs, ResultStore *store)
    : jobs_(jobs), store_(store), prefixSharing_(knobInt("HS_PREFIX") != 0)
{
    if (jobs_ <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs_ = hw ? static_cast<int>(hw) : 1;
    }
}

void
ParallelRunner::setCellObserver(CellObserver fn)
{
    std::lock_guard<std::mutex> lock(observerMu_);
    observer_ = std::move(fn);
}

CellTally
ParallelRunner::tally() const
{
    std::lock_guard<std::mutex> lock(observerMu_);
    return tally_;
}

void
CellTally::fold(const CellEvent &ev)
{
    switch (ev.kind) {
      case CellEvent::Kind::Queued: ++total; return;
      case CellEvent::Kind::Started: ++running; return;
      case CellEvent::Kind::PrefixForked: ++forked; return;
      case CellEvent::Kind::CacheHit: ++memHits; break;
      case CellEvent::Kind::DiskHit: ++diskHits; break;
      case CellEvent::Kind::RemoteFinished: ++remote; [[fallthrough]];
      case CellEvent::Kind::Finished:
        cellSeconds.observe(ev.hostSeconds);
        break;
    }
    --running; // every other kind resolves a started cell
    ++done;
}

/** Structured-log event name for a cell lifecycle kind. */
static const char *
cellEventName(CellEvent::Kind kind)
{
    switch (kind) {
      case CellEvent::Kind::Queued: return "queued";
      case CellEvent::Kind::Started: return "started";
      case CellEvent::Kind::PrefixForked: return "prefix_forked";
      case CellEvent::Kind::CacheHit: return "cache_hit";
      case CellEvent::Kind::DiskHit: return "disk_hit";
      case CellEvent::Kind::Finished: return "finished";
      case CellEvent::Kind::RemoteFinished: return "remote_finished";
    }
    return "unknown";
}

void
ParallelRunner::notify(CellEvent ev)
{
    if (logEventActive()) {
        logEvent("runner", cellEventName(ev.kind),
                 {LogField::num("index",
                                static_cast<uint64_t>(ev.index)),
                  LogField::num("total",
                                static_cast<uint64_t>(ev.total)),
                  LogField::text("label", ev.label),
                  LogField::num("lane", ev.lane),
                  LogField::num("seconds", ev.hostSeconds)});
    }
    std::lock_guard<std::mutex> lock(observerMu_);
    tally_.fold(ev);
    ev.tally = &tally_;
    if (observer_)
        observer_(ev);
}

PrefixShareStats
ParallelRunner::prefixStats() const
{
    PrefixShareStats s;
    s.groups = prefixGroups_.load();
    s.forkedRuns = tally().forked;
    s.prefixCycles = prefixCycles_.load();
    s.savedCycles = savedCycles_.load();
    return s;
}

std::vector<std::shared_ptr<const SimSnapshot>>
ParallelRunner::buildPrefixes(const std::vector<RunSpec> &specs,
                              const std::vector<std::string> &keys)
{
    std::vector<std::shared_ptr<const SimSnapshot>> snaps(specs.size());

    struct Group
    {
        std::vector<size_t> members;
        DivergeRule rule; ///< member-wise minimum of both parts
    };
    std::unordered_map<std::string, size_t> index;
    std::vector<Group> groups; // insertion order: deterministic jobs

    for (size_t i = 0; i < specs.size(); ++i) {
        DivergeRule act = divergeRule(runConfig(specs[i]));
        auto [it, fresh] =
            index.emplace(specs[i].divergenceKey(), groups.size());
        if (fresh)
            groups.emplace_back();
        Group &g = groups[it->second];
        g.members.push_back(i);
        g.rule.temp = std::min(g.rule.temp, act.temp);
        g.rule.usage = std::min(g.rule.usage, act.usage);
    }

    // A prefix only pays for itself when at least two distinct,
    // not-yet-cached cells will fork from it, so a singleton group is
    // never probed.
    std::vector<size_t> jobs;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
        if (groups[gi].members.size() < 2)
            continue;
        std::unordered_set<std::string_view> fresh_keys;
        for (size_t i : groups[gi].members) {
            if (store_ && store_->available(keys[i]))
                continue;
            fresh_keys.insert(keys[i]);
        }
        if (fresh_keys.size() >= 2)
            jobs.push_back(gi);
    }

    poolFor(jobs_, jobs.size(), [&](size_t j) {
        const Group &g = groups[jobs[j]];
        const RunSpec &rep = specs[g.members.front()];
        auto snap = std::make_shared<SimSnapshot>();
        Cycles fork = makePrefixSimulator(rep)->runPrefix(
            g.rule, kPrefixStrideSamples, *snap);
        if (fork == 0)
            return; // diverged before the first snapshot: all cold
        prefixGroups_.fetch_add(1);
        prefixCycles_.fetch_add(fork);
        for (size_t i : g.members)
            snaps[i] = snap;
    });

    return snaps;
}

std::vector<RunResult>
ParallelRunner::run(const std::vector<RunSpec> &specs)
{
    std::vector<RunResult> results(specs.size());
    if (specs.empty())
        return results;
    const auto runStart = std::chrono::steady_clock::now();
    const size_t memHits0 = tally().memHits;

    // Each cell's canonical key is built once, here: the prefix
    // grouping and every store tier address the cell by it.
    std::vector<std::string> keys;
    keys.reserve(specs.size());
    for (const RunSpec &spec : specs)
        keys.push_back(spec.canonicalKey());

    std::vector<std::shared_ptr<const SimSnapshot>> snaps(specs.size());
    if (prefixSharing_)
        snaps = buildPrefixes(specs, keys);

    const size_t total = specs.size();
    for (size_t i = 0; i < total; ++i)
        notify({CellEvent::Kind::Queued, i, total,
                specs[i].label.c_str(), 0.0});

    auto runOne = [&](size_t i, RemoteWorker *remote, int lane) {
        const RunSpec &spec = specs[i];
        const SimSnapshot *snap = snaps[i].get();
        if (faultFire("dispatch_delay")) {
            // Stall this lane so chaos runs exercise every possible
            // completion interleaving; submission-order folding must
            // make the artifacts identical regardless.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        notify({CellEvent::Kind::Started, i, total, spec.label.c_str(),
                0.0, lane});
        bool viaRemote = false;
        auto compute = [&]() -> RunResult {
            if (snap) {
                savedCycles_.fetch_add(snap->cycle);
                notify({CellEvent::Kind::PrefixForked, i, total,
                        spec.label.c_str(), 0.0, lane});
            }
            if (remote && remote->alive()) {
                RunResult r;
                if (remote->runJob(i, spec, snap, r)) {
                    viaRemote = true;
                    return r;
                }
                // The worker died mid-campaign: requeue this cell as
                // local work in the dispatcher thread itself, which
                // from here on drains the queue like any local lane.
                lostWorkers_.fetch_add(1);
                requeuedCells_.fetch_add(1);
            }
            if (snap)
                return executeFromSnapshot(spec, *snap);
            return executeRunSpec(spec);
        };
        auto t0 = std::chrono::steady_clock::now();
        ResultStore::Source src = ResultStore::Source::Computed;
        results[i] = store_ ? store_->getOrCompute(keys[i], compute, &src)
                            : compute();
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        CellEvent::Kind kind;
        switch (src) {
          case ResultStore::Source::Memory:
            kind = CellEvent::Kind::CacheHit;
            break;
          case ResultStore::Source::Disk:
            kind = CellEvent::Kind::DiskHit;
            break;
          case ResultStore::Source::Computed:
          default:
            kind = viaRemote ? CellEvent::Kind::RemoteFinished
                             : CellEvent::Kind::Finished;
            break;
        }
        bool simulated = src == ResultStore::Source::Computed;
        notify({kind, i, total, spec.label.c_str(),
                simulated ? secs : 0.0, lane});
    };

    // One execution pool for both the local and the sharded case:
    // local threads and one dispatcher per connected worker drain a
    // single shared queue. Every lane has a stable id (0..jobs-1
    // local, then one per remote), so the event stream can attribute
    // cells to lanes. Results land at their submission index, so
    // folding order — and therefore every artifact — is identical
    // whatever the lane mix.
    std::vector<std::unique_ptr<RemoteWorker>> remotes;
    for (const Endpoint &ep : workerEndpoints_) {
        auto rw = std::make_unique<RemoteWorker>(
            ep, [this](const HeartbeatInfo &) { heartbeats_.fetch_add(1); });
        if (rw->ensureConnected()) {
            remoteWorkers_.fetch_add(1);
            remotes.push_back(std::move(rw));
        }
        // A worker that never handshakes gets no dispatcher: the
        // connect failure was already warned about and the local
        // lanes cover its share.
    }

    int localLanes =
        std::min<int>(jobs_, static_cast<int>(specs.size()));
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMu;
    auto drain = [&](RemoteWorker *rw, int lane) {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= specs.size())
                return;
            try {
                runOne(i, rw, lane);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };

    if (remotes.empty() && localLanes <= 1) {
        // Serial fast path: no threads to spawn or join.
        drain(nullptr, 0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(localLanes) + remotes.size());
        for (int w = 0; w < localLanes; ++w)
            pool.emplace_back(drain, nullptr, w);
        for (size_t r = 0; r < remotes.size(); ++r)
            pool.emplace_back(drain, remotes[r].get(),
                              localLanes + static_cast<int>(r));
        for (std::thread &t : pool)
            t.join();
    }
    if (!remotes.empty()) {
        std::lock_guard<std::mutex> lock(telemetryMu_);
        for (const auto &rw : remotes)
            workerTelemetry_.push_back(rw->telemetry());
    }
    if (error)
        std::rethrow_exception(error);
    logEvent("runner", "matrix_done",
             {LogField::num("runs", static_cast<uint64_t>(total)),
              LogField::num("cached", static_cast<uint64_t>(
                                          tally().memHits - memHits0)),
              LogField::num("jobs", jobs_),
              LogField::num("seconds",
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - runStart)
                                .count())});
    return results;
}

void
ParallelRunner::setWorkers(std::vector<Endpoint> endpoints)
{
    workerEndpoints_ = std::move(endpoints);
}

RemoteStats
ParallelRunner::remoteStats() const
{
    RemoteStats s;
    s.workers = remoteWorkers_.load();
    s.remoteCells = tally().remote;
    s.lostWorkers = lostWorkers_.load();
    s.requeuedCells = requeuedCells_.load();
    s.heartbeats = heartbeats_.load();
    {
        std::lock_guard<std::mutex> lock(telemetryMu_);
        s.perWorker = workerTelemetry_;
    }
    return s;
}

void
startCampaign(DiskResultStore &disk, const std::vector<RunSpec> &specs)
{
    // Persist the campaign's identity before any cell simulates: a
    // coordinator killed mid-sweep can be restarted with the same
    // command line and pick up exactly the missing cells.
    CampaignResume resume = prepareCampaign(disk, specs);
    if (!resume.resumed)
        return;
    std::fprintf(stderr,
                 "[campaign] resuming: %llu of %llu cells already "
                 "stored\n",
                 static_cast<unsigned long long>(resume.storedCells),
                 static_cast<unsigned long long>(resume.totalCells));
    logEvent("runner", "campaign_resumed",
             {LogField::num("stored", resume.storedCells),
              LogField::num("total", resume.totalCells)});
}

std::vector<RunResult>
runMatrix(const std::vector<RunSpec> &specs)
{
    ResultStore &store = ResultStore::global();
    if (DiskResultStore *disk = envDiskStore())
        store.attachDisk(disk);
    DiskResultStore *disk = store.disk();
    if (disk)
        startCampaign(*disk, specs);
    uint64_t dwrites0 = disk ? disk->writes() : 0;
    uint64_t dcorrupt0 = disk ? disk->corrupt() : 0;
    ParallelRunner runner(knobInt("HS_JOBS"), &store);

    auto t0 = std::chrono::steady_clock::now();
    std::vector<RunResult> results = runner.run(specs);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    CellTally t = runner.tally();
    PrefixShareStats ps = runner.prefixStats();
    std::fprintf(stderr,
                 "[engine] %zu runs (%zu cached) on %d workers in "
                 "%.1f s | prefix: %llu groups, %llu forks, %.1f "
                 "Mcycles shared",
                 specs.size(), t.memHits, runner.jobs(), secs,
                 static_cast<unsigned long long>(ps.groups),
                 static_cast<unsigned long long>(ps.forkedRuns),
                 static_cast<double>(ps.savedCycles) / 1e6);
    if (disk) {
        std::fprintf(stderr,
                     " | store: %zu disk hits, %llu writes, "
                     "%llu corrupt",
                     t.diskHits,
                     static_cast<unsigned long long>(disk->writes() -
                                                     dwrites0),
                     static_cast<unsigned long long>(disk->corrupt() -
                                                     dcorrupt0));
    }
    std::fprintf(stderr, "\n");
    return results;
}

void
foldRunMetrics(MetricsRegistry &m, const std::vector<RunResult> &results,
               const PrefixShareStats *engine,
               const Histogram *cell_seconds)
{
    m.counterAdd("hs_run.runs", results.size(), "simulated quanta");
    for (const RunResult &r : results) {
        m.counterAdd("hs_run.sim_cycles", r.cycles, "simulated cycles");
        m.counterAdd("hs_run.emergencies", r.emergencies,
                     "emergency-threshold crossings");
        m.counterAdd("hs_run.stop_and_go_triggers", r.stopAndGoTriggers,
                     "global stop-and-go engagements");
        m.counterAdd("hs_run.sedation_events", r.sedationEvents.size(),
                     "sedation actions");
        m.counterAdd("hs_run.trace_events", r.traceEvents.size(),
                     "structured trace events exported");
        m.counterAdd("hs_run.trace_events_dropped",
                     r.traceEventsDropped, "trace ring overflow losses");
        m.gaugeMax("hs_run.peak_temp_k", r.peakTempOverall,
                   "hottest block temperature seen");
        // Per-cell registries: each run's histograms were accumulated
        // inside its own Simulator (no cross-talk between concurrent
        // workers) and merge here in submission order, so the folded
        // registry is identical across worker counts.
        for (const NamedHistogram &h : r.histograms)
            m.histogramMerge(h.name, h.hist, h.desc);
    }
    if (engine) {
        m.counterAdd("engine.prefix_groups", engine->groups,
                     "prefix-sharing groups executed");
        m.counterAdd("engine.forked_runs", engine->forkedRuns,
                     "runs forked from a shared prefix");
        m.counterAdd("engine.saved_cycles", engine->savedCycles,
                     "cycles not re-simulated thanks to sharing");
    }
    if (cell_seconds)
        m.histogramMerge("engine.cell_host_seconds", *cell_seconds,
                         "wall time per completed matrix cell");
}

void
writeMatrixJson(std::ostream &os, const std::vector<RunSpec> &specs,
                const std::vector<RunResult> &results,
                const MetricsRegistry *metrics)
{
    if (specs.size() != results.size())
        panic("writeMatrixJson: %zu specs vs %zu results", specs.size(),
              results.size());
    os << "{\n  \"runs\": [\n";
    for (size_t i = 0; i < specs.size(); ++i) {
        char hash[24];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(specs[i].hash()));
        os << "    {\n      \"label\": \"" << specs[i].label
           << "\",\n      \"spec_hash\": \"" << hash
           << "\",\n      \"result\":\n";
        writeResultJson(os, results[i], 3);
        os << "\n    }" << (i + 1 < specs.size() ? "," : "") << "\n";
    }
    os << "  ]";
    if (metrics) {
        os << ",\n  \"metrics\": ";
        metrics->writeJson(os, 1);
    }
    os << "\n}\n";
}

void
writeMatrixCsv(std::ostream &os, const std::vector<RunSpec> &specs,
               const std::vector<RunResult> &results)
{
    if (specs.size() != results.size())
        panic("writeMatrixCsv: %zu specs vs %zu results", specs.size(),
              results.size());
    os << "run,label," << resultCsvHeader() << "\n";
    for (size_t i = 0; i < specs.size(); ++i) {
        std::string label = specs[i].label;
        for (char &c : label)
            if (c == ',')
                c = ';';
        writeResultCsv(os, results[i],
                       std::to_string(i) + "," + label + ",");
    }
}

} // namespace hs
