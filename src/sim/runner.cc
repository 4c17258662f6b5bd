#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/fault.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "sim/disk_store.hh"
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
executeRunSpec(const RunSpec &spec, const SimSnapshot *snap,
               SimProfile *profile)
{
    auto sim = makeSimulator(spec);
    // Profiling only turns the host clocks on: the counters, and the
    // result, are the same either way.
    sim->setProfiling(profile != nullptr);
    if (snap)
        sim->restore(*snap);
    RunResult result = sim->run();
    if (profile)
        *profile = sim->profile();
    return result;
}

ParallelRunner::ParallelRunner(int jobs, ResultStore *store)
    : jobs_(jobs), store_(store)
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

struct ParallelRunner::PrefixTask
{
    std::vector<size_t> members;
    DivergeRule rule; ///< member-wise minimum of both parts
    std::promise<SnapshotPtr> snapshot;
    // Claim state, guarded by run()'s claim lock.
    size_t claimed = 0;     ///< members handed to lanes, in order
    bool published = false; ///< snapshot (or its exception) is set
};

std::vector<ParallelRunner::PrefixTask>
ParallelRunner::planPrefixes(
    const std::vector<RunSpec> &specs, const std::vector<std::string> &keys,
    std::vector<std::shared_future<SnapshotPtr>> &forks)
{
    struct Group
    {
        std::vector<size_t> members;
        DivergeRule rule; ///< member-wise minimum of both parts
    };
    std::unordered_map<std::string, size_t> index;
    std::vector<Group> groups; // insertion order: deterministic tasks

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
    std::vector<PrefixTask> tasks;
    for (Group &g : groups) {
        if (g.members.size() < 2)
            continue;
        std::unordered_set<std::string_view> fresh_keys;
        for (size_t i : g.members) {
            if (store_ && store_->available(keys[i]))
                continue;
            fresh_keys.insert(keys[i]);
        }
        if (fresh_keys.size() < 2)
            continue;
        PrefixTask &task = tasks.emplace_back();
        task.members = std::move(g.members);
        task.rule = g.rule;
        std::shared_future<SnapshotPtr> published =
            task.snapshot.get_future().share();
        for (size_t i : task.members)
            forks[i] = published;
    }
    return tasks;
}

void
ParallelRunner::buildPrefix(PrefixTask &task,
                            const std::vector<RunSpec> &specs, int lane)
{
    const RunSpec &rep = specs[task.members.front()];
    const auto t0 = std::chrono::steady_clock::now();
    try {
        auto snap = std::make_shared<SimSnapshot>();
        Cycles fork = makePrefixSimulator(rep)->runPrefix(
            task.rule, kPrefixStrideSamples, *snap);
        logEvent("runner", "prefix_built",
                 {LogField::text("label", rep.label),
                  LogField::num("members",
                                static_cast<uint64_t>(task.members.size())),
                  LogField::num("lane", lane),
                  LogField::num("fork_cycle", static_cast<uint64_t>(fork)),
                  LogField::num("seconds",
                                std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count())});
        if (fork == 0) {
            // Diverged before the first snapshot: every member runs cold.
            task.snapshot.set_value(nullptr);
            return;
        }
        prefixGroups_.fetch_add(1);
        prefixCycles_.fetch_add(fork);
        task.snapshot.set_value(std::move(snap));
    } catch (...) {
        // Every member rethrows it, so run() reports it like any cell's.
        task.snapshot.set_exception(std::current_exception());
    }
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

    const size_t total = specs.size();
    for (size_t i = 0; i < total; ++i)
        notify({CellEvent::Kind::Queued, i, total,
                specs[i].label.c_str(), 0.0});

    // forks[i]: cell i's group snapshot, published by a prefix task
    // (an invalid future means the cell runs cold).
    std::vector<std::shared_future<SnapshotPtr>> forks(total);
    std::vector<PrefixTask> prefixes;
    if (prefixSharing_)
        prefixes = planPrefixes(specs, keys, forks);

    auto runOne = [&](size_t i, RemoteWorker *remote, int lane) {
        const RunSpec &spec = specs[i];
        // A forked cell starts once its group's prefix is published; a
        // prefix that threw rethrows here.
        const SnapshotPtr fork = forks[i].valid() ? forks[i].get() : nullptr;
        const SimSnapshot *snap = fork.get();
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
            }
            return executeRunSpec(spec, snap);
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

    // One lane pool for every kind of work: local lanes and one
    // dispatcher per connected worker drain a single cell queue. Every
    // lane has a stable id (0..jobs-1 local, then one per remote), so
    // the event stream can attribute cells to lanes. Results land at
    // their submission index, so folding order — and therefore every
    // artifact — is identical whatever the lane mix.
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

    int localLanes = std::min<int>(jobs_, static_cast<int>(total));

    // One lock orders every claim. A local lane takes, in turn: the
    // earliest forked cell whose group's snapshot is published, the
    // next prefix task, the next cold cell, and last the earliest
    // forked cell still waiting, whose snapshot it then blocks on. It
    // reaches that last case only once every prefix task is claimed by
    // a lane that waits on nothing, and there is always at least one
    // local lane, so no wait is circular. Remote lanes take cells only,
    // so --jobs bounds the local simulation threads; they too take any
    // ready cell before a waiting one. Cold cells sit behind a cursor
    // and only the groups are scanned, so a matrix without prefix tasks
    // pays one uncontended lock per claim.
    struct Claim
    {
        bool prefix; ///< index names a prefix task, not a cell
        size_t index;
    };
    std::mutex claimMu;
    size_t nextPrefix = 0;
    size_t nextCold = 0;
    auto claim = [&](bool local) -> std::optional<Claim> {
        std::lock_guard<std::mutex> lock(claimMu);
        PrefixTask *ready = nullptr, *waiting = nullptr;
        for (PrefixTask &t : prefixes) {
            if (t.claimed == t.members.size())
                continue;
            PrefixTask *&earliest = t.published ? ready : waiting;
            if (!earliest || t.members[t.claimed] <
                                 earliest->members[earliest->claimed])
                earliest = &t;
        }
        if (ready)
            return Claim{false, ready->members[ready->claimed++]};
        if (local && nextPrefix < prefixes.size())
            return Claim{true, nextPrefix++};
        while (nextCold < total && forks[nextCold].valid())
            ++nextCold;
        if (nextCold < total)
            return Claim{false, nextCold++};
        if (waiting)
            return Claim{false, waiting->members[waiting->claimed++]};
        return std::nullopt;
    };

    std::exception_ptr error;
    std::mutex errorMu;
    auto drain = [&](RemoteWorker *rw, int lane) {
        while (std::optional<Claim> c = claim(rw == nullptr)) {
            if (c->prefix) {
                buildPrefix(prefixes[c->index], specs, lane);
                std::lock_guard<std::mutex> lock(claimMu);
                prefixes[c->index].published = true;
                continue;
            }
            try {
                runOne(c->index, rw, lane);
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
        const int lanes = localLanes + static_cast<int>(remotes.size());
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(lanes));
        for (int lane = 0; lane < lanes; ++lane) {
            RemoteWorker *rw =
                lane < localLanes
                    ? nullptr
                    : remotes[static_cast<size_t>(lane - localLanes)].get();
            pool.emplace_back(drain, rw, lane);
        }
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
    // A lost worker takes down exactly the one cell it held, which its
    // dispatcher lane then requeues locally.
    s.lostWorkers = s.requeuedCells = lostWorkers_.load();
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
    // The stored records are the resume state: a coordinator killed
    // mid-sweep restarts with the same command line and simulates
    // only the cells the store is missing.
    CampaignResume resume = prepareCampaign(disk, specs);
    if (resume.storedCells == 0)
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
RunMetrics::writeJson(std::ostream &os, const std::vector<RunResult> &results,
                      int indent) const
{
    // Each metric's JSON value text, keyed by name: the map emits them
    // name-sorted across kinds.
    std::map<std::string, std::string> out;
    auto counter = [&](const char *name, uint64_t v) {
        out[name] = std::to_string(v);
    };
    auto histogram = [&](const std::string &name, const Histogram &h) {
        std::ostringstream text;
        h.writeJson(text);
        out[name] = text.str();
    };

    counter("hs_run.runs", results.size());
    uint64_t cycles = 0, emergencies = 0, triggers = 0, sedations = 0,
             events = 0, dropped = 0;
    double peak = 0.0;
    // Each run's histograms were accumulated inside its own Simulator
    // and merge here in submission order, so the totals are identical
    // across worker counts.
    std::map<std::string, Histogram> hists;
    for (const RunResult &r : results) {
        cycles += r.cycles;
        emergencies += r.emergencies;
        triggers += r.stopAndGoTriggers;
        sedations += r.sedationEvents.size();
        events += r.traceEvents.size();
        dropped += r.traceEventsDropped;
        peak = std::max(peak, r.peakTempOverall);
        for (const NamedHistogram &h : r.histograms)
            hists[h.name].merge(h.hist);
    }
    if (!results.empty()) {
        counter("hs_run.sim_cycles", cycles);
        counter("hs_run.emergencies", emergencies);
        counter("hs_run.stop_and_go_triggers", triggers);
        counter("hs_run.sedation_events", sedations);
        counter("hs_run.trace_events", events);
        counter("hs_run.trace_events_dropped", dropped);
        out["hs_run.peak_temp_k"] = strprintf("%.17g", peak);
    }
    for (const auto &[name, h] : hists)
        histogram(name, h);
    if (engine) {
        counter("engine.prefix_groups", engine->groups);
        counter("engine.forked_runs", engine->forkedRuns);
        counter("engine.saved_cycles", engine->savedCycles);
    }
    if (cellSeconds)
        histogram("engine.cell_host_seconds", *cellSeconds);

    // The caller positions the opening brace (it usually follows a
    // "key": prefix); @p indent governs the inner and closing lines.
    const std::string in0(static_cast<size_t>(indent) * 2, ' ');
    os << "{";
    const char *sep = "";
    for (const auto &[name, value] : out) {
        os << sep << "\n" << in0 << "  \"" << name << "\": " << value;
        sep = ",";
    }
    if (!out.empty())
        os << "\n" << in0;
    os << "}";
}

void
writeMatrixJson(std::ostream &os, const std::vector<RunSpec> &specs,
                const std::vector<RunResult> &results,
                const RunMetrics *metrics)
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
        metrics->writeJson(os, results, 1);
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
