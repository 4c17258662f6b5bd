/**
 * @file
 * Parallel experiment engine.
 *
 * Executes a matrix of RunSpecs on one pool of lanes: `jobs` local
 * std::threads plus one dispatcher per connected TCP worker. Each
 * simulation owns all of its state (fixed-seed RNGs, no globals), so
 * runs are embarrassingly parallel and the engine guarantees
 * bit-identical results to serial execution, returned in submission
 * order regardless of the lane mix.
 *
 * Cells that differ only in DTM policy fields (mode, thresholds, the
 * usage-threshold ablation, the deschedule knob) simulate
 * bit-identically until the first sensor sample at which any of their
 * policies could act on temperature or usage (DivergeRule). The engine
 * groups such cells by RunSpec::divergenceKey(), simulates that shared
 * warm-up prefix once with neutralised thresholds, snapshots it, and
 * forks each cell from the snapshot — the forked run is bit-identical
 * to a cold one (enforced by tests), just cheaper. Each group's prefix
 * is a task on the same lanes. A lane takes a forked cell whose
 * group's snapshot is published before anything else, then a prefix
 * task (local lanes only), then a cold cell, so each group's cells run
 * as soon as its own prefix is built; only when nothing else is left
 * does a lane wait for a snapshot. There is no barrier before
 * dispatch. Prefix sharing is
 * the engine's only work-sharing mechanism (docs/PERFORMANCE.md, "One
 * work-sharing engine").
 *
 * Two further tiers extend the engine beyond one process:
 *  - a persistent content-addressed result store (sim/disk_store.hh)
 *    attached to the ResultStore serves finished cells across process
 *    boundaries and reruns;
 *  - TCP worker sharding (sim/remote.hh) adds remote dispatcher lanes
 *    next to the local threads, with automatic local fallback when a
 *    worker dies.
 * Neither can change results: cells are deterministic, results always
 * fold in submission order.
 *
 * Run health is one counter set: the CellTally folded from every
 * CellEvent. `--progress`, `--status-port`, the `[engine]` line and the
 * `matrix_done` event all render it; none counts on its own.
 *
 * Knobs (HS_JOBS, HS_STORE, HS_FAULTS): `hs_run --help`.
 * With a store attached, the stored records are the campaign: an
 * interrupted campaign restarted with the same command line resumes,
 * simulating only the cells the store is missing.
 */

#ifndef HS_SIM_RUNNER_HH
#define HS_SIM_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/remote.hh"
#include "sim/run_spec.hh"
#include "sim/snapshot.hh"
#include "trace/metrics.hh"

namespace hs {

class DiskResultStore;
class ResultStore;
class Simulator;
struct SimProfile;

/** Build a configured simulator with @p spec 's workloads bound. */
std::unique_ptr<Simulator> makeSimulator(const RunSpec &spec);

/**
 * Execute one spec serially (no cache): the one path every cell runs,
 * cold, forked or on a remote worker. With @p snap the run resumes
 * from that warm-up prefix instead of cycle 0; with @p profile the
 * simulator's cost centres (SimProfile, host clocks on) are copied
 * there. Neither changes the result.
 */
RunResult executeRunSpec(const RunSpec &spec,
                         const SimSnapshot *snap = nullptr,
                         SimProfile *profile = nullptr);

/**
 * Build the simulator that runs a divergence group's shared prefix:
 * @p spec 's configuration with every DTM trigger neutralised (so the
 * prefix itself never acts) but the sedation usage monitor kept
 * running, since it is the one piece of policy state that evolves
 * below the trigger: forked sedation cells inherit it from the
 * snapshot, and the usage part of the group's DivergeRule reads it.
 */
std::unique_ptr<Simulator> makePrefixSimulator(const RunSpec &spec);

/** Remote-sharding counters accumulated by a ParallelRunner. */
struct RemoteStats
{
    uint64_t workers = 0;     ///< endpoints that handshook successfully
    uint64_t remoteCells = 0; ///< cells simulated by TCP workers
    uint64_t lostWorkers = 0; ///< workers that died mid-campaign
    uint64_t requeuedCells = 0; ///< local fallbacks (= lostWorkers)
    uint64_t heartbeats = 0;  ///< heartbeat frames folded so far (live)
    /** Per-worker fleet telemetry (job counts, remote wall time,
     *  heartbeats, snapshot bytes saved). Host-dependent sidecar data:
     *  reported by hs_run, never folded into artifacts. */
    std::vector<WorkerTelemetry> perWorker;
};

/** Lockstep-batch counters, always zero (the engine shares work
 *  through prefix snapshots only); perfbench/ still reads them. */
struct BatchStats
{
    uint64_t lanes = 0;
    uint64_t peeledLanes = 0;
    uint64_t scoutCycles = 0;
};

/** Prefix-sharing counters accumulated by a ParallelRunner. */
struct PrefixShareStats
{
    uint64_t groups = 0;      ///< divergence groups that forked
    uint64_t forkedRuns = 0;  ///< cells restored from a snapshot
    uint64_t prefixCycles = 0;///< cycles simulated by shared prefixes
    uint64_t savedCycles = 0; ///< cycles forked cells did not re-run
};

struct CellTally;

/**
 * One cell-lifecycle notification from a ParallelRunner (run health,
 * never simulation state). Emitted entirely off the simulated path:
 * observers cannot affect results or bit-identity.
 */
struct CellEvent
{
    enum class Kind : uint8_t {
        Queued,         ///< spec accepted into the matrix, before work
        Started,        ///< a worker picked the cell up
        PrefixForked,   ///< the cell resumed from a shared prefix
        CacheHit,       ///< the in-memory ResultStore had the result
        DiskHit,        ///< the persistent store tier had the result
        Finished,       ///< the cell simulated to completion locally
        RemoteFinished, ///< a TCP worker simulated the cell
    };

    Kind kind = Kind::Queued;
    size_t index = 0;        ///< submission index of the cell
    size_t total = 0;        ///< matrix size
    const char *label = "";  ///< spec label (valid during the callback)
    double hostSeconds = 0;  ///< Finished: wall time of the compute
    /** Execution lane: 0..jobs-1 are local threads, higher ids are
     *  remote dispatcher lanes (-1: no lane, e.g. Queued). Lets the
     *  fleet timeline attribute each cell to the worker that ran
     *  it. */
    int lane = -1;
    /** The runner's tally with this event already folded in (valid
     *  during the callback, like @c label). */
    const CellTally *tally = nullptr;
};

/**
 * The runner's one per-cell counter set, folded from every CellEvent
 * it emits. Cumulative across run() calls. Invariants: running + done
 * <= total after every fold, and running is 0 once run() returns.
 */
struct CellTally
{
    size_t total = 0;    ///< cells queued
    size_t running = 0;  ///< started, not yet resolved
    size_t done = 0;     ///< resolved by any terminal kind
    size_t memHits = 0;  ///< served by the in-memory ResultStore
    size_t diskHits = 0; ///< served by the persistent store tier
    size_t remote = 0;   ///< simulated by TCP workers
    size_t forked = 0;   ///< resumed from a shared prefix
    /** Host wall time of every simulated cell, local or remote. Host
     *  measurement — never feed it into anything deterministic. */
    Histogram cellSeconds;

    /** Fold one lifecycle event into the counts. */
    void fold(const CellEvent &ev);
};

/** Lane-pool executor for RunSpec matrices. */
class ParallelRunner
{
  public:
    using CellObserver = std::function<void(const CellEvent &)>;

    /**
     * @param jobs worker threads; 0 = hardware concurrency.
     * @param store memoisation store, or nullptr to always simulate.
     */
    explicit ParallelRunner(int jobs = 0, ResultStore *store = nullptr);

    /**
     * Run every spec and return results in submission order.
     * Bit-identical to calling executeRunSpec() on each spec in turn.
     */
    std::vector<RunResult> run(const std::vector<RunSpec> &specs);

    int jobs() const { return jobs_; }

    /** Toggle prefix sharing (on by default). A fork is bit-identical
     *  to the cold run, so turning it off only serves the bit-identity
     *  suites, which need cold references. */
    void setPrefixSharing(bool on) { prefixSharing_ = on; }
    bool prefixSharing() const { return prefixSharing_; }

    /**
     * Shard cells across TCP workers (hs_run --workers). Each endpoint
     * becomes one dispatcher lane next to the local threads; a worker
     * that fails mid-run is abandoned and its cells run locally. Set
     * before run().
     */
    void setWorkers(std::vector<Endpoint> endpoints);

    /** Cumulative remote-sharding counters across run() calls. */
    RemoteStats remoteStats() const;

    /** Cumulative prefix-sharing counters across run() calls. */
    PrefixShareStats prefixStats() const;

    /** Always zero: kept for perfbench's batch.* rows. */
    BatchStats batchStats() const { return {}; }

    /**
     * Install a lifecycle observer (progress bars, watchdogs). Calls
     * are serialised under an internal mutex, so the observer may keep
     * plain state and read CellEvent::tally without locking; it runs
     * on worker threads and must not touch the runner. Install before
     * run(); null disables.
     */
    void setCellObserver(CellObserver fn);

    /** A copy of the cell tally (safe from any thread but the
     *  observer, which reads CellEvent::tally instead). */
    CellTally tally() const;

  private:
    /** Log @p ev, fold it into the tally and hand it to the observer. */
    void notify(CellEvent ev);

    /** A divergence group's snapshot as its prefix task publishes it:
     *  null when the group diverged before the first snapshot. */
    using SnapshotPtr = std::shared_ptr<const SimSnapshot>;

    /** One eligible divergence group: its shared prefix, run as a task
     *  on a local lane. */
    struct PrefixTask;

    /**
     * Plan run()'s prefix tasks, one per eligible divergence group in
     * insertion order. Specs are grouped by divergence key; a group is
     * eligible when at least two distinct cells not already in the
     * store would fork from it. Each member of an eligible group gets
     * the group's future in @p forks; every other entry stays invalid
     * (simulate cold). @p keys holds each spec's canonical key.
     */
    std::vector<PrefixTask>
    planPrefixes(const std::vector<RunSpec> &specs,
                 const std::vector<std::string> &keys,
                 std::vector<std::shared_future<SnapshotPtr>> &forks);

    /**
     * Simulate @p task 's shared prefix on local lane @p lane, log one
     * `prefix_built` event and publish the snapshot to its members'
     * futures, or the exception if the prefix threw.
     */
    void buildPrefix(PrefixTask &task, const std::vector<RunSpec> &specs,
                     int lane);

    int jobs_;
    ResultStore *store_;
    bool prefixSharing_ = true;
    std::vector<Endpoint> workerEndpoints_;
    std::atomic<uint64_t> remoteWorkers_{0};
    std::atomic<uint64_t> lostWorkers_{0}; ///< = cells requeued locally
    std::atomic<uint64_t> heartbeats_{0};
    CellObserver observer_;
    mutable std::mutex observerMu_; ///< serialises notify(), guards tally_
    CellTally tally_;
    mutable std::mutex telemetryMu_; ///< guards workerTelemetry_
    std::vector<WorkerTelemetry> workerTelemetry_;
    std::atomic<uint64_t> prefixGroups_{0};
    std::atomic<uint64_t> prefixCycles_{0};
    std::atomic<uint64_t> savedCycles_{0};
};

/**
 * Bench-harness convenience: run @p specs with HS_JOBS workers and the
 * process-wide ResultStore, and print a one-line engine summary
 * (worker count, cache hits, wall time) to stderr.
 */
std::vector<RunResult> runMatrix(const std::vector<RunSpec> &specs);

/**
 * Count the cells of @p specs that @p disk already holds
 * (prepareCampaign(), which writes nothing) and, when there are any,
 * announce the resume with a `[campaign] resuming` stderr line and a
 * `campaign_resumed` event. runMatrix() and hs_run share it.
 */
void startCampaign(DiskResultStore &disk, const std::vector<RunSpec> &specs);

/**
 * The "metrics" object of hs_run's matrix JSON: run totals folded from
 * the results (counters, the peak-temperature gauge, every run-health
 * histogram), plus the engine's statistics when the engine ran. The
 * pointers are views that must outlive writeJson().
 */
struct RunMetrics
{
    /** engine.prefix_groups / forked_runs / saved_cycles. */
    const PrefixShareStats *engine = nullptr;
    /** engine.cell_host_seconds: wall time per completed cell. */
    const Histogram *cellSeconds = nullptr;

    /**
     * Emit `{ "name": value, ... }` sorted by name across all kinds:
     * counters as integers, the gauge with 17 significant digits,
     * histograms as Histogram::writeJson() lines. Histograms merge in
     * submission order, so the text is byte-identical across worker
     * counts and prefix sharing on/off, except for "host"-named
     * metrics, which are wall-clock measurements. @p indent is the
     * closing brace's indentation in two-space steps.
     */
    void writeJson(std::ostream &os, const std::vector<RunResult> &results,
                   int indent = 0) const;
};

/**
 * Structured emission of a whole matrix: one JSON object with a
 * "runs" array pairing each spec (label, canonical key, hash) with its
 * result. When @p metrics is non-null a "metrics" object follows
 * (hs_run --json).
 */
void writeMatrixJson(std::ostream &os, const std::vector<RunSpec> &specs,
                     const std::vector<RunResult> &results,
                     const RunMetrics *metrics = nullptr);

/** One CSV row per (run, thread), prefixed by run index and label. */
void writeMatrixCsv(std::ostream &os, const std::vector<RunSpec> &specs,
                    const std::vector<RunResult> &results);

} // namespace hs

#endif // HS_SIM_RUNNER_HH
