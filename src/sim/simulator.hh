/**
 * @file
 * Top-level simulator: N SMT cores (pipeline + Wattch-style energy
 * model + DTM policies each) on one shared HotSpot-style thermal die,
 * run for one OS quantum.
 *
 * The drive loop follows Section 4 of the paper: every core's pipeline
 * runs cycle by cycle in lockstep; every monitorInterval (1 K) cycles
 * each core's sedation usage monitor samples its activity counters;
 * every sensorInterval (20 K) cycles the per-block powers of every
 * core are computed, the shared thermal network is stepped once, each
 * core's temperature emergencies are counted, and each core's DTM
 * policies observe that core's sensors and act on that core alone.
 *
 * A 1-core configuration (the default) is exactly the original
 * single-core simulator: same loop, same sampling order, same output
 * bytes. The topology axis (docs/TOPOLOGY.md) only adds state when
 * SimConfig::topology.numCores > 1.
 */

#ifndef HS_SIM_SIMULATOR_HH
#define HS_SIM_SIMULATOR_HH

#include <limits>
#include <memory>
#include <vector>

#include "core/dtm_policy.hh"
#include "core/dvfs.hh"
#include "core/fetch_gating.hh"
#include "core/offender_tracker.hh"
#include "core/sedation.hh"
#include "core/stop_and_go.hh"
#include "common/rng.hh"
#include "power/energy_model.hh"
#include "sim/episodes.hh"
#include "sim/results.hh"
#include "sim/snapshot.hh"
#include "smt/pipeline.hh"
#include "thermal/thermal_model.hh"
#include "thermal/topology.hh"
#include "trace/metrics.hh"
#include "trace/tracer.hh"

namespace hs {

/**
 * Wall-clock and cycle attribution across the simulator's cost
 * centres, filled when profiling is enabled (hs_run --profile).
 * tickSeconds is derived at the end of each run() as the loop time not
 * spent in thermal samples or stalled fast-forwarding.
 */
struct SimProfile
{
    uint64_t tickedCycles = 0;   ///< cycles executed via tick()
    uint64_t stalledCycles = 0;  ///< cycles skipped via advanceStalled()
    uint64_t sensorSamples = 0;  ///< thermal/DTM sample points
    uint64_t snapshotOps = 0;    ///< save() + restore() calls
    double totalSeconds = 0.0;   ///< run() wall time
    double tickSeconds = 0.0;    ///< cycle-by-cycle execution
    double thermalSeconds = 0.0; ///< sampleSensors() (power + RC step)
    double stallSeconds = 0.0;   ///< stalled fast-forward bookkeeping
    double snapshotSeconds = 0.0;///< save() + restore() wall time
};

/** Which DTM configuration supervises the run. */
enum class DtmMode {
    None,              ///< sensors observed, never acts (ideal sink)
    StopAndGo,         ///< the paper's base case
    SelectiveSedation, ///< the contribution + stop-and-go safety net
    DvfsThrottle,      ///< extension: duty-cycle frequency scaling
    FetchGating        ///< extension: rotating indiscriminate fetch gate
};

/** @return a stable display name for @p mode. */
const char *dtmModeName(DtmMode mode);

/** Full configuration of one run. */
struct SimConfig
{
    SmtParams smt{}; ///< per-core geometry (numThreads = contexts/core)
    EnergyParams energy = EnergyParams::defaults();
    ThermalParams thermal{};
    /** Die composition (docs/TOPOLOGY.md): how many core tiles share
     *  the spreader/sink, their spacing and the cross-core coupling
     *  knob. numCores = 1 (default) is the original single-core die. */
    TopologyParams topology{};
    /**
     * Core each workload (global thread id) runs on; empty places every
     * workload on core 0. Entries must lie in [0, topology.numCores)
     * and no core may receive more than smt.numThreads workloads.
     */
    std::vector<int> placement;
    Cycles quantumCycles = 500'000'000; ///< Section 4: one OS quantum
    Cycles sensorInterval = 20'000;     ///< Section 4
    Cycles monitorInterval = 1'000;     ///< Section 3.2.1
    Kelvin emergencyTemp = 358.0;       ///< Section 5
    DtmMode dtm = DtmMode::StopAndGo;
    StopAndGoParams stopAndGo{};
    SedationParams sedation{};
    DvfsParams dvfs{};
    FetchGatingParams fetchGating{};
    /** OS extension (Section 3.3): deschedule repeat offenders after
     *  offenderPolicy.reportsBeforeDeschedule sedation reports. */
    bool descheduleRepeatOffenders = false;
    OffenderPolicy offenderPolicy{};
    /** Gaussian-free uniform sensor error: policies observe
     *  temperature +- up to this many kelvin (Section 5.6 robustness;
     *  emergencies are counted on the true temperatures). */
    double sensorNoiseK = 0.0;
    bool recordTempTrace = false;
    Cycles tempTraceInterval = 100'000;

    /** Structured event tracing (src/trace): when enabled, DTM state
     *  transitions, threshold crossings, EWMA monitor samples, fetch
     *  gating and heat/cool episode boundaries are recorded into a
     *  bounded in-memory ring and exported into the RunResult. Off by
     *  default: emission sites branch on a null tracer pointer. */
    bool traceEvents = false;
    uint32_t traceCapacity = 1u << 16; ///< ring slots (drop-oldest)
    /** Online episode-detector thresholds (Section 3.1 duty cycle):
     *  mirror the stop-and-go engage/release pair by default. */
    Kelvin episodeTriggerTemp = 358.0;
    Kelvin episodeResumeTemp = 348.5;

    /**
     * Nominal per-block access rates (accesses/cycle) used to
     * initialise the thermal network at its normal-operation steady
     * state before the quantum starts (a typical two-thread SPEC mix).
     */
    std::array<double, numBlocks> nominalAccessRates =
        defaultNominalRates();

    /** @return the calibrated typical-activity vector. */
    static std::array<double, numBlocks> defaultNominalRates();
};

/**
 * When a prefix group's shared history ends: the first sensor sample
 * at which some member's DTM stack could act. Below both parts every
 * policy is a pure observer (each is a strict no-op while disengaged
 * and under its trigger), so cells differing only in policy fields
 * evolve bit-identically. A part left at +infinity never fires.
 */
struct DivergeRule
{
    /** Observed (noised) hottest temperature at which a member's
     *  thermal trigger fires. */
    Kelvin temp = std::numeric_limits<double>::infinity();
    /** Weighted usage (accesses per monitor window) at which a
     *  member's usage-threshold sedation fires (the Section 3.2.1
     *  ablation; see SelectiveSedation::usageTriggered). */
    double usage = std::numeric_limits<double>::infinity();
};

/** The rule of a cell configured by @p cfg alone. */
DivergeRule divergeRule(const SimConfig &cfg);

/** The heat-stroke simulator. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &config = {});
    ~Simulator();

    /**
     * Bind a copy of @p program to global hardware context @p tid.
     * Global contexts map onto cores through SimConfig::placement: a
     * workload's core is placement[tid] (core 0 when the placement is
     * empty) and its core-local slot is the count of earlier workloads
     * placed on the same core.
     */
    void setWorkload(ThreadId tid, Program program);

    /** Run one OS quantum and return the results. */
    RunResult run();

    /**
     * Serialise the complete simulator state into @p snap. Only legal
     * at a sensor boundary with no core's pipeline stalled and the
     * machine not fully halted: those are the only points at which a
     * restored run() can re-enter its loop bit-identically (countdowns
     * restart full, and a halted machine would be re-tested one cycle
     * late).
     */
    void save(SimSnapshot &snap) const;

    /**
     * Resume from @p snap. Only legal on a freshly constructed
     * simulator whose configuration matches the snapshot's
     * prefix-invariant fields (including topology and placement) and
     * whose workloads are already bound (program text is not
     * serialised). The next run() continues from the snapshot cycle
     * and produces results bit-identical to a cold run of the same
     * configuration.
     */
    void restore(const SimSnapshot &snap);

    /**
     * Run the shared warm-up prefix of an experiment group: run()'s
     * own drive loop, plus a snapshot into @p out every
     * @p stride_samples sensor samples, stopping (without saving) at
     * the first sample where either part of @p rule holds — the
     * observed hottest temperature of any core reaches rule.temp, or
     * on any core an active, unsedated thread's weighted usage at any
     * block reaches rule.usage (read from this simulator's own
     * sedation monitor) — or the machine halts. From that sample on some group member's
     * DTM policy could act, so the members' futures are no longer
     * provably identical. The caller must have neutralised this
     * simulator's own DTM thresholds so the prefix itself never acts
     * (a pipeline stalled at a sample is fatal).
     *
     * @return the cycle of the last snapshot taken (0 = none).
     */
    Cycles runPrefix(const DivergeRule &rule, Cycles stride_samples,
                     SimSnapshot &out);

    /** Seconds one sensor interval spans — the thermal step dt. */
    double sensorDt() const;

    /** Enable cost-centre accounting (see SimProfile). */
    void setProfiling(bool on) { profiling_ = on; }
    const SimProfile &profile() const { return profile_; }

    /** Number of composed cores (1 = the classic single-core die). */
    int numCores() const { return numCores_; }

    // Component access (examples / tests); core-indexed where the
    // state became per-core, defaulting to core 0 (the single core).
    Pipeline &pipeline(int core = 0);
    ThermalModel &thermal() { return *thermal_; }
    EnergyModel &energy() { return *energy_; }
    const SimConfig &config() const { return config_; }
    /** Core @p core's sedation policy if DtmMode::SelectiveSedation,
     *  else null. */
    SelectiveSedation *sedationPolicy(int core = 0);
    /** Core @p core's stop-and-go policy (base case or safety net),
     *  else null. */
    StopAndGo *stopAndGoPolicy(int core = 0);
    /** Core @p core's OS offender tracker when
     *  descheduleRepeatOffenders is set, else null. */
    OffenderTracker *offenderTracker(int core = 0);

    /** The structured event tracer when traceEvents is set, else null.
     *  One shared ring: events carry the id of the core they happened
     *  on (TraceEvent::core). */
    Tracer *tracer() { return tracer_.get(); }

    /** Install a user OS-report callback on every core's sedation
     *  policy (chained after the internal offender tracker, if any).
     *  Reported thread ids are core-local. */
    void setOsReport(SelectiveSedation::OsReportFn fn);

    /** Write a full statistics report (pipeline, caches, predictor,
     *  thermal, DTM) in the gem5-style `group.stat value # desc`
     *  format; per-core groups are prefixed `coreN.` on multi-core
     *  dies. Call after run(). */
    void dumpStats(std::ostream &os) const;

  private:
    /**
     * Everything one core owns: its pipeline and bound programs, its
     * DTM policy instances and their OS extensions, its episode
     * detector, and its share of the run accounting (emergency
     * counters, peaks, run-health histograms, sedation bookkeeping).
     * It is also the core's one DtmControl: the policies of core c
     * observe core c's sensors and act on core c's state alone.
     */
    struct CoreState final : DtmControl
    {
        std::vector<std::unique_ptr<Program>> programs;
        std::unique_ptr<Pipeline> pipeline;
        std::unique_ptr<ActivityCounters::Snapshot> powerSnapshot;
        std::vector<std::unique_ptr<DtmPolicy>> policies;
        SelectiveSedation *sedation = nullptr;
        StopAndGo *stopAndGo = nullptr;
        std::unique_ptr<OffenderTracker> offenderTracker;
        std::vector<ThreadId> descheduled; ///< core-local thread ids
        std::unique_ptr<OnlineEpisodeDetector> episodes;
        bool hasWork = false; ///< any program bound to this core

        Cycles lastActiveCycles = 0;
        uint64_t emergencies = 0;
        std::array<uint64_t, numBlocks> emergenciesPerBlock{};
        std::array<bool, numBlocks> aboveEmergency{};
        std::array<Kelvin, numBlocks> peakTemp{};
        /** Run-health histograms: plain members (never registry
         *  lookups) so the hot-path observes stay allocation-free;
         *  exported as RunResult::histograms and serialised through
         *  save()/restore() so prefix-forked cells report the same
         *  distributions as cold runs. */
        Histogram histEpisodeHeat;
        Histogram histEpisodeCool;
        Histogram histSedation;
        Histogram histRuu;
        Histogram histLsq;
        Histogram histFetchShare;
        /** Per-thread sedation bookkeeping: cycle+1 at which the
         *  current sedation span began, 0 when not sedated. */
        std::vector<Cycles> sedStart;
        std::vector<Watts> powerBuf;  ///< reused per sensor sample
        std::vector<Kelvin> tempsBuf; ///< reused per sensor sample

        void stallPipeline(bool stalled) override;
        void sedateThread(ThreadId tid, bool sedated) override;
        void throttleThread(ThreadId tid, int every_k) override;
        void throttlePipeline(int every_k) override;
        bool threadActive(ThreadId tid) const override;
        /** @return true for a thread the OS descheduled: it stays
         *  sedated whatever the hardware policy decides afterwards. */
        bool isDescheduled(ThreadId tid) const;
    };

    /**
     * The one drive loop, Section 4's schedule: tick every core in
     * lockstep (fast-forwarding while every pipeline is stalled),
     * sample the usage monitors every monitorInterval cycles and the
     * sensors every sensorInterval cycles. After each sensor sample
     * @p at_sample runs; returning true stops the loop there.
     * Otherwise it stops at the end of the quantum or once the machine
     * halts.
     *
     * @return the cycles fast-forwarded with every pipeline stalled.
     */
    template <class AtSample> Cycles drive(AtSample &&at_sample);
    /** The one body of save() and restore(): every field of a
     *  snapshot, in order. */
    template <class IO> void serialize(IO &io);
    void sampleSensors();
    void countEmergencies(CoreState &core);
    RunResult collectResults(double host_seconds) const;
    /** @return true once every core that has work is fully halted. */
    bool allCoresHalted() const;
    /** @return true when some core's usage-threshold sedation trigger
     *  would fire at @p threshold (runPrefix()'s usage part). */
    bool usageTriggered(double threshold) const;
    /** Seed the whole die at its normal-operation steady state. */
    void initNominalSteadyState();
    CoreState &coreAt(int core);
    const CoreState &coreAt(int core) const;

    SimConfig config_;
    int numCores_ = 1;
    /** Resolved placement: core / core-local slot per global thread
     *  id, and the inverse map (invalidThreadId = no workload). */
    std::vector<int> coreOf_;
    std::vector<ThreadId> slotOf_;
    std::vector<std::vector<ThreadId>> globalOf_;
    std::vector<CoreState> cores_;
    std::unique_ptr<EnergyModel> energy_;
    std::unique_ptr<ThermalModel> thermal_;
    SelectiveSedation::OsReportFn userOsReport_;
    std::unique_ptr<Tracer> tracer_;

    double energyAccumJ_ = 0.0;
    Rng sensorNoise_{0xbadcafe5};
    std::vector<TempSample> tempTrace_;
    Cycles lastTraceAt_ = 0;
    /** Concatenated per-core block powers fed to the shared RC
     *  network each sensor sample (reused, never reallocated). */
    std::vector<Watts> thermalPowerBuf_;

    /** Hottest temperature any core's policies observed (after sensor
     *  noise) at the most recent sample; runPrefix()'s divergence
     *  test must see exactly what a cell's policy would see. */
    Kelvin lastObservedMax_ = 0.0;
    bool resumedFromSnapshot_ = false;
    bool profiling_ = false;
    mutable SimProfile profile_; ///< save() is const but accounts here
};

} // namespace hs

#endif // HS_SIM_SIMULATOR_HH
