/**
 * @file
 * Declarative experiment specification.
 *
 * A RunSpec names everything that determines the outcome of one
 * simulated OS quantum: the workload mix plus the experiment options
 * (and the handful of direct SimConfig extras the harnesses use). Specs
 * are plain data — they can be built in bulk to describe a whole
 * figure's matrix, hashed into a canonical cache key, executed by the
 * ParallelRunner, and serialised alongside their results.
 *
 * The canonical key covers every field that influences the simulation,
 * so two specs with equal keys are guaranteed to produce bit-identical
 * RunResults (the simulator is deterministic: fixed-seed RNGs, no
 * wall-clock).
 */

#ifndef HS_SIM_RUN_SPEC_HH
#define HS_SIM_RUN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace hs {

/** One thread of a RunSpec's workload mix. */
struct WorkloadSpec
{
    enum class Kind {
        Spec,    ///< synthetic SPEC program by profile name
        Variant, ///< malicious kernel 1..4 (phase lengths track the
                 ///< spec's time scale)
        Asm      ///< assembly text carried in the spec itself
    };

    Kind kind = Kind::Spec;
    std::string name;    ///< profile name (Spec) or display label (Asm)
    int variant = 0;     ///< 1..4 for Kind::Variant
    std::string asmText; ///< program source for Kind::Asm

    /** A SPEC thread by profile name. */
    static WorkloadSpec spec(std::string name);
    /** A malicious-variant thread (1..4). */
    static WorkloadSpec maliciousVariant(int which);
    /** A thread assembled from @p text (hashed by content). */
    static WorkloadSpec assembly(std::string label, std::string text);

    bool operator==(const WorkloadSpec &) const = default;
};

/** Full declarative description of one run. */
struct RunSpec
{
    std::vector<WorkloadSpec> workloads;
    ExperimentOptions opts;

    // Direct SimConfig extras used by the harnesses and hs_run.
    int numThreads = 0;      ///< SMT contexts; 0 = config default,
                             ///< widened to fit the workload list
    double dieShrink = 1.0;  ///< technology-scaling study knob
    double sensorNoiseK = 0.0;
    int descheduleAfter = 0; ///< OS extension: deschedule after N
                             ///< sedation reports (0 = off)
    /** Structured event tracing (SimConfig::traceEvents). Part of the
     *  divergence key: traced and untraced cells must not share a
     *  prefix, and a traced prefix records the events its forks
     *  inherit. */
    bool traceEvents = false;

    /** Die composition (docs/TOPOLOGY.md): core tiles sharing the
     *  spreader/sink. 1 (the default) is the classic single-core die
     *  and leaves the canonical key byte-identical to what it always
     *  was. Part of the divergence key: dies of different shapes never
     *  share a prefix. */
    int numCores = 1;
    /** Core per workload (empty = all on core 0); trajectory state
     *  like numCores, keyed only when numCores > 1. */
    std::vector<int> placement;

    /** Display label for tables/JSON; NOT part of the canonical key. */
    std::string label;

    /**
     * Canonical text form of every outcome-determining field.
     * Equal keys <=> bit-identical results.
     */
    std::string canonicalKey() const;

    /**
     * canonicalKey() minus the policy-only fields (DTM mode, trigger
     * thresholds, the usage-threshold ablation, deschedule knob). Two
     * specs with equal divergence keys simulate bit-identically up to
     * the first sensor sample at which any of their policies could
     * act (see DivergeRule), so the experiment engine can run that
     * shared prefix once and fork each cell from a snapshot of it.
     */
    std::string divergenceKey() const;

    /** FNV-1a 64-bit hash of canonicalKey(). */
    uint64_t hash() const;

    bool operator==(const RunSpec &) const = default;

    /** The record's encode/decode body ("SPEC"-tagged section, see
     *  sim/serialize.hh). */
    template <class IO> void serialize(IO &io);

    // --- fluent builders (each returns a modified copy) -------------
    RunSpec withLabel(std::string l) const;
    RunSpec withDtm(DtmMode mode) const;
    RunSpec withSink(SinkType sink) const;
    RunSpec withTraceEvents(bool on) const;
    /** Compose @p cores tiles on one die; @p place maps each workload
     *  to its core (empty = all on core 0). */
    RunSpec withTopology(int cores, std::vector<int> place = {}) const;

  private:
    /** Shared body of canonicalKey() / divergenceKey(): the policy
     *  fields are emitted only when @p with_policy is set. */
    std::string buildKey(bool with_policy) const;
};

/** FNV-1a 64-bit hash of a canonical key: RunSpec::hash() for callers
 *  that already hold the key. */
uint64_t keyHash(const std::string &key);

/** Spec for @p name running alone. */
RunSpec soloSpec(const std::string &name, const ExperimentOptions &opts);
/** Spec for malicious variant @p variant running alone. */
RunSpec maliciousSoloSpec(int variant, const ExperimentOptions &opts);
/** Spec for @p name co-scheduled with malicious variant @p variant. */
RunSpec withVariantSpec(const std::string &name, int variant,
                        const ExperimentOptions &opts);
/** Spec for two SPEC programs sharing the machine. */
RunSpec specPairSpec(const std::string &a, const std::string &b,
                     const ExperimentOptions &opts);

} // namespace hs

#endif // HS_SIM_RUN_SPEC_HH
