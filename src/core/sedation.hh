/**
 * @file
 * Selective sedation — the paper's contribution (Section 3.2).
 *
 * Per-resource state machine:
 *  - When a resource's temperature crosses the upper threshold (356 K,
 *    just below the 358 K emergency), identify the culprit as the
 *    un-sedated thread with the highest weighted-average access rate at
 *    that resource and stop fetching from it (sedation).
 *  - If, after twice the expected cooling time, the resource is still
 *    above the lower threshold (355 K), sedate the next-highest thread
 *    (multiple attackers, Section 3.2.2) — unless only one un-sedated
 *    thread remains; the last thread is never sedated (it cannot harm
 *    anyone else; the stop-and-go safety net guards the emergency).
 *  - When the resource cools to the lower threshold, every thread
 *    sedated for it resumes.
 *
 * Offending threads are reported to the "operating system" through a
 * callback so schedulers can act on repeat offenders.
 */

#ifndef HS_CORE_SEDATION_HH
#define HS_CORE_SEDATION_HH

#include <array>
#include <functional>
#include <vector>

#include "core/dtm_policy.hh"
#include "core/usage_monitor.hh"

namespace hs {

/** Selective sedation configuration. */
struct SedationParams
{
    Kelvin upperThreshold = 356.0; ///< Section 5: sedate trigger
    Kelvin lowerThreshold = 355.0; ///< Section 5: release threshold
    /**
     * Cycles equal to twice the expected cooling time of a resource
     * (Section 3.2.2). At 4 GHz with the ~12.5 ms cooling time this is
     * 100 M cycles; experiments scale it with the thermal time scale.
     */
    Cycles recheckCycles = 100'000'000;
    int ewmaShift = 9; ///< x = 1/512: ~0.5 M-cycle window (Section 4)
    /**
     * Ablation switch (off by default): use an absolute weighted-
     * average threshold instead of the temperature trigger. The paper
     * explains why this false-positives (Section 3.2.1); tests and the
     * threshold-sensitivity bench exercise it.
     */
    bool useUsageThreshold = false;
    double usageThreshold = 8000.0; ///< accesses per 1 K-cycle window
                                    ///< (8/cycle) deemed suspicious
    /**
     * Selective *throttling* instead of full sedation (Section 3.2
     * discusses per-thread slow-down in general): 0 stops the culprit's
     * fetch entirely (the paper's mechanism); k > 1 lets it fetch every
     * k-th cycle instead.
     */
    int throttleFactor = 0;
};

/** One sedation action, reported to the OS callback and kept for
 *  post-run inspection. */
struct SedationEvent
{
    Cycles cycle = 0;
    Block resource = Block::IntReg;
    /** Explicit, always-zero padding: events are encoded as raw bytes,
     *  so equal events must have equal bytes. */
    uint8_t pad[3] = {};
    ThreadId thread = invalidThreadId;
    double weightedAvg = 0.0;

    bool operator==(const SedationEvent &) const = default;
};
static_assert(sizeof(SedationEvent) == 24, "SedationEvent is encoded raw");

/** The selective-sedation DTM policy. */
class SelectiveSedation : public DtmPolicy
{
  public:
    using OsReportFn = std::function<void(const SedationEvent &)>;

    SelectiveSedation(int num_threads, const SedationParams &params = {},
                      Cycles monitor_interval = 1000);

    const char *name() const override { return "selective-sedation"; }

    void atMonitorSample(Cycles now,
                         const ActivityCounters &activity) override;
    void atSensorSample(Cycles now, const std::vector<Kelvin> &temps,
                        DtmControl &control) override;

    /** Install the OS reporting callback. */
    void setOsReport(OsReportFn fn) { osReport_ = std::move(fn); }

    /** All sedation actions taken so far. */
    const std::vector<SedationEvent> &events() const { return events_; }

    /** @return true if @p tid is currently sedated (for any resource). */
    bool isSedated(ThreadId tid) const;

    /**
     * The usage-threshold ablation's trigger (Section 3.2.1): some
     * active, unsedated thread's weighted average at @p b is at or
     * above @p threshold. The policy and the prefix engine's
     * divergence test (Simulator::runPrefix) both ask this.
     */
    bool usageTriggered(Block b, double threshold,
                        const DtmControl &control) const;

    /** Direct access to the usage monitor (for reports and tests). */
    const UsageMonitor &monitor() const { return monitor_; }
    UsageMonitor &monitor() { return monitor_; }

    const SedationParams &params() const { return params_; }

  private:
    struct ResourceState
    {
        bool engaged = false;
        /** Latched observed crossing of the upper threshold, used only
         *  for trace emission (reset at the lower threshold). */
        bool aboveUpper = false;
        Cycles recheckAt = 0;
        std::vector<ThreadId> sedatedThreads;
    };

    int unsedatedActiveThreads(const DtmControl &control) const;
    void sedate(Cycles now, Block b, ThreadId tid, DtmControl &control);
    void releaseAll(Cycles now, Block b, DtmControl &control);
    bool sedateCulpritIfPossible(Cycles now, Block b,
                                 DtmControl &control);

    int numThreads_;
    SedationParams params_;
    UsageMonitor monitor_;
    std::vector<int> sedationRefs_; ///< per-thread resource refcount
    std::array<ResourceState, numBlocks> state_{};
    std::vector<SedationEvent> events_;
    OsReportFn osReport_;
};

} // namespace hs

#endif // HS_CORE_SEDATION_HH
