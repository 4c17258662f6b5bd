/**
 * @file
 * Dynamic thermal management (DTM) policy framework.
 *
 * Policies observe the temperature sensors (sampled every 20 K cycles,
 * Section 4) and the per-thread activity counters (sampled every 1 K
 * cycles for the sedation usage monitor), and act on the pipeline
 * through the DtmControl interface. Policies compose: the simulator
 * runs selective sedation with the stop-and-go safety net underneath,
 * exactly as Section 3.2.2 prescribes.
 */

#ifndef HS_CORE_DTM_POLICY_HH
#define HS_CORE_DTM_POLICY_HH

#include <string>
#include <vector>

#include "common/blocks.hh"
#include "common/types.hh"
#include "power/activity.hh"

namespace hs {

class Tracer;

/**
 * The pipeline control points a DTM policy may exercise.
 * Implemented by the simulator, which forwards to the SMT core.
 */
class DtmControl
{
  public:
    virtual ~DtmControl() = default;

    /** Stop-and-go: gate the entire pipeline clock. */
    virtual void stallPipeline(bool stalled) = 0;

    /** Selective sedation: stop fetching from @p tid. */
    virtual void sedateThread(ThreadId tid, bool sedated) = 0;

    /** Selective throttling: @p tid fetches only every @p k-th cycle
     *  (k = 1 restores full speed). Default: ignored (policies that
     *  never throttle need not care). */
    virtual void
    throttleThread(ThreadId tid, int every_k)
    {
        (void)tid;
        (void)every_k;
    }

    /** DVFS-style throttle: run the pipeline every @p k cycles. */
    virtual void throttlePipeline(int every_k) = 0;

    /** @return true if context @p tid has a runnable program. */
    virtual bool threadActive(ThreadId tid) const = 0;
};

/** Base class for DTM policies. */
class DtmPolicy
{
  public:
    virtual ~DtmPolicy() = default;

    /** Policy name for reports. */
    virtual const char *name() const = 0;

    /**
     * Called every usage-monitor interval (1 K cycles) with the
     * cumulative activity counters. Default: ignore.
     */
    virtual void
    atMonitorSample(Cycles now, const ActivityCounters &activity)
    {
        (void)now;
        (void)activity;
    }

    /**
     * Called every temperature-sensor interval (20 K cycles) with the
     * current block temperatures (kelvin, indexed by Block).
     */
    virtual void atSensorSample(Cycles now,
                                const std::vector<Kelvin> &temps,
                                DtmControl &control) = 0;

    /** Attach a structured event tracer (null = tracing disabled;
     *  emission sites branch on the pointer). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

  protected:
    Tracer *tracer_ = nullptr;
};

} // namespace hs

#endif // HS_CORE_DTM_POLICY_HH
