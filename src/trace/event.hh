/**
 * @file
 * Structured trace events.
 *
 * A TraceEvent is one timestamped observation of the attack timeline
 * the paper argues from: a DTM policy transition (trigger, sedation,
 * release), a thermal threshold crossing of a floorplan block, a
 * usage-monitor EWMA sample, a fetch-gate open/close at the pipeline,
 * or a heat/cool episode boundary. Events are plain data — fixed size,
 * no heap — so the tracer can buffer them in a preallocated ring and
 * the simulator can serialise them through snapshots, keeping
 * prefix-shared runs' traces bit-identical to cold runs'.
 */

#ifndef HS_TRACE_EVENT_HH
#define HS_TRACE_EVENT_HH

#include <cstdint>

#include "common/blocks.hh"
#include "common/types.hh"

namespace hs {

/** Event categories, used for filtering (--trace-filter). */
enum class TraceCategory : uint8_t {
    Dtm,     ///< DTM policy transitions (trigger/sedate/release)
    Thermal, ///< emergency-threshold crossings per block
    Monitor, ///< per-window usage-monitor EWMA samples
    Fetch,   ///< pipeline fetch-gate / stall / throttle changes
    Episode  ///< heat/cool episode boundaries of the hot spot
};

constexpr int numTraceCategories = 5;

/** What happened. Each kind belongs to exactly one category. */
enum class TraceKind : uint8_t {
    // Dtm
    StopGoTrigger,    ///< stop-and-go engaged (value = hottest K)
    StopGoRelease,    ///< stop-and-go released (arg = stall cycles)
    SedUpperCross,    ///< block crossed the sedation upper threshold
    ThreadSedated,    ///< sedation stopped a thread (value = wavg)
    SedRecheck,       ///< still hot after 2x cooling time: re-sedate
    SedLowerCross,    ///< block cooled to the lower threshold
    ThreadReleased,   ///< sedation released a thread
    DvfsTrigger,      ///< DVFS throttle engaged
    DvfsRelease,      ///< DVFS throttle released
    FetchGateTrigger, ///< rotating fetch-gating engaged
    FetchGateRelease, ///< rotating fetch-gating released
    OsDeschedule,     ///< OS removed a repeat offender
    // Thermal
    EmergencyUp,      ///< block crossed the emergency temp upward
    EmergencyDown,    ///< block recovered below emergency - 0.5 K
    // Monitor
    MonitorSample,    ///< per-thread EWMA at a monitor boundary
    // Fetch
    FetchGateClose,   ///< pipeline stopped fetching from a thread
    FetchGateOpen,    ///< pipeline resumed fetching from a thread
    FetchThrottleSet, ///< per-thread fetch throttle changed (arg = k)
    GlobalStallOn,    ///< whole pipeline clock-gated
    GlobalStallOff,   ///< pipeline clock released
    // Episode
    EpisodeRiseStart, ///< hot spot left the normal-operation band
    EpisodePeak,      ///< hot spot reached the trigger temperature
    EpisodeEnd        ///< hot spot recovered (value = duty cycle)
};

/** Sentinel for events not tied to a floorplan block. */
constexpr uint8_t traceNoBlock = 0xff;

/** @return the category @p kind belongs to. */
TraceCategory traceKindCategory(TraceKind kind);

/** @return a stable snake_case name for @p kind. */
const char *traceKindName(TraceKind kind);

/** @return a stable lower-case name for @p cat. */
const char *traceCategoryName(TraceCategory cat);

/** One structured trace event (fixed-size POD). */
struct TraceEvent
{
    Cycles cycle = 0;   ///< when it happened
    double value = 0.0; ///< kind-specific payload (K, EWMA, duty, ...)
    uint64_t arg = 0;   ///< kind-specific payload (counts, factors)
    int16_t thread = -1;///< affected thread (core-local), or -1
    TraceCategory cat = TraceCategory::Dtm;
    TraceKind kind = TraceKind::StopGoTrigger;
    uint8_t block = traceNoBlock; ///< blockIndex(), or traceNoBlock
    uint8_t core = 0;   ///< core the event happened on
    /** Explicit, always-zero padding: results carry events as raw
     *  bytes, so equal events must have equal bytes. */
    uint8_t pad[2] = {};

    bool operator==(const TraceEvent &) const = default;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent is encoded raw");

/** Build an event; the category is derived from @p kind. */
inline TraceEvent
traceEvent(Cycles cycle, TraceKind kind, int thread, uint8_t block,
           double value = 0.0, uint64_t arg = 0)
{
    TraceEvent e;
    e.cycle = cycle;
    e.value = value;
    e.arg = arg;
    e.thread = static_cast<int16_t>(thread);
    e.cat = traceKindCategory(kind);
    e.kind = kind;
    e.block = block;
    return e;
}

/** @return blockIndex(@p b) narrowed for TraceEvent::block. */
inline uint8_t
traceBlock(Block b)
{
    return static_cast<uint8_t>(blockIndex(b));
}

} // namespace hs

#endif // HS_TRACE_EVENT_HH
