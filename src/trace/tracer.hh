/**
 * @file
 * Bounded in-memory event tracer.
 *
 * The tracer buffers TraceEvents in a preallocated ring so emission
 * never allocates (the cycle loop's zero-allocation guarantee holds
 * with tracing on). When the ring fills, the *oldest* events are
 * dropped and counted: the tail of the timeline — the part the DTM
 * story is told from — is always retained.
 *
 * Tracing is zero-overhead when disabled: producers hold a raw
 * `Tracer *` that is null for untraced runs and every emission site is
 * a branch on that pointer.
 *
 * The tracer is simulator-owned state. It serialises through
 * Simulator::save()/restore() so a run forked from a shared warm-up
 * prefix carries the prefix's events and its final trace is
 * bit-identical to a cold run's.
 */

#ifndef HS_TRACE_TRACER_HH
#define HS_TRACE_TRACER_HH

#include <cstdint>
#include <vector>

#include "common/ring_buffer.hh"
#include "trace/event.hh"

namespace hs {

/** Bounded drop-oldest event buffer. */
class Tracer
{
  public:
    /** @param capacity ring size (rounded up to a power of two). */
    explicit Tracer(size_t capacity = 1 << 16);

    /** Append @p e stamped with this tracer's core id, dropping the
     *  oldest event if the ring is full. */
    void
    emit(const TraceEvent &e)
    {
        if (ring_.size() == ring_.capacity()) {
            ring_.pop_front();
            ++dropped_;
        }
        TraceEvent stamped = e;
        stamped.core = coreId_;
        ring_.push_back(stamped);
        ++emitted_;
    }

    /** Convenience emission; the category derives from @p kind. */
    void
    emit(Cycles cycle, TraceKind kind, int thread,
         uint8_t block = traceNoBlock, double value = 0.0,
         uint64_t arg = 0)
    {
        emit(traceEvent(cycle, kind, thread, block, value, arg));
    }

    /** Buffered events (after any drops). */
    size_t size() const { return ring_.size(); }
    /** Total events ever emitted (including dropped ones). */
    uint64_t emitted() const { return emitted_; }
    /** Events lost to ring overflow. */
    uint64_t dropped() const { return dropped_; }

    /** Event @p i counted from the oldest buffered one. */
    const TraceEvent &at(size_t i) const { return ring_[i]; }

    /** Append the buffered events, oldest first, to @p out. */
    void exportTo(std::vector<TraceEvent> &out) const;

    /** Discard buffered events and reset the counters. */
    void clear();

    /**
     * Remove every buffered event of @p cat, deducting them from the
     * emitted() total, as if they had never been recorded. Used when a
     * snapshot carries events a restoring configuration would not have
     * produced (e.g. monitor samples restored into a cell without a
     * sedation policy).
     */
    void dropCategory(TraceCategory cat);

    /** Stamp every future emission with @p core (per-core tracers on a
     *  multi-core simulator; core 0 is the single-core default). */
    void setCoreId(uint8_t core) { coreId_ = core; }
    uint8_t coreId() const { return coreId_; }

    /** Snapshot state: the buffer and counters. A restoring tracer's
     *  capacity must match the saved one (it is part of the simulator
     *  configuration a snapshot requires to be shared). */
    template <class IO> void serialize(IO &io);

  private:
    RingBuffer<TraceEvent> ring_;
    uint64_t emitted_ = 0;
    uint64_t dropped_ = 0;
    uint8_t coreId_ = 0;
};

} // namespace hs

#endif // HS_TRACE_TRACER_HH
