/**
 * @file
 * Per-thread, per-block activity (access) counters.
 *
 * The pipeline records every access to a power-relevant resource here.
 * Two independent consumers read the counters by keeping snapshots and
 * differencing:
 *  - the energy model, every temperature-sensor interval (20 K cycles),
 *    to convert accesses to block power;
 *  - the selective-sedation usage monitor, every 1 K cycles, to feed the
 *    per-thread weighted averages (Section 3.2.1 of the paper).
 */

#ifndef HS_POWER_ACTIVITY_HH
#define HS_POWER_ACTIVITY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/blocks.hh"
#include "common/types.hh"

namespace hs {

/** Cumulative access counters, indexed [thread][block]. */
class ActivityCounters
{
  public:
    explicit ActivityCounters(int num_threads);

    /** Record @p n accesses by @p tid to @p b. */
    void
    record(ThreadId tid, Block b, uint64_t n = 1)
    {
        counts_[static_cast<size_t>(tid)]
               [static_cast<size_t>(blockIndex(b))] += n;
    }

    /** Cumulative accesses by @p tid to @p b since construction/reset. */
    uint64_t
    count(ThreadId tid, Block b) const
    {
        return counts_[static_cast<size_t>(tid)]
                      [static_cast<size_t>(blockIndex(b))];
    }

    /** Cumulative accesses to @p b summed over all threads. */
    uint64_t totalCount(Block b) const;

    int numThreads() const { return numThreads_; }

    /** Zero all counters. */
    void reset();

    /** Snapshot state: every counter cell. A restore needs the same
     *  thread count. */
    template <class IO> void serialize(IO &io);

    /**
     * A consumer-owned snapshot for windowed differencing.
     * delta() returns per-cell increments since the previous call and
     * advances the snapshot.
     */
    class Snapshot
    {
      public:
        explicit Snapshot(const ActivityCounters &owner);

        /** Accesses by @p tid to @p b since the last take(). */
        uint64_t delta(ThreadId tid, Block b) const;

        /** Advance the snapshot to the counters' current state. */
        void take();

        /** Snapshot state: the differencing baseline. A restore
         *  needs a same-shaped owner. */
        template <class IO> void serialize(IO &io);

      private:
        const ActivityCounters &owner_;
        std::vector<std::array<uint64_t, numBlocks>> last_;
    };

  private:
    friend class Snapshot;

    int numThreads_;
    std::vector<std::array<uint64_t, numBlocks>> counts_;
};

} // namespace hs

#endif // HS_POWER_ACTIVITY_HH
