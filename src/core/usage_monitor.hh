/**
 * @file
 * Per-thread, per-resource access-rate usage monitor (Section 3.2.1).
 *
 * Hardware cost per (thread, resource): one access counter, one
 * weighted-average register and shift/add logic. Every monitorInterval
 * cycles the counter is read, folded into a fixed-point EWMA with a
 * power-of-two weight, and reset. Sedated threads are frozen (their
 * EWMA is not updated) so inactivity cannot artificially lower a
 * culprit's average (Section 3.2.2).
 *
 * The monitor also keeps plain flat averages so the paper's argument
 * that flat averages cannot identify bursty attackers (Figure 3 /
 * Section 3.2.1) can be reproduced.
 */

#ifndef HS_CORE_USAGE_MONITOR_HH
#define HS_CORE_USAGE_MONITOR_HH

#include <memory>
#include <vector>

#include "common/blocks.hh"
#include "common/fixed_point.hh"
#include "common/types.hh"
#include "power/activity.hh"

namespace hs {

/** The selective-sedation usage monitor. */
class UsageMonitor
{
  public:
    /**
     * @param num_threads hardware contexts to track
     * @param ewma_shift log2(1/x); the paper uses x = 1/128 .. 1/512
     *        depending on the window (Sections 3.2.1, 4)
     */
    UsageMonitor(int num_threads, int ewma_shift = 7);

    /**
     * Fold one sampling window into the averages.
     * @param activity cumulative counters from the pipeline
     * @param frozen per-thread flags: skip EWMA update (sedated)
     */
    void sample(const ActivityCounters &activity,
                const std::vector<bool> &frozen);

    /** Current weighted average (accesses per window) for a cell. */
    double weightedAvg(ThreadId tid, Block b) const;

    /** Flat (lifetime) average accesses per window for a cell. */
    double flatAvg(ThreadId tid, Block b) const;

    /**
     * The eligible thread with the highest weighted average at @p b.
     * @param eligible per-thread candidacy flags
     * @return thread id, or invalidThreadId if none eligible
     */
    ThreadId highestUsage(Block b,
                          const std::vector<bool> &eligible) const;

    int numThreads() const { return numThreads_; }
    uint64_t samplesTaken() const { return samples_; }

    /** Reset all averages and the window snapshot. */
    void reset();

    /**
     * Snapshot state: EWMAs, flat averages and the window snapshot. A
     * restore needs the same thread count and EWMA shift, and rebinds
     * the window snapshot to @p activity (the restoring simulator's
     * own counters, which carry the same restored values the saved
     * owner had).
     */
    template <class IO>
    void serialize(IO &io, const ActivityCounters &activity);

  private:
    size_t cell(ThreadId tid, Block b) const
    {
        return static_cast<size_t>(tid) * static_cast<size_t>(numBlocks) +
               static_cast<size_t>(blockIndex(b));
    }

    int numThreads_;
    int shift_;
    std::vector<FixedEwma> ewma_;
    std::vector<uint64_t> flatSum_;
    std::vector<uint64_t> flatWindows_;
    std::unique_ptr<ActivityCounters::Snapshot> snapshot_;
    const ActivityCounters *boundTo_ = nullptr;
    uint64_t samples_ = 0;
};

} // namespace hs

#endif // HS_CORE_USAGE_MONITOR_HH
