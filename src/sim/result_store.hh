/**
 * @file
 * Process-wide memoising store for experiment results.
 *
 * Many of the paper's figures share matrix cells (every harness needs
 * the solo baselines, the default-threshold sedation run appears in
 * three sweeps, ...). The store keys finished RunResults by the
 * RunSpec's canonical key so each distinct cell is simulated exactly
 * once per process, no matter how many tables ask for it.
 *
 * The store is safe for concurrent use by the ParallelRunner's workers
 * and deduplicates *in-flight* computations: if two workers ask for the
 * same key simultaneously, one simulates and the other blocks on the
 * shared future instead of duplicating the work.
 *
 * An optional persistent tier (sim/disk_store.hh) can be attached:
 * lookups then read through to disk before simulating, and freshly
 * computed results write through, so a rerun of a finished campaign —
 * in a new process, on another machine sharing the store directory —
 * serves every cell from disk without simulating anything.
 */

#ifndef HS_SIM_RESULT_STORE_HH
#define HS_SIM_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/results.hh"
#include "sim/run_spec.hh"

namespace hs {

class DiskResultStore;

class ResultStore
{
  public:
    /** Where a getOrCompute() result actually came from. */
    enum class Source : uint8_t {
        Computed, ///< simulated by @p compute (possibly remotely)
        Memory,   ///< served from this process's cache
        Disk,     ///< served from the attached persistent tier
    };

    ResultStore() = default;
    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** The process-wide store shared by the bench harnesses. */
    static ResultStore &global();

    /**
     * Attach (or detach with nullptr) a persistent read/write-through
     * tier. Not owned; must outlive the lookups. Attach before any
     * concurrent use.
     */
    void attachDisk(DiskResultStore *disk) { disk_ = disk; }
    DiskResultStore *disk() const { return disk_; }

    /**
     * Return the cached result for @p spec, computing it with
     * @p compute on a miss. Concurrent callers with the same key share
     * one computation. When @p source is non-null it reports which
     * tier satisfied the lookup (in-flight waiters see Memory).
     */
    RunResult getOrCompute(const RunSpec &spec,
                           const std::function<RunResult()> &compute,
                           Source *source = nullptr)
    {
        return getOrCompute(spec.canonicalKey(), compute, source);
    }
    /** getOrCompute() for a caller that already holds the spec's
     *  canonical key @p key. */
    RunResult getOrCompute(const std::string &key,
                           const std::function<RunResult()> &compute,
                           Source *source = nullptr);

    /** @return true if the cell with canonical key @p key is already
     *  cached in memory. */
    bool contains(const std::string &key) const;

    /** @return true if any tier (memory or disk) already has the cell
     *  with canonical key @p key — i.e. asking for it will not
     *  simulate. */
    bool available(const std::string &key) const;

    /** Drop every cached result (tests). */
    void clear();

    /** Number of lookups served from the cache. */
    uint64_t hits() const { return hits_.load(); }
    /** Number of lookups that had to simulate. */
    uint64_t misses() const { return misses_.load(); }
    /** Number of distinct cells stored. */
    size_t size() const;

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, std::shared_future<RunResult>> cache_;
    DiskResultStore *disk_ = nullptr;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace hs

#endif // HS_SIM_RESULT_STORE_HH
