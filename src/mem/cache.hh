/**
 * @file
 * Set-associative cache timing model (tags + LRU only; data lives in
 * SparseMemory). Write-back, write-allocate.
 */

#ifndef HS_MEM_CACHE_HH
#define HS_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace hs {

/** Victim-selection policy. */
enum class ReplacementPolicy {
    Lru,    ///< least recently used (default)
    Fifo,   ///< oldest fill first
    Random  ///< pseudo-random way (deterministic LFSR)
};

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    uint64_t sizeBytes = 64 * 1024;
    int assoc = 4;
    int lineBytes = 64;
    int hitLatency = 2; ///< cycles from access to data on a hit
    ReplacementPolicy replacement = ReplacementPolicy::Lru;
};

/**
 * A single cache level.
 *
 * access() probes and updates tags/LRU, allocating the line on a miss
 * (the caller is responsible for charging the next level's latency) and
 * reporting any dirty victim so writeback traffic can be accounted.
 */
class Cache
{
  public:
    /** Outcome of a cache access. */
    struct AccessOutcome
    {
        bool hit = false;
        bool writeback = false; ///< a dirty victim was evicted
        Addr victimAddr = 0;    ///< line address of the dirty victim
    };

    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr; on a miss, allocate the line (evicting LRU).
     * @param is_write marks the (allocated or hit) line dirty.
     */
    AccessOutcome access(Addr addr, bool is_write);

    /** Tag probe without state update. @return true if present. */
    bool probe(Addr addr) const;

    /** Invalidate everything (no writeback accounting). */
    void flush();

    /** Invalidate one line if present. @return true if it was there. */
    bool invalidate(Addr addr);

    const CacheParams &params() const { return params_; }
    int numSets() const { return numSets_; }

    /** Set index of @p addr (exposed so workload generators can build
     *  conflict sets, as the paper's variant2 does). */
    int setIndex(Addr addr) const;

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }
    double
    missRate() const
    {
        uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(misses_) / total : 0.0;
    }
    void
    resetStats()
    {
        hits_ = misses_ = writebacks_ = 0;
    }

    /** Snapshot state: tags, LRU/LFSR state and statistics. A
     *  restore needs the same geometry. */
    template <class IO> void serialize(IO &io);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        /** Explicit, always-zero padding: snapshots copy lines as raw
         *  bytes, so equal lines must have equal bytes. */
        uint8_t pad[6] = {};
        Addr tag = 0;
        uint64_t lruStamp = 0; ///< access stamp (LRU) or fill stamp
                               ///< (FIFO); unused for Random
    };
    static_assert(sizeof(Line) == 24, "cache lines are saved raw");

    Addr lineAddr(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line *selectVictim(Line *base);

    CacheParams params_;
    int numSets_;
    int lineShift_;
    uint64_t lruClock_ = 0;
    uint32_t lfsr_ = 0xACE1u; ///< Random replacement state
    std::vector<Line> lines_; ///< numSets_ x assoc, row-major

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace hs

#endif // HS_MEM_CACHE_HH
