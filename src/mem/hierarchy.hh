/**
 * @file
 * Two-level cache hierarchy shared by all SMT contexts.
 *
 * Table 1 of the paper: 64 KB 4-way L1 I and D (2-cycle), 2 MB 8-way
 * shared L2 (12-cycle), 300-cycle off-chip memory. Writebacks are
 * modelled off the critical path (traffic counted, no added latency on
 * the triggering access).
 */

#ifndef HS_MEM_HIERARCHY_HH
#define HS_MEM_HIERARCHY_HH

#include <memory>

#include "mem/cache.hh"

namespace hs {

/** Parameters for the full hierarchy. */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 64 * 1024, 4, 64, 2};
    CacheParams l1d{"l1d", 64 * 1024, 4, 64, 2};
    CacheParams l2{"l2", 2 * 1024 * 1024, 8, 64, 12};
    int memLatency = 300; ///< cycles beyond the L2 access on an L2 miss
};

/** Which level serviced an access. */
enum class MemLevel { L1, L2, Memory };

/** Timing outcome of a hierarchy access. */
struct MemAccessResult
{
    int latency = 0;    ///< total cycles from access to data
    MemLevel level = MemLevel::L1;
    bool l2Access = false; ///< the L2 tag array was touched
    bool
    l2Miss() const
    {
        return level == MemLevel::Memory;
    }
};

/** The shared cache hierarchy. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params = {});

    /** Data-side access (load or store). */
    MemAccessResult accessData(Addr addr, bool is_write);

    /** Instruction-side access. */
    MemAccessResult accessInst(Addr addr);

    Cache &l1i() { return *l1i_; }
    Cache &l1d() { return *l1d_; }
    Cache &l2() { return *l2_; }
    const Cache &l1i() const { return *l1i_; }
    const Cache &l1d() const { return *l1d_; }
    const Cache &l2() const { return *l2_; }

    const HierarchyParams &params() const { return params_; }

    /** L2-victim writebacks that went to memory. */
    uint64_t memWritebacks() const { return memWritebacks_; }

    void resetStats();

    /** Snapshot state: all three cache levels plus the writeback
     *  counter. A restore needs the same geometry. */
    template <class IO> void serialize(IO &io);

  private:
    MemAccessResult accessThrough(Cache &l1, Addr addr, bool is_write);

    HierarchyParams params_;
    std::unique_ptr<Cache> l1i_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> l2_;
    uint64_t memWritebacks_ = 0;
};

} // namespace hs

#endif // HS_MEM_HIERARCHY_HH
