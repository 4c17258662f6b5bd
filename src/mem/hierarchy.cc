#include "mem/hierarchy.hh"

#include "common/state_buffer.hh"

namespace hs {

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : params_(params),
      l1i_(std::make_unique<Cache>(params.l1i)),
      l1d_(std::make_unique<Cache>(params.l1d)),
      l2_(std::make_unique<Cache>(params.l2))
{
}

MemAccessResult
MemoryHierarchy::accessThrough(Cache &l1, Addr addr, bool is_write)
{
    MemAccessResult result;
    Cache::AccessOutcome l1_out = l1.access(addr, is_write);
    result.latency = l1.params().hitLatency;
    if (l1_out.hit) {
        result.level = MemLevel::L1;
        return result;
    }

    // L1 dirty victim is written back into the L2 (off critical path).
    if (l1_out.writeback) {
        Cache::AccessOutcome wb = l2_->access(l1_out.victimAddr, true);
        if (wb.writeback)
            ++memWritebacks_;
    }

    result.l2Access = true;
    Cache::AccessOutcome l2_out = l2_->access(addr, false);
    result.latency += l2_->params().hitLatency;
    if (l2_out.writeback)
        ++memWritebacks_;
    if (l2_out.hit) {
        result.level = MemLevel::L2;
        return result;
    }
    result.level = MemLevel::Memory;
    result.latency += params_.memLatency;
    return result;
}

MemAccessResult
MemoryHierarchy::accessData(Addr addr, bool is_write)
{
    return accessThrough(*l1d_, addr, is_write);
}

MemAccessResult
MemoryHierarchy::accessInst(Addr addr)
{
    return accessThrough(*l1i_, addr, false);
}

void
MemoryHierarchy::resetStats()
{
    l1i_->resetStats();
    l1d_->resetStats();
    l2_->resetStats();
    memWritebacks_ = 0;
}

template <class IO>
void
MemoryHierarchy::serialize(IO &io)
{
    io.tag(stateTag("MHIE"), "MemoryHierarchy");
    io.record(*l1i_);
    io.record(*l1d_);
    io.record(*l2_);
    io.value(memWritebacks_);
}

template void MemoryHierarchy::serialize(StateWriter &);
template void MemoryHierarchy::serialize(StateReader &);

} // namespace hs
