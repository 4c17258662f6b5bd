/**
 * @file
 * In-flight dynamic instruction state and the slot-pool handle type.
 *
 * The pipeline keeps all in-flight instructions in a fixed slot pool
 * (sized by the RUU) and refers to them through generation-checked
 * handles, so stale references left behind by squashes are detected
 * instead of dangling.
 */

#ifndef HS_SMT_DYN_INST_HH
#define HS_SMT_DYN_INST_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace hs {

/** Generation-checked reference to a DynInst slot. */
struct InstHandle
{
    uint16_t slot = 0;
    /** Explicit, always-zero padding: snapshots copy handle lists as
     *  raw bytes, so equal handles must have equal bytes. */
    uint16_t pad = 0;
    uint32_t gen = 0;

    constexpr InstHandle() = default;
    constexpr InstHandle(uint16_t s, uint32_t g) : slot(s), gen(g) {}

    bool operator==(const InstHandle &o) const
    {
        return slot == o.slot && gen == o.gen;
    }
};
static_assert(sizeof(InstHandle) == 8, "handle lists are saved raw");

/** Progress of a dynamic instruction through the backend. */
enum class InstStage : uint8_t {
    Waiting,   ///< in the RUU with pending sources
    Ready,     ///< all sources ready, awaiting issue
    Issued,    ///< executing on a functional unit
    Completed  ///< result produced, awaiting commit
};

/** One in-flight instruction. */
struct DynInst
{
    // Identity.
    uint32_t gen = 0;          ///< slot generation (bumped on free)
    bool live = false;
    InstSeqNum seq = 0;
    ThreadId tid = invalidThreadId;
    uint64_t pc = 0;
    const Instruction *si = nullptr;

    InstStage stage = InstStage::Waiting;
    Cycles completeCycle = 0;  ///< valid once issued

    // Source operands (slot 0 = rs1, slot 1 = rs2). Values are captured
    // either at dispatch (from the architectural file) or at wakeup
    // (from the producer).
    int srcPending = 0;
    InstHandle srcProducer[2];
    bool srcWaiting[2] = {false, false};
    int64_t srcInt[2] = {0, 0};
    double srcFp[2] = {0.0, 0.0};

    // Results.
    int64_t intResult = 0;
    double fpResult = 0.0;

    // Rename bookkeeping: previous producer of the destination so a
    // reverse-order squash can restore the map.
    bool hasDest = false;
    bool destIsFp = false;
    uint8_t destReg = 0;
    bool hadPrevProducer = false;
    InstHandle prevProducer;

    // Memory ops.
    bool addrValid = false;
    Addr effAddr = 0;      ///< global (thread-offset) address
    bool forwarded = false; ///< load satisfied from the store queue

    // Control.
    bool predTaken = false;
    bool predTargetKnown = false;
    uint64_t predTarget = 0;
    uint32_t historyAtPredict = 0;
    bool actualTaken = false;
    uint64_t actualTarget = 0;
    bool mispredicted = false;

    /** Consumers awaiting this instruction's result. */
    std::vector<InstHandle> dependents;

    /** Reset transient fields for reuse. */
    void reset();
};

} // namespace hs

#endif // HS_SMT_DYN_INST_HH
