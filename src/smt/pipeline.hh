/**
 * @file
 * Execution-driven out-of-order SMT pipeline.
 *
 * A SimpleScalar/RUU-style model with the Table 1 configuration:
 * ICOUNT.2.8 fetch over 2 (up to 8) contexts, merged decode/rename/
 * dispatch into a 128-entry shared RUU and 32-entry shared LSQ, 6-wide
 * out-of-order issue over a typed FU pool with 2 memory ports, in-order
 * per-thread commit, branch misprediction squash, and the
 * squash-on-L2-miss optimisation the paper notes as standard.
 *
 * The pipeline exposes the two control points DTM policies need:
 * setGlobalStall() (stop-and-go: the whole pipeline clock-gates) and
 * setSedated(tid) (selective sedation: fetch ceases for one thread and
 * its in-flight instructions drain).
 *
 * Every access to a power-relevant resource is recorded per thread in
 * the ActivityCounters, which feed both the Wattch-style energy model
 * and the sedation usage monitor.
 */

#ifndef HS_SMT_PIPELINE_HH
#define HS_SMT_PIPELINE_HH

#include <array>
#include <memory>
#include <vector>

#include "branch/predictor.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "power/activity.hh"
#include "smt/dyn_inst.hh"
#include "smt/thread_context.hh"

namespace hs {

class Tracer;

/** Front-end thread-selection policy. */
enum class FetchPolicy {
    Icount,     ///< fewest instructions in flight first (Table 1)
    RoundRobin  ///< rotate through runnable threads
};

/** Microarchitectural configuration (defaults follow Table 1). */
struct SmtParams
{
    int numThreads = 2;
    FetchPolicy fetchPolicy = FetchPolicy::Icount;
    int fetchWidth = 8;           ///< total instructions per cycle
    int fetchThreadsPerCycle = 2; ///< ICOUNT.2.8
    int issueWidth = 6;           ///< Table 1: issue 6, out-of-order
    int commitWidth = 8;
    int ruuEntries = 128;         ///< Table 1: RUU 128
    int lsqEntries = 32;          ///< Table 1: LSQ 32
    int intAlus = 6;
    int intMults = 1;
    int fpAdds = 2;
    int fpMuls = 1;
    int memPorts = 2;             ///< Table 1: memory ports 2
    int mispredictPenalty = 5;    ///< front-end refill cycles
    bool squashOnL2Miss = true;
    BranchPredictorParams bpred{};
    HierarchyParams mem{};
};

/** The SMT processor core. */
class Pipeline
{
  public:
    explicit Pipeline(const SmtParams &params = {});

    /** Bind @p program to hardware context @p tid. */
    void setThreadProgram(ThreadId tid, const Program *program);

    /** Advance one cycle (a no-op except accounting while globally
     *  stalled). */
    void tick();

    /**
     * Fast-forward @p n cycles while globally stalled (simulator
     * optimisation: nothing can happen until the DTM releases the
     * pipeline, so per-cycle ticking is skipped). Panics if called
     * while not stalled.
     */
    void advanceStalled(Cycles n);

    /** Current cycle number. */
    Cycles cycle() const { return cycle_; }

    /** Cycles the pipeline clock actually ran (not stop-and-go'd). */
    Cycles activeCycles() const { return activeCycles_; }

    // --- DTM control points -------------------------------------------
    /** Stop-and-go: gate the whole pipeline. */
    void setGlobalStall(bool stalled);
    bool globalStalled() const { return globalStall_; }

    /** Selective sedation: stop fetching from @p tid. */
    void setSedated(ThreadId tid, bool sedated);
    bool sedated(ThreadId tid) const;

    /** Selective throttling: @p tid fetches only every @p k-th cycle
     *  (k = 1 restores full speed). */
    void setThreadThrottle(ThreadId tid, int k);

    /** Duty-cycle throttle for the DVFS extension policy: when set to
     *  k > 1, the pipeline only ticks internally every k-th cycle. */
    void setThrottle(int every_k) { throttle_ = every_k < 1 ? 1 : every_k; }

    /** Attach a structured event tracer (null = tracing disabled). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    // --- Observation ---------------------------------------------------
    ActivityCounters &activity() { return *activity_; }
    const ActivityCounters &activity() const { return *activity_; }
    MemoryHierarchy &mem() { return *mem_; }
    const MemoryHierarchy &mem() const { return *mem_; }
    BranchPredictor &bpred() { return *bpred_; }
    const BranchPredictor &bpred() const { return *bpred_; }
    ThreadContext &thread(ThreadId tid);
    const ThreadContext &thread(ThreadId tid) const;
    int numThreads() const { return params_.numThreads; }
    const SmtParams &params() const { return params_; }

    /** Committed instructions for @p tid. */
    uint64_t committed(ThreadId tid) const;
    /** IPC of @p tid over all elapsed cycles. */
    double ipc(ThreadId tid) const;
    /** @return true once every bound thread has halted. */
    bool allHalted() const;

    /** Number of in-flight instructions (RUU occupancy). */
    int ruuOccupancy() const { return ruuUsed_; }
    int lsqOccupancy() const { return lsqUsed_; }

    /**
     * Snapshot state: the complete microarchitectural state. That is
     * the slot pool (including dead slots' generation counters, so
     * stale handles still fail validation after restore), free/issued
     * lists, ready lists, and every thread context (registers, rename
     * maps, functional memory, ROB/LSQ, statistics), plus the cache
     * hierarchy, branch predictor and activity counters.
     *
     * A restore needs the same geometry, and each thread that was
     * bound at save time must already have an identical program bound
     * (program text is not serialised; in-flight instruction pointers
     * are rebound through it by program counter).
     */
    template <class IO> void serialize(IO &io);

  private:
    // Slot pool.
    DynInst &get(const InstHandle &h);
    const DynInst &get(const InstHandle &h) const;
    bool valid(const InstHandle &h) const;
    InstHandle allocSlot();
    void freeSlot(const InstHandle &h);

    // Stages (called in reverse pipe order each tick).
    void commitStage();
    void writebackStage();
    void issueStage();
    void fetchStage();

    // Helpers.
    void fetchFromThread(ThreadContext &tc, int &budget, int &lines_left);
    bool dispatchInst(ThreadContext &tc, const Instruction &si,
                      uint64_t pc);
    void captureSource(DynInst &inst, const InstHandle &self, int slot,
                       bool is_fp, int reg, ThreadContext &tc);
    void executeFunctional(DynInst &inst, ThreadContext &tc);
    bool tryIssueMemOp(DynInst &inst, ThreadContext &tc);
    void wakeDependents(DynInst &inst);
    void enqueueReady(const InstHandle &h, const DynInst &inst);
    void squashFrom(ThreadContext &tc, InstSeqNum younger_than);
    void commitInst(DynInst &inst, ThreadContext &tc);
    void recordStallAccounting();

    /// Number of functional-unit pools instructions issue to (int ALU,
    /// int multiplier, FP adder, FP multiplier, memory ports).
    static constexpr int kNumFuPools = 5;

    /**
     * Ready list of one functional-unit pool.
     *
     * Entries are (seq, handle) pairs in ascending seq order, so the
     * oldest ready instruction of the pool is always at the front and
     * the issue stage only ever touches the entries it considers this
     * cycle — never the whole backlog. The seq is copied at enqueue
     * time: reading it back through the handle would break the
     * ordering when a squashed entry's slot is reused (the slot's seq
     * changes while the stale entry still sits in the list).
     *
     * Consumed/dead entries advance @ref head instead of erasing the
     * prefix every cycle; the prefix is trimmed only when it grows
     * past a threshold, keeping amortised cost O(1) per entry.
     */
    struct ReadyList
    {
        struct Ent
        {
            InstSeqNum seq;
            InstHandle h;
        };
        std::vector<Ent> v;
        size_t head = 0;
    };

    std::array<ReadyList, kNumFuPools> ready_;
    SmtParams params_;
    std::vector<ThreadContext> threads_;
    std::vector<DynInst> slots_;
    std::vector<uint16_t> freeSlots_;
    std::vector<InstHandle> issued_;   ///< awaiting completion
    std::vector<InstHandle> scratch_;  ///< per-cycle reusable buffer
    std::vector<ThreadId> fetchOrder_; ///< reused fetch arbitration list

    std::unique_ptr<MemoryHierarchy> mem_;
    std::unique_ptr<BranchPredictor> bpred_;
    std::unique_ptr<ActivityCounters> activity_;
    Tracer *tracer_ = nullptr;

    Cycles cycle_ = 0;
    Cycles activeCycles_ = 0;
    InstSeqNum nextSeq_ = 1;
    int ruuUsed_ = 0;
    int lsqUsed_ = 0;
    bool globalStall_ = false;
    int throttle_ = 1;
    uint64_t icountRotor_ = 0; ///< tie-break rotation for ICOUNT
};

} // namespace hs

#endif // HS_SMT_PIPELINE_HH
