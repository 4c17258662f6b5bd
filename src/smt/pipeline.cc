#include "smt/pipeline.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "common/state_buffer.hh"
#include "trace/tracer.hh"

namespace hs {

namespace {

/** Raw (thread-local) data addresses are confined to a 4 GB segment. */
constexpr Addr dataSegMask = 0xFFFFFFFFull;

/**
 * Functional-unit pool per InstClass (declaration order). The int ALU
 * pool also executes branches, jumps, nops and halts; integer divide
 * shares the multiplier; FP divide shares the FP multiplier; loads and
 * stores contend for the memory ports.
 */
constexpr int kFuPool[] = {
    0, // IntAlu
    1, // IntMult
    1, // IntDiv
    2, // FpAdd
    3, // FpMul
    3, // FpDiv
    4, // Load
    4, // Store
    0, // Branch
    0, // Jump
    0, // Nop
    0, // Halt
};

/// Pool index of the memory ports (the only pool whose entries can
/// defer without consuming their FU).
constexpr int kMemPool = 4;

} // namespace

Pipeline::Pipeline(const SmtParams &params)
    : params_(params),
      threads_(static_cast<size_t>(params.numThreads)),
      mem_(std::make_unique<MemoryHierarchy>(params.mem)),
      bpred_(std::make_unique<BranchPredictor>(params.bpred)),
      activity_(std::make_unique<ActivityCounters>(params.numThreads))
{
    if (params.numThreads < 1 || params.numThreads > params.bpred.maxThreads)
        fatal("Pipeline: numThreads %d out of range", params.numThreads);
    int pool = params.ruuEntries + 8;
    if (pool > 0xFFFF)
        fatal("Pipeline: RUU too large for 16-bit slot handles");
    slots_.resize(static_cast<size_t>(pool));
    freeSlots_.reserve(static_cast<size_t>(pool));
    for (int i = pool - 1; i >= 0; --i)
        freeSlots_.push_back(static_cast<uint16_t>(i));

    // Preallocate every per-cycle working set so steady-state ticks
    // never touch the heap.
    // A ready list can briefly hold a stale entry on top of every live
    // ready instruction, plus an unconsumed prefix up to the trim
    // threshold, so give each one generous headroom.
    for (ReadyList &rl : ready_)
        rl.v.reserve(2 * static_cast<size_t>(pool) + 256);
    issued_.reserve(static_cast<size_t>(pool));
    scratch_.reserve(static_cast<size_t>(pool));
    fetchOrder_.reserve(static_cast<size_t>(params.numThreads));
    for (ThreadContext &tc : threads_) {
        tc.rob.reserve(static_cast<size_t>(params.ruuEntries));
        tc.lsq.reserve(static_cast<size_t>(params.lsqEntries));
    }
}

void
Pipeline::setThreadProgram(ThreadId tid, const Program *program)
{
    thread(tid).bind(program, tid);
}

ThreadContext &
Pipeline::thread(ThreadId tid)
{
    if (tid < 0 || tid >= params_.numThreads)
        panic("Pipeline: bad thread id %d", tid);
    return threads_[static_cast<size_t>(tid)];
}

const ThreadContext &
Pipeline::thread(ThreadId tid) const
{
    if (tid < 0 || tid >= params_.numThreads)
        panic("Pipeline: bad thread id %d", tid);
    return threads_[static_cast<size_t>(tid)];
}

void
Pipeline::setGlobalStall(bool stalled)
{
    if (tracer_ && globalStall_ != stalled)
        tracer_->emit(cycle_,
                      stalled ? TraceKind::GlobalStallOn
                              : TraceKind::GlobalStallOff,
                      -1);
    globalStall_ = stalled;
}

void
Pipeline::setSedated(ThreadId tid, bool sedated)
{
    ThreadContext &tc = thread(tid);
    if (tracer_ && tc.sedated != sedated)
        tracer_->emit(cycle_,
                      sedated ? TraceKind::FetchGateClose
                              : TraceKind::FetchGateOpen,
                      tid);
    tc.sedated = sedated;
}

bool
Pipeline::sedated(ThreadId tid) const
{
    return thread(tid).sedated;
}

void
Pipeline::setThreadThrottle(ThreadId tid, int k)
{
    ThreadContext &tc = thread(tid);
    int clamped = k < 1 ? 1 : k;
    if (tracer_ && tc.fetchEvery != clamped)
        tracer_->emit(cycle_, TraceKind::FetchThrottleSet, tid,
                      traceNoBlock, 0.0,
                      static_cast<uint64_t>(clamped));
    tc.fetchEvery = clamped;
}

uint64_t
Pipeline::committed(ThreadId tid) const
{
    return thread(tid).committedInsts;
}

double
Pipeline::ipc(ThreadId tid) const
{
    return cycle_ ? static_cast<double>(committed(tid)) /
                        static_cast<double>(cycle_)
                  : 0.0;
}

bool
Pipeline::allHalted() const
{
    bool any_bound = false;
    for (const ThreadContext &tc : threads_) {
        if (tc.state == ThreadState::Idle)
            continue;
        any_bound = true;
        if (tc.state != ThreadState::Halted)
            return false;
    }
    return any_bound;
}

// --- slot pool ----------------------------------------------------------

DynInst &
Pipeline::get(const InstHandle &h)
{
    DynInst &inst = slots_[h.slot];
    if (!inst.live || inst.gen != h.gen)
        panic("Pipeline: stale instruction handle dereference");
    return inst;
}

const DynInst &
Pipeline::get(const InstHandle &h) const
{
    const DynInst &inst = slots_[h.slot];
    if (!inst.live || inst.gen != h.gen)
        panic("Pipeline: stale instruction handle dereference");
    return inst;
}

bool
Pipeline::valid(const InstHandle &h) const
{
    const DynInst &inst = slots_[h.slot];
    return inst.live && inst.gen == h.gen;
}

InstHandle
Pipeline::allocSlot()
{
    if (freeSlots_.empty())
        panic("Pipeline: slot pool exhausted (RUU accounting bug)");
    uint16_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    DynInst &inst = slots_[slot];
    uint32_t gen = inst.gen;
    inst.reset();
    inst.gen = gen;
    inst.live = true;
    return InstHandle{slot, gen};
}

void
Pipeline::freeSlot(const InstHandle &h)
{
    DynInst &inst = get(h);
    inst.live = false;
    ++inst.gen;
    freeSlots_.push_back(h.slot);
}

// --- main loop ----------------------------------------------------------

void
Pipeline::recordStallAccounting()
{
    for (ThreadContext &tc : threads_) {
        if (tc.state != ThreadState::Active)
            continue;
        if (globalStall_) {
            ++tc.coolingCycles;
        } else if (tc.sedated ||
                   (tc.fetchEvery > 1 &&
                    cycle_ % static_cast<Cycles>(tc.fetchEvery) != 0)) {
            ++tc.sedationCycles;
        } else {
            ++tc.normalCycles;
        }
    }
}

void
Pipeline::advanceStalled(Cycles n)
{
    if (!globalStall_)
        panic("advanceStalled called while the pipeline is running");
    cycle_ += n;
    for (ThreadContext &tc : threads_) {
        if (tc.state == ThreadState::Active)
            tc.coolingCycles += n;
    }
}

void
Pipeline::tick()
{
    ++cycle_;
    recordStallAccounting();
    if (globalStall_)
        return;
    if (throttle_ > 1 && (cycle_ % static_cast<Cycles>(throttle_)) != 0)
        return;
    ++activeCycles_;
    commitStage();
    writebackStage();
    issueStage();
    fetchStage();
}

// --- commit -------------------------------------------------------------

void
Pipeline::commitStage()
{
    int budget = params_.commitWidth;
    for (int t = 0; t < params_.numThreads && budget > 0; ++t) {
        ThreadContext &tc = threads_[static_cast<size_t>(
            (static_cast<uint64_t>(t) + icountRotor_) %
            static_cast<uint64_t>(params_.numThreads))];
        while (budget > 0 && !tc.rob.empty()) {
            InstHandle h = tc.rob.front();
            DynInst &inst = get(h);
            if (inst.stage != InstStage::Completed)
                break;
            commitInst(inst, tc);
            tc.rob.pop_front();
            --ruuUsed_;
            freeSlot(h);
            --budget;
        }
    }
}

void
Pipeline::commitInst(DynInst &inst, ThreadContext &tc)
{
    const Instruction &si = *inst.si;

    // Release the rename-map entry if this instruction still owns it.
    if (inst.hasDest) {
        auto &map = inst.destIsFp ? tc.fpRename : tc.intRename;
        auto &entry = map[inst.destReg];
        InstHandle self{static_cast<uint16_t>(&inst - slots_.data()),
                        inst.gen};
        if (entry.valid && entry.handle == self)
            entry.valid = false;
        if (inst.destIsFp)
            tc.fpRegs[inst.destReg] = inst.fpResult;
        else
            tc.intRegs[inst.destReg] = inst.intResult;
    }

    if (si.isMemRef()) {
        if (tc.lsq.empty())
            panic("commit: LSQ empty for a memory op");
        InstHandle self{static_cast<uint16_t>(&inst - slots_.data()),
                        inst.gen};
        if (!(tc.lsq.front() == self))
            panic("commit: LSQ head mismatch");
        tc.lsq.pop_front();
        --lsqUsed_;
        if (si.instClass() == InstClass::Store) {
            // Architectural memory update happens at commit.
            uint64_t bits = si.op == Opcode::Fst
                                ? std::bit_cast<uint64_t>(inst.srcFp[1])
                                : static_cast<uint64_t>(inst.srcInt[1]);
            tc.memory.write64(inst.effAddr, bits);
            ++tc.committedStores;
        } else {
            ++tc.committedLoads;
        }
    }

    if (si.isControl())
        ++tc.committedBranches;
    if (si.instClass() == InstClass::Halt) {
        tc.state = ThreadState::Halted;
        // Drop anything fetched past the halt on a wrong path.
        squashFrom(tc, inst.seq);
    }

    ++tc.committedInsts;
}

// --- writeback ----------------------------------------------------------

void
Pipeline::writebackStage()
{
    // Collect instructions whose FU latency expires this cycle, oldest
    // first so an old mispredict squashes younger completions properly.
    std::vector<InstHandle> &done = scratch_;
    done.clear();
    size_t keep = 0;
    for (size_t i = 0; i < issued_.size(); ++i) {
        const InstHandle &h = issued_[i];
        const DynInst &inst = slots_[h.slot];
        if (!inst.live || inst.gen != h.gen)
            continue; // squashed: drop from the issued list
        if (inst.stage == InstStage::Issued &&
            inst.completeCycle <= cycle_) {
            done.push_back(h);
        } else {
            issued_[keep++] = h;
        }
    }
    issued_.resize(keep);
    std::sort(done.begin(), done.end(),
              [this](const InstHandle &a, const InstHandle &b) {
                  return slots_[a.slot].seq < slots_[b.slot].seq;
              });

    for (const InstHandle &h : done) {
        if (!valid(h))
            continue; // squashed by an older mispredict this cycle
        DynInst &inst = get(h);
        ThreadContext &tc = thread(inst.tid);
        inst.stage = InstStage::Completed;

        // Result write + wakeup broadcast power.
        if (inst.hasDest) {
            activity_->record(inst.tid,
                              inst.destIsFp ? Block::FpReg : Block::IntReg);
        }
        activity_->record(inst.tid, Block::IntQ);
        wakeDependents(inst);

        // Branch resolution.
        const Instruction &si = *inst.si;
        if (si.instClass() == InstClass::Branch) {
            bpred_->update(inst.tid, inst.pc, inst.actualTaken,
                           inst.actualTarget, inst.historyAtPredict);
            if (inst.actualTaken != inst.predTaken) {
                inst.mispredicted = true;
                bpred_->notifyMispredict();
                bpred_->restoreHistory(inst.tid, inst.historyAtPredict,
                                       inst.actualTaken);
                squashFrom(tc, inst.seq);
                tc.pc = inst.actualTaken ? inst.actualTarget
                                         : inst.pc + 1;
                Cycles redirect =
                    cycle_ + static_cast<Cycles>(params_.mispredictPenalty);
                tc.fetchStallUntil = std::max(tc.fetchStallUntil, redirect);
            }
        }
    }
}

void
Pipeline::wakeDependents(DynInst &inst)
{
    InstHandle self{static_cast<uint16_t>(&inst - slots_.data()),
                    inst.gen};
    for (const InstHandle &dh : inst.dependents) {
        if (!valid(dh))
            continue; // consumer was squashed
        DynInst &consumer = slots_[dh.slot];
        for (int s = 0; s < 2; ++s) {
            if (!consumer.srcWaiting[s] ||
                !(consumer.srcProducer[s] == self)) {
                continue;
            }
            if (inst.destIsFp)
                consumer.srcFp[s] = inst.fpResult;
            else
                consumer.srcInt[s] = inst.intResult;
            consumer.srcWaiting[s] = false;
            --consumer.srcPending;
        }
        if (consumer.srcPending == 0 &&
            consumer.stage == InstStage::Waiting) {
            consumer.stage = InstStage::Ready;
            enqueueReady(dh, consumer);
        }
    }
    inst.dependents.clear();
}

// --- issue --------------------------------------------------------------

void
Pipeline::enqueueReady(const InstHandle &h, const DynInst &inst)
{
    ReadyList &rl =
        ready_[kFuPool[static_cast<size_t>(inst.si->instClass())]];
    const ReadyList::Ent ent{inst.seq, h};
    // Wakeups arrive in completion order, not program order, so an
    // entry may belong in the middle of the list; the common case
    // (youngest so far) is a plain append.
    if (rl.v.empty() || rl.v.back().seq < ent.seq) {
        rl.v.push_back(ent);
        return;
    }
    auto pos = std::upper_bound(
        rl.v.begin() + static_cast<std::ptrdiff_t>(rl.head), rl.v.end(),
        ent.seq,
        [](InstSeqNum s, const ReadyList::Ent &e) { return s < e.seq; });
    rl.v.insert(pos, ent);
}

void
Pipeline::issueStage()
{
    // Oldest-first issue over the per-pool ready lists: each pick takes
    // the smallest seq among the pool fronts that still have FU budget.
    // Seq numbers are unique (one pipeline-wide counter) and nothing
    // enqueues during this stage, so the picks are exactly the prefix a
    // full sort of all ready instructions would issue — but only the
    // entries actually considered this cycle are touched, never the
    // whole backlog.
    int issue_left = params_.issueWidth;
    int budget[kNumFuPools] = {params_.intAlus, params_.intMults,
                               params_.fpAdds, params_.fpMuls,
                               params_.memPorts};

    // Memory ops that fail to issue (unknown older store address) stay
    // for the next cycle but must not be retried this cycle; the
    // cursor marks the already-tried prefix of the mem list.
    ReadyList &mem = ready_[kMemPool];
    size_t memCursor = mem.head;

    while (issue_left > 0) {
        // Find the oldest ready instruction among the eligible pools,
        // discarding squashed entries as they surface.
        int best = -1;
        InstSeqNum best_seq = 0;
        for (int p = 0; p < kNumFuPools; ++p) {
            if (budget[p] == 0)
                continue;
            ReadyList &rl = ready_[p];
            size_t pos = p == kMemPool ? memCursor : rl.head;
            while (pos < rl.v.size()) {
                const InstHandle &h = rl.v[pos].h;
                if (valid(h) && slots_[h.slot].stage == InstStage::Ready)
                    break;
                // Squashed (possibly by an L2-miss squash earlier this
                // very stage): drop the entry.
                if (p == kMemPool)
                    rl.v.erase(rl.v.begin() +
                               static_cast<std::ptrdiff_t>(pos));
                else
                    pos = ++rl.head;
            }
            if (pos >= rl.v.size())
                continue;
            if (best < 0 || rl.v[pos].seq < best_seq) {
                best = p;
                best_seq = rl.v[pos].seq;
            }
        }
        if (best < 0)
            break; // nothing issuable is left

        ReadyList &rl = ready_[best];
        const size_t pos = best == kMemPool ? memCursor : rl.head;
        const InstHandle h = rl.v[pos].h;
        DynInst &inst = slots_[h.slot];
        InstClass cls = inst.si->instClass();
        ThreadContext &tc = thread(inst.tid);
        if (best == kMemPool) {
            if (!tryIssueMemOp(inst, tc)) {
                ++memCursor; // deferred; no port consumed
                continue;
            }
            rl.v.erase(rl.v.begin() + static_cast<std::ptrdiff_t>(pos));
        } else {
            executeFunctional(inst, tc);
            inst.completeCycle =
                cycle_ + static_cast<Cycles>(instClassLatency(cls));
            ++rl.head;
        }
        inst.stage = InstStage::Issued;
        issued_.push_back(h);
        --budget[best];
        --issue_left;

        // Issue power: window read, register reads, FU activity.
        activity_->record(inst.tid, Block::IntQ);
        const Instruction &si = *inst.si;
        int int_reads = (si.readsIntRs1() ? 1 : 0) +
                        (si.readsIntRs2() ? 1 : 0);
        int fp_reads = (si.readsFpRs1() ? 1 : 0) +
                       (si.readsFpRs2() ? 1 : 0);
        if (int_reads)
            activity_->record(inst.tid, Block::IntReg,
                              static_cast<uint64_t>(int_reads));
        if (fp_reads)
            activity_->record(inst.tid, Block::FpReg,
                              static_cast<uint64_t>(fp_reads));
        switch (cls) {
          case InstClass::IntAlu:
          case InstClass::IntMult:
          case InstClass::IntDiv:
          case InstClass::Branch:
          case InstClass::Jump:
            activity_->record(inst.tid, Block::IntExec);
            break;
          case InstClass::FpAdd:
            activity_->record(inst.tid, Block::FpAdd);
            break;
          case InstClass::FpMul:
          case InstClass::FpDiv:
            activity_->record(inst.tid, Block::FpMul);
            break;
          default:
            break;
        }
    }

    // Trim the consumed prefixes lazily so the per-entry cost of the
    // head cursor stays amortised O(1) and emptied lists reset to
    // offset zero (erase/clear never touch the heap).
    for (ReadyList &rl : ready_) {
        if (rl.head == rl.v.size()) {
            rl.v.clear();
            rl.head = 0;
        } else if (rl.head >= 256) {
            rl.v.erase(rl.v.begin(),
                       rl.v.begin() + static_cast<std::ptrdiff_t>(rl.head));
            rl.head = 0;
        }
    }
}

void
Pipeline::executeFunctional(DynInst &inst, ThreadContext &tc)
{
    (void)tc;
    const Instruction &si = *inst.si;
    int64_t a = inst.srcInt[0];
    int64_t b = inst.srcInt[1];
    double fa = inst.srcFp[0];
    double fb = inst.srcFp[1];

    switch (si.op) {
      case Opcode::Add: inst.intResult = wrapAdd(a, b); break;
      case Opcode::Sub: inst.intResult = wrapSub(a, b); break;
      case Opcode::Mul: inst.intResult = wrapMul(a, b); break;
      case Opcode::Div: inst.intResult = wrapDiv(a, b); break;
      case Opcode::And: inst.intResult = a & b; break;
      case Opcode::Or: inst.intResult = a | b; break;
      case Opcode::Xor: inst.intResult = a ^ b; break;
      case Opcode::Sll:
        inst.intResult = a << (b & 63);
        break;
      case Opcode::Srl:
        inst.intResult = static_cast<int64_t>(
            static_cast<uint64_t>(a) >> (b & 63));
        break;
      case Opcode::Sra: inst.intResult = a >> (b & 63); break;
      case Opcode::Slt: inst.intResult = a < b ? 1 : 0; break;
      case Opcode::Addi: inst.intResult = wrapAdd(a, si.imm); break;
      case Opcode::Andi: inst.intResult = a & si.imm; break;
      case Opcode::Ori: inst.intResult = a | si.imm; break;
      case Opcode::Xori: inst.intResult = a ^ si.imm; break;
      case Opcode::Slti: inst.intResult = a < si.imm ? 1 : 0; break;
      case Opcode::Slli: inst.intResult = a << (si.imm & 63); break;
      case Opcode::Srli:
        inst.intResult = static_cast<int64_t>(
            static_cast<uint64_t>(a) >> (si.imm & 63));
        break;
      case Opcode::Lui: inst.intResult = si.imm << 16; break;
      case Opcode::Fadd: inst.fpResult = fa + fb; break;
      case Opcode::Fsub: inst.fpResult = fa - fb; break;
      case Opcode::Fmul: inst.fpResult = fa * fb; break;
      case Opcode::Fdiv: inst.fpResult = fa / fb; break;
      case Opcode::Fcvt:
        inst.fpResult = static_cast<double>(a);
        break;
      case Opcode::Fmov: inst.fpResult = fa; break;
      case Opcode::Beq:
        inst.actualTaken = a == b;
        inst.actualTarget = si.target;
        break;
      case Opcode::Bne:
        inst.actualTaken = a != b;
        inst.actualTarget = si.target;
        break;
      case Opcode::Blt:
        inst.actualTaken = a < b;
        inst.actualTarget = si.target;
        break;
      case Opcode::Bge:
        inst.actualTaken = a >= b;
        inst.actualTarget = si.target;
        break;
      case Opcode::Jmp:
        inst.actualTaken = true;
        inst.actualTarget = si.target;
        break;
      case Opcode::Nop:
      case Opcode::Halt:
        break;
      default:
        panic("executeFunctional: unhandled opcode %s",
              opcodeName(si.op));
    }
}

bool
Pipeline::tryIssueMemOp(DynInst &inst, ThreadContext &tc)
{
    const Instruction &si = *inst.si;
    bool is_load = si.instClass() == InstClass::Load;

    if (!inst.addrValid) {
        Addr raw = static_cast<Addr>(wrapAdd(inst.srcInt[0], si.imm)) &
                   dataSegMask;
        inst.effAddr = tc.dataBase() + (raw & ~Addr{7});
        inst.addrValid = true;
    }

    if (is_load) {
        // Search older stores in program order, newest first.
        InstHandle self{static_cast<uint16_t>(&inst - slots_.data()),
                        inst.gen};
        const DynInst *fwd = nullptr;
        for (size_t i = tc.lsq.size(); i-- > 0;) {
            const InstHandle &h = tc.lsq[i];
            if (h == self || get(h).seq > inst.seq)
                continue;
            const DynInst &older = get(h);
            if (older.si->instClass() != InstClass::Store)
                continue;
            if (!older.addrValid)
                return false; // conservative: unknown older address
            if (older.effAddr == inst.effAddr) {
                fwd = &older;
                break;
            }
        }
        if (fwd) {
            uint64_t bits = fwd->si->op == Opcode::Fst
                                ? std::bit_cast<uint64_t>(fwd->srcFp[1])
                                : static_cast<uint64_t>(fwd->srcInt[1]);
            if (si.op == Opcode::Fld)
                inst.fpResult = std::bit_cast<double>(bits);
            else
                inst.intResult = static_cast<int64_t>(bits);
            inst.forwarded = true;
            inst.completeCycle = cycle_ + 1;
            activity_->record(inst.tid, Block::LdStQ);
            return true;
        }

        uint64_t bits = tc.memory.read64(inst.effAddr);
        if (si.op == Opcode::Fld)
            inst.fpResult = std::bit_cast<double>(bits);
        else
            inst.intResult = static_cast<int64_t>(bits);

        MemAccessResult res = mem_->accessData(inst.effAddr, false);
        inst.completeCycle = cycle_ + static_cast<Cycles>(res.latency);
        activity_->record(inst.tid, Block::LdStQ);
        activity_->record(inst.tid, Block::Dcache);
        activity_->record(inst.tid, Block::Dtb);
        if (res.l2Access)
            activity_->record(inst.tid, Block::L2);

        if (res.l2Miss() && params_.squashOnL2Miss) {
            // Squash younger instructions of this thread and hold its
            // fetch until the data returns (standard SMT optimisation,
            // Section 4).
            squashFrom(tc, inst.seq);
            tc.fetchStallUntil =
                std::max(tc.fetchStallUntil, inst.completeCycle);
        }
        return true;
    }

    // Store: address + data move to the store buffer; architectural
    // memory is written at commit.
    MemAccessResult res = mem_->accessData(inst.effAddr, true);
    inst.completeCycle = cycle_ + 1;
    activity_->record(inst.tid, Block::LdStQ);
    activity_->record(inst.tid, Block::Dcache);
    activity_->record(inst.tid, Block::Dtb);
    if (res.l2Access)
        activity_->record(inst.tid, Block::L2);
    return true;
}

// --- squash -------------------------------------------------------------

void
Pipeline::squashFrom(ThreadContext &tc, InstSeqNum younger_than)
{
    bool squashed_any = false;
    uint64_t oldest_pc = 0;
    while (!tc.rob.empty()) {
        InstHandle h = tc.rob.back();
        DynInst &inst = get(h);
        if (inst.seq <= younger_than)
            break;
        // The walk is youngest-to-oldest, so the last values recorded
        // here belong to the oldest squashed instruction.
        squashed_any = true;
        oldest_pc = inst.pc;
        // Roll speculative branch history back to the oldest squashed
        // branch's pre-prediction checkpoint.
        if (inst.si->instClass() == InstClass::Branch)
            bpred_->setHistory(tc.id, inst.historyAtPredict);
        if (inst.hasDest) {
            auto &map = inst.destIsFp ? tc.fpRename : tc.intRename;
            auto &entry = map[inst.destReg];
            if (inst.hadPrevProducer && valid(inst.prevProducer)) {
                entry.valid = true;
                entry.handle = inst.prevProducer;
            } else {
                entry.valid = false;
            }
        }
        if (inst.si->isMemRef()) {
            if (tc.lsq.empty() || !(tc.lsq.back() == h))
                panic("squash: LSQ tail mismatch");
            tc.lsq.pop_back();
            --lsqUsed_;
        }
        tc.rob.pop_back();
        --ruuUsed_;
        ++tc.squashedInsts;
        freeSlot(h);
    }
    // Redirect fetch to the oldest squashed instruction so the
    // squashed work is refetched (a branch-mispredict caller overrides
    // this with the resolved target afterwards).
    if (squashed_any)
        tc.pc = oldest_pc;
    // A speculatively fetched Halt may have stopped this thread's
    // fetch; if it was squashed, fetching must resume. If a Halt is
    // still in flight it re-asserts the stop when it commits.
    tc.stoppedFetchingAfterHalt = false;
}

// --- fetch / dispatch ---------------------------------------------------

void
Pipeline::fetchStage()
{
    // ICOUNT: order runnable threads by instructions in flight. The
    // arbitration list is a reused member: rebuilding a vector here
    // was a per-cycle allocation.
    std::vector<ThreadId> &order = fetchOrder_;
    order.clear();
    for (int t = 0; t < params_.numThreads; ++t) {
        ThreadId tid = static_cast<ThreadId>(
            (static_cast<uint64_t>(t) + icountRotor_) %
            static_cast<uint64_t>(params_.numThreads));
        ThreadContext &tc = threads_[static_cast<size_t>(tid)];
        if (tc.state != ThreadState::Active || tc.sedated ||
            tc.stoppedFetchingAfterHalt || tc.fetchStallUntil > cycle_) {
            continue;
        }
        if (tc.fetchEvery > 1 &&
            cycle_ % static_cast<Cycles>(tc.fetchEvery) != 0) {
            continue; // selective throttling gates this cycle
        }
        order.push_back(tid);
    }
    if (params_.fetchPolicy == FetchPolicy::Icount) {
        // Stable insertion sort: identical ordering to the previous
        // std::stable_sort, but allocation-free (stable_sort grabs a
        // temporary buffer) and faster for <= 8 contexts.
        for (size_t i = 1; i < order.size(); ++i) {
            ThreadId v = order[i];
            size_t vsz = threads_[static_cast<size_t>(v)].rob.size();
            size_t j = i;
            while (j > 0 &&
                   vsz <
                       threads_[static_cast<size_t>(order[j - 1])]
                           .rob.size()) {
                order[j] = order[j - 1];
                --j;
            }
            order[j] = v;
        }
    }
    // RoundRobin: keep the rotor order built above.
    ++icountRotor_;

    int budget = params_.fetchWidth;
    int threads_left = params_.fetchThreadsPerCycle;
    for (ThreadId tid : order) {
        if (budget == 0 || threads_left == 0)
            break;
        int lines_left = 1; // one I-cache line per thread per cycle
        fetchFromThread(threads_[static_cast<size_t>(tid)], budget,
                        lines_left);
        --threads_left;
    }
}

void
Pipeline::fetchFromThread(ThreadContext &tc, int &budget, int &lines_left)
{
    Addr cur_line = ~Addr{0};
    const int line_bytes = params_.mem.l1i.lineBytes;

    while (budget > 0) {
        if (ruuUsed_ >= params_.ruuEntries)
            break;
        const Instruction &si = tc.program->fetch(tc.pc);
        if (si.isMemRef() && lsqUsed_ >= params_.lsqEntries)
            break;

        Addr iaddr = tc.instAddr(tc.pc);
        Addr line = iaddr / static_cast<Addr>(line_bytes);
        if (line != cur_line) {
            if (lines_left == 0)
                break;
            --lines_left;
            MemAccessResult res = mem_->accessInst(iaddr);
            activity_->record(tc.id, Block::Icache);
            activity_->record(tc.id, Block::Itb);
            if (res.l2Access)
                activity_->record(tc.id, Block::L2);
            if (res.level != MemLevel::L1) {
                // I-miss: the line arrives later; nothing fetched from
                // it this cycle.
                tc.fetchStallUntil =
                    cycle_ + static_cast<Cycles>(res.latency);
                break;
            }
            cur_line = line;
        }

        if (!dispatchInst(tc, si, tc.pc))
            break;
        --budget;

        InstClass cls = si.instClass();
        if (cls == InstClass::Jump) {
            tc.pc = si.target;
            break; // taken control flow ends the fetch group
        } else if (cls == InstClass::Branch) {
            // Prediction happened inside dispatchInst; follow it.
            const DynInst &inst = get(tc.rob.back());
            if (inst.predTaken) {
                tc.pc = si.target;
                break;
            }
            tc.pc += 1;
        } else if (cls == InstClass::Halt) {
            tc.stoppedFetchingAfterHalt = true;
            break;
        } else {
            tc.pc += 1;
        }
    }
}

bool
Pipeline::dispatchInst(ThreadContext &tc, const Instruction &si,
                       uint64_t pc)
{
    InstHandle h = allocSlot();
    DynInst &inst = slots_[h.slot];
    inst.seq = nextSeq_++;
    inst.tid = tc.id;
    inst.pc = pc;
    inst.si = &si;

    // Source capture / dependency registration.
    if (si.readsIntRs1())
        captureSource(inst, h, 0, false, si.rs1, tc);
    else if (si.readsFpRs1())
        captureSource(inst, h, 0, true, si.rs1, tc);
    if (si.readsIntRs2())
        captureSource(inst, h, 1, false, si.rs2, tc);
    else if (si.readsFpRs2())
        captureSource(inst, h, 1, true, si.rs2, tc);

    // Destination rename.
    if (si.writesIntReg() || si.writesFpReg()) {
        inst.hasDest = true;
        inst.destIsFp = si.writesFpReg();
        inst.destReg = si.rd;
        auto &map = inst.destIsFp ? tc.fpRename : tc.intRename;
        auto &entry = map[inst.destReg];
        inst.hadPrevProducer = entry.valid;
        inst.prevProducer = entry.handle;
        entry.valid = true;
        entry.handle = h;
    }

    // Branch prediction.
    if (si.instClass() == InstClass::Branch) {
        inst.historyAtPredict = bpred_->history(tc.id);
        BranchPrediction pred = bpred_->predict(tc.id, pc);
        inst.predTaken = pred.taken;
        inst.predTargetKnown = true; // decoded target is available
        inst.predTarget = si.target;
        activity_->record(tc.id, Block::Bpred);
    }

    // Dispatch power: rename map + window write.
    bool is_fp = si.instClass() == InstClass::FpAdd ||
                 si.instClass() == InstClass::FpMul ||
                 si.instClass() == InstClass::FpDiv ||
                 si.op == Opcode::Fld || si.op == Opcode::Fst;
    activity_->record(tc.id, is_fp ? Block::FpMap : Block::IntMap);
    activity_->record(tc.id, Block::IntQ);

    tc.rob.push_back(h);
    ++ruuUsed_;
    if (si.isMemRef()) {
        tc.lsq.push_back(h);
        ++lsqUsed_;
    }

    if (inst.srcPending == 0) {
        inst.stage = InstStage::Ready;
        enqueueReady(h, inst);
    }
    return true;
}

void
Pipeline::captureSource(DynInst &inst, const InstHandle &self, int slot,
                        bool is_fp, int reg, ThreadContext &tc)
{
    if (!is_fp && reg == 0) {
        inst.srcInt[slot] = 0; // r0 is hard-wired zero
        return;
    }
    auto &map = is_fp ? tc.fpRename : tc.intRename;
    auto &entry = map[reg];
    if (entry.valid) {
        DynInst &producer = get(entry.handle);
        if (producer.stage == InstStage::Completed) {
            if (is_fp)
                inst.srcFp[slot] = producer.fpResult;
            else
                inst.srcInt[slot] = producer.intResult;
        } else {
            inst.srcProducer[slot] = entry.handle;
            inst.srcWaiting[slot] = true;
            ++inst.srcPending;
            producer.dependents.push_back(self);
        }
    } else {
        if (is_fp)
            inst.srcFp[slot] = tc.fpRegs[static_cast<size_t>(reg)];
        else
            inst.srcInt[slot] = tc.intRegs[static_cast<size_t>(reg)];
    }
}

// ---------------------------------------------------------------------
// Snapshot support
// ---------------------------------------------------------------------

namespace {

/** Wire size of one handle: slot and generation, no padding. */
constexpr size_t kHandleBytes = 6;

template <class IO>
void
serializeHandle(IO &io, InstHandle &h)
{
    io.value(h.slot);
    io.value(h.gen);
}

/**
 * One slot, field by field. Dead slots are written too: their
 * generation counters must survive so stale handles keep failing
 * validation after restore, and their dependents vectors are kept
 * verbatim so slot reuse proceeds bit-identically. si is not state: a
 * restoring pipeline rebinds it through the bound program.
 */
template <class IO>
void
serializeInst(IO &io, DynInst &inst)
{
    io.value(inst.gen);
    io.value(inst.live);
    io.value(inst.seq);
    io.value(inst.tid);
    io.value(inst.pc);
    io.enumerated(inst.stage, InstStage::Completed, "instruction stage");
    io.value(inst.completeCycle);
    io.value(inst.srcPending);
    for (int s = 0; s < 2; ++s) {
        serializeHandle(io, inst.srcProducer[s]);
        io.value(inst.srcWaiting[s]);
        io.value(inst.srcInt[s]);
        io.value(inst.srcFp[s]);
    }
    io.value(inst.intResult);
    io.value(inst.fpResult);
    io.value(inst.hasDest);
    io.value(inst.destIsFp);
    io.value(inst.destReg);
    io.value(inst.hadPrevProducer);
    serializeHandle(io, inst.prevProducer);
    io.value(inst.addrValid);
    io.value(inst.effAddr);
    io.value(inst.forwarded);
    io.value(inst.predTaken);
    io.value(inst.predTargetKnown);
    io.value(inst.predTarget);
    io.value(inst.historyAtPredict);
    io.value(inst.actualTaken);
    io.value(inst.actualTarget);
    io.value(inst.mispredicted);
    io.length(inst.dependents, kHandleBytes);
    for (InstHandle &d : inst.dependents)
        serializeHandle(io, d);
}

template <class IO>
void
serializeRing(IO &io, RingBuffer<InstHandle> &ring, const char *what)
{
    uint64_t n = ring.size();
    io.count(n, kHandleBytes);
    if constexpr (IO::kReading) {
        if (n > ring.capacity())
            fatal("Pipeline: snapshot %s holds %llu entries but only %zu "
                  "fit",
                  what, static_cast<unsigned long long>(n),
                  ring.capacity());
        ring.clear();
        for (uint64_t i = 0; i < n; ++i)
            ring.push_back(InstHandle{});
    }
    for (size_t i = 0; i < ring.size(); ++i)
        serializeHandle(io, ring[i]);
}

/** One thread context. id and program are identity, not state: the
 *  restoring pipeline already has the same thread slot bound to an
 *  identical program. */
template <class IO>
void
serializeThread(IO &io, ThreadContext &tc)
{
    io.enumerated(tc.state, ThreadState::Halted, "thread state");
    io.value(tc.pc);
    io.value(tc.intRegs);
    io.value(tc.fpRegs);
    for (ThreadContext::RenameEntry &e : tc.intRename) {
        io.value(e.valid);
        serializeHandle(io, e.handle);
    }
    for (ThreadContext::RenameEntry &e : tc.fpRename) {
        io.value(e.valid);
        serializeHandle(io, e.handle);
    }
    io.record(tc.memory);
    serializeRing(io, tc.rob, "ROB");
    serializeRing(io, tc.lsq, "LSQ");
    io.value(tc.fetchStallUntil);
    io.value(tc.sedated);
    io.value(tc.fetchEvery);
    io.value(tc.stoppedFetchingAfterHalt);
    io.value(tc.committedInsts);
    io.value(tc.committedLoads);
    io.value(tc.committedStores);
    io.value(tc.committedBranches);
    io.value(tc.squashedInsts);
    io.value(tc.normalCycles);
    io.value(tc.coolingCycles);
    io.value(tc.sedationCycles);
}

} // namespace

template <class IO>
void
Pipeline::serialize(IO &io)
{
    io.tag(stateTag("PIPE"), "Pipeline");
    // Geometry echo: restoring into a pipeline with different
    // capacities would corrupt handle validation, so it fails loudly.
    io.echo(params_.numThreads, "pipeline thread count");
    io.echo(static_cast<uint64_t>(slots_.size()), "pipeline slot count");
    io.echo(params_.ruuEntries, "RUU size");
    io.echo(params_.lsqEntries, "LSQ size");

    io.value(cycle_);
    io.value(activeCycles_);
    io.value(nextSeq_);
    io.value(ruuUsed_);
    io.value(lsqUsed_);
    io.value(globalStall_);
    io.value(throttle_);
    io.value(icountRotor_);

    // Free-list order matters (allocSlot pops the back), so it is kept
    // verbatim.
    io.vec(freeSlots_);
    if constexpr (IO::kReading) {
        if (freeSlots_.size() > slots_.size())
            fatal("Pipeline: free list (%zu) larger than the slot pool "
                  "(%zu)",
                  freeSlots_.size(), slots_.size());
    }
    for (DynInst &inst : slots_) {
        serializeInst(io, inst);
        if constexpr (IO::kReading) {
            inst.si = nullptr;
            if (!inst.live)
                continue;
            if (inst.tid < 0 || inst.tid >= params_.numThreads)
                fatal("Pipeline: live slot names thread %d", inst.tid);
            const Program *prog =
                threads_[static_cast<size_t>(inst.tid)].program;
            if (!prog)
                fatal("Pipeline: live instruction for thread %d, but no "
                      "program is bound to it",
                      inst.tid);
            if (!prog->validPc(inst.pc))
                fatal("Pipeline: pc %llu out of range for program '%s' "
                      "(%llu instructions)",
                      static_cast<unsigned long long>(inst.pc),
                      prog->name().c_str(),
                      static_cast<unsigned long long>(prog->size()));
            inst.si = &prog->fetch(inst.pc);
        }
    }
    io.vec(issued_);

    // Ready lists: only [head, end) is ever read again, so save the
    // active region and restart the restored list at head = 0. Issue
    // order depends only on the active entries; the consumed prefix
    // influences nothing but when the semantics-free trim runs.
    for (ReadyList &rl : ready_) {
        uint64_t n = rl.v.size() - rl.head;
        io.count(n, sizeof(InstSeqNum) + kHandleBytes);
        if constexpr (IO::kReading) {
            rl.v.resize(static_cast<size_t>(n));
            rl.head = 0;
        }
        for (size_t i = rl.head; i < rl.v.size(); ++i) {
            io.value(rl.v[i].seq);
            serializeHandle(io, rl.v[i].h);
        }
    }

    // scratch_ and fetchOrder_ are per-cycle temporaries, rebuilt from
    // scratch inside every stage that uses them.
    for (ThreadContext &tc : threads_)
        serializeThread(io, tc);

    io.record(*mem_);
    io.record(*bpred_);
    io.record(*activity_);
}

template void Pipeline::serialize(StateWriter &);
template void Pipeline::serialize(StateReader &);

} // namespace hs
