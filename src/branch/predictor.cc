#include "branch/predictor.hh"

#include "common/log.hh"
#include "common/state_buffer.hh"

namespace hs {

namespace {

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

BranchPredictor::BranchPredictor(const BranchPredictorParams &params)
    : params_(params),
      bimodal_(static_cast<size_t>(params.bimodalEntries), 1),
      gshare_(static_cast<size_t>(params.gshareEntries), 1),
      chooser_(static_cast<size_t>(params.chooserEntries), 1),
      history_(static_cast<size_t>(params.maxThreads), 0),
      btb_(static_cast<size_t>(params.btbEntries))
{
    if (!isPowerOfTwo(params.bimodalEntries) ||
        !isPowerOfTwo(params.gshareEntries) ||
        !isPowerOfTwo(params.chooserEntries)) {
        fatal("branch predictor table sizes must be powers of two");
    }
    if (params.btbEntries % params.btbAssoc != 0)
        fatal("BTB entries must be divisible by associativity");
}

void
BranchPredictor::bumpCounter(uint8_t &ctr, bool up)
{
    if (up) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

int
BranchPredictor::bimodalIndex(uint64_t pc) const
{
    return static_cast<int>(pc &
                            static_cast<uint64_t>(params_.bimodalEntries -
                                                  1));
}

int
BranchPredictor::gshareIndex(uint64_t pc, uint32_t history) const
{
    uint64_t idx = pc ^ static_cast<uint64_t>(history);
    return static_cast<int>(idx &
                            static_cast<uint64_t>(params_.gshareEntries -
                                                  1));
}

int
BranchPredictor::chooserIndex(uint64_t pc) const
{
    return static_cast<int>(pc &
                            static_cast<uint64_t>(params_.chooserEntries -
                                                  1));
}

uint32_t
BranchPredictor::history(ThreadId tid) const
{
    return history_[static_cast<size_t>(tid)];
}

BranchPrediction
BranchPredictor::predict(ThreadId tid, uint64_t pc)
{
    ++lookups_;
    uint32_t hist = history_[static_cast<size_t>(tid)];
    uint8_t bim = bimodal_[static_cast<size_t>(bimodalIndex(pc))];
    uint8_t gsh = gshare_[static_cast<size_t>(gshareIndex(pc, hist))];
    uint8_t cho = chooser_[static_cast<size_t>(chooserIndex(pc))];

    BranchPrediction pred;
    pred.taken = (cho >= 2) ? (gsh >= 2) : (bim >= 2);

    // BTB lookup: fully indexed set-associative by pc.
    int sets = params_.btbEntries / params_.btbAssoc;
    int set = static_cast<int>(pc % static_cast<uint64_t>(sets));
    const BtbEntry *base = &btb_[static_cast<size_t>(set) *
                                 static_cast<size_t>(params_.btbAssoc)];
    for (int way = 0; way < params_.btbAssoc; ++way) {
        if (base[way].valid && base[way].pc == pc) {
            pred.targetKnown = true;
            pred.target = base[way].target;
            break;
        }
    }
    if (!pred.targetKnown)
        pred.taken = false; // cannot redirect without a target

    // Speculative history update.
    uint32_t mask = (uint32_t{1} << params_.historyBits) - 1;
    history_[static_cast<size_t>(tid)] =
        ((hist << 1) | (pred.taken ? 1u : 0u)) & mask;
    return pred;
}

void
BranchPredictor::update(ThreadId tid, uint64_t pc, bool taken,
                        uint64_t target, uint32_t history_at_predict)
{
    (void)tid;
    uint8_t &bim = bimodal_[static_cast<size_t>(bimodalIndex(pc))];
    uint8_t &gsh = gshare_[static_cast<size_t>(
        gshareIndex(pc, history_at_predict))];
    uint8_t &cho = chooser_[static_cast<size_t>(chooserIndex(pc))];

    bool bim_correct = (bim >= 2) == taken;
    bool gsh_correct = (gsh >= 2) == taken;
    if (bim_correct != gsh_correct)
        bumpCounter(cho, gsh_correct);
    bumpCounter(bim, taken);
    bumpCounter(gsh, taken);

    if (taken) {
        // Install/refresh the BTB entry.
        int sets = params_.btbEntries / params_.btbAssoc;
        int set = static_cast<int>(pc % static_cast<uint64_t>(sets));
        BtbEntry *base = &btb_[static_cast<size_t>(set) *
                               static_cast<size_t>(params_.btbAssoc)];
        ++btbClock_;
        BtbEntry *victim = &base[0];
        for (int way = 0; way < params_.btbAssoc; ++way) {
            BtbEntry &entry = base[way];
            if (entry.valid && entry.pc == pc) {
                entry.target = target;
                entry.lruStamp = btbClock_;
                return;
            }
            if (!entry.valid) {
                victim = &entry;
            } else if (victim->valid &&
                       entry.lruStamp < victim->lruStamp) {
                victim = &entry;
            }
        }
        victim->valid = true;
        victim->pc = pc;
        victim->target = target;
        victim->lruStamp = btbClock_;
    }
}

void
BranchPredictor::setHistory(ThreadId tid, uint32_t history)
{
    history_[static_cast<size_t>(tid)] = history;
}

void
BranchPredictor::restoreHistory(ThreadId tid, uint32_t history, bool taken)
{
    uint32_t mask = (uint32_t{1} << params_.historyBits) - 1;
    history_[static_cast<size_t>(tid)] =
        ((history << 1) | (taken ? 1u : 0u)) & mask;
}

template <class IO>
void
BranchPredictor::serialize(IO &io)
{
    io.tag(stateTag("BPRD"), "BranchPredictor");
    io.table(bimodal_, "bimodal table size");
    io.table(gshare_, "gshare table size");
    io.table(chooser_, "chooser table size");
    io.table(history_, "branch history count");
    io.table(btb_, "BTB size");
    io.value(btbClock_);
    io.value(lookups_);
    io.value(mispredicts_);
}

template void BranchPredictor::serialize(StateWriter &);
template void BranchPredictor::serialize(StateReader &);

} // namespace hs
