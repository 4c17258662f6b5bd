/**
 * @file
 * Hybrid (bimodal + gshare) branch direction predictor with a BTB.
 *
 * Global history is kept per SMT context; the prediction tables and the
 * BTB are shared among contexts, as in SimpleScalar-style SMT models.
 */

#ifndef HS_BRANCH_PREDICTOR_HH
#define HS_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hs {

/** Predictor geometry. */
struct BranchPredictorParams
{
    int bimodalEntries = 4096;  ///< 2-bit counters
    int gshareEntries = 4096;   ///< 2-bit counters
    int chooserEntries = 4096;  ///< 2-bit meta counters
    int historyBits = 12;
    int btbEntries = 512;
    int btbAssoc = 4;
    int maxThreads = 8;
};

/** One branch prediction. */
struct BranchPrediction
{
    bool taken = false;
    bool targetKnown = false; ///< BTB hit; target below is valid
    uint64_t target = 0;      ///< predicted target PC (instruction index)
};

/** Hybrid direction predictor + BTB. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredictorParams &params = {});

    /**
     * Predict the branch at @p pc for thread @p tid and speculatively
     * update that thread's global history.
     */
    BranchPrediction predict(ThreadId tid, uint64_t pc);

    /**
     * Train with the resolved outcome and install the target in the BTB.
     * @param history_at_predict the history value captured by predict()
     *        (returned via lastHistory()) so training indexes the same
     *        gshare entry the prediction used.
     */
    void update(ThreadId tid, uint64_t pc, bool taken, uint64_t target,
                uint32_t history_at_predict);

    /**
     * Restore a thread's speculative history after a squash and shift
     * in the resolved outcome of the mispredicted branch.
     */
    void restoreHistory(ThreadId tid, uint32_t history, bool taken);

    /** Set a thread's history register directly (squash rollback to a
     *  pre-prediction checkpoint). */
    void setHistory(ThreadId tid, uint32_t history);

    /** History value the next predict() for @p tid will use. */
    uint32_t history(ThreadId tid) const;

    uint64_t lookups() const { return lookups_; }
    uint64_t mispredicts() const { return mispredicts_; }
    /** Count one misprediction (resolution happens in the pipeline). */
    void notifyMispredict() { ++mispredicts_; }
    void
    resetStats()
    {
        lookups_ = 0;
        mispredicts_ = 0;
    }

    /** Snapshot state: tables, per-thread histories, BTB and
     *  statistics. A restore needs the same geometry. */
    template <class IO> void serialize(IO &io);

  private:
    struct BtbEntry
    {
        bool valid = false;
        /** Explicit, always-zero padding: snapshots copy entries as
         *  raw bytes, so equal entries must have equal bytes. */
        uint8_t pad[7] = {};
        uint64_t pc = 0;
        uint64_t target = 0;
        uint64_t lruStamp = 0;
    };
    static_assert(sizeof(BtbEntry) == 32, "BTB entries are saved raw");

    static void bumpCounter(uint8_t &ctr, bool up);
    int bimodalIndex(uint64_t pc) const;
    int gshareIndex(uint64_t pc, uint32_t history) const;
    int chooserIndex(uint64_t pc) const;

    BranchPredictorParams params_;
    std::vector<uint8_t> bimodal_;
    std::vector<uint8_t> gshare_;
    std::vector<uint8_t> chooser_; ///< >=2 selects gshare
    std::vector<uint32_t> history_;
    std::vector<BtbEntry> btb_;
    uint64_t btbClock_ = 0;
    uint64_t lookups_ = 0;
    uint64_t mispredicts_ = 0;
};

} // namespace hs

#endif // HS_BRANCH_PREDICTOR_HH
