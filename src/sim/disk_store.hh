/**
 * @file
 * Persistent, content-addressed store of finished RunResults.
 *
 * Every RunSpec already hashes canonically (FNV-1a over the canonical
 * key, which covers every outcome-determining field), so a finished
 * RunResult is a pure function of its hash: any process on any machine
 * that computes the same hash may reuse the stored bytes. The store
 * lays results out as
 *
 *     <dir>/<hh>/<hash16>.hsr
 *
 * where <hash16> is the 16-hex-digit spec hash and <hh> its first two
 * digits (256-way fan-out keeps directories small on big sweeps). Each
 * .hsr file is a self-validating record:
 *
 *     magic "HSR1" | format version | key length | payload length
 *     | checksum64 | canonical key | payload (serialised RunResult)
 *
 * The full canonical key rides along as the config echo: a lookup only
 * hits when the stored key matches byte-for-byte, so a (vanishingly
 * unlikely) hash collision or a stale entry written by a build whose
 * key layout changed is recomputed instead of served wrong. The
 * checksum covers the echo and the payload together (since format
 * version 2), so one cell's payload spliced under another cell's echo
 * is rejected too; since version 3 it is checksum64() rather than
 * FNV-1a, and records of older versions are refused and recomputed.
 * Writes go
 * through a hidden temp file in the same directory plus rename(), so
 * concurrent writers — sibling workers, other hosts on a shared
 * filesystem — can race on one cell and the loser simply overwrites
 * the winner's identical bytes.
 *
 * Every failure path (missing file, short read, bad magic, version or
 * key mismatch, checksum mismatch, unwritable directory) degrades to a
 * miss: the caller logs and recomputes, never crashes, never serves a
 * wrong result.
 */

#ifndef HS_SIM_DISK_STORE_HH
#define HS_SIM_DISK_STORE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/results.hh"
#include "sim/run_spec.hh"

namespace hs {

/** On-disk result tier (see file comment for the format). */
class DiskResultStore
{
  public:
    /** Outcome of a load() probe. */
    enum class LoadStatus {
        Hit,     ///< stored result returned
        Miss,    ///< no entry for this spec
        Corrupt  ///< entry exists but failed validation (logged)
    };

    /**
     * Open (creating if needed) the store rooted at @p dir. fatal() if
     * the root cannot be created — a mistyped --store path should fail
     * loudly up front, not silently degrade a whole campaign.
     */
    explicit DiskResultStore(std::string dir);

    DiskResultStore(const DiskResultStore &) = delete;
    DiskResultStore &operator=(const DiskResultStore &) = delete;

    /** Probe the store for the cell with canonical key @p key. */
    LoadStatus load(const std::string &key, RunResult &out);
    LoadStatus load(const RunSpec &spec, RunResult &out)
    {
        return load(spec.canonicalKey(), out);
    }

    /**
     * Persist @p result under its key's hash (atomic tmp+rename).
     * @return false (after a warn()) if the write failed; the result
     * is still valid in memory, the campaign just loses persistence.
     */
    bool store(const std::string &key, const RunResult &result);
    bool store(const RunSpec &spec, const RunResult &result)
    {
        return store(spec.canonicalKey(), result);
    }

    /** @return true if a (not-yet-validated) entry exists on disk for
     *  the spec hash @p hash (RunSpec::hash()). */
    bool contains(uint64_t hash) const;

    /** Result-format version named by the header of the entry for
     *  @p hash (a header read only, nothing validated); 0 when the
     *  entry is missing or is not a .hsr record. */
    uint32_t entryFormat(uint64_t hash) const;

    /** Absolute or relative store root this instance serves. */
    const std::string &dir() const { return dir_; }

    /** Path the entry for spec hash @p hash lives at. */
    std::string entryPath(uint64_t hash) const;

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    /** Entries that existed but failed validation (recomputed). */
    uint64_t corrupt() const { return corrupt_.load(); }
    uint64_t writes() const { return writes_.load(); }

  private:
    std::string dir_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> corrupt_{0};
    std::atomic<uint64_t> writes_{0};
};

/** What prepareCampaign() found of a matrix in its store. */
struct CampaignResume
{
    uint64_t totalCells = 0;  ///< matrix size
    uint64_t storedCells = 0; ///< cells the store already holds in
                              ///< this build's result format
};

/**
 * Count the cells of @p specs that @p store already holds, for the
 * resume report. Reads only: the stored records are the campaign, and
 * nothing else about it is persisted.
 */
CampaignResume prepareCampaign(const DiskResultStore &store,
                               const std::vector<RunSpec> &specs);

/**
 * Process-wide disk tier configured by the HS_STORE environment
 * variable: the store rooted there on first call (shared by every
 * later caller), or nullptr when HS_STORE is unset/empty.
 */
DiskResultStore *envDiskStore();

/**
 * Structural validation of one .hsr record file — everything load()
 * checks except the config echo, which needs the requesting spec
 * (magic, version, internal lengths vs. file size, trailing bytes,
 * the checksum over key echo + payload). @return false with @p why filled when the
 * record could not have been produced by a completed store() call.
 */
bool validateRecordFile(const std::string &path, std::string &why);

/** What pruneStore() may delete and how loudly. */
struct PruneOptions
{
    /** Delete records whose mtime is more than this many days old.
     *  Negative disables the age rule (corrupt sweep only). */
    double olderThanDays = -1.0;
    /** Report what would be deleted without touching anything. */
    bool dryRun = false;
    /** Also delete records that fail validateRecordFile() — they can
     *  only ever cost a recompute — regardless of age. */
    bool sweepCorrupt = false;
};

/** Outcome of one pruneStore() sweep. */
struct PruneStats
{
    uint64_t scanned = 0;    ///< .hsr records examined
    uint64_t pruned = 0;     ///< records deleted (dry run: would be)
    uint64_t corrupt = 0;    ///< of those, dropped by the corrupt sweep
    uint64_t kept = 0;       ///< records retained
    uint64_t skipped = 0;    ///< non-.hsr entries refused (never deleted)
    uint64_t bytesFreed = 0; ///< total size of pruned records
};

/**
 * Garbage-collect the store rooted at @p dir (the `hs_store prune`
 * subcommand). Only regular `*.hsr` files inside the two-hex-digit
 * bucket directories are ever candidates: the event log, temp files
 * from interrupted writers, and anything else a user or an older build
 * may have put in the tree are counted as skipped and refused.
 * fatal() if @p dir is not an existing store root.
 */
PruneStats pruneStore(const std::string &dir, const PruneOptions &opts);

} // namespace hs

#endif // HS_SIM_DISK_STORE_HH
