/**
 * @file
 * Campaign manifest: the persisted identity of one experiment matrix.
 *
 * A campaign is a matrix of RunSpecs plus the store that accumulates
 * their results. The manifest, written to `<store>/manifest.hsm`
 * before any cell simulates, records which cells the campaign is made
 * of (their spec hashes, in submission order) so that an interrupted
 * coordinator — killed mid-sweep, rebooted, OOMed — can be restarted
 * with the same command line and resume: the store's read-through tier
 * already skips every finished cell, and the manifest lets the restart
 * prove it is resuming *this* campaign (and report how much of it is
 * already done) rather than silently mixing two different sweeps in
 * one store.
 *
 * On-disk format (all fields little-endian, fixed width):
 *
 *     magic "HSM1" | format version | matrix hash | cell count
 *     | cell spec hashes... | checksum64 of the hash array
 *
 * The matrix hash is FNV-1a chained over the cell hashes in order, so
 * it pins both membership and submission order; the checksum only
 * guards the bytes (format version 2; version 1 used FNV-1a there and
 * is refused). Writes are atomic
 * (hidden temp file + rename, like .hsr records); every load failure
 * — truncation, bad magic, version skew, checksum mismatch — degrades
 * to "no manifest": the campaign starts fresh and overwrites it,
 * never crashes, never trusts corrupt bytes.
 */

#ifndef HS_SIM_MANIFEST_HH
#define HS_SIM_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/run_spec.hh"

namespace hs {

class DiskResultStore;

/** In-memory image of a manifest.hsm file. */
struct CampaignManifest
{
    uint64_t matrixHash = 0;     ///< FNV-1a over cells[], in order
    std::vector<uint64_t> cells; ///< spec hash per cell, submission order
};

/** Build the manifest describing @p specs. */
CampaignManifest makeManifest(const std::vector<RunSpec> &specs);

/**
 * Atomically write @p m to @p path (hidden temp + rename). @return
 * false after a warn() if the write failed — the campaign still runs,
 * it just cannot prove its identity to a future resume.
 */
bool saveManifest(const std::string &path, const CampaignManifest &m);

/** Outcome of a loadManifest() probe. */
enum class ManifestStatus {
    None,    ///< no manifest file at the path
    Ok,      ///< manifest loaded and validated
    Corrupt  ///< file exists but failed validation (logged)
};

/** Load and validate the manifest at @p path into @p out. */
ManifestStatus loadManifest(const std::string &path,
                            CampaignManifest &out);

/** What prepareCampaign() learned about a matrix vs. its store. */
struct CampaignResume
{
    bool resumed = false;     ///< a matching manifest already existed
    uint64_t totalCells = 0;  ///< matrix size
    uint64_t storedCells = 0; ///< cells the store already holds in
                              ///< this build's result format
};

/** Path of the manifest inside a store rooted at @p dir. */
std::string manifestPath(const std::string &dir);

/**
 * Open-or-start the campaign for @p specs against @p store: load any
 * existing manifest, decide whether this is a resume (same matrix
 * hash) or a fresh/replacing campaign, count the cells the store
 * already holds (none, with a warn(), when the first readable record
 * header names another result format), and (re)write the manifest
 * atomically. Corrupt or mismatched manifests are replaced with a
 * warn(), never fatal — a store is allowed to serve many different
 * campaigns over its life.
 */
CampaignResume prepareCampaign(DiskResultStore &store,
                               const std::vector<RunSpec> &specs);

} // namespace hs

#endif // HS_SIM_MANIFEST_HH
