#include "sim/manifest.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/log.hh"
#include "sim/disk_store.hh"
#include "sim/serialize.hh"

namespace hs {

namespace {

constexpr uint32_t kManifestMagic = 0x314d5348; // "HSM1", little-endian
/// 2: the cell-list checksum is checksum64(), not FNV-1a.
constexpr uint32_t kManifestVersion = 2;

/** Fixed-size manifest header; the cell hash array follows it. */
struct ManifestHeader
{
    uint32_t magic = kManifestMagic;
    uint32_t version = kManifestVersion;
    uint64_t matrixHash = 0;
    uint64_t cellCount = 0;
};

/** RAII stdio handle so every early return closes the file. */
struct File
{
    std::FILE *f = nullptr;
    explicit File(std::FILE *fp) : f(fp) {}
    ~File()
    {
        if (f)
            std::fclose(f);
    }
};

uint64_t
cellsChecksum(const std::vector<uint64_t> &cells)
{
    return checksum64(reinterpret_cast<const uint8_t *>(cells.data()),
                      cells.size() * sizeof(uint64_t));
}

/** The manifest of a matrix whose cell hashes are @p cells: the
 *  matrix hash is FNV-1a chained over them, in order. */
CampaignManifest
manifestOf(std::vector<uint64_t> cells)
{
    CampaignManifest m;
    m.matrixHash = 0xcbf29ce484222325ull;
    for (uint64_t cell : cells)
        m.matrixHash = fnv1a64(reinterpret_cast<const uint8_t *>(&cell),
                               sizeof(cell), m.matrixHash);
    m.cells = std::move(cells);
    return m;
}

} // namespace

CampaignManifest
makeManifest(const std::vector<RunSpec> &specs)
{
    std::vector<uint64_t> cells;
    cells.reserve(specs.size());
    for (const RunSpec &spec : specs)
        cells.push_back(spec.hash());
    return manifestOf(std::move(cells));
}

bool
saveManifest(const std::string &path, const CampaignManifest &m)
{
    ManifestHeader hdr;
    hdr.matrixHash = m.matrixHash;
    hdr.cellCount = m.cells.size();
    uint64_t checksum = cellsChecksum(m.cells);

    // Same publication protocol as .hsr records: a hidden per-process
    // temp name in the target directory plus rename(), so a restart
    // racing a dying coordinator never reads a half-written manifest.
    size_t slash = path.rfind('/');
    std::string tmp =
        (slash == std::string::npos ? std::string()
                                    : path.substr(0, slash + 1)) +
        ".tmp." + std::to_string(::getpid()) + "." +
        path.substr(slash == std::string::npos ? 0 : slash + 1);
    {
        File file(std::fopen(tmp.c_str(), "wb"));
        if (!file.f) {
            warn("manifest: cannot write '%s': %s", tmp.c_str(),
                 std::strerror(errno));
            logEvent("manifest", "write_failed", LogSeverity::Warn,
                     {LogField::text("path", tmp)});
            return false;
        }
        bool ok =
            std::fwrite(&hdr, sizeof(hdr), 1, file.f) == 1 &&
            (m.cells.empty() ||
             std::fwrite(m.cells.data(), sizeof(uint64_t),
                         m.cells.size(), file.f) == m.cells.size()) &&
            std::fwrite(&checksum, sizeof(checksum), 1, file.f) == 1 &&
            std::fflush(file.f) == 0;
        if (!ok) {
            warn("manifest: short write to '%s': %s", tmp.c_str(),
                 std::strerror(errno));
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("manifest: cannot publish '%s': %s", path.c_str(),
             std::strerror(errno));
        logEvent("manifest", "publish_failed", LogSeverity::Warn,
                 {LogField::text("path", path)});
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

ManifestStatus
loadManifest(const std::string &path, CampaignManifest &out)
{
    File file(std::fopen(path.c_str(), "rb"));
    if (!file.f)
        return ManifestStatus::None;

    auto reject = [&](const char *why) {
        warn("manifest: ignoring '%s' (%s)", path.c_str(), why);
        logEvent("manifest", "manifest_corrupt", LogSeverity::Warn,
                 {LogField::text("path", path),
                  LogField::text("why", why)});
        return ManifestStatus::Corrupt;
    };

    ManifestHeader hdr;
    if (std::fread(&hdr, sizeof(hdr), 1, file.f) != 1)
        return reject("truncated header");
    if (hdr.magic != kManifestMagic)
        return reject("bad magic");
    if (hdr.version != kManifestVersion)
        return reject("manifest version mismatch");
    // 16M cells ~ 128 MiB of hashes: far beyond any real campaign, and
    // a corrupt count must not drive a giant allocation.
    if (hdr.cellCount > (1ull << 24))
        return reject("implausible cell count");

    std::vector<uint64_t> cells(static_cast<size_t>(hdr.cellCount));
    if (!cells.empty() &&
        std::fread(cells.data(), sizeof(uint64_t), cells.size(),
                   file.f) != cells.size())
        return reject("truncated cell list");
    uint64_t checksum = 0;
    if (std::fread(&checksum, sizeof(checksum), 1, file.f) != 1)
        return reject("truncated checksum");
    if (std::fgetc(file.f) != EOF)
        return reject("trailing bytes");
    if (checksum != cellsChecksum(cells))
        return reject("cell list checksum mismatch");

    // Internal consistency: the header's matrix hash must re-derive
    // from the cell list it rode in with.
    CampaignManifest m = manifestOf(std::move(cells));
    if (m.matrixHash != hdr.matrixHash)
        return reject("matrix hash mismatch");

    out = std::move(m);
    return ManifestStatus::Ok;
}

std::string
manifestPath(const std::string &dir)
{
    return dir + "/manifest.hsm";
}

CampaignResume
prepareCampaign(DiskResultStore &store,
                const std::vector<RunSpec> &specs)
{
    // One key build per cell: the manifest and the stored-cell probe
    // share the hashes.
    CampaignManifest fresh = makeManifest(specs);
    const std::string path = manifestPath(store.dir());

    CampaignResume res;
    res.totalCells = specs.size();

    CampaignManifest prev;
    switch (loadManifest(path, prev)) {
      case ManifestStatus::Ok:
        if (prev.matrixHash == fresh.matrixHash) {
            res.resumed = true;
        } else {
            // Not an error: one store may serve many campaigns. The
            // manifest simply follows the most recent one.
            warn("manifest: store '%s' last served a different "
                 "campaign (%zu cells); starting this one",
                 store.dir().c_str(), prev.cells.size());
            logEvent("manifest", "campaign_switch", LogSeverity::Warn,
                     {LogField::text("store", store.dir()),
                      LogField::num("prev_cells",
                                    (uint64_t)prev.cells.size())});
        }
        break;
      case ManifestStatus::Corrupt:
        break; // already warned; replace it
      case ManifestStatus::None:
        break;
    }

    // Records of another result format all fail load(), so none of
    // them counts as stored, and neither does a record whose header
    // cannot be read (short, or bad magic). The first record with a
    // readable header stands for the whole store: one read, not one
    // per cell.
    uint32_t format = 0;
    for (uint64_t cell : fresh.cells) {
        if (!store.contains(cell))
            continue;
        if (format == 0) {
            format = store.entryFormat(cell);
            if (format == 0)
                continue; // no readable header: load() would reject it
            if (format != kResultFormatVersion) {
                warn("manifest: store '%s' holds result-format %u "
                     "records, this build reads format %u; its cells "
                     "will be recomputed",
                     store.dir().c_str(), format, kResultFormatVersion);
                res.storedCells = 0;
                break;
            }
        }
        ++res.storedCells;
    }

    saveManifest(path, fresh);
    return res;
}

} // namespace hs
