#include "sim/disk_store.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/fault.hh"
#include "common/log.hh"
#include "sim/serialize.hh"

namespace hs {

namespace {

constexpr uint32_t kStoreMagic = 0x31525348; // "HSR1", little-endian

/** Fixed-size .hsr header; the canonical key follows it. */
struct StoreHeader
{
    uint32_t magic = kStoreMagic;
    uint32_t version = kResultFormatVersion;
    uint64_t keyBytes = 0;
    uint64_t payloadBytes = 0;
    uint64_t checksum = 0; ///< checksum64 over key echo + payload
};

/** mkdir -p for the two-level store layout; EEXIST is success. */
bool
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return true;
    return false;
}

/// Sanity caps on the header's length fields: no real record comes
/// anywhere close, and a corrupt field must not be trusted.
constexpr uint64_t kMaxKeyBytes = 1ull << 20;
constexpr uint64_t kMaxPayloadBytes = 1ull << 30;
constexpr uint64_t kMaxRecordBytes =
    sizeof(StoreHeader) + kMaxKeyBytes + kMaxPayloadBytes;

/** What readRecord() found at a path. */
struct RecordRead
{
    int openErrno = 0;          ///< nonzero: the file could not be opened
    const char *why = nullptr;  ///< opened but rejected: the reason
    std::vector<uint8_t> bytes; ///< the file as read
    size_t payloadAt = 0;       ///< accepted: payload offset in bytes
    size_t payloadBytes = 0;
};

/**
 * The one .hsr reader: one open/fstat/read/close into memory, then
 * every check on the buffer. The order matters — magic and version
 * gate the header layout, the size caps gate the length fields, the
 * config echo gates the addressing and the checksum gates the echo
 * and the payload together — so nothing is trusted before the bytes that describe it
 * have been vetted. The buffer is sized from the file, never from a
 * header field; a file past the largest possible record is read only
 * up to its config echo (it can only fail, as trailing bytes).
 * @p key, when non-null, is the canonical key the record must echo
 * (load()); null skips that check (validateRecordFile()).
 */
RecordRead
readRecord(const std::string &path, const std::string *key)
{
    RecordRead rec;
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        rec.openErrno = errno;
        return rec;
    }
    struct stat st;
    uint64_t fileBytes =
        ::fstat(fd, &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
    rec.bytes.resize(fileBytes <= kMaxRecordBytes
                         ? fileBytes
                         : sizeof(StoreHeader) + kMaxKeyBytes);
    // A regular file reads whole in one call; a short or failed read
    // (the file shrank, or is not a file) leaves a truncated record.
    ssize_t got = ::read(fd, rec.bytes.data(), rec.bytes.size());
    ::close(fd);
    if (got < static_cast<ssize_t>(rec.bytes.size()))
        rec.bytes.resize(fileBytes = got > 0 ? got : 0);

    auto reject = [&](const char *why) {
        rec.why = why;
        return std::move(rec);
    };
    StoreHeader hdr;
    if (rec.bytes.size() < sizeof(hdr))
        return reject("truncated header");
    std::memcpy(&hdr, rec.bytes.data(), sizeof(hdr));
    if (hdr.magic != kStoreMagic)
        return reject("bad magic");
    if (hdr.version != kResultFormatVersion)
        return reject("result-format version mismatch");
    if (hdr.keyBytes > kMaxKeyBytes)
        return reject("implausible key length");
    if (hdr.payloadBytes > kMaxPayloadBytes)
        return reject("implausible payload length");
    if (key && hdr.keyBytes != key->size())
        return reject("stale config echo (key length)");
    const uint64_t keyEnd = sizeof(hdr) + hdr.keyBytes;
    if (fileBytes < keyEnd)
        return reject("truncated config echo");
    if (key && std::memcmp(rec.bytes.data() + sizeof(hdr), key->data(),
                           key->size()) != 0)
        return reject("stale config echo (key mismatch)");
    const uint64_t end = keyEnd + hdr.payloadBytes;
    if (fileBytes < end)
        return reject("truncated payload");
    if (fileBytes > end)
        return reject("trailing bytes");
    // Here fileBytes == end <= kMaxRecordBytes: the whole file is in
    // the buffer.
    rec.payloadAt = static_cast<size_t>(keyEnd);
    rec.payloadBytes = static_cast<size_t>(hdr.payloadBytes);
    // The echo and the payload are contiguous: one pass covers both,
    // so a payload spliced under another cell's echo cannot pass.
    if (checksum64(rec.bytes.data() + sizeof(hdr),
                   hdr.keyBytes + hdr.payloadBytes) != hdr.checksum)
        return reject("record checksum mismatch");
    return rec;
}

} // namespace

DiskResultStore::DiskResultStore(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("DiskResultStore: empty store directory");
    if (!ensureDir(dir_))
        fatal("DiskResultStore: cannot create store directory '%s': %s",
              dir_.c_str(), std::strerror(errno));
}

std::string
DiskResultStore::entryPath(uint64_t hash) const
{
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return dir_ + "/" + std::string(hex, 2) + "/" + hex + ".hsr";
}

bool
DiskResultStore::contains(uint64_t hash) const
{
    struct stat st;
    return ::stat(entryPath(hash).c_str(), &st) == 0;
}

uint32_t
DiskResultStore::entryFormat(uint64_t hash) const
{
    uint32_t head[2]; // StoreHeader's leading magic and version
    int fd = ::open(entryPath(hash).c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return 0;
    ssize_t got = ::read(fd, head, sizeof(head));
    ::close(fd);
    if (got != static_cast<ssize_t>(sizeof(head)) || head[0] != kStoreMagic)
        return 0;
    return head[1];
}

DiskResultStore::LoadStatus
DiskResultStore::load(const std::string &key, RunResult &out)
{
    const std::string path = entryPath(keyHash(key));
    RecordRead rec = readRecord(path, &key);
    if (rec.openErrno) {
        misses_.fetch_add(1);
        return LoadStatus::Miss;
    }
    if (rec.why) {
        // An entry exists but cannot be trusted: log and let the
        // caller recompute.
        warn("result store: dropping '%s' (%s); recomputing",
             path.c_str(), rec.why);
        logEvent("store", "record_corrupt", LogSeverity::Warn,
                 {LogField::text("path", path),
                  LogField::text("why", rec.why)});
        corrupt_.fetch_add(1);
        return LoadStatus::Corrupt;
    }
    out = decodeRunResult(std::span<const uint8_t>(rec.bytes).subspan(
        rec.payloadAt, rec.payloadBytes));
    hits_.fetch_add(1);
    return LoadStatus::Hit;
}

bool
DiskResultStore::store(const std::string &key, const RunResult &result)
{
    const std::string path = entryPath(keyHash(key));
    const std::string bucket = path.substr(0, path.rfind('/'));
    if (!ensureDir(bucket)) {
        warn("result store: cannot create '%s': %s", bucket.c_str(),
             std::strerror(errno));
        return false;
    }

    // The whole record is assembled in one buffer and goes out in one
    // write(), the mirror of the reader's single read(): a header
    // slot (filled in below), the key echo, then the payload
    // serialised in place behind it.
    std::vector<uint8_t> image;
    StateWriter w(image);
    StoreHeader hdr;
    w.value(hdr);
    w.bytes(key.data(), key.size());
    w.record(result);
    hdr.keyBytes = key.size();
    hdr.payloadBytes = image.size() - sizeof(hdr) - key.size();
    hdr.checksum =
        checksum64(image.data() + sizeof(hdr), image.size() - sizeof(hdr));

    // Write to a hidden per-process temp name in the target directory,
    // then rename() into place: readers never observe a partial file,
    // and two writers racing on one cell end with one of their
    // (identical) records. The pid suffix keeps concurrent processes
    // off each other's temp files.
    std::string tmp =
        bucket + "/.tmp." + std::to_string(::getpid()) + "." +
        path.substr(path.rfind('/') + 1);
    // Chaos sites model the writer-side failures a shared store must
    // absorb: a checksum that rotted (the record publishes but never
    // validates), a write torn halfway by a crash that still reached
    // rename() (e.g. power loss reordering), and a rename that fails
    // outright. All of them must cost at most a recompute.
    if (faultFire("store_checksum_flip"))
        hdr.checksum ^= 1;
    if (faultFire("store_torn_write"))
        image.resize(sizeof(hdr) + key.size() + hdr.payloadBytes / 2);
    std::memcpy(image.data(), &hdr, sizeof(hdr));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
    if (fd < 0) {
        warn("result store: cannot write '%s': %s", tmp.c_str(),
             std::strerror(errno));
        return false;
    }
    bool ok = ::write(fd, image.data(), image.size()) ==
              static_cast<ssize_t>(image.size());
    ok = ::close(fd) == 0 && ok;
    if (!ok) {
        warn("result store: short write to '%s': %s", tmp.c_str(),
             std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    if (faultFire("store_rename_fail")) {
        warn("result store: cannot publish '%s': injected fault",
             path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("result store: cannot publish '%s': %s", path.c_str(),
             std::strerror(errno));
        logEvent("store", "publish_failed", LogSeverity::Warn,
                 {LogField::text("path", path)});
        std::remove(tmp.c_str());
        return false;
    }
    writes_.fetch_add(1);
    if (faultFire("store_crash")) {
        // A chaos-killed coordinator: the record just published is
        // durable, everything after this write is lost. A restart must
        // pick the campaign up from the records alone, at this exact
        // gap.
        warn("result store: injected crash after publishing '%s'",
             path.c_str());
        std::_Exit(9);
    }
    return true;
}

bool
validateRecordFile(const std::string &path, std::string &why)
{
    RecordRead rec = readRecord(path, nullptr);
    if (rec.openErrno)
        why = std::string("unreadable: ") + std::strerror(rec.openErrno);
    else if (rec.why)
        why = rec.why;
    return !rec.openErrno && !rec.why;
}

namespace {

/** True when @p name is exactly two hex digits (a bucket directory). */
bool
isBucketName(const char *name)
{
    auto hex = [](char c) {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    };
    return name[0] != '\0' && name[1] != '\0' && name[2] == '\0' &&
           hex(name[0]) && hex(name[1]);
}

/**
 * True for names prune may consider: visible `*.hsr` records. Hidden
 * temp files from interrupted writers start with '.' and stay out.
 */
bool
isRecordName(const char *name)
{
    if (name[0] == '.')
        return false;
    size_t n = std::strlen(name);
    return n > 4 && std::strcmp(name + n - 4, ".hsr") == 0;
}

/** RAII DIR handle. */
struct Dir
{
    DIR *d = nullptr;
    explicit Dir(DIR *dp) : d(dp) {}
    ~Dir()
    {
        if (d)
            ::closedir(d);
    }
};

} // namespace

PruneStats
pruneStore(const std::string &dir, const PruneOptions &opts)
{
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fatal("prune: '%s' is not a store directory", dir.c_str());
    Dir root(::opendir(dir.c_str()));
    if (!root.d)
        fatal("prune: cannot open '%s': %s", dir.c_str(),
              std::strerror(errno));

    PruneStats stats;
    const std::time_t now = std::time(nullptr);
    while (dirent *de = ::readdir(root.d)) {
        if (std::strcmp(de->d_name, ".") == 0 ||
            std::strcmp(de->d_name, "..") == 0)
            continue;
        std::string sub = dir + "/" + de->d_name;
        struct stat sst;
        // Only the two-hex-digit bucket directories belong to the
        // store layout; the event log, files older builds left and
        // user strays at the root are never prune's business.
        if (!isBucketName(de->d_name) ||
            ::lstat(sub.c_str(), &sst) != 0 || !S_ISDIR(sst.st_mode)) {
            ++stats.skipped;
            continue;
        }
        Dir bucket(::opendir(sub.c_str()));
        if (!bucket.d) {
            ++stats.skipped;
            continue;
        }
        while (dirent *fe = ::readdir(bucket.d)) {
            if (std::strcmp(fe->d_name, ".") == 0 ||
                std::strcmp(fe->d_name, "..") == 0)
                continue;
            std::string path = sub + "/" + fe->d_name;
            struct stat fst;
            if (!isRecordName(fe->d_name) ||
                ::lstat(path.c_str(), &fst) != 0 ||
                !S_ISREG(fst.st_mode)) {
                ++stats.skipped;
                continue;
            }
            ++stats.scanned;

            bool corrupt = false;
            std::string why;
            if (opts.sweepCorrupt && !validateRecordFile(path, why)) {
                corrupt = true;
                warn("prune: '%s' is corrupt (%s)", path.c_str(),
                     why.c_str());
            }
            // Strict '>' keeps a record sitting exactly on the
            // retention boundary.
            bool tooOld =
                opts.olderThanDays >= 0.0 &&
                std::difftime(now, fst.st_mtime) >
                    opts.olderThanDays * 86400.0;
            if (!corrupt && !tooOld) {
                ++stats.kept;
                continue;
            }
            if (!opts.dryRun && std::remove(path.c_str()) != 0) {
                warn("prune: cannot delete '%s': %s", path.c_str(),
                     std::strerror(errno));
                ++stats.kept;
                continue;
            }
            ++stats.pruned;
            if (corrupt)
                ++stats.corrupt;
            stats.bytesFreed += static_cast<uint64_t>(fst.st_size);
        }
    }
    return stats;
}

CampaignResume
prepareCampaign(const DiskResultStore &store,
                const std::vector<RunSpec> &specs)
{
    CampaignResume res;
    res.totalCells = specs.size();

    // Records of another result format all fail load(), so none of
    // them counts as stored, and neither does a record whose header
    // cannot be read (short, or bad magic). The first record with a
    // readable header stands for the whole store: one read, not one
    // per cell.
    uint32_t format = 0;
    for (const RunSpec &spec : specs) {
        const uint64_t cell = spec.hash();
        if (!store.contains(cell))
            continue;
        if (format == 0) {
            format = store.entryFormat(cell);
            if (format == 0)
                continue; // no readable header: load() would reject it
            if (format != kResultFormatVersion) {
                warn("result store: '%s' holds result-format %u "
                     "records, this build reads format %u; its cells "
                     "will be recomputed",
                     store.dir().c_str(), format, kResultFormatVersion);
                res.storedCells = 0;
                break;
            }
        }
        ++res.storedCells;
    }
    return res;
}

DiskResultStore *
envDiskStore()
{
    static std::unique_ptr<DiskResultStore> store = [] {
        std::string dir = knobText("HS_STORE");
        if (dir.empty())
            return std::unique_ptr<DiskResultStore>();
        return std::make_unique<DiskResultStore>(dir);
    }();
    return store.get();
}

} // namespace hs
