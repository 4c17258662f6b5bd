#include "sim/disk_store.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <vector>

#include <dirent.h>
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
    uint64_t payloadChecksum = 0;
};

/** mkdir -p for the two-level store layout; EEXIST is success. */
bool
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return true;
    return false;
}

std::string
hashHex(const RunSpec &spec)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(spec.hash()));
    return buf;
}

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
DiskResultStore::entryPath(const RunSpec &spec) const
{
    std::string hex = hashHex(spec);
    return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".hsr";
}

bool
DiskResultStore::contains(const RunSpec &spec) const
{
    struct stat st;
    return ::stat(entryPath(spec).c_str(), &st) == 0;
}

DiskResultStore::LoadStatus
DiskResultStore::load(const RunSpec &spec, RunResult &out)
{
    const std::string path = entryPath(spec);
    File file(std::fopen(path.c_str(), "rb"));
    if (!file.f) {
        misses_.fetch_add(1);
        return LoadStatus::Miss;
    }

    // From here on every failure is "corrupt": an entry exists but
    // cannot be trusted, so log and let the caller recompute. The
    // validation order matters — magic and version gate the header
    // layout, the config echo (canonical key) gates the addressing,
    // and the checksum gates the payload, so nothing is parsed before
    // the bytes that describe it have been vetted.
    auto reject = [&](const char *why) {
        warn("result store: dropping '%s' (%s); recomputing",
             path.c_str(), why);
        logEvent("store", "record_corrupt", LogSeverity::Warn,
                 {LogField::text("path", path),
                  LogField::text("why", why)});
        corrupt_.fetch_add(1);
        return LoadStatus::Corrupt;
    };

    StoreHeader hdr;
    if (std::fread(&hdr, sizeof(hdr), 1, file.f) != 1)
        return reject("truncated header");
    if (hdr.magic != kStoreMagic)
        return reject("bad magic");
    if (hdr.version != kResultFormatVersion)
        return reject("result-format version mismatch");

    const std::string key = spec.canonicalKey();
    if (hdr.keyBytes != key.size())
        return reject("stale config echo (key length)");
    std::string storedKey(key.size(), '\0');
    if (!key.empty() &&
        std::fread(storedKey.data(), 1, key.size(), file.f) !=
            key.size())
        return reject("truncated config echo");
    if (storedKey != key)
        return reject("stale config echo (key mismatch)");

    // 1 GiB sanity cap: no real result record comes anywhere close,
    // and a corrupt length field must not drive a giant allocation.
    if (hdr.payloadBytes > (1ull << 30))
        return reject("implausible payload length");
    std::vector<uint8_t> payload(static_cast<size_t>(hdr.payloadBytes));
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), file.f) !=
            payload.size())
        return reject("truncated payload");
    if (std::fgetc(file.f) != EOF)
        return reject("trailing bytes");
    if (fnv1a64(payload.data(), payload.size()) != hdr.payloadChecksum)
        return reject("payload checksum mismatch");

    out = decodeRunResult(payload);
    hits_.fetch_add(1);
    return LoadStatus::Hit;
}

bool
DiskResultStore::store(const RunSpec &spec, const RunResult &result)
{
    const std::string key = spec.canonicalKey();
    const std::string path = entryPath(spec);
    const std::string bucket = path.substr(0, path.rfind('/'));
    if (!ensureDir(bucket)) {
        warn("result store: cannot create '%s': %s", bucket.c_str(),
             std::strerror(errno));
        return false;
    }

    std::vector<uint8_t> payload = encodeRunResult(result);
    StoreHeader hdr;
    hdr.keyBytes = key.size();
    hdr.payloadBytes = payload.size();
    hdr.payloadChecksum = fnv1a64(payload.data(), payload.size());

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
        hdr.payloadChecksum ^= 1;
    size_t payloadWrite = payload.size();
    if (faultFire("store_torn_write"))
        payloadWrite = payload.size() / 2;
    {
        File file(std::fopen(tmp.c_str(), "wb"));
        if (!file.f) {
            warn("result store: cannot write '%s': %s", tmp.c_str(),
                 std::strerror(errno));
            return false;
        }
        bool ok =
            std::fwrite(&hdr, sizeof(hdr), 1, file.f) == 1 &&
            (key.empty() ||
             std::fwrite(key.data(), 1, key.size(), file.f) ==
                 key.size()) &&
            (payloadWrite == 0 ||
             std::fwrite(payload.data(), 1, payloadWrite, file.f) ==
                 payloadWrite) &&
            std::fflush(file.f) == 0;
        if (!ok) {
            warn("result store: short write to '%s': %s", tmp.c_str(),
                 std::strerror(errno));
            std::remove(tmp.c_str());
            return false;
        }
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
        // durable, everything after this write is lost. The manifest
        // resume path must pick the campaign up from this exact gap.
        warn("result store: injected crash after publishing '%s'",
             path.c_str());
        std::_Exit(9);
    }
    return true;
}

bool
validateRecordFile(const std::string &path, std::string &why)
{
    File file(std::fopen(path.c_str(), "rb"));
    if (!file.f) {
        why = std::string("unreadable: ") + std::strerror(errno);
        return false;
    }
    StoreHeader hdr;
    if (std::fread(&hdr, sizeof(hdr), 1, file.f) != 1) {
        why = "truncated header";
        return false;
    }
    if (hdr.magic != kStoreMagic) {
        why = "bad magic";
        return false;
    }
    if (hdr.version != kResultFormatVersion) {
        why = "result-format version mismatch";
        return false;
    }
    // Same sanity caps as load(): a corrupt length field must not
    // drive a giant allocation during a GC sweep either.
    if (hdr.keyBytes > (1ull << 20)) {
        why = "implausible key length";
        return false;
    }
    if (hdr.payloadBytes > (1ull << 30)) {
        why = "implausible payload length";
        return false;
    }
    std::vector<uint8_t> key(static_cast<size_t>(hdr.keyBytes));
    if (!key.empty() &&
        std::fread(key.data(), 1, key.size(), file.f) != key.size()) {
        why = "truncated config echo";
        return false;
    }
    std::vector<uint8_t> payload(static_cast<size_t>(hdr.payloadBytes));
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), file.f) !=
            payload.size()) {
        why = "truncated payload";
        return false;
    }
    if (std::fgetc(file.f) != EOF) {
        why = "trailing bytes";
        return false;
    }
    if (fnv1a64(payload.data(), payload.size()) !=
        hdr.payloadChecksum) {
        why = "payload checksum mismatch";
        return false;
    }
    return true;
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
        // store layout; manifests and user strays at the root are
        // never prune's business.
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
