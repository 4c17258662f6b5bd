/**
 * @file
 * Persistent result-store tests, with emphasis on the failure matrix:
 * a truncated record, a corrupted payload, a wrong format version, and
 * a stale config echo must each be detected, logged, and recomputed —
 * never crash the engine, never serve a wrong result.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/disk_store.hh"
#include "sim/result_store.hh"
#include "sim/run_spec.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"

#include "scratch_dir.hh"

namespace {

using namespace hs;
using hs::test::ScratchDir;

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    return opts;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

TEST(DiskStore, StoreThenLoadRoundTrips)
{
    ScratchDir dir("store_test_roundtrip");
    DiskResultStore store(dir.path());
    RunSpec spec = soloSpec("gcc", fastOpts());
    RunResult original = executeRunSpec(spec);

    EXPECT_FALSE(store.contains(spec.hash()));
    ASSERT_TRUE(store.store(spec, original));
    EXPECT_TRUE(store.contains(spec.hash()));
    EXPECT_EQ(store.writes(), 1u);

    RunResult back;
    ASSERT_EQ(store.load(spec, back), DiskResultStore::LoadStatus::Hit);
    EXPECT_TRUE(back == original);
    EXPECT_EQ(back.hostSeconds, original.hostSeconds);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.corrupt(), 0u);
}

TEST(DiskStore, MissOnEmptyStore)
{
    ScratchDir dir("store_test_miss");
    DiskResultStore store(dir.path());
    RunResult out;
    EXPECT_EQ(store.load(soloSpec("gcc", fastOpts()), out),
              DiskResultStore::LoadStatus::Miss);
    EXPECT_EQ(store.misses(), 1u);
}

TEST(DiskStore, EntryPathUsesHashFanout)
{
    ScratchDir dir("store_test_path");
    DiskResultStore store(dir.path());
    RunSpec spec = soloSpec("gcc", fastOpts());
    std::string path = store.entryPath(spec.hash());
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(spec.hash()));
    EXPECT_NE(path.find(std::string("/") + hex[0] + hex[1] + "/"),
              std::string::npos);
    EXPECT_NE(path.find(std::string(hex) + ".hsr"),
              std::string::npos);
}

/**
 * The corruption matrix: each mutation of a valid record must load as
 * Corrupt (logged miss), and a read-through ResultStore must then
 * recompute the correct result rather than crash or serve garbage.
 */
class DiskStoreCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        store_ = std::make_unique<DiskResultStore>(dir_.path());
        spec_ = soloSpec("gcc", fastOpts());
        original_ = executeRunSpec(spec_);
        ASSERT_TRUE(store_->store(spec_, original_));
        path_ = store_->entryPath(spec_.hash());
        bytes_ = slurp(path_);
        ASSERT_GT(bytes_.size(), 40u);
    }

    /** Expect Corrupt from load(), then a correct recompute through
     *  a read-through ResultStore. */
    void
    expectCorruptAndRecompute()
    {
        RunResult out;
        EXPECT_EQ(store_->load(spec_, out),
                  DiskResultStore::LoadStatus::Corrupt);
        EXPECT_GE(store_->corrupt(), 1u);

        ResultStore mem;
        mem.attachDisk(store_.get());
        bool computed = false;
        ResultStore::Source src = ResultStore::Source::Memory;
        RunResult served = mem.getOrCompute(
            spec_,
            [&] {
                computed = true;
                return executeRunSpec(spec_);
            },
            &src);
        EXPECT_TRUE(computed);
        EXPECT_EQ(src, ResultStore::Source::Computed);
        EXPECT_TRUE(served == original_);
    }

    ScratchDir dir_{"store_test_corrupt"};
    std::string path_;
    std::unique_ptr<DiskResultStore> store_;
    RunSpec spec_;
    RunResult original_;
    std::vector<char> bytes_;
};

TEST_F(DiskStoreCorruption, TruncatedRecordIsRecomputed)
{
    std::vector<char> cut(bytes_.begin(),
                          bytes_.begin() +
                              static_cast<long>(bytes_.size() / 2));
    spit(path_, cut);
    expectCorruptAndRecompute();
}

TEST_F(DiskStoreCorruption, TruncatedHeaderIsRecomputed)
{
    spit(path_, std::vector<char>(bytes_.begin(), bytes_.begin() + 7));
    expectCorruptAndRecompute();
}

TEST_F(DiskStoreCorruption, ChecksumMismatchIsRecomputed)
{
    bytes_.back() = static_cast<char>(bytes_.back() ^ 0x40);
    spit(path_, bytes_);
    expectCorruptAndRecompute();
}

TEST_F(DiskStoreCorruption, WrongFormatVersionIsRecomputed)
{
    // Header layout: magic u32 | version u32 | ... — poke the version.
    bytes_[4] = static_cast<char>(0x7f);
    spit(path_, bytes_);
    expectCorruptAndRecompute();
}

TEST_F(DiskStoreCorruption, BadMagicIsRecomputed)
{
    bytes_[0] = 'X';
    spit(path_, bytes_);
    expectCorruptAndRecompute();
}

TEST_F(DiskStoreCorruption, StaleConfigEchoIsRecomputed)
{
    // The canonical key (config echo) starts right after the 32-byte
    // fixed header; corrupting it models a hash collision or an entry
    // written by a build with a different key layout.
    bytes_[32] = static_cast<char>(bytes_[32] ^ 0x01);
    spit(path_, bytes_);
    expectCorruptAndRecompute();
}

TEST_F(DiskStoreCorruption, TrailingBytesAreRecomputed)
{
    bytes_.push_back(0x00);
    spit(path_, bytes_);
    expectCorruptAndRecompute();
}

/** Little-endian u64 at byte @p at of a record image. */
uint64_t
peek64(const std::vector<char> &bytes, size_t at)
{
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
}

void
poke64(std::vector<char> &bytes, size_t at, uint64_t v)
{
    std::memcpy(bytes.data() + at, &v, sizeof(v));
}

// Fixed .hsr header: magic u32 | version u32 | keyBytes u64
// | payloadBytes u64 | checksum u64 (over key + payload); the key
// follows.
constexpr size_t kVersionAt = 4;
constexpr size_t kKeyBytesAt = 8;
constexpr size_t kPayloadBytesAt = 16;
constexpr size_t kChecksumAt = 24;
constexpr size_t kHeaderBytes = 32;

/**
 * One cell's header and payload under another cell's key echo, keys of
 * equal length: every field but the checksum is consistent with the
 * requesting cell. The checksum covers the echo, so the splice loads
 * as Corrupt and the right result is recomputed — never the other
 * cell's result served as a Hit.
 */
TEST(DiskStoreSplice, PayloadUnderAnotherCellsEchoIsRecomputed)
{
    ExperimentOptions opts;
    opts.timeScale = 20000.0;
    const RunSpec specA = soloSpec("gcc", opts);
    const RunSpec specB = soloSpec("vpr", opts);
    const std::string keyA = specA.canonicalKey();
    ASSERT_EQ(keyA.size(), specB.canonicalKey().size());
    const RunResult resultA = executeRunSpec(specA);
    const RunResult resultB = executeRunSpec(specB);
    ASSERT_FALSE(resultA == resultB);

    ScratchDir dir("store_test_splice");

    DiskResultStore store(dir.path());
    ASSERT_TRUE(store.store(specB, resultB));
    std::vector<char> splice = slurp(store.entryPath(specB.hash()));
    std::copy(keyA.begin(), keyA.end(), splice.begin() + kHeaderBytes);
    const std::string pathA = store.entryPath(specA.hash());
    ASSERT_EQ(std::system(("mkdir -p " + pathA.substr(
                               0, pathA.rfind('/'))).c_str()), 0);
    spit(pathA, splice);

    std::string why;
    EXPECT_FALSE(validateRecordFile(pathA, why));
    EXPECT_EQ(why, "record checksum mismatch");
    RunResult out;
    EXPECT_EQ(store.load(specA, out), DiskResultStore::LoadStatus::Corrupt);

    ResultStore mem;
    mem.attachDisk(&store);
    ResultStore::Source src = ResultStore::Source::Memory;
    RunResult served =
        mem.getOrCompute(specA, [&] { return executeRunSpec(specA); },
                         &src);
    EXPECT_EQ(src, ResultStore::Source::Computed);
    EXPECT_TRUE(served == resultA);
    EXPECT_FALSE(served == resultB);
    // The write-through repaired the record: now a plain Hit for A.
    EXPECT_EQ(store.load(specA, out), DiskResultStore::LoadStatus::Hit);
    EXPECT_TRUE(out == resultA);
}

/**
 * A record as a format-version-1 build wrote it (checksum over the
 * payload only) is refused on its version, before the checksum is
 * consulted, and recomputed.
 */
TEST(DiskStoreSplice, VersionOneRecordIsRecomputed)
{
    ExperimentOptions opts;
    opts.timeScale = 20000.0;
    const RunSpec spec = soloSpec("gcc", opts);
    const RunResult result = executeRunSpec(spec);
    ScratchDir dir("store_test_v1");
    DiskResultStore store(dir.path());
    ASSERT_TRUE(store.store(spec, result));
    const std::string path = store.entryPath(spec.hash());
    std::vector<char> v1 = slurp(path);
    const uint32_t one = 1;
    std::memcpy(v1.data() + kVersionAt, &one, sizeof(one));
    const size_t payloadAt =
        kHeaderBytes + static_cast<size_t>(peek64(v1, kKeyBytesAt));
    poke64(v1, kChecksumAt,
           fnv1a64(reinterpret_cast<const uint8_t *>(v1.data()) +
                       payloadAt,
                   v1.size() - payloadAt));
    spit(path, v1);

    std::vector<std::string> reasons;
    setLogEventObserver([&](const LogEventView &ev) {
        for (size_t i = 0; i < ev.numFields; ++i)
            if (std::string(ev.fields[i].key) == "why")
                reasons.push_back(ev.fields[i].str);
    });
    ResultStore mem;
    mem.attachDisk(&store);
    ResultStore::Source src = ResultStore::Source::Memory;
    RunResult served = mem.getOrCompute(
        spec, [&] { return executeRunSpec(spec); }, &src);
    setLogEventObserver(nullptr);
    EXPECT_EQ(src, ResultStore::Source::Computed);
    EXPECT_TRUE(served == result);
    EXPECT_EQ(reasons,
              std::vector<std::string>{"result-format version mismatch"});
    EXPECT_EQ(store.corrupt(), 1u);
}

/**
 * Every reason the record reader can give, through both entry points:
 * load() (Corrupt, logged with the reason, then a correct recompute)
 * and validateRecordFile() (false plus the reason). The config-echo
 * checks need the requesting key, so validateRecordFile() passes or
 * reports the next structural fault instead.
 */
TEST_F(DiskStoreCorruption, EveryRejectReasonThroughBothReaders)
{
    const size_t keyBytes = peek64(bytes_, kKeyBytesAt);
    struct Row
    {
        const char *loadWhy;
        const char *validateWhy; ///< nullptr: structurally valid
        std::function<void(std::vector<char> &)> mutate;
    };
    const Row rows[] = {
        {"truncated header", "truncated header",
         [](std::vector<char> &b) { b.resize(kHeaderBytes - 1); }},
        {"bad magic", "bad magic", [](std::vector<char> &b) { b[0] = 'X'; }},
        {"result-format version mismatch",
         "result-format version mismatch",
         [](std::vector<char> &b) { b[4] = 0x7f; }},
        {"implausible key length", "implausible key length",
         [](std::vector<char> &b) {
             poke64(b, kKeyBytesAt, (1ull << 20) + 1);
         }},
        {"implausible payload length", "implausible payload length",
         [](std::vector<char> &b) {
             poke64(b, kPayloadBytesAt, (1ull << 30) + 1);
         }},
        {"stale config echo (key length)", "truncated payload",
         [&](std::vector<char> &b) {
             poke64(b, kKeyBytesAt, keyBytes + 1);
         }},
        {"truncated config echo", "truncated config echo",
         [&](std::vector<char> &b) {
             b.resize(kHeaderBytes + keyBytes / 2);
         }},
        {"stale config echo (key mismatch)", "record checksum mismatch",
         [](std::vector<char> &b) { b[kHeaderBytes] ^= 0x01; }},
        {"truncated payload", "truncated payload",
         [](std::vector<char> &b) { b.pop_back(); }},
        {"trailing bytes", "trailing bytes",
         [](std::vector<char> &b) { b.push_back(0); }},
        {"record checksum mismatch", "record checksum mismatch",
         [](std::vector<char> &b) { b.back() ^= 0x40; }},
    };

    std::vector<std::string> reasons;
    setLogEventObserver([&](const LogEventView &ev) {
        if (std::string(ev.event) != "record_corrupt")
            return;
        for (size_t i = 0; i < ev.numFields; ++i)
            if (std::string(ev.fields[i].key) == "why")
                reasons.push_back(ev.fields[i].str);
    });
    for (const Row &row : rows) {
        SCOPED_TRACE(row.loadWhy);
        std::vector<char> bytes = bytes_;
        row.mutate(bytes);
        spit(path_, bytes);

        std::string why;
        EXPECT_EQ(validateRecordFile(path_, why), row.validateWhy == nullptr);
        EXPECT_EQ(why, row.validateWhy ? row.validateWhy : "");

        reasons.clear();
        RunResult out;
        EXPECT_EQ(store_->load(spec_, out),
                  DiskResultStore::LoadStatus::Corrupt);
        EXPECT_EQ(reasons, std::vector<std::string>{row.loadWhy});

        // A read-through tier recomputes and serves the right result
        // (and its write-through repairs the record).
        ResultStore mem;
        mem.attachDisk(store_.get());
        bool computed = false;
        RunResult served = mem.getOrCompute(spec_, [&] {
            computed = true;
            return original_;
        });
        EXPECT_TRUE(computed);
        EXPECT_TRUE(served == original_);
        EXPECT_TRUE(validateRecordFile(path_, why)) << why;
    }
    setLogEventObserver(nullptr);
}

} // namespace

// Defined next to the counting operator new (test_alloc_stability.cc).
std::size_t takeLargestAlloc();

namespace {

/**
 * Seeded mutations of golden records: bit flips, truncation at every
 * field boundary, inflated length fields and splices of two records.
 * Every mutant must load as a Hit equal to the original or as a clean
 * Corrupt, never crash, and never allocate past the file's size (plus
 * a page for paths and log text).
 */
class RecordMutationFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RecordMutationFuzz, EveryMutantHitsIntactOrIsCorrupt)
{
    ExperimentOptions opts;
    opts.timeScale = 20000.0;
    const RunSpec specA = withVariantSpec("gcc", 2, opts);
    const RunSpec specB = soloSpec("mesa", opts);
    const RunResult resultA = executeRunSpec(specA);

    ScratchDir dir("store_test_fuzz" + std::to_string(GetParam()));

    DiskResultStore store(dir.path());
    ASSERT_TRUE(store.store(specA, resultA));
    ASSERT_TRUE(store.store(specB, executeRunSpec(specB)));
    const std::string path = store.entryPath(specA.hash());
    const std::vector<char> golden = slurp(path);
    const std::vector<char> other = slurp(store.entryPath(specB.hash()));
    const uint64_t keyBytes = peek64(golden, kKeyBytesAt);
    const size_t bounds[] = {0, 4, 8, kKeyBytesAt, kPayloadBytesAt, 24,
                             kHeaderBytes, kHeaderBytes + keyBytes,
                             golden.size()};

    Rng rng(GetParam());
    std::vector<std::vector<char>> mutants;
    // This record up to byte @p cut, the other one after it.
    auto splice = [&](size_t cut) {
        std::vector<char> m(golden.begin(),
                            golden.begin() + static_cast<long>(cut));
        m.insert(m.end(), other.begin() + static_cast<long>(cut),
                 other.end());
        mutants.push_back(std::move(m));
    };
    for (size_t cut : bounds) {
        // Truncated one byte short of the boundary and at it (cut - 1
        // wraps for cut == 0 and is skipped).
        for (size_t len : {cut - 1, cut})
            if (len < golden.size())
                mutants.emplace_back(golden.begin(),
                                     golden.begin() +
                                         static_cast<long>(len));
        if (cut < other.size())
            splice(cut);
    }
    splice(rng.nextBounded(std::min(golden.size(), other.size())));
    for (int k = 0; k < 48; ++k) {
        std::vector<char> m = golden;
        for (int flips = 1 + static_cast<int>(rng.nextBounded(3));
             flips > 0; --flips) {
            size_t bit = rng.nextBounded(m.size() * 8);
            m[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        }
        mutants.push_back(std::move(m));
    }
    for (size_t field : {kKeyBytesAt, kPayloadBytesAt}) {
        const uint64_t v = peek64(golden, field);
        const uint64_t inflated[] = {v + 1,
                                     v + 1 + rng.nextBounded(1u << 16),
                                     1ull << 20,
                                     1ull << 30,
                                     (1ull << 30) + 1,
                                     ~0ull,
                                     rng.next()};
        for (uint64_t value : inflated) {
            std::vector<char> m = golden;
            poke64(m, field, value);
            mutants.push_back(std::move(m));
        }
    }

    setLogLevel(LogLevel::Quiet);
    for (size_t i = 0; i < mutants.size(); ++i) {
        const std::vector<char> &m = mutants[i];
        SCOPED_TRACE("mutant " + std::to_string(i));
        spit(path, m);
        RunResult out;
        takeLargestAlloc();
        DiskResultStore::LoadStatus st = store.load(specA, out);
        std::string why;
        bool valid = validateRecordFile(path, why);
        EXPECT_LE(takeLargestAlloc(), m.size() + 4096);
        if (st == DiskResultStore::LoadStatus::Hit) {
            EXPECT_TRUE(out == resultA);
            EXPECT_TRUE(valid);
        } else {
            EXPECT_EQ(st, DiskResultStore::LoadStatus::Corrupt);
        }
    }
    setLogLevel(LogLevel::Normal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordMutationFuzz,
                         ::testing::Range<uint64_t>(1, 5));

TEST(DiskStoreTier, ReadThroughAndWriteThrough)
{
    ScratchDir scratch("store_test_tier");
    const std::string &dir = scratch.path();
    RunSpec spec = soloSpec("gcc", fastOpts());
    RunResult original;

    {
        // Cold process: computes, writes through.
        DiskResultStore disk(dir);
        ResultStore mem;
        mem.attachDisk(&disk);
        ResultStore::Source src = ResultStore::Source::Memory;
        original = mem.getOrCompute(
            spec, [&] { return executeRunSpec(spec); }, &src);
        EXPECT_EQ(src, ResultStore::Source::Computed);
        EXPECT_EQ(disk.writes(), 1u);
        EXPECT_TRUE(mem.available(spec.canonicalKey()));

        // Second lookup in the same process: memory tier.
        src = ResultStore::Source::Computed;
        mem.getOrCompute(
            spec,
            [&]() -> RunResult {
                ADD_FAILURE() << "must not simulate";
                return RunResult();
            },
            &src);
        EXPECT_EQ(src, ResultStore::Source::Memory);
    }

    {
        // "New process": fresh memory store over the same directory.
        DiskResultStore disk(dir);
        ResultStore mem;
        mem.attachDisk(&disk);
        EXPECT_FALSE(mem.contains(spec.canonicalKey()));
        EXPECT_TRUE(mem.available(spec.canonicalKey()));
        ResultStore::Source src = ResultStore::Source::Computed;
        RunResult served = mem.getOrCompute(
            spec,
            [&]() -> RunResult {
                ADD_FAILURE() << "warm store must not simulate";
                return RunResult();
            },
            &src);
        EXPECT_EQ(src, ResultStore::Source::Disk);
        EXPECT_TRUE(served == original);
        EXPECT_EQ(served.hostSeconds, original.hostSeconds);
        EXPECT_EQ(disk.hits(), 1u);
        EXPECT_EQ(disk.writes(), 0u);
    }
}

TEST(DiskStoreTier, WarmStoreServesWholeMatrixWithoutSimulating)
{
    ScratchDir scratch("store_test_matrix");
    const std::string &dir = scratch.path();
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", opts));
    specs.push_back(soloSpec("mesa", opts));
    specs.push_back(
        soloSpec("gcc", opts).withDtm(DtmMode::SelectiveSedation));

    std::vector<RunResult> cold;
    {
        DiskResultStore disk(dir);
        ResultStore mem;
        mem.attachDisk(&disk);
        ParallelRunner runner(2, &mem);
        cold = runner.run(specs);
        EXPECT_EQ(disk.writes(), specs.size());
    }
    {
        DiskResultStore disk(dir);
        ResultStore mem;
        mem.attachDisk(&disk);
        ParallelRunner runner(2, &mem);
        size_t diskHits = 0, simulated = 0;
        runner.setCellObserver([&](const CellEvent &ev) {
            if (ev.kind == CellEvent::Kind::DiskHit)
                ++diskHits;
            if (ev.kind == CellEvent::Kind::Finished ||
                ev.kind == CellEvent::Kind::RemoteFinished)
                ++simulated;
        });
        std::vector<RunResult> warm = runner.run(specs);
        EXPECT_EQ(simulated, 0u);
        EXPECT_EQ(diskHits, specs.size());
        ASSERT_EQ(warm.size(), cold.size());
        for (size_t i = 0; i < warm.size(); ++i)
            EXPECT_TRUE(warm[i] == cold[i]) << "cell " << i;
    }
}

/**
 * A fully stored matrix of distinct singleton cells costs the engine
 * nothing before dispatch: no prefix group, and every cell one disk
 * hit (no miss, no corrupt record).
 */
TEST(DiskStoreTier, WarmSingletonMatrixDoesNoPreDispatchWork)
{
    ScratchDir scratch("store_test_warm_singletons");
    const std::string &dir = scratch.path();
    ExperimentOptions opts;
    opts.timeScale = 20000.0;
    const RunSpec base = withVariantSpec("gcc", 1, opts);
    const RunResult payload = executeRunSpec(base);
    std::vector<RunSpec> specs;
    {
        DiskResultStore disk(dir);
        for (int j = 0; j < 16; ++j) {
            RunSpec s = base;
            s.opts.convectionR += 1e-7 * (j + 1); // own divergence group
            ASSERT_TRUE(disk.store(s, payload));
            specs.push_back(s);
        }
    }
    DiskResultStore disk(dir);
    ResultStore mem;
    mem.attachDisk(&disk);
    ParallelRunner runner(2, &mem);
    ASSERT_TRUE(runner.prefixSharing());
    size_t diskHits = 0;
    runner.setCellObserver([&](const CellEvent &ev) {
        if (ev.kind == CellEvent::Kind::DiskHit)
            ++diskHits;
    });
    std::vector<RunResult> warm = runner.run(specs);
    EXPECT_EQ(diskHits, specs.size());
    EXPECT_EQ(runner.prefixStats().groups, 0u);
    EXPECT_EQ(disk.hits(), specs.size());
    EXPECT_EQ(disk.misses(), 0u);
    EXPECT_EQ(disk.corrupt(), 0u);
    for (const RunResult &r : warm)
        EXPECT_TRUE(r == payload);
}

/**
 * Pins today's rule for a two-cell divergence group: cold, it shares
 * a prefix; with one member stored, only one fresh cell would fork,
 * so no prefix is built and the other cell runs cold.
 */
TEST(DiskStoreTier, HalfStoredPairBuildsNoPrefix)
{
    ScratchDir scratch("store_test_half_pair");
    const std::string &dir = scratch.path();
    ExperimentOptions opts = fastOpts();
    const std::vector<RunSpec> pair = {
        withVariantSpec("gcc", 2, opts),
        withVariantSpec("gcc", 2, opts)
            .withDtm(DtmMode::SelectiveSedation)};
    ASSERT_EQ(pair[0].divergenceKey(), pair[1].divergenceKey());

    std::vector<RunResult> cold;
    {
        DiskResultStore disk(dir);
        ResultStore mem;
        mem.attachDisk(&disk);
        ParallelRunner runner(2, &mem);
        cold = runner.run(pair);
        EXPECT_EQ(runner.prefixStats().groups, 1u);
        ASSERT_EQ(std::remove(disk.entryPath(pair[1].hash()).c_str()), 0);
    }
    DiskResultStore disk(dir);
    ResultStore mem;
    mem.attachDisk(&disk);
    ParallelRunner runner(2, &mem);
    std::vector<CellEvent::Kind> kinds(pair.size());
    runner.setCellObserver([&](const CellEvent &ev) {
        if (ev.kind != CellEvent::Kind::Queued &&
            ev.kind != CellEvent::Kind::Started)
            kinds[ev.index] = ev.kind;
    });
    std::vector<RunResult> warm = runner.run(pair);
    EXPECT_EQ(kinds[0], CellEvent::Kind::DiskHit);
    EXPECT_EQ(kinds[1], CellEvent::Kind::Finished);
    EXPECT_EQ(runner.prefixStats().groups, 0u);
    EXPECT_EQ(runner.prefixStats().forkedRuns, 0u);
    EXPECT_TRUE(warm[0] == cold[0]);
    EXPECT_TRUE(warm[1] == cold[1]);
}

} // namespace
