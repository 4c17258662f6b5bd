/**
 * @file
 * Campaign-manifest tests: save/load round trips, the corruption
 * matrix (every damaged manifest degrades to a fresh campaign, never
 * a crash), and prepareCampaign()'s resume accounting — the persisted
 * identity that lets an interrupted coordinator restart and run only
 * the cells its store is missing.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/disk_store.hh"
#include "sim/manifest.hh"
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
    opts.timeScale = 20000.0;
    return opts;
}

std::vector<RunSpec>
smallMatrix()
{
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", opts));
    specs.push_back(soloSpec("mesa", opts));
    specs.push_back(
        soloSpec("gcc", opts).withDtm(DtmMode::SelectiveSedation));
    return specs;
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

TEST(Manifest, MatrixHashPinsMembershipAndOrder)
{
    std::vector<RunSpec> specs = smallMatrix();
    uint64_t h = makeManifest(specs).matrixHash;
    EXPECT_EQ(h, makeManifest(specs).matrixHash); // stable

    std::vector<RunSpec> reordered = {specs[1], specs[0], specs[2]};
    EXPECT_NE(h, makeManifest(reordered).matrixHash);

    std::vector<RunSpec> shorter = {specs[0], specs[1]};
    EXPECT_NE(h, makeManifest(shorter).matrixHash);
}

TEST(Manifest, SaveThenLoadRoundTrips)
{
    ScratchDir scratch("manifest_test_roundtrip");
    const std::string &dir = scratch.path();
    std::vector<RunSpec> specs = smallMatrix();
    CampaignManifest m = makeManifest(specs);
    ASSERT_EQ(m.cells.size(), specs.size());

    std::string path = manifestPath(dir);
    ASSERT_TRUE(saveManifest(path, m));

    CampaignManifest back;
    ASSERT_EQ(loadManifest(path, back), ManifestStatus::Ok);
    EXPECT_EQ(back.matrixHash, m.matrixHash);
    EXPECT_EQ(back.cells, m.cells);
}

TEST(Manifest, EmptyMatrixRoundTrips)
{
    ScratchDir scratch("manifest_test_empty");
    const std::string &dir = scratch.path();
    CampaignManifest m = makeManifest({});
    std::string path = manifestPath(dir);
    ASSERT_TRUE(saveManifest(path, m));
    CampaignManifest back;
    ASSERT_EQ(loadManifest(path, back), ManifestStatus::Ok);
    EXPECT_TRUE(back.cells.empty());
}

TEST(Manifest, MissingFileIsNone)
{
    CampaignManifest out;
    EXPECT_EQ(loadManifest("hs_manifest_no_such_file.hsm", out),
              ManifestStatus::None);
}

/** Every mutation of a valid manifest must load as Corrupt. */
class ManifestCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = manifestPath(dir_.path());
        ASSERT_TRUE(saveManifest(path_, makeManifest(smallMatrix())));
        bytes_ = slurp(path_);
        ASSERT_GT(bytes_.size(), 24u);
    }

    void
    expectCorrupt()
    {
        CampaignManifest out;
        EXPECT_EQ(loadManifest(path_, out), ManifestStatus::Corrupt);
    }

    ScratchDir dir_{"manifest_test_corrupt"};
    std::string path_;
    std::vector<char> bytes_;
};

TEST_F(ManifestCorruption, TruncatedHeader)
{
    spit(path_, std::vector<char>(bytes_.begin(), bytes_.begin() + 9));
    expectCorrupt();
}

TEST_F(ManifestCorruption, TruncatedCellList)
{
    spit(path_, std::vector<char>(bytes_.begin(),
                                  bytes_.end() - 12));
    expectCorrupt();
}

TEST_F(ManifestCorruption, BadMagic)
{
    bytes_[0] = 'X';
    spit(path_, bytes_);
    expectCorrupt();
}

TEST_F(ManifestCorruption, WrongVersion)
{
    bytes_[4] = 0x7f;
    spit(path_, bytes_);
    expectCorrupt();
}

TEST_F(ManifestCorruption, FlippedCellHash)
{
    // First cell hash sits right after the 24-byte header; flipping it
    // breaks the checksum (and the matrix hash).
    bytes_[24] = static_cast<char>(bytes_[24] ^ 0x01);
    spit(path_, bytes_);
    expectCorrupt();
}

TEST_F(ManifestCorruption, TrailingBytes)
{
    bytes_.push_back(0x00);
    spit(path_, bytes_);
    expectCorrupt();
}

TEST_F(ManifestCorruption, VersionOneManifestIsRefused)
{
    // The manifest as a version-1 build wrote it: the same layout,
    // with an FNV-1a checksum over the cell-hash array.
    const uint32_t one = 1;
    std::memcpy(bytes_.data() + 4, &one, sizeof(one));
    const size_t cellsAt = 24, sumAt = bytes_.size() - 8;
    const uint64_t fnv = fnv1a64(
        reinterpret_cast<const uint8_t *>(bytes_.data()) + cellsAt,
        sumAt - cellsAt);
    std::memcpy(bytes_.data() + sumAt, &fnv, sizeof(fnv));
    spit(path_, bytes_);
    expectCorrupt();
}

TEST(Campaign, FreshStoreStartsColdThenResumes)
{
    ScratchDir scratch("manifest_test_resume");
    const std::string &dir = scratch.path();
    std::vector<RunSpec> specs = smallMatrix();
    DiskResultStore store(dir);

    CampaignResume first = prepareCampaign(store, specs);
    EXPECT_FALSE(first.resumed);
    EXPECT_EQ(first.totalCells, specs.size());
    EXPECT_EQ(first.storedCells, 0u);

    // Two cells finish before the "crash".
    store.store(specs[0], executeRunSpec(specs[0]));
    store.store(specs[1], executeRunSpec(specs[1]));

    CampaignResume second = prepareCampaign(store, specs);
    EXPECT_TRUE(second.resumed);
    EXPECT_EQ(second.storedCells, 2u);
    EXPECT_EQ(second.totalCells, specs.size());
}

TEST(Campaign, StaleFormatRecordsCountAsNotStored)
{
    // A store written by another result format: every record exists
    // but load() rejects it, so a resume must not claim any as stored.
    ScratchDir scratch("manifest_test_stale");
    const std::string &dir = scratch.path();
    std::vector<RunSpec> specs = smallMatrix();
    DiskResultStore store(dir);
    for (const RunSpec &spec : specs)
        store.store(spec, executeRunSpec(spec));
    EXPECT_EQ(prepareCampaign(store, specs).storedCells, specs.size());

    // A record with no readable header is corrupt, not of another
    // format: it is not stored, and the next record's header decides.
    spit(store.entryPath(specs[0].hash()), {'H', 'S'});
    EXPECT_EQ(store.entryFormat(specs[0].hash()), 0u);
    EXPECT_EQ(prepareCampaign(store, specs).storedCells, specs.size() - 1);

    for (size_t i = 1; i < specs.size(); ++i) {
        std::string path = store.entryPath(specs[i].hash());
        std::vector<char> bytes = slurp(path);
        ASSERT_GE(bytes.size(), 8u);
        bytes[4] = 1; // header version field: format 1
        bytes[5] = bytes[6] = bytes[7] = 0;
        spit(path, bytes);
        EXPECT_EQ(store.entryFormat(specs[i].hash()), 1u);
    }

    CampaignResume res = prepareCampaign(store, specs);
    EXPECT_TRUE(res.resumed);
    EXPECT_EQ(res.storedCells, 0u);
}

TEST(Campaign, UnreadableHeadersCountAsNotStored)
{
    // Every cell has a file, but none has a header load() could read:
    // a short one, one with bad magic, one of zeros. A resume must not
    // claim any of them as stored.
    ScratchDir scratch("manifest_test_garbage");
    std::vector<RunSpec> specs = smallMatrix();
    DiskResultStore store(scratch.path());
    const std::vector<std::vector<char>> garbage = {
        {'H', 'S', 'R'},
        std::vector<char>(64, 'x'),
        std::vector<char>(64, 0),
    };
    for (size_t i = 0; i < specs.size(); ++i) {
        std::string path = store.entryPath(specs[i].hash());
        ASSERT_EQ(std::system(("mkdir -p " +
                               path.substr(0, path.rfind('/'))).c_str()),
                  0);
        spit(path, garbage[i]);
        ASSERT_TRUE(store.contains(specs[i].hash()));
        EXPECT_EQ(store.entryFormat(specs[i].hash()), 0u);
    }
    EXPECT_EQ(prepareCampaign(store, specs).storedCells, 0u);
}

TEST(Campaign, DifferentMatrixReplacesTheManifest)
{
    ScratchDir scratch("manifest_test_replace");
    const std::string &dir = scratch.path();
    std::vector<RunSpec> specs = smallMatrix();
    DiskResultStore store(dir);
    prepareCampaign(store, specs);

    std::vector<RunSpec> other = {specs[0]};
    CampaignResume res = prepareCampaign(store, other);
    EXPECT_FALSE(res.resumed); // different campaign, not a resume

    // The manifest now describes the new campaign.
    CampaignManifest m;
    ASSERT_EQ(loadManifest(manifestPath(dir), m), ManifestStatus::Ok);
    EXPECT_EQ(m.matrixHash, makeManifest(other).matrixHash);
}

TEST(Campaign, CorruptManifestIsReplacedNotFatal)
{
    ScratchDir scratch("manifest_test_heal");
    const std::string &dir = scratch.path();
    std::vector<RunSpec> specs = smallMatrix();
    DiskResultStore store(dir);
    prepareCampaign(store, specs);
    spit(manifestPath(dir), {'j', 'u', 'n', 'k'});

    CampaignResume res = prepareCampaign(store, specs);
    EXPECT_FALSE(res.resumed);

    CampaignManifest m;
    ASSERT_EQ(loadManifest(manifestPath(dir), m), ManifestStatus::Ok);
    EXPECT_EQ(m.matrixHash, makeManifest(specs).matrixHash);
}

TEST(Campaign, ResumeRunsOnlyTheMissingCells)
{
    // The end-to-end resume contract, in-process: a campaign that
    // stored two of three cells restarts, simulates exactly one cell,
    // and its results match an uninterrupted run bit for bit.
    ScratchDir scratch("manifest_test_e2e");
    const std::string &dir = scratch.path();
    std::vector<RunSpec> specs = smallMatrix();

    std::vector<RunResult> uninterrupted;
    for (const RunSpec &spec : specs)
        uninterrupted.push_back(executeRunSpec(spec));

    {
        DiskResultStore store(dir);
        prepareCampaign(store, specs);
        store.store(specs[0], uninterrupted[0]);
        store.store(specs[1], uninterrupted[1]);
    }

    DiskResultStore store(dir);
    CampaignResume res = prepareCampaign(store, specs);
    EXPECT_TRUE(res.resumed);
    EXPECT_EQ(res.storedCells, 2u);

    ResultStore mem;
    mem.attachDisk(&store);
    ParallelRunner runner(1, &mem);
    size_t simulated = 0, diskHits = 0;
    runner.setCellObserver([&](const CellEvent &ev) {
        if (ev.kind == CellEvent::Kind::Finished ||
            ev.kind == CellEvent::Kind::RemoteFinished)
            ++simulated;
        if (ev.kind == CellEvent::Kind::DiskHit)
            ++diskHits;
    });
    std::vector<RunResult> resumed = runner.run(specs);

    EXPECT_EQ(simulated, 1u);
    EXPECT_EQ(diskHits, 2u);
    ASSERT_EQ(resumed.size(), uninterrupted.size());
    for (size_t i = 0; i < resumed.size(); ++i)
        EXPECT_TRUE(resumed[i] == uninterrupted[i]) << "cell " << i;
}

} // namespace
