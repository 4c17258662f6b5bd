/**
 * @file
 * Campaign-resume tests: prepareCampaign()'s count of the cells a
 * store already holds (records of another format or with unreadable
 * headers do not count), the probe's promise to write nothing, and the
 * end-to-end contract that an interrupted coordinator restarts and
 * runs only the cells its store is missing.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/disk_store.hh"
#include "sim/result_store.hh"
#include "sim/run_spec.hh"
#include "sim/runner.hh"

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

TEST(Campaign, FreshStoreStartsColdThenResumes)
{
    ScratchDir scratch("campaign_test_resume");
    const std::string &dir = scratch.path();
    std::vector<RunSpec> specs = smallMatrix();
    DiskResultStore store(dir);

    CampaignResume first = prepareCampaign(store, specs);
    EXPECT_EQ(first.totalCells, specs.size());
    EXPECT_EQ(first.storedCells, 0u);

    // Two cells finish before the "crash".
    store.store(specs[0], executeRunSpec(specs[0]));
    store.store(specs[1], executeRunSpec(specs[1]));

    CampaignResume second = prepareCampaign(store, specs);
    EXPECT_EQ(second.storedCells, 2u);
    EXPECT_EQ(second.totalCells, specs.size());
}

TEST(Campaign, StaleFormatRecordsCountAsNotStored)
{
    // A store written by another result format: every record exists
    // but load() rejects it, so a resume must not claim any as stored.
    ScratchDir scratch("campaign_test_stale");
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

    EXPECT_EQ(prepareCampaign(store, specs).storedCells, 0u);
}

TEST(Campaign, UnreadableHeadersCountAsNotStored)
{
    // Every cell has a file, but none has a header load() could read:
    // a short one, one with bad magic, one of zeros. A resume must not
    // claim any of them as stored.
    ScratchDir scratch("campaign_test_garbage");
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

/** Every path under @p dir, relative to it, in sorted order. */
std::vector<std::string>
listTree(const std::string &dir)
{
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir))
        paths.push_back(
            std::filesystem::relative(entry.path(), dir).string());
    std::sort(paths.begin(), paths.end());
    return paths;
}

TEST(Campaign, ProbeLeavesTheStoreUntouched)
{
    // The stored records are the campaign: counting them writes
    // nothing, on an empty store or on a partly filled one.
    ScratchDir scratch("campaign_test_untouched");
    const std::string &dir = scratch.path();
    std::vector<RunSpec> specs = smallMatrix();
    DiskResultStore store(dir);

    std::vector<std::string> before = listTree(dir);
    EXPECT_EQ(prepareCampaign(store, specs).storedCells, 0u);
    EXPECT_EQ(listTree(dir), before);

    store.store(specs[0], executeRunSpec(specs[0]));
    before = listTree(dir);
    ASSERT_FALSE(before.empty());
    EXPECT_EQ(prepareCampaign(store, specs).storedCells, 1u);
    EXPECT_EQ(listTree(dir), before);
}

TEST(Campaign, OverlappingMatrixCountsItsStoredCells)
{
    // One store serves many matrices: a matrix sharing one cell with
    // the stored one finds exactly that cell.
    ScratchDir scratch("campaign_test_overlap");
    std::vector<RunSpec> specs = smallMatrix();
    DiskResultStore store(scratch.path());
    for (const RunSpec &spec : specs)
        store.store(spec, executeRunSpec(spec));

    std::vector<RunSpec> other = {specs[1],
                                  soloSpec("mcf", fastOpts())};
    CampaignResume res = prepareCampaign(store, other);
    EXPECT_EQ(res.totalCells, 2u);
    EXPECT_EQ(res.storedCells, 1u);
}

TEST(Campaign, ResumeRunsOnlyTheMissingCells)
{
    // The end-to-end resume contract, in-process: a campaign that
    // stored two of three cells restarts, simulates exactly one cell,
    // and its results match an uninterrupted run bit for bit.
    ScratchDir scratch("campaign_test_e2e");
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
    EXPECT_EQ(prepareCampaign(store, specs).storedCells, 2u);

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
