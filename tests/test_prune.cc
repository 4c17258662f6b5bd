/**
 * @file
 * Store garbage-collection tests: pruneStore() must honour the
 * retention boundary exactly, delete corrupt records only in sweep
 * mode, refuse everything that is not a visible `*.hsr` record inside
 * a bucket directory (files older builds left, temp litter, user
 * strays), and count honestly in dry-run mode. validateRecordFile() is
 * the structural gate the sweep relies on.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/disk_store.hh"
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

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Rewind a file's mtime by @p seconds (utimensat, atime untouched). */
void
ageFile(const std::string &path, double seconds)
{
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0) << path;
    timespec times[2];
    times[0].tv_nsec = UTIME_OMIT;
    times[0].tv_sec = 0;
    times[1].tv_sec =
        st.st_mtime - static_cast<time_t>(seconds);
    times[1].tv_nsec = 0;
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0)
        << path;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    ASSERT_TRUE(out.good()) << path;
}

/** A store holding one record per spec; paths returned in order. */
std::vector<std::string>
populate(const std::string &dir, const std::vector<RunSpec> &specs)
{
    DiskResultStore store(dir);
    std::vector<std::string> paths;
    for (const RunSpec &spec : specs) {
        EXPECT_TRUE(store.store(spec, executeRunSpec(spec)));
        paths.push_back(store.entryPath(spec.hash()));
    }
    return paths;
}

TEST(ValidateRecord, AcceptsFreshAndRejectsDamage)
{
    ScratchDir scratch("prune_test_validate");
    const std::string &dir = scratch.path();
    RunSpec spec = soloSpec("gcc", fastOpts());
    std::string path = populate(dir, {spec})[0];

    std::string why;
    EXPECT_TRUE(validateRecordFile(path, why)) << why;

    // Truncation.
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_EQ(::truncate(path.c_str(), st.st_size / 2), 0);
    EXPECT_FALSE(validateRecordFile(path, why));
    EXPECT_FALSE(why.empty());

    // Not a record at all.
    writeFile(path, "not a record");
    EXPECT_FALSE(validateRecordFile(path, why));

    // Missing file.
    EXPECT_FALSE(validateRecordFile(dir + "/no/such.hsr", why));
}

TEST(Prune, RetentionBoundaryIsStrict)
{
    ScratchDir scratch("prune_test_retention");
    const std::string &dir = scratch.path();
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs = {soloSpec("gcc", opts),
                                  soloSpec("mesa", opts)};
    std::vector<std::string> paths = populate(dir, specs);

    // One record just inside the 5-day window, one just outside (a
    // minute of slack on each side keeps the test clock-race free).
    ageFile(paths[0], 5.0 * 86400.0 - 60.0);
    ageFile(paths[1], 5.0 * 86400.0 + 60.0);

    PruneOptions popts;
    popts.olderThanDays = 5.0;
    PruneStats stats = pruneStore(dir, popts);
    EXPECT_EQ(stats.scanned, 2u);
    EXPECT_EQ(stats.pruned, 1u);
    EXPECT_EQ(stats.kept, 1u);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_GT(stats.bytesFreed, 0u);
    EXPECT_TRUE(exists(paths[0]));
    EXPECT_FALSE(exists(paths[1]));
}

TEST(Prune, ZeroDaysPrunesEverythingAged)
{
    ScratchDir scratch("prune_test_zerodays");
    const std::string &dir = scratch.path();
    std::vector<std::string> paths =
        populate(dir, {soloSpec("gcc", fastOpts())});
    ageFile(paths[0], 60.0);

    PruneOptions popts;
    popts.olderThanDays = 0.0;
    PruneStats stats = pruneStore(dir, popts);
    EXPECT_EQ(stats.pruned, 1u);
    EXPECT_FALSE(exists(paths[0]));
}

TEST(Prune, DryRunCountsWithoutDeleting)
{
    ScratchDir scratch("prune_test_dryrun");
    const std::string &dir = scratch.path();
    std::vector<std::string> paths =
        populate(dir, {soloSpec("gcc", fastOpts())});
    ageFile(paths[0], 10.0 * 86400.0);

    PruneOptions popts;
    popts.olderThanDays = 1.0;
    popts.dryRun = true;
    PruneStats stats = pruneStore(dir, popts);
    EXPECT_EQ(stats.pruned, 1u);
    EXPECT_GT(stats.bytesFreed, 0u);
    EXPECT_TRUE(exists(paths[0])); // nothing actually deleted

    popts.dryRun = false;
    stats = pruneStore(dir, popts);
    EXPECT_EQ(stats.pruned, 1u);
    EXPECT_FALSE(exists(paths[0]));
}

TEST(Prune, SweepCorruptDeletesRegardlessOfAge)
{
    ScratchDir scratch("prune_test_sweep");
    const std::string &dir = scratch.path();
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs = {soloSpec("gcc", opts),
                                  soloSpec("mesa", opts)};
    std::vector<std::string> paths = populate(dir, specs);

    // Damage the first record; both are brand new.
    writeFile(paths[0], "garbage");

    PruneOptions popts; // no age rule at all
    popts.sweepCorrupt = true;
    PruneStats stats = pruneStore(dir, popts);
    EXPECT_EQ(stats.scanned, 2u);
    EXPECT_EQ(stats.pruned, 1u);
    EXPECT_EQ(stats.corrupt, 1u);
    EXPECT_EQ(stats.kept, 1u);
    EXPECT_FALSE(exists(paths[0]));
    EXPECT_TRUE(exists(paths[1]));
}

TEST(Prune, RefusesEverythingThatIsNotARecord)
{
    ScratchDir scratch("prune_test_refuse");
    const std::string &dir = scratch.path();
    std::vector<std::string> paths =
        populate(dir, {soloSpec("gcc", fastOpts())});
    std::string bucket = paths[0].substr(0, paths[0].rfind('/'));

    // Litter the tree with things prune must never touch: a
    // manifest.hsm that older builds left at the root, a user file at
    // the root, a non-record and a hidden temp file inside a bucket,
    // and a record-named file in a directory that is not a bucket.
    writeFile(dir + "/manifest.hsm", "manifest bytes");
    writeFile(dir + "/README", "user notes");
    writeFile(bucket + "/notes.txt", "not a record");
    writeFile(bucket + "/.tmp.1234.deadbeef.hsr", "torn temp");
    ASSERT_EQ(::mkdir((dir + "/stray").c_str(), 0777), 0);
    writeFile(dir + "/stray/fake.hsr", "outside any bucket");

    PruneOptions popts;
    popts.olderThanDays = 0.0;
    popts.sweepCorrupt = true;
    for (const std::string &p : paths)
        ageFile(p, 86400.0);
    PruneStats stats = pruneStore(dir, popts);

    EXPECT_EQ(stats.scanned, 1u);
    EXPECT_EQ(stats.pruned, 1u);
    EXPECT_GE(stats.skipped, 5u);
    EXPECT_TRUE(exists(dir + "/manifest.hsm"));
    EXPECT_TRUE(exists(dir + "/README"));
    EXPECT_TRUE(exists(bucket + "/notes.txt"));
    EXPECT_TRUE(exists(bucket + "/.tmp.1234.deadbeef.hsr"));
    EXPECT_TRUE(exists(dir + "/stray/fake.hsr"));
}

TEST(Prune, PrunedStoreStillServesAndRecomputes)
{
    ScratchDir scratch("prune_test_serve");
    const std::string &dir = scratch.path();
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs = {soloSpec("gcc", opts),
                                  soloSpec("mesa", opts)};
    std::vector<RunResult> originals;
    std::vector<std::string> paths;
    {
        DiskResultStore store(dir);
        for (const RunSpec &spec : specs) {
            originals.push_back(executeRunSpec(spec));
            ASSERT_TRUE(store.store(spec, originals.back()));
            paths.push_back(store.entryPath(spec.hash()));
        }
    }
    ageFile(paths[0], 10.0 * 86400.0);

    PruneOptions popts;
    popts.olderThanDays = 1.0;
    ASSERT_EQ(pruneStore(dir, popts).pruned, 1u);

    // The survivor still serves; the pruned cell is a clean miss.
    DiskResultStore store(dir);
    RunResult back;
    EXPECT_EQ(store.load(specs[0], back),
              DiskResultStore::LoadStatus::Miss);
    ASSERT_EQ(store.load(specs[1], back),
              DiskResultStore::LoadStatus::Hit);
    EXPECT_TRUE(back == originals[1]);
}

using PruneDeathTest = ::testing::Test;

TEST(PruneDeathTest, MissingStoreRootIsFatal)
{
    EXPECT_EXIT(pruneStore("hs_prune_no_such_dir", PruneOptions{}),
                ::testing::ExitedWithCode(1), "not a store directory");
}

} // namespace
