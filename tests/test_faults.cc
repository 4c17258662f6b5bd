/**
 * @file
 * Fault-injection tests: the FaultPlan grammar and determinism, each
 * injection site exercised in isolation, and the chaos sweep — many
 * seeded randomized fault schedules thrown at a coordinator, an
 * in-process worker and a shared persistent store, every one of which
 * must still produce results bit-identical to a fault-free serial
 * run. Crashes, torn writes and truncated frames may cost retries and
 * recomputes; they must never drop a cell or serve a wrong result.
 *
 * HS_CHAOS_SEEDS overrides the sweep width (default 100; the TSan
 * gate sets it low because instrumented simulation is slow).
 */

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "common/framing.hh"
#include "sim/disk_store.hh"
#include "sim/remote.hh"
#include "sim/result_store.hh"
#include "sim/run_spec.hh"
#include "sim/runner.hh"

namespace {

using namespace hs;

/** Tiny cells: the sweep cares about plumbing, not thermal fidelity. */
ExperimentOptions
chaosOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 20000.0;
    return opts;
}

std::vector<RunSpec>
chaosMatrix()
{
    ExperimentOptions opts = chaosOpts();
    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", opts));
    specs.push_back(soloSpec("mesa", opts));
    specs.push_back(
        soloSpec("gcc", opts).withDtm(DtmMode::SelectiveSedation));
    return specs;
}

std::unique_ptr<FaultPlan>
mustParse(const std::string &spec)
{
    std::string why;
    auto plan = FaultPlan::parse(spec, why);
    EXPECT_TRUE(plan) << spec << ": " << why;
    return plan;
}

// ---------------------------------------------------------------------
// Grammar and determinism.

TEST(FaultPlan, ParsesProbabilityAndNthCallRules)
{
    auto plan = mustParse("42:recv_mid_eof@0.25,store_crash=3");
    ASSERT_TRUE(plan);
    EXPECT_EQ(plan->seed(), 42u);
    EXPECT_EQ(plan->str(), "seed 42: recv_mid_eof@0.250000 "
                           "store_crash=3");
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "",                        // empty
        "42",                      // no rules
        "42:",                     // empty site list
        ":recv_mid_eof@0.5",       // empty seed
        "x:recv_mid_eof@0.5",      // non-numeric seed
        "42:bogus_site@0.5",       // unknown site
        "42:recv_mid_eof",         // no rule
        "42:recv_mid_eof@0",       // probability out of range
        "42:recv_mid_eof@1.5",     // probability out of range
        "42:recv_mid_eof@x",       // non-numeric probability
        "42:recv_mid_eof=0",       // call index out of range
        "42:recv_mid_eof=x",       // non-numeric call index
        "42:recv_mid_eof@0.5=2",   // both rule forms at once
        "42:recv_mid_eof@0.5,recv_mid_eof=1", // duplicate site
        "42:recv_mid_eof@0.5,,connect_fail@0.5", // empty entry
    };
    for (const char *spec : bad) {
        std::string why;
        EXPECT_FALSE(FaultPlan::parse(spec, why)) << spec;
        EXPECT_FALSE(why.empty()) << spec;
    }
}

TEST(FaultPlan, EverySiteNameParses)
{
    for (const std::string &site : FaultPlan::knownSites()) {
        std::string why;
        EXPECT_TRUE(FaultPlan::parse("1:" + site + "@0.5", why))
            << site << ": " << why;
    }
}

TEST(FaultPlan, NthCallRuleFiresExactlyOnce)
{
    auto plan = mustParse("7:recv_mid_eof=3");
    ASSERT_TRUE(plan);
    std::vector<bool> decisions;
    for (int i = 0; i < 10; ++i)
        decisions.push_back(plan->fire("recv_mid_eof"));
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(decisions[static_cast<size_t>(i)], i == 2) << i;
    EXPECT_EQ(plan->calls("recv_mid_eof"), 10u);
    EXPECT_EQ(plan->fired("recv_mid_eof"), 1u);
}

TEST(FaultPlan, ProbabilityOneFiresEveryCall)
{
    auto plan = mustParse("7:connect_fail@1");
    ASSERT_TRUE(plan);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(plan->fire("connect_fail"));
    // Sites without a rule never fire (and no wildcard is present).
    EXPECT_FALSE(plan->fire("recv_mid_eof"));
}

TEST(FaultPlan, SameSeedReplaysTheSameDecisionSequence)
{
    auto a = mustParse("1234:recv_mid_eof@0.4");
    auto b = mustParse("1234:recv_mid_eof@0.4");
    ASSERT_TRUE(a && b);
    bool anyFired = false, anyClean = false;
    for (int i = 0; i < 200; ++i) {
        bool hit = a->fire("recv_mid_eof");
        EXPECT_EQ(hit, b->fire("recv_mid_eof")) << "call " << i;
        (hit ? anyFired : anyClean) = true;
    }
    // A 0.4 rule over 200 calls fires some and spares some.
    EXPECT_TRUE(anyFired);
    EXPECT_TRUE(anyClean);
}

TEST(FaultPlan, DifferentSeedsDiverge)
{
    auto a = mustParse("1:recv_mid_eof@0.5");
    auto b = mustParse("2:recv_mid_eof@0.5");
    ASSERT_TRUE(a && b);
    bool diverged = false;
    for (int i = 0; i < 200 && !diverged; ++i)
        diverged = a->fire("recv_mid_eof") != b->fire("recv_mid_eof");
    EXPECT_TRUE(diverged);
}

TEST(FaultPlan, WildcardCoversUnlistedSites)
{
    auto plan = mustParse("9:*@1,connect_fail@0.000001");
    ASSERT_TRUE(plan);
    EXPECT_TRUE(plan->fire("recv_mid_eof"));
    EXPECT_TRUE(plan->fire("store_torn_write"));
    // The explicit (near-zero) rule wins over the wildcard.
    EXPECT_FALSE(plan->fire("connect_fail"));
}

TEST(FaultPlan, NoPlanMeansNoFiring)
{
    installFaultPlan(nullptr);
    EXPECT_FALSE(faultFire("recv_mid_eof"));
    EXPECT_FALSE(faultFire("store_crash"));
}

// ---------------------------------------------------------------------
// Crash sites really exit (contained in gtest death-test forks).

using FaultDeathTest = ::testing::Test;

TEST(FaultDeathTest, StoreCrashExitsAfterPublishing)
{
    RunSpec spec = soloSpec("gcc", chaosOpts());
    RunResult result = executeRunSpec(spec);
    std::string dir =
        "hs_fault_death_" + std::to_string(::getpid());
    ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
    EXPECT_EXIT(
        {
            ScopedFaultPlan chaos("1:store_crash=1");
            DiskResultStore store(dir);
            store.store(spec, result);
        },
        ::testing::ExitedWithCode(9), "injected crash");
    // The record the crash followed is durable and valid.
    DiskResultStore store(dir);
    RunResult back;
    EXPECT_EQ(store.load(spec, back), DiskResultStore::LoadStatus::Hit);
    EXPECT_TRUE(back == result);
}

// ---------------------------------------------------------------------
// Single-site behaviour through the real store.

class FaultStoreSite : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "hs_fault_store_" + std::to_string(::getpid());
        ASSERT_EQ(std::system(("rm -rf " + dir_).c_str()), 0);
        spec_ = soloSpec("gcc", chaosOpts());
        result_ = executeRunSpec(spec_);
    }

    void
    TearDown() override
    {
        installFaultPlan(nullptr);
    }

    std::string dir_;
    RunSpec spec_;
    RunResult result_;
};

TEST_F(FaultStoreSite, TornWritePublishesButNeverServes)
{
    DiskResultStore store(dir_);
    {
        ScopedFaultPlan chaos("1:store_torn_write=1");
        EXPECT_TRUE(store.store(spec_, result_));
    }
    EXPECT_TRUE(store.contains(spec_.hash()));
    RunResult back;
    EXPECT_EQ(store.load(spec_, back),
              DiskResultStore::LoadStatus::Corrupt);

    // Fault-free rewrite heals the record in place.
    EXPECT_TRUE(store.store(spec_, result_));
    EXPECT_EQ(store.load(spec_, back), DiskResultStore::LoadStatus::Hit);
    EXPECT_TRUE(back == result_);
}

TEST_F(FaultStoreSite, ChecksumFlipPublishesButNeverServes)
{
    DiskResultStore store(dir_);
    {
        ScopedFaultPlan chaos("1:store_checksum_flip=1");
        EXPECT_TRUE(store.store(spec_, result_));
    }
    RunResult back;
    EXPECT_EQ(store.load(spec_, back),
              DiskResultStore::LoadStatus::Corrupt);
}

TEST_F(FaultStoreSite, RenameFailureLosesOnlyPersistence)
{
    DiskResultStore store(dir_);
    {
        ScopedFaultPlan chaos("1:store_rename_fail=1");
        EXPECT_FALSE(store.store(spec_, result_));
    }
    EXPECT_FALSE(store.contains(spec_.hash()));
    RunResult out;
    EXPECT_EQ(store.load(spec_, out), DiskResultStore::LoadStatus::Miss);
    // No temp litter left behind for prune to trip over.
    PruneOptions opts;
    opts.sweepCorrupt = true;
    PruneStats stats = pruneStore(dir_, opts);
    EXPECT_EQ(stats.scanned, 0u);
    EXPECT_EQ(stats.pruned, 0u);
}

// ---------------------------------------------------------------------
// The chaos sweep.

/** A worker serving on an ephemeral localhost port in this process. */
class ChaosWorker
{
  public:
    ChaosWorker()
    {
        listener_ = tcpListen(0);
        port_ = localPort(listener_);
        thread_ = std::thread([this] { serveWorker(listener_); });
    }

    ~ChaosWorker()
    {
        if (thread_.joinable()) {
            stop();
            thread_.join();
        }
    }

    Endpoint endpoint() const { return Endpoint{"127.0.0.1", port_}; }

    /**
     * Ask the serve loop to return, then join. Call only after the
     * fault plan is cleared — the shutdown handshake is not supposed
     * to fight injected connect failures.
     */
    void
    stop()
    {
        RemoteWorker handle(endpoint());
        ASSERT_TRUE(handle.ensureConnected());
        handle.sendShutdown();
    }

    void
    join()
    {
        thread_.join();
    }

  private:
    Socket listener_;
    uint16_t port_ = 0;
    std::thread thread_;
};

int
chaosSeeds()
{
    const char *env = std::getenv("HS_CHAOS_SEEDS");
    if (!env || !*env)
        return 100;
    char *end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v <= 0)
        return 100;
    return static_cast<int>(v);
}

/**
 * The headline contract: every seeded schedule of recoverable faults
 * — truncated frames, refused handshakes, failed and delayed
 * connects, torn and unpublished store writes, flipped checksums,
 * stalled dispatch lanes — thrown at a coordinator with two local
 * lanes, one TCP worker and a persistent store must produce exactly
 * the fault-free serial results, and a fault-free warm rerun over the
 * surviving store must too (recomputing whatever chaos corrupted,
 * serving nothing wrong). The crash sites (worker_crash, store_crash)
 * need real processes and are covered by tests/cli/hs_chaos_test.sh
 * and the resume test.
 */
TEST(ChaosSweep, EverySeededScheduleMatchesFaultFreeRun)
{
    const std::vector<RunSpec> specs = chaosMatrix();
    std::vector<RunResult> baseline;
    for (const RunSpec &spec : specs)
        baseline.push_back(executeRunSpec(spec));

    const std::string dir =
        "hs_chaos_sweep_" + std::to_string(::getpid());
    const int seeds = chaosSeeds();
    for (int seed = 1; seed <= seeds; ++seed) {
        ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
        std::string spec =
            std::to_string(seed) +
            ":recv_mid_eof@0.25,connect_fail@0.25,connect_delay@0.5,"
            "handshake_garbage@0.25,store_torn_write@0.3,"
            "store_rename_fail@0.3,store_checksum_flip@0.3,"
            "dispatch_delay@0.5";
        std::string why;
        auto plan = FaultPlan::parse(spec, why);
        ASSERT_TRUE(plan) << why;

        std::vector<RunResult> chaotic;
        {
            installFaultPlan(std::move(plan));
            ChaosWorker worker;
            {
                DiskResultStore disk(dir);
                ResultStore mem;
                mem.attachDisk(&disk);
                ParallelRunner runner(2, &mem);
                runner.setWorkers({worker.endpoint()});
                chaotic = runner.run(specs);
            }
            // Safe: after run() returns every injection site is
            // quiescent (worker threads idle in accept, no frame in
            // flight), so only this thread can reach faultFire().
            installFaultPlan(nullptr);
            worker.stop();
            worker.join();
        }

        ASSERT_EQ(chaotic.size(), specs.size()) << "seed " << seed;
        for (size_t i = 0; i < specs.size(); ++i)
            ASSERT_TRUE(chaotic[i] == baseline[i])
                << "seed " << seed << " cell " << i;

        // Fault-free warm pass over whatever store the chaos run left
        // behind: disk hits or recomputes, never a wrong result.
        DiskResultStore disk(dir);
        ResultStore mem;
        mem.attachDisk(&disk);
        ParallelRunner runner(1, &mem);
        std::vector<RunResult> warm = runner.run(specs);
        ASSERT_EQ(warm.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i)
            ASSERT_TRUE(warm[i] == baseline[i])
                << "seed " << seed << " warm cell " << i;
    }
    ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

} // namespace
