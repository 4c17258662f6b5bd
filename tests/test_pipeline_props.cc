/** @file Property tests: architectural results must be independent of
 *  microarchitectural configuration (widths, queue sizes, predictor
 *  geometry), and pipeline invariants must hold across sweeps. */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "smt/pipeline.hh"
#include "workload/generator.hh"

namespace hs {
namespace {

/** A program mixing arithmetic, memory, FP and data-dependent control;
 *  computes a checksum in r30. */
Program
checksumProgram()
{
    return assemble(R"(
        addi r1, r0, 17       # lcg state
        addi r28, r0, 2891    # lcg mul
        addi r29, r0, 12345   # lcg add
        addi r5, r0, 200      # iterations
        add r30, r0, r0       # checksum
    loop:
        mul r1, r1, r28
        add r1, r1, r29
        andi r2, r1, 8184     # address in [0, 8K), 8-aligned
        st r1, 0(r2)
        ld r3, 0(r2)
        add r30, r30, r3
        andi r4, r1, 1
        beq r4, r0, even
        addi r30, r30, 7
        jmp next
    even:
        addi r30, r30, 3
    next:
        fcvt f1, r3
        fadd f2, f2, f1
        addi r5, r5, -1
        bne r5, r0, loop
        halt
    )");
}

int64_t
runChecksum(const SmtParams &params)
{
    Program p = checksumProgram();
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    Cycles guard = 3000000;
    while (!pipe.allHalted() && pipe.cycle() < guard)
        pipe.tick();
    EXPECT_TRUE(pipe.allHalted());
    return pipe.thread(0).intRegs[30];
}

int64_t
referenceChecksum()
{
    // Functional reference, computed directly with the ISA's
    // wrapping arithmetic (the LCG overflows int64_t).
    int64_t lcg = 17, sum = 0;
    for (int i = 0; i < 200; ++i) {
        lcg = wrapAdd(wrapMul(lcg, 2891), 12345);
        sum = wrapAdd(sum, lcg); // store+load round trip
        sum = wrapAdd(sum, (lcg & 1) ? 7 : 3);
    }
    return sum;
}

TEST(PipelineProps, ChecksumMatchesFunctionalReference)
{
    SmtParams params;
    params.numThreads = 1;
    EXPECT_EQ(runChecksum(params), referenceChecksum());
}

class ConfigSweep : public ::testing::TestWithParam<SmtParams>
{
};

TEST_P(ConfigSweep, ArchitecturalResultIndependentOfConfig)
{
    EXPECT_EQ(runChecksum(GetParam()), referenceChecksum());
}

std::vector<SmtParams>
sweepConfigs()
{
    std::vector<SmtParams> configs;
    auto base = [] {
        SmtParams p;
        p.numThreads = 1;
        return p;
    };
    {
        SmtParams p = base();
        p.ruuEntries = 8;
        p.lsqEntries = 4;
        configs.push_back(p);
    }
    {
        SmtParams p = base();
        p.issueWidth = 1;
        p.intAlus = 1;
        p.memPorts = 1;
        configs.push_back(p);
    }
    {
        SmtParams p = base();
        p.fetchWidth = 1;
        configs.push_back(p);
    }
    {
        SmtParams p = base();
        p.commitWidth = 1;
        configs.push_back(p);
    }
    {
        SmtParams p = base();
        p.mispredictPenalty = 30;
        configs.push_back(p);
    }
    {
        SmtParams p = base();
        p.squashOnL2Miss = false;
        configs.push_back(p);
    }
    {
        SmtParams p = base();
        p.mem.l1d.sizeBytes = 1024;
        p.mem.l1d.assoc = 1;
        p.mem.l2.sizeBytes = 64 * 1024;
        configs.push_back(p);
    }
    {
        SmtParams p = base();
        p.bpred.bimodalEntries = 16;
        p.bpred.gshareEntries = 16;
        p.bpred.chooserEntries = 16;
        p.bpred.btbEntries = 8;
        p.bpred.btbAssoc = 2;
        configs.push_back(p);
    }
    return configs;
}

INSTANTIATE_TEST_SUITE_P(Configs, ConfigSweep,
                         ::testing::ValuesIn(sweepConfigs()));

TEST(PipelineProps, TwoCopiesProduceSameResults)
{
    // The same program on both SMT contexts must produce identical
    // architectural state despite resource sharing.
    Program p = checksumProgram();
    SmtParams params;
    params.numThreads = 2;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    pipe.setThreadProgram(1, &p);
    while (!pipe.allHalted() && pipe.cycle() < 3000000)
        pipe.tick();
    ASSERT_TRUE(pipe.allHalted());
    EXPECT_EQ(pipe.thread(0).intRegs[30], referenceChecksum());
    EXPECT_EQ(pipe.thread(1).intRegs[30], referenceChecksum());
}

TEST(PipelineProps, SedationMidRunPreservesCorrectness)
{
    // Sedating and un-sedating a thread must never corrupt its
    // architectural execution.
    Program p = checksumProgram();
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    int flips = 0;
    while (!pipe.allHalted() && pipe.cycle() < 3000000) {
        pipe.tick();
        if (pipe.cycle() % 997 == 0) {
            pipe.setSedated(0, (flips++ % 2) == 0);
        }
    }
    pipe.setSedated(0, false);
    while (!pipe.allHalted() && pipe.cycle() < 3000000)
        pipe.tick();
    ASSERT_TRUE(pipe.allHalted());
    EXPECT_EQ(pipe.thread(0).intRegs[30], referenceChecksum());
}

TEST(PipelineProps, GlobalStallMidRunPreservesCorrectness)
{
    Program p = checksumProgram();
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    int flips = 0;
    while (!pipe.allHalted() && pipe.cycle() < 3000000) {
        pipe.tick();
        if (pipe.cycle() % 1009 == 0)
            pipe.setGlobalStall((flips++ % 3) == 0);
    }
    pipe.setGlobalStall(false);
    while (!pipe.allHalted() && pipe.cycle() < 3000000)
        pipe.tick();
    ASSERT_TRUE(pipe.allHalted());
    EXPECT_EQ(pipe.thread(0).intRegs[30], referenceChecksum());
}

TEST(PipelineProps, DeterministicAcrossRuns)
{
    Program p = synthesizeSpec("gzip");
    auto run = [&] {
        SmtParams params;
        params.numThreads = 1;
        Pipeline pipe(params);
        pipe.setThreadProgram(0, &p);
        for (int i = 0; i < 100000; ++i)
            pipe.tick();
        return pipe.committed(0);
    };
    EXPECT_EQ(run(), run());
}

TEST(PipelineProps, CommittedNeverExceedsCommitBandwidth)
{
    Program p = synthesizeSpec("eon");
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    uint64_t prev = 0;
    for (int i = 0; i < 50000; ++i) {
        pipe.tick();
        uint64_t now = pipe.committed(0);
        EXPECT_LE(now - prev,
                  static_cast<uint64_t>(params.commitWidth));
        prev = now;
    }
}

TEST(PipelineProps, IpcNeverExceedsIssueWidth)
{
    for (const char *name : {"eon", "crafty", "mesa"}) {
        Program p = synthesizeSpec(name);
        SmtParams params;
        params.numThreads = 1;
        Pipeline pipe(params);
        pipe.setThreadProgram(0, &p);
        for (int i = 0; i < 200000; ++i)
            pipe.tick();
        EXPECT_LE(pipe.ipc(0), params.issueWidth) << name;
    }
}

class ThreadCountSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ThreadCountSweep, AllContextsProgressUnderIcount)
{
    int n = GetParam();
    SmtParams params;
    params.numThreads = n;
    Pipeline pipe(params);
    std::vector<Program> progs;
    progs.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t)
        progs.push_back(synthesizeSpec(specSuite()[static_cast<size_t>(
            t % 4)], static_cast<uint64_t>(t + 1)));
    for (int t = 0; t < n; ++t)
        pipe.setThreadProgram(t, &progs[static_cast<size_t>(t)]);
    for (int i = 0; i < 100000; ++i)
        pipe.tick();
    for (int t = 0; t < n; ++t)
        EXPECT_GT(pipe.committed(t), 500u) << "thread " << t;
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

} // namespace
} // namespace hs
