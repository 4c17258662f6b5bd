/** @file Directed correctness tests for the SMT pipeline: programs
 *  must compute architecturally correct results, and the SMT-specific
 *  mechanisms (ICOUNT, shared structures, sedation/stall controls)
 *  must behave. */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "smt/pipeline.hh"

namespace hs {
namespace {

/** Run @p prog alone on a pipeline until it halts (or max cycles). */
Pipeline
runToHalt(const Program &prog, Cycles max_cycles = 200000)
{
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &prog);
    while (!pipe.allHalted() && pipe.cycle() < max_cycles)
        pipe.tick();
    EXPECT_TRUE(pipe.allHalted()) << "program did not halt";
    return pipe;
}

TEST(Pipeline, ArithmeticChain)
{
    Program p = assemble("addi r1, r0, 6\n"
                         "addi r2, r0, 7\n"
                         "mul r3, r1, r2\n"
                         "sub r4, r3, r1\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 42);
    EXPECT_EQ(pipe.thread(0).intRegs[4], 36);
    EXPECT_EQ(pipe.committed(0), 5u);
}

TEST(Pipeline, RegisterZeroIsHardwiredZero)
{
    Program p = assemble("addi r1, r0, 5\n"
                         "add r2, r0, r0\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[0], 0);
    EXPECT_EQ(pipe.thread(0).intRegs[2], 0);
}

TEST(Pipeline, LoadStoreRoundTrip)
{
    Program p = assemble("addi r1, r0, 1234\n"
                         "addi r2, r0, 4096\n"
                         "st r1, 0(r2)\n"
                         "ld r3, 0(r2)\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 1234);
}

TEST(Pipeline, StoreToLoadForwardingInFlight)
{
    // The store and load are adjacent: the load must see the store's
    // value through the LSQ before the store commits to memory.
    Program p = assemble("addi r1, r0, 99\n"
                         "addi r2, r0, 512\n"
                         "st r1, 0(r2)\n"
                         "ld r3, 0(r2)\n"
                         "add r4, r3, r3\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 99);
    EXPECT_EQ(pipe.thread(0).intRegs[4], 198);
}

TEST(Pipeline, UncachedLoadReadsZero)
{
    Program p = assemble("addi r2, r0, 8192\n"
                         "ld r3, 0(r2)\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 0);
}

TEST(Pipeline, CountedLoopProducesCorrectSum)
{
    // sum = 1 + 2 + ... + 10
    Program p = assemble("addi r1, r0, 10\n" // i = 10
                         "add r2, r0, r0\n"  // sum = 0
                         "loop:\n"
                         "add r2, r2, r1\n"
                         "addi r1, r1, -1\n"
                         "bne r1, r0, loop\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[2], 55);
}

TEST(Pipeline, TakenBranchSkipsInstructions)
{
    Program p = assemble("addi r1, r0, 1\n"
                         "beq r1, r1, over\n"
                         "addi r2, r0, 111\n" // must be skipped
                         "over:\n"
                         "addi r3, r0, 7\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[2], 0);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 7);
}

TEST(Pipeline, DataDependentBranchBothPaths)
{
    // Loop 8 times; on odd i set r5, on even set r6; both sides must
    // execute the right number of times despite mispredictions.
    Program p = assemble("addi r1, r0, 8\n"
                         "add r5, r0, r0\n"
                         "add r6, r0, r0\n"
                         "loop:\n"
                         "andi r2, r1, 1\n"
                         "beq r2, r0, even\n"
                         "addi r5, r5, 1\n"
                         "jmp next\n"
                         "even:\n"
                         "addi r6, r6, 1\n"
                         "next:\n"
                         "addi r1, r1, -1\n"
                         "bne r1, r0, loop\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[5], 4);
    EXPECT_EQ(pipe.thread(0).intRegs[6], 4);
}

TEST(Pipeline, FpArithmetic)
{
    Program p = assemble("addi r1, r0, 3\n"
                         "addi r2, r0, 4\n"
                         "fcvt f1, r1\n"
                         "fcvt f2, r2\n"
                         "fmul f3, f1, f2\n"
                         "fadd f4, f3, f1\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_DOUBLE_EQ(pipe.thread(0).fpRegs[3], 12.0);
    EXPECT_DOUBLE_EQ(pipe.thread(0).fpRegs[4], 15.0);
}

TEST(Pipeline, FpLoadStoreRoundTrip)
{
    Program p = assemble("addi r1, r0, 9\n"
                         "addi r2, r0, 256\n"
                         "fcvt f1, r1\n"
                         "fst f1, 0(r2)\n"
                         "fld f2, 0(r2)\n"
                         "fadd f3, f2, f2\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_DOUBLE_EQ(pipe.thread(0).fpRegs[3], 18.0);
}

TEST(Pipeline, DivByZeroIsDefinedAsZero)
{
    Program p = assemble("addi r1, r0, 10\n"
                         "div r3, r1, r0\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 0);
}

TEST(Pipeline, ShiftOperations)
{
    Program p = assemble("addi r1, r0, 1\n"
                         "slli r2, r1, 10\n"
                         "srli r3, r2, 3\n"
                         "addi r4, r0, -16\n"
                         "srai: sra r5, r4, r1\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[2], 1024);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 128);
    EXPECT_EQ(pipe.thread(0).intRegs[5], -8);
}

TEST(Pipeline, InitRegsApplied)
{
    Program p = assemble("add r3, r1, r2\nhalt\n");
    p.setInitReg(1, 40);
    p.setInitReg(2, 2);
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 42);
}

TEST(Pipeline, DataImageApplied)
{
    Program p = assemble("addi r2, r0, 64\nld r3, 0(r2)\nhalt\n");
    p.poke64(64, 777);
    Pipeline pipe = runToHalt(p);
    EXPECT_EQ(pipe.thread(0).intRegs[3], 777);
}

TEST(Pipeline, TwoThreadsBothProgress)
{
    Program a = assemble("top:\naddi r1, r1, 1\njmp top\n");
    Program b = assemble("top:\naddi r2, r2, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 2;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &a);
    pipe.setThreadProgram(1, &b);
    for (int i = 0; i < 20000; ++i)
        pipe.tick();
    EXPECT_GT(pipe.committed(0), 1000u);
    EXPECT_GT(pipe.committed(1), 1000u);
    // ICOUNT should keep two identical threads roughly balanced.
    double ratio = static_cast<double>(pipe.committed(0)) /
                   static_cast<double>(pipe.committed(1));
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.4);
}

TEST(Pipeline, ThreadsHaveSeparateAddressSpaces)
{
    // Both threads store different values at the same virtual address;
    // each must read back its own.
    Program a = assemble("addi r1, r0, 11\naddi r2, r0, 128\n"
                         "st r1, 0(r2)\nld r3, 0(r2)\nhalt\n");
    Program b = assemble("addi r1, r0, 22\naddi r2, r0, 128\n"
                         "st r1, 0(r2)\nld r3, 0(r2)\nhalt\n");
    SmtParams params;
    params.numThreads = 2;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &a);
    pipe.setThreadProgram(1, &b);
    while (!pipe.allHalted() && pipe.cycle() < 100000)
        pipe.tick();
    ASSERT_TRUE(pipe.allHalted());
    EXPECT_EQ(pipe.thread(0).intRegs[3], 11);
    EXPECT_EQ(pipe.thread(1).intRegs[3], 22);
}

TEST(Pipeline, SedationStopsFetchForThatThreadOnly)
{
    Program a = assemble("top:\naddi r1, r1, 1\njmp top\n");
    Program b = assemble("top:\naddi r2, r2, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 2;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &a);
    pipe.setThreadProgram(1, &b);
    for (int i = 0; i < 5000; ++i)
        pipe.tick();
    uint64_t before0 = pipe.committed(0);
    uint64_t before1 = pipe.committed(1);
    pipe.setSedated(1, true);
    for (int i = 0; i < 5000; ++i)
        pipe.tick();
    uint64_t delta0 = pipe.committed(0) - before0;
    uint64_t delta1 = pipe.committed(1) - before1;
    EXPECT_GT(delta0, 2000u);   // victim keeps running
    EXPECT_LT(delta1, 200u);    // sedated thread only drains
    EXPECT_GT(pipe.thread(1).sedationCycles, 4000u);

    // Un-sedate: the thread resumes.
    pipe.setSedated(1, false);
    uint64_t before1b = pipe.committed(1);
    for (int i = 0; i < 5000; ++i)
        pipe.tick();
    EXPECT_GT(pipe.committed(1) - before1b, 1000u);
}

TEST(Pipeline, GlobalStallFreezesEverything)
{
    Program a = assemble("top:\naddi r1, r1, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &a);
    for (int i = 0; i < 1000; ++i)
        pipe.tick();
    pipe.setGlobalStall(true);
    uint64_t before = pipe.committed(0);
    Cycles active_before = pipe.activeCycles();
    for (int i = 0; i < 1000; ++i)
        pipe.tick();
    EXPECT_EQ(pipe.committed(0), before);
    EXPECT_EQ(pipe.activeCycles(), active_before);
    EXPECT_GE(pipe.thread(0).coolingCycles, 1000u);
    pipe.setGlobalStall(false);
    for (int i = 0; i < 1000; ++i)
        pipe.tick();
    EXPECT_GT(pipe.committed(0), before);
}

TEST(Pipeline, StalledSkipMatchesTickAccounting)
{
    Program a = assemble("top:\naddi r1, r1, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &a);
    for (int i = 0; i < 100; ++i)
        pipe.tick();
    pipe.setGlobalStall(true);
    Cycles c0 = pipe.cycle();
    uint64_t cool0 = pipe.thread(0).coolingCycles;
    pipe.skipIdle(pipe.idleCycles(5000));
    EXPECT_EQ(pipe.cycle(), c0 + 5000);
    EXPECT_EQ(pipe.thread(0).coolingCycles, cool0 + 5000);
}

TEST(Pipeline, ThrottleSlowsProgress)
{
    Program a = assemble("top:\naddi r1, r1, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 1;
    Pipeline full(params), half(params);
    full.setThreadProgram(0, &a);
    half.setThreadProgram(0, &a);
    half.setThrottle(2);
    for (int i = 0; i < 20000; ++i) {
        full.tick();
        half.tick();
    }
    double ratio = static_cast<double>(half.committed(0)) /
                   static_cast<double>(full.committed(0));
    EXPECT_NEAR(ratio, 0.5, 0.1);
}

TEST(Pipeline, ActivityCountersTrackRegfileAccesses)
{
    // Each add reads 2 and writes 1 integer register.
    Program p = assemble("add r1, r2, r3\n"
                         "add r4, r5, r6\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p);
    // 2 adds * 3 accesses; halt contributes nothing.
    EXPECT_EQ(pipe.activity().count(0, Block::IntReg), 6u);
}

TEST(Pipeline, RuuOccupancyBounded)
{
    Program p = assemble("top:\naddi r1, r1, 1\njmp top\n");
    SmtParams params;
    params.numThreads = 1;
    params.ruuEntries = 16;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    for (int i = 0; i < 10000; ++i) {
        pipe.tick();
        EXPECT_LE(pipe.ruuOccupancy(), 16);
        EXPECT_GE(pipe.ruuOccupancy(), 0);
    }
}

TEST(Pipeline, LsqOccupancyBounded)
{
    Program p = assemble("top:\nld r1, 0(r2)\nst r1, 8(r2)\njmp top\n");
    SmtParams params;
    params.numThreads = 1;
    params.lsqEntries = 4;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    for (int i = 0; i < 10000; ++i) {
        pipe.tick();
        EXPECT_LE(pipe.lsqOccupancy(), 4);
    }
    EXPECT_GT(pipe.committed(0), 100u);
}

TEST(Pipeline, L2MissSquashStillComputesCorrectly)
{
    // A chain of loads at 256 KB strides (same L2 set) forces L2
    // misses and squashes; results must still be architecturally
    // correct.
    Program p = assemble("addi r2, r0, 0\n"
                         "addi r5, r0, 3\n"
                         "addi r1, r0, 123\n"
                         "st r1, 0(r2)\n"
                         "st r1, 262144(r2)\n"
                         "loop:\n"
                         "ld r3, 0(r2)\n"
                         "ld r4, 262144(r2)\n"
                         "addi r5, r5, -1\n"
                         "bne r5, r0, loop\n"
                         "add r6, r3, r4\n"
                         "halt\n");
    Pipeline pipe = runToHalt(p, 1000000);
    EXPECT_EQ(pipe.thread(0).intRegs[6], 246);
}

TEST(Pipeline, HighIpcThreadDominatesUnderIcount)
{
    // The paper's variant1 observation: under ICOUNT a high-IPC thread
    // takes a larger share of the machine than a stall-prone thread.
    Program fast = assemble("top:\n"
                            "add r10, r24, r25\n"
                            "add r11, r24, r25\n"
                            "add r12, r24, r25\n"
                            "add r13, r24, r25\n"
                            "add r14, r24, r25\n"
                            "add r15, r24, r25\n"
                            "add r16, r24, r25\n"
                            "jmp top\n");
    // Nine loads mapping to one set of the 8-way L2 (the paper's
    // Figure 2 conflict trick): misses never stop, IPC stays low.
    std::string slow_src = "addi r2, r0, 0\ntop:\n";
    for (int i = 0; i < 9; ++i)
        slow_src += "ld r3, " + std::to_string(i * 262144) + "(r2)\n";
    slow_src += "jmp top\n";
    Program slow = assemble(slow_src);
    SmtParams params;
    params.numThreads = 2;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &fast);
    pipe.setThreadProgram(1, &slow);
    for (int i = 0; i < 50000; ++i)
        pipe.tick();
    EXPECT_GT(pipe.committed(0), 10 * pipe.committed(1));
}

} // namespace
} // namespace hs
