/** @file Property tests for ALU opcode semantics: the pipeline's
 *  results for randomized operands must match direct C++ reference
 *  semantics for every operation. */

#include <functional>
#include <limits>
#include <ostream>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "isa/interpreter.hh"
#include "smt/pipeline.hh"

namespace hs {
namespace {

/** Run `op r3, r1, r2` (or immediate form) and return r3. */
int64_t
evalRegReg(const char *mnem, int64_t a, int64_t b)
{
    Program p = assemble(std::string(mnem) + " r3, r1, r2\nhalt\n");
    p.setInitReg(1, a);
    p.setInitReg(2, b);
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    while (!pipe.allHalted() && pipe.cycle() < 10000)
        pipe.tick();
    EXPECT_TRUE(pipe.allHalted());
    return pipe.thread(0).intRegs[3];
}

int64_t
evalImm(const char *mnem, int64_t a, int64_t imm)
{
    Program p = assemble(strprintf("%s r3, r1, %lld\nhalt\n", mnem,
                                   static_cast<long long>(imm)));
    p.setInitReg(1, a);
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    while (!pipe.allHalted() && pipe.cycle() < 10000)
        pipe.tick();
    EXPECT_TRUE(pipe.allHalted());
    return pipe.thread(0).intRegs[3];
}

struct RegRegCase
{
    const char *mnem;
    std::function<int64_t(int64_t, int64_t)> ref;
};

/** Names the case by its mnemonic; gtest's default byte dump would
 *  put pointer values (which vary run to run) into the test name. */
void
PrintTo(const RegRegCase &c, std::ostream *os)
{
    *os << c.mnem;
}

class AluSemantics : public ::testing::TestWithParam<RegRegCase>
{
};

TEST_P(AluSemantics, MatchesReferenceOnRandomOperands)
{
    const RegRegCase &c = GetParam();
    Rng rng(std::hash<std::string>{}(c.mnem));
    for (int i = 0; i < 12; ++i) {
        int64_t a = rng.range(-1000000, 1000000);
        int64_t b = rng.range(-1000, 1000);
        EXPECT_EQ(evalRegReg(c.mnem, a, b), c.ref(a, b))
            << c.mnem << " " << a << ", " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemantics,
    ::testing::Values(
        RegRegCase{"add", [](int64_t a, int64_t b) { return a + b; }},
        RegRegCase{"sub", [](int64_t a, int64_t b) { return a - b; }},
        RegRegCase{"mul", [](int64_t a, int64_t b) { return a * b; }},
        RegRegCase{"div",
                   [](int64_t a, int64_t b) {
                       return b == 0 ? 0 : a / b;
                   }},
        RegRegCase{"and", [](int64_t a, int64_t b) { return a & b; }},
        RegRegCase{"or", [](int64_t a, int64_t b) { return a | b; }},
        RegRegCase{"xor", [](int64_t a, int64_t b) { return a ^ b; }},
        RegRegCase{"slt",
                   [](int64_t a, int64_t b) {
                       return static_cast<int64_t>(a < b);
                   }},
        RegRegCase{"sll",
                   [](int64_t a, int64_t b) {
                       return a << (b & 63);
                   }},
        RegRegCase{"srl",
                   [](int64_t a, int64_t b) {
                       return static_cast<int64_t>(
                           static_cast<uint64_t>(a) >> (b & 63));
                   }},
        RegRegCase{"sra",
                   [](int64_t a, int64_t b) {
                       return a >> (b & 63);
                   }}),
    [](const ::testing::TestParamInfo<RegRegCase> &info) {
        return std::string(info.param.mnem);
    });

TEST(AluSemantics, ImmediateForms)
{
    Rng rng(99);
    for (int i = 0; i < 10; ++i) {
        int64_t a = rng.range(-100000, 100000);
        int64_t imm = rng.range(-512, 512);
        EXPECT_EQ(evalImm("addi", a, imm), a + imm);
        EXPECT_EQ(evalImm("andi", a, imm), a & imm);
        EXPECT_EQ(evalImm("ori", a, imm), a | imm);
        EXPECT_EQ(evalImm("xori", a, imm), a ^ imm);
        EXPECT_EQ(evalImm("slti", a, imm),
                  static_cast<int64_t>(a < imm));
    }
    EXPECT_EQ(evalImm("slli", 3, 4), 48);
    EXPECT_EQ(evalImm("srli", 48, 4), 3);
}

TEST(AluSemantics, LuiShifts16)
{
    Program p = assemble("lui r3, 5\nhalt\n");
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    while (!pipe.allHalted() && pipe.cycle() < 10000)
        pipe.tick();
    EXPECT_EQ(pipe.thread(0).intRegs[3], 5 << 16);
}

/** Run @p src with r1 = @p a, r2 = @p b on the pipeline and on the
 *  interpreter; both r3 values must agree, and that value is returned. */
int64_t
evalBothEngines(const std::string &src, int64_t a, int64_t b)
{
    Program p = assemble(src);
    p.setInitReg(1, a);
    p.setInitReg(2, b);
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    while (!pipe.allHalted() && pipe.cycle() < 10000)
        pipe.tick();
    EXPECT_TRUE(pipe.allHalted()) << src;
    InterpResult ref = interpret(p, 100);
    EXPECT_TRUE(ref.halted) << src;
    EXPECT_EQ(pipe.thread(0).intRegs[3], ref.intRegs[3])
        << src << " with " << a << ", " << b;
    return ref.intRegs[3];
}

// Operands at the edges of int64_t: arithmetic wraps in two's
// complement in both engines, and INT64_MIN / -1 is INT64_MIN.
TEST(AluSemantics, OverflowWrapsIdenticallyInBothEngines)
{
    const int64_t kMax = std::numeric_limits<int64_t>::max();
    const int64_t kMin = std::numeric_limits<int64_t>::min();
    const int64_t edges[] = {kMax, kMin, -1, 1, 0, kMax - 1, kMin + 1};
    for (int64_t a : edges) {
        for (int64_t b : edges) {
            uint64_t ua = static_cast<uint64_t>(a);
            uint64_t ub = static_cast<uint64_t>(b);
            EXPECT_EQ(evalBothEngines("add r3, r1, r2\nhalt\n", a, b),
                      static_cast<int64_t>(ua + ub));
            EXPECT_EQ(evalBothEngines("sub r3, r1, r2\nhalt\n", a, b),
                      static_cast<int64_t>(ua - ub));
            EXPECT_EQ(evalBothEngines("mul r3, r1, r2\nhalt\n", a, b),
                      static_cast<int64_t>(ua * ub));
            int64_t quot = b == 0    ? 0
                           : b == -1 ? static_cast<int64_t>(0 - ua)
                                     : a / b;
            EXPECT_EQ(evalBothEngines("div r3, r1, r2\nhalt\n", a, b),
                      quot);
        }
        EXPECT_EQ(evalBothEngines("addi r3, r1, 7\nhalt\n", a, 0),
                  static_cast<int64_t>(static_cast<uint64_t>(a) + 7));
        EXPECT_EQ(evalBothEngines("addi r3, r1, -7\nhalt\n", a, 0),
                  static_cast<int64_t>(static_cast<uint64_t>(a) - 7));
        // The load/store address add wraps too: the store and the load
        // meet at the same wrapped address.
        EXPECT_EQ(evalBothEngines(
                      "st r2, 8(r1)\nld r3, 8(r1)\nhalt\n", a, 4242),
                  4242);
        EXPECT_EQ(evalBothEngines(
                      "st r2, -8(r1)\nld r3, -8(r1)\nhalt\n", a, 77),
                  77);
    }
    EXPECT_EQ(evalBothEngines("div r3, r1, r2\nhalt\n", kMin, -1), kMin);
}

TEST(FpSemantics, ArithmeticMatchesDoubles)
{
    Rng rng(7);
    for (int i = 0; i < 8; ++i) {
        int64_t ia = rng.range(-1000, 1000);
        int64_t ib = rng.range(1, 1000);
        Program p = assemble("fcvt f1, r1\n"
                             "fcvt f2, r2\n"
                             "fadd f3, f1, f2\n"
                             "fsub f4, f1, f2\n"
                             "fmul f5, f1, f2\n"
                             "fdiv f6, f1, f2\n"
                             "halt\n");
        p.setInitReg(1, ia);
        p.setInitReg(2, ib);
        SmtParams params;
        params.numThreads = 1;
        Pipeline pipe(params);
        pipe.setThreadProgram(0, &p);
        while (!pipe.allHalted() && pipe.cycle() < 10000)
            pipe.tick();
        double a = static_cast<double>(ia);
        double b = static_cast<double>(ib);
        EXPECT_DOUBLE_EQ(pipe.thread(0).fpRegs[3], a + b);
        EXPECT_DOUBLE_EQ(pipe.thread(0).fpRegs[4], a - b);
        EXPECT_DOUBLE_EQ(pipe.thread(0).fpRegs[5], a * b);
        EXPECT_DOUBLE_EQ(pipe.thread(0).fpRegs[6], a / b);
    }
}

} // namespace
} // namespace hs
