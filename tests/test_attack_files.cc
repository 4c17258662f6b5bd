/** @file The shipped attack listings in attacks/ must assemble and
 *  behave as advertised. */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "smt/pipeline.hh"

namespace hs {
namespace {

Program
loadAttack(const std::string &file)
{
    // HS_SOURCE_DIR (compile-time) finds attacks/ from any build
    // directory.
    std::string path = std::string(HS_SOURCE_DIR "/attacks/") + file;
    std::ifstream in(path);
    if (!in) {
        ADD_FAILURE() << "cannot open " << path;
        return Program("missing");
    }
    std::stringstream buf;
    buf << in.rdbuf();
    Program p = assemble(buf.str(), file);
    p.setInitReg(24, 7);
    p.setInitReg(25, 13);
    return p;
}

class AttackFiles : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AttackFiles, AssemblesAndRuns)
{
    Program p = loadAttack(GetParam());
    if (p.empty())
        GTEST_SKIP() << "attacks/ not found from test cwd";
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    for (int i = 0; i < 50000; ++i)
        pipe.tick();
    EXPECT_GT(pipe.committed(0), 1000u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Listings, AttackFiles,
                         ::testing::Values("figure1_hammer.s",
                                           "figure2_two_phase.s",
                                           "stealthy_burst.s"),
                         [](const auto &info) {
                             std::string name = info.param;
                             return name.substr(0, name.find('.'));
                         });

TEST(AttackFiles, Figure1HammersTheRegisterFile)
{
    Program p = loadAttack("figure1_hammer.s");
    if (p.empty())
        GTEST_SKIP();
    SmtParams params;
    params.numThreads = 1;
    Pipeline pipe(params);
    pipe.setThreadProgram(0, &p);
    for (int i = 0; i < 100000; ++i)
        pipe.tick();
    double rate = static_cast<double>(
                      pipe.activity().count(0, Block::IntReg)) /
                  static_cast<double>(pipe.cycle());
    EXPECT_GT(rate, 9.0);
}

} // namespace
} // namespace hs
