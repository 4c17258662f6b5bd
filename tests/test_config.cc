/**
 * @file
 * The runtime knob table (common/config.hh): one table-driven check of
 * every HS_* row against a fake environment, the table's shape, and
 * the command-line parser's precedence and exit codes.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hh"
#include "sim/experiment.hh"

namespace {

using namespace hs;

/** An environment backed by a map instead of the process's. */
struct FakeEnv
{
    std::map<std::string, std::string> vars;

    EnvLookup lookup() const
    {
        return [this](const char *name) -> const char * {
            auto it = vars.find(name);
            return it == vars.end() ? nullptr : it->second.c_str();
        };
    }
};

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Values every row of @p k's type and range must accept. */
std::vector<std::string>
accepted(const Knob &k)
{
    switch (k.type) {
      case KnobType::Int: {
        double lo = std::isfinite(k.min) ? k.min : -3;
        std::vector<std::string> out{num(lo), num(lo + 1)};
        if (std::isfinite(k.max))
            out.push_back(num(k.max));
        else
            out.push_back("2147483647");
        return out;
      }
      case KnobType::Number: {
        double lo = std::isfinite(k.min) ? k.min : -1.5;
        std::vector<std::string> out{num(lo + 0.25), num(lo + 1e3),
                                     "1e2"};
        if (!k.minOpen)
            out.push_back(num(lo));
        return out;
      }
      case KnobType::Path: return {"/tmp/hs dir/x.jsonl", "-"};
      case KnobType::Enum: {
        std::vector<std::string> out;
        std::string names = k.values;
        for (size_t pos = 0;;) {
            size_t comma = names.find(", ", pos);
            out.push_back(names.substr(pos, comma - pos));
            if (comma == std::string::npos)
                return out;
            pos = comma + 2;
        }
      }
      case KnobType::Custom:
        // One known-good value per custom grammar.
        if (std::string(k.env) == "HS_FAULTS")
            return {"42:recv_mid_eof@0.2,store_crash=3"};
        ADD_FAILURE() << k.env << ": no sample value for this grammar";
        return {};
      case KnobType::Switch: break;
    }
    return {};
}

/** Values every row of @p k's type and range must reject. */
std::vector<std::string>
rejected(const Knob &k)
{
    switch (k.type) {
      case KnobType::Int: {
        std::vector<std::string> out{"abc", "5x", "1.5", "0x10",
                                     "99999999999999999999"};
        if (std::isfinite(k.min))
            out.push_back(num(k.min - 1));
        out.push_back(std::isfinite(k.max) ? num(k.max + 1) : "2147483648");
        return out;
      }
      case KnobType::Number: {
        std::vector<std::string> out{"abc", "5x", "nan", "inf"};
        if (std::isfinite(k.min))
            out.push_back(num(k.min - 1));
        if (k.minOpen)
            out.push_back(num(k.min));
        return out;
      }
      case KnobType::Enum: {
        std::vector<std::string> names = accepted(k);
        return {"bogus", names[0] + "x", names[0] + ", " + names[1]};
      }
      case KnobType::Custom: return {"garbage"};
      default: return {}; // a Path takes any non-empty string
    }
}

TEST(Knobs, EveryEnvRowResolvesFromAFakeEnvironment)
{
    size_t rows = 0;
    for (const Knob &k : knobTable()) {
        if (!k.env)
            continue;
        ++rows;
        SCOPED_TRACE(k.env);
        const std::string def = k.def ? k.def : "";

        // Unset and empty both give the default.
        for (const FakeEnv &env : {FakeEnv{}, FakeEnv{{{k.env, ""}}}}) {
            KnobValue v = resolveKnob(k, env.lookup());
            EXPECT_EQ(v.error, "");
            EXPECT_EQ(v.text, def);
        }
        // The default itself is a value the row accepts.
        if (k.def) {
            double n = 0;
            std::string why;
            EXPECT_TRUE(knobParse(k, k.def, n, why));
        }
        for (const std::string &good : accepted(k)) {
            KnobValue v = resolveKnob(k, FakeEnv{{{k.env, good}}}.lookup());
            EXPECT_EQ(v.error, "") << good;
            EXPECT_EQ(v.text, good);
            if (k.type == KnobType::Int || k.type == KnobType::Number) {
                EXPECT_DOUBLE_EQ(v.num, std::strtod(good.c_str(), nullptr))
                    << good;
            }
        }
        // Non-numeric, partial-numeric and out-of-range values give a
        // clean error naming the knob and the value.
        for (const std::string &bad : rejected(k)) {
            KnobValue v = resolveKnob(k, FakeEnv{{{k.env, bad}}}.lookup());
            EXPECT_NE(v.error.find(k.env), std::string::npos) << bad;
            EXPECT_NE(v.error.find("'" + bad + "'"), std::string::npos)
                << v.error;
        }
    }
    EXPECT_EQ(rows, 9u);
}

TEST(Knobs, TableShapeAndPinnedDefaults)
{
    size_t flags = 0;
    for (const Knob &k : knobTable()) {
        ASSERT_TRUE(k.flag || k.env);
        if (k.flag) {
            ++flags;
            EXPECT_EQ(std::string(k.flag).rfind("--", 0), 0u);
            EXPECT_EQ(findKnob(k.flag), &k);
        }
        if (k.env) {
            EXPECT_EQ(std::string(k.env).rfind("HS_", 0), 0u);
            EXPECT_EQ(findKnob(k.env), &k);
        }
        EXPECT_NE(std::string(k.help), "") << (k.flag ? k.flag : k.env);
    }
    EXPECT_EQ(flags, 30u);

    const std::map<std::string, std::string> defaults = {
        {"HS_SCALE", "50"},           {"HS_BENCH_SET", "paper"},
        {"HS_HEARTBEAT_MS", "1000"},  {"HS_REMOTE_TIMEOUT_MS", "600000"},
        {"HS_JOBS", ""},
        {"HS_STORE", ""},             {"HS_LOG_JSON", ""},
        {"HS_STATUS_PORT", ""},       {"HS_FAULTS", ""},
    };
    for (const auto &[name, def] : defaults) {
        const Knob *k = findKnob(name);
        ASSERT_NE(k, nullptr) << name;
        EXPECT_EQ(resolveKnob(*k, FakeEnv{}.lookup()).text, def) << name;
    }
    // One default for the time scale, wherever it is read.
    EXPECT_DOUBLE_EQ(resolveKnob(*findKnob("HS_SCALE"), FakeEnv{}.lookup())
                         .num,
                     ExperimentOptions{}.timeScale);
}

/** argv for CommandLine from a list of words. */
struct Argv
{
    std::vector<std::string> words;
    std::vector<char *> ptrs;

    explicit Argv(std::vector<std::string> w) : words(std::move(w))
    {
        for (std::string &s : words)
            ptrs.push_back(s.data());
    }
    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }
};

TEST(Knobs, FlagBeatsEnvBeatsDefault)
{
    setenv("HS_JOBS", "5", 1);
    Argv flag({"hs_run", "--jobs", "3", "--spec=gcc", "--variant", "2",
               "--spec", "mcf"});
    CommandLine cl(flag.argc(), flag.argv(), knobTable());
    EXPECT_EQ(cl.integer("--jobs"), 3);
    EXPECT_EQ(cl.values("--spec"),
              (std::vector<std::string>{"gcc", "mcf"}));
    EXPECT_EQ(cl.given().size(), 4u);
    EXPECT_DOUBLE_EQ(cl.number("--conv"), 0.8);

    Argv bare({"hs_run"});
    CommandLine env(bare.argc(), bare.argv(), knobTable());
    EXPECT_FALSE(env.has("--jobs"));
    EXPECT_EQ(env.integer("--jobs"), 5);
    unsetenv("HS_JOBS");
    EXPECT_EQ(env.integer("--jobs"), 0);
    EXPECT_EQ(env.text("--dtm"), "stopgo");
}

TEST(KnobsDeathTest, MalformedInputExitsWithItsCode)
{
    setenv("HS_REMOTE_TIMEOUT_MS", "abc", 1);
    EXPECT_EXIT(knobInt("HS_REMOTE_TIMEOUT_MS"), testing::ExitedWithCode(1),
                "HS_REMOTE_TIMEOUT_MS");
    unsetenv("HS_REMOTE_TIMEOUT_MS");

    Argv bad({"hs_run", "--cores", "2x"});
    EXPECT_EXIT(CommandLine(bad.argc(), bad.argv(), knobTable()),
                testing::ExitedWithCode(2), "usage:");
    Argv worker({"hs_run", "--serve", "7471", "--jobs", "2"});
    CommandLine cl(worker.argc(), worker.argv(), knobTable());
    EXPECT_EXIT(cl.requireMode(kModeServe), testing::ExitedWithCode(2),
                "--jobs cannot be used with --serve");
}

} // namespace
