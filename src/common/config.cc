#include "common/config.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>

#include "common/fault.hh"
#include "common/log.hh"

namespace hs {

namespace {

using T = KnobType;
constexpr unsigned kModeLocal = kModeEngine | kModeEach; // engine runs
constexpr unsigned kModeOne = kModeSingle | kModeEngine;  // one mix

// The one list of runtime knobs. Flag rows come in the order hs_run's
// usage shows them; env-only rows follow.
const Knob kKnobs[] = {
    {.flag = "--spec", .type = T::Custom, .arg = "NAME", .modes = kModeRun,
     .repeat = true, .help = "add a synthetic SPEC thread (see --list)"},
    {.flag = "--variant", .type = T::Int, .arg = "N", .min = 1, .max = 4,
     .modes = kModeRun, .repeat = true,
     .help = "add malicious heat-stroke variant N"},
    {.flag = "--asm", .type = T::Path, .arg = "FILE", .modes = kModeRun,
     .repeat = true, .help = "add a thread assembled from FILE"},
    {.flag = "--each", .modes = kModeEach,
     .help = "run each workload as a solo engine cell"},
    {.flag = "--cores", .type = T::Int, .arg = "N", .min = 1, .def = "1",
     .modes = kModeRun, .help = "core tiles on one die (docs/TOPOLOGY.md)"},
    {.flag = "--place", .type = T::Custom, .arg = "CORE,...",
     .values = "a comma list of cores in [0, --cores)", .modes = kModeOne,
     .help = "core of each workload, in order (default: all on 0)"},
    {.flag = "--jobs", .env = "HS_JOBS", .type = T::Int, .arg = "N",
     .min = 1, .modes = kModeLocal,
     .help = "engine worker threads (unset: all hardware threads)"},
    {.flag = "--store", .env = "HS_STORE", .type = T::Path, .arg = "DIR",
     .modes = kModeLocal,
     .help = "persistent result store (docs/DISTRIBUTED.md)"},
    {.flag = "--serve", .type = T::Int, .arg = "PORT", .min = 1,
     .max = 65535, .modes = kModeServe,
     .help = "run as a TCP worker for --workers"},
    {.flag = "--workers", .type = T::Custom, .arg = "HOST:PORT,...",
     .values = "a comma list of host:port endpoints", .modes = kModeLocal,
     .help = "shard cells across TCP workers"},
    {.flag = "--log-json", .env = "HS_LOG_JSON", .type = T::Path,
     .arg = "FILE",
     .help = "JSON-lines event log (default: <store>/events.jsonl)"},
    {.flag = "--status-port", .env = "HS_STATUS_PORT", .type = T::Int,
     .arg = "PORT", .min = 1, .max = 65535, .modes = kModeLocal,
     .help = "serve live campaign counters over HTTP (unset: off)"},
    {.flag = "--json", .type = T::Path, .arg = "FILE", .modes = kModeRun,
     .help = "specs, results and metrics as JSON (\"-\" = stdout)"},
    {.flag = "--csv", .type = T::Path, .arg = "FILE", .modes = kModeRun,
     .help = "per-thread results as CSV (\"-\" = stdout)"},
    {.flag = "--dtm", .type = T::Enum, .arg = "MODE",
     .values = "none, stopgo, sedation, dvfs, fetchgate, stop-and-go, "
               "fetch-gating",
     .def = "stopgo", .modes = kModeRun,
     .help = "dynamic thermal management policy"},
    {.flag = "--sink", .type = T::Enum, .arg = "ideal|real",
     .values = "ideal, real", .def = "real", .modes = kModeRun,
     .help = "heat sink model"},
    {.flag = "--scale", .env = "HS_SCALE", .type = T::Number, .arg = "S",
     .min = 0, .minOpen = true, .def = "50", .modes = kModeRun,
     .help = "time scale; quanta and time constants / S (1 = paper)"},
    {.flag = "--conv", .type = T::Number, .arg = "R", .min = 0,
     .minOpen = true, .def = "0.8", .modes = kModeRun,
     .help = "convection resistance in K/W (Section 5.5)"},
    {.flag = "--upper", .type = T::Number, .arg = "K", .def = "356",
     .modes = kModeRun, .help = "sedation upper threshold in K (5.6)"},
    {.flag = "--lower", .type = T::Number, .arg = "K", .def = "355",
     .modes = kModeRun, .help = "sedation lower threshold in K (5.6)"},
    {.flag = "--noise", .type = T::Number, .arg = "K", .min = 0, .def = "0",
     .modes = kModeRun, .help = "sensor noise amplitude in K (5.6)"},
    {.flag = "--deschedule", .type = T::Int, .arg = "N", .min = 0,
     .def = "0", .modes = kModeRun,
     .help = "OS deschedules after N reports (Section 3.3; 0 = off)"},
    {.flag = "--progress", .modes = kModeLocal,
     .help = "live engine status and slow-cell watchdog on stderr"},
    {.flag = "--trace", .type = T::Path, .arg = "FILE", .modes = kModeOne,
     .help = "event trace: *.jsonl, else Chrome trace_event JSON"},
    {.flag = "--trace-filter", .type = T::Custom, .arg = "CAT,...",
     .values = "a comma list of dtm, thermal, monitor, fetch, episode",
     .modes = kModeOne, .help = "trace categories to write (needs --trace)"},
    {.flag = "--temp-trace", .type = T::Path, .arg = "FILE",
     .modes = kModeOne, .help = "temperature trace as CSV"},
    {.flag = "--stats", .modes = kModeSingle,
     .help = "dump the full statistics"},
    {.flag = "--profile", .modes = kModeSingle,
     .help = "print per-cost-centre time shares"},
    {.flag = "--list", .help = "list the SPEC profiles and exit"},
    {.flag = "--help", .help = "print this help and exit"},

    {.env = "HS_BENCH_SET", .type = T::Enum, .arg = "SET",
     .values = "quick, paper, full", .def = "paper",
     .help = "figure-harness benchmarks: 4, the paper's 10, or all 18"},
    {.env = "HS_FAULTS", .type = T::Custom, .arg = "SEED:SITE[@P|=N],...",
     .values = "a fault plan SEED:SITE[@P|=N],...",
     .check = [](const std::string &v, std::string &why) {
         return FaultPlan::parse(v, why) != nullptr;
     },
     .help = "fault-injection plan (docs/DISTRIBUTED.md; unset: off)"},
    {.env = "HS_HEARTBEAT_MS", .type = T::Int, .arg = "MS", .min = 0,
     .def = "1000", .help = "worker heartbeat period; 0 turns telemetry off"},
    {.env = "HS_REMOTE_TIMEOUT_MS", .type = T::Int, .arg = "MS", .min = 1,
     .def = "600000",
     .help = "wait for a remote result before requeueing locally"},
};

const char *
realEnv(const char *name)
{
    return std::getenv(name);
}

void
validateEnvironmentOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        for (const Knob &k : kKnobs) {
            KnobValue v = resolveKnob(k, realEnv);
            if (!v.error.empty())
                fatal("%s", v.error.c_str());
        }
    });
}

/** The flag that selects @p mode, for messages. */
const char *
modeFlag(unsigned mode)
{
    return mode == kModeSingle ? "--stats/--profile"
           : mode == kModeEach ? "--each"
                                : "--serve";
}

/**
 * Append the @p sep-separated items of @p text to @p out one space
 * apart, breaking lines before column 72 and indenting continuations
 * by @p indent.
 */
void
wrap(std::string &out, const std::string &text, char sep, size_t indent)
{
    size_t col = out.size() - (out.rfind('\n') + 1);
    std::istringstream in(text);
    for (std::string item; std::getline(in, item, sep);) {
        if (col > indent && col + 1 + item.size() > 72) {
            out += "\n" + std::string(indent, ' ');
            col = indent;
        }
        item = (col > indent ? " " : "") + item;
        out += item;
        col += item.size();
    }
    out += '\n';
}

} // namespace

KnobValue
knob(const char *env)
{
    validateEnvironmentOnce();
    const Knob *k = findKnob(env);
    if (!k || !k->env)
        panic("no HS_* knob named %s", env);
    KnobValue v = resolveKnob(*k, realEnv);
    if (!v.error.empty())
        fatal("%s", v.error.c_str());
    return v;
}

std::span<const Knob>
knobTable()
{
    return kKnobs;
}

const Knob *
findKnob(const std::string &name)
{
    for (const Knob &k : kKnobs)
        if ((k.flag && name == k.flag) || (k.env && name == k.env))
            return &k;
    return nullptr;
}

std::string
knobExpects(const Knob &k)
{
    switch (k.type) {
      case KnobType::Int:
        if (k.max != HUGE_VAL)
            return strprintf("an integer in %g..%g", k.min, k.max);
        return strprintf("an integer >= %g", k.min);
      case KnobType::Number:
        if (k.min == -HUGE_VAL)
            return "a number";
        return strprintf("a number %s %g", k.minOpen ? ">" : ">=", k.min);
      case KnobType::Path: return "a non-empty path";
      case KnobType::Enum: return std::string("one of ") + k.values;
      case KnobType::Switch: return "no value";
      case KnobType::Custom: return *k.values ? k.values : k.arg;
    }
    return "";
}

bool
knobParse(const Knob &k, const std::string &value, double &num,
          std::string &why)
{
    const char *s = value.c_str();
    char *end = nullptr;
    errno = 0;
    switch (k.type) {
      case KnobType::Int: {
        long v = std::strtol(s, &end, 10);
        num = static_cast<double>(v);
        return end != s && *end == '\0' && errno != ERANGE &&
               num >= std::max(k.min, double(INT_MIN)) &&
               num <= std::min(k.max, double(INT_MAX));
      }
      case KnobType::Number:
        num = std::strtod(s, &end);
        return end != s && *end == '\0' && std::isfinite(num) &&
               (k.minOpen ? num > k.min : num >= k.min) && num <= k.max;
      case KnobType::Path: return !value.empty();
      case KnobType::Enum:
        return value.find(',') == std::string::npos &&
               (", " + std::string(k.values) + ", ")
                       .find(", " + value + ", ") != std::string::npos;
      case KnobType::Switch: return false;
      case KnobType::Custom: return !k.check || k.check(value, why);
    }
    return false;
}

KnobValue
resolveKnob(const Knob &k, const EnvLookup &env)
{
    KnobValue out;
    const char *raw = k.env ? env(k.env) : nullptr;
    std::string why;
    if (raw && *raw) {
        out.text = raw;
        if (!knobParse(k, out.text, out.num, why))
            out.error = strprintf("%s must be %s, got '%s'%s", k.env,
                                  knobExpects(k).c_str(), raw,
                                  why.empty() ? ""
                                              : (" (" + why + ")").c_str());
    } else if (k.def) {
        out.text = k.def;
        knobParse(k, out.text, out.num, why);
    }
    return out;
}

CommandLine::CommandLine(int argc, char **argv, std::span<const Knob> rows)
    : argv0_(argv[0]), rows_(rows)
{
    validateEnvironmentOnce();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i] == std::string("-h") ? "--help" : argv[i];
        size_t eq = arg.rfind("--", 0) == 0 ? arg.find('=')
                                            : std::string::npos;
        const bool inline_value = eq != std::string::npos;
        std::string value = inline_value ? arg.substr(eq + 1) : "";
        arg.resize(std::min(eq, arg.size()));

        const Knob *k = nullptr;
        for (const Knob &r : rows_)
            if (r.flag && arg == r.flag)
                k = &r;
        if (!k)
            fail(std::string("unknown argument '") + argv[i] + "'");
        const bool is_switch = k->type == KnobType::Switch;
        if (is_switch && inline_value)
            fail(arg + " takes no value");
        if (!is_switch && !inline_value) {
            if (i + 1 >= argc)
                fail(arg + " needs a value");
            value = argv[++i];
        }
        given_.emplace_back(k, value);
        double num = 0;
        std::string why;
        if (!is_switch && !knobParse(*k, value, num, why))
            badValue(k->flag);
        if (arg == "--help") {
            std::fputs(usage(true).c_str(), stdout);
            std::exit(0);
        }
    }
}

const Knob &
CommandLine::row(const char *flag) const
{
    for (const Knob &r : rows_)
        if (r.flag && std::strcmp(r.flag, flag) == 0)
            return r;
    panic("CommandLine: no flag %s", flag);
}

KnobValue
CommandLine::value(const char *flag) const
{
    const Knob &k = row(flag);
    std::vector<std::string> given = values(flag);
    if (given.empty())
        return resolveKnob(k, realEnv); // checked at construction
    KnobValue v;
    v.text = given.back();
    std::string why;
    knobParse(k, v.text, v.num, why);
    return v;
}

std::vector<std::string>
CommandLine::values(const char *flag) const
{
    const Knob *k = &row(flag);
    std::vector<std::string> out;
    for (const auto &g : given_)
        if (g.first == k)
            out.push_back(g.second);
    return out;
}

void
CommandLine::requireMode(unsigned mode) const
{
    for (const auto &g : given_)
        if (!(g.first->modes & mode))
            fail(std::string(g.first->flag) + " cannot be used with " +
                 modeFlag(mode));
}

void
CommandLine::fail(const std::string &why) const
{
    std::fprintf(stderr, "%s: %s\n", argv0_.c_str(), why.c_str());
    std::fputs(usage(false).c_str(), stderr);
    std::exit(2);
}

void
CommandLine::badValue(const char *flag) const
{
    fail("bad value '" + text(flag) + "' for " + flag + " (expected " +
         knobExpects(row(flag)) + ")");
}

std::string
CommandLine::usage(bool full) const
{
    std::string synopsis;
    for (const Knob &k : rows_)
        if (k.flag)
            synopsis += std::string("[") + k.flag +
                        (k.type == KnobType::Switch ? "" : " ") + k.arg +
                        (k.repeat ? "]...\t" : "]\t");
    std::string out = "usage: " + argv0_;
    wrap(out, synopsis, '\t', 7);
    if (!full)
        return out;

    out += "\nA flag beats its HS_* variable; an empty variable is unset; a\n"
           "malformed one exits 1 naming it. [accepted values; default; "
           "modes\nthat reject the flag]\n";
    for (const Knob &k : rows_) {
        out += " ";
        if (k.flag)
            out += std::string(" ") + k.flag +
                   (k.type == KnobType::Switch ? "" : " ") + k.arg;
        if (k.env)
            out += std::string(" ") + k.env + "=" + k.arg;
        out += "\n      " + std::string(k.help) + "\n      ";
        std::string facts = "[" + knobExpects(k);
        if (k.def)
            facts += std::string("; default ") + k.def;
        if (k.repeat)
            facts += "; repeatable";
        const char *sep = "; not with ";
        for (unsigned m : {kModeSingle, kModeEach, kModeServe}) {
            if (k.flag && !(k.modes & m)) {
                facts += sep + std::string(modeFlag(m));
                sep = ", ";
            }
        }
        wrap(out, facts + "]", ' ', 6);
    }
    return out;
}

} // namespace hs
