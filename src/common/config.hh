/**
 * @file
 * The runtime knob table: every HS_* variable and hs_run flag, with its
 * type, accepted values, default, help line and legal hs_run modes.
 * Parsing, "flag beats env", hs_run's cross-flag checks and the usage
 * and --help text all derive from the rows.
 *
 * Lookups re-read the environment on every call (tests setenv()). The
 * first lookup, and every CommandLine, checks every set HS_* variable
 * once: a malformed one exits 1 naming the knob on every code path. An
 * empty variable is unset.
 */

#ifndef HS_COMMON_CONFIG_HH
#define HS_COMMON_CONFIG_HH

#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hs {

/** How a row's value is spelled and checked. */
enum class KnobType {
    Int,    ///< integer in [min, max]
    Number, ///< finite real in [min, max]; min itself excluded if minOpen
    Path,   ///< non-empty file or directory path
    Enum,   ///< one of the ", "-separated names in Knob::values
    Switch, ///< flag that takes no value
    Custom, ///< string the reader parses, in the form Knob::arg shows
};

/** hs_run's modes, selected by --serve, else --stats/--profile, else
 *  --each. Knob::modes masks where a flag is legal. */
enum KnobMode : unsigned {
    kModeSingle = 1u << 0, ///< --stats/--profile: one live simulator
    kModeEngine = 1u << 1, ///< the engine running one co-scheduled mix
    kModeEach = 1u << 2,   ///< the engine running an --each matrix
    kModeServe = 1u << 3,  ///< a --serve worker
    kModeRun = kModeSingle | kModeEngine | kModeEach,
    kModeAll = kModeRun | kModeServe,
};

/** One runtime knob. Declare rows with designated initializers. */
struct Knob
{
    const char *flag = nullptr; ///< "--jobs"; nullptr for env-only rows
    const char *env = nullptr;  ///< "HS_JOBS"; nullptr for flag-only rows
    KnobType type = KnobType::Switch;
    const char *arg = "";      ///< value placeholder in the usage text
    /** Enum: the accepted names, ", "-separated. Custom: what the
     *  reader accepts, for messages (default: arg). */
    const char *values = "";
    double min = -HUGE_VAL;    ///< Int/Number lower bound
    double max = HUGE_VAL;     ///< Int/Number upper bound
    bool minOpen = false;      ///< Number: reject min itself
    const char *def = nullptr; ///< value when unset; nullptr = none
    unsigned modes = kModeAll; ///< hs_run modes the flag is legal in
    bool repeat = false;       ///< the flag may be given repeatedly
    /** Custom: extra check; on failure sets @p why. */
    bool (*check)(const std::string &value, std::string &why) = nullptr;
    const char *help = "";
};

/** The knob table: hs_run's flags, then env-only knobs. */
std::span<const Knob> knobTable();

/** The row whose flag or env name is @p name, or nullptr. */
const Knob *findKnob(const std::string &name);

/** What @p k accepts, e.g. "an integer >= 1". */
std::string knobExpects(const Knob &k);

/** Parse all of @p value as @p k, in range; numbers land in @p num. */
bool knobParse(const Knob &k, const std::string &value, double &num,
               std::string &why);

/** An environment: std::getenv's shape, so tests can pass a fake. */
using EnvLookup = std::function<const char *(const char *)>;

/** One knob resolved against an environment. */
struct KnobValue
{
    std::string text;  ///< value in force (set or default); "" = none
    double num = 0;    ///< numeric types: the parsed value
    std::string error; ///< set value malformed: message naming the knob
};

/** Resolve @p k's variable in @p env, falling back to its default. */
KnobValue resolveKnob(const Knob &k, const EnvLookup &env);

/** Value of HS_* knob @p env; fatal() naming it when malformed. */
KnobValue knob(const char *env);
inline int knobInt(const char *env) { return static_cast<int>(knob(env).num); }
inline double knobNumber(const char *env) { return knob(env).num; }
inline std::string knobText(const char *env) { return knob(env).text; }

/** argv parsed against flag rows: "--opt VALUE" or "--opt=VALUE". */
class CommandLine
{
  public:
    /**
     * Check the HS_* environment (exit 1), then parse @p argv: an
     * unknown argument, a missing or malformed value, or a value on a
     * switch prints the usage to stderr and exits 2. "--help" (or
     * "-h"), when @p rows has it, prints the help and exits 0.
     */
    CommandLine(int argc, char **argv, std::span<const Knob> rows);

    bool has(const char *flag) const { return !values(flag).empty(); }

    /** @p flag's last value, else its HS_* variable, else its default
     *  ("" / 0 when none). */
    KnobValue value(const char *flag) const;
    std::string text(const char *f) const { return value(f).text; }
    int integer(const char *f) const { return static_cast<int>(value(f).num); }
    double number(const char *f) const { return value(f).num; }

    /** Every value given for @p flag, in command-line order. */
    std::vector<std::string> values(const char *flag) const;

    /** The flags given, with their values, in command-line order. */
    const std::vector<std::pair<const Knob *, std::string>> &given() const
    {
        return given_;
    }

    /** Exit 2 with the usage if a flag given is illegal in @p mode. */
    void requireMode(unsigned mode) const;

    /** Print "argv0: @p why" and the usage text; exit 2. */
    [[noreturn]] void fail(const std::string &why) const;

    /** fail() on @p flag's last value, naming what it accepts. */
    [[noreturn]] void badValue(const char *flag) const;

    /** The usage synopsis; @p full adds every row's help (--help). */
    std::string usage(bool full) const;

  private:
    const Knob &row(const char *flag) const;

    std::string argv0_;
    std::span<const Knob> rows_;
    std::vector<std::pair<const Knob *, std::string>> given_;
};

} // namespace hs

#endif // HS_COMMON_CONFIG_HH
