/**
 * @file
 * Logging and error-reporting primitives for the heatstroke library.
 *
 * Follows the gem5 convention: panic() marks simulator bugs (aborts),
 * fatal() marks user errors (clean exit), warn()/inform() are advisory.
 *
 * On top of the printf-style stderr channel there is a structured
 * operational log: logEvent() appends one JSON object per event to a
 * JSONL sink opened with openJsonLog() (or lazily from HS_LOG_JSON on
 * first use), and/or hands it to an in-process observer installed with
 * setLogEventObserver(). Like the tracer and the fault layer, the
 * whole feature costs one relaxed atomic load and a branch when
 * nothing is listening, so instrumented call sites can stay
 * unconditional.
 */

#ifndef HS_COMMON_LOG_HH
#define HS_COMMON_LOG_HH

#include <cstdarg>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>

namespace hs {

/** Verbosity levels for advisory messages. */
enum class LogLevel {
    Quiet,   ///< suppress inform() output
    Normal,  ///< inform() and warn() printed
    Verbose  ///< additionally print debug() output
};

/** Set the global log verbosity. Thread-compatible (call before running). */
void setLogLevel(LogLevel level);

/** @return the current global log verbosity. */
LogLevel logLevel();

/**
 * Report an internal invariant violation and abort.
 * Use only for conditions that indicate a bug in the library itself.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error (bad configuration, bad input) and
 * exit with status 1.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report detail visible only at LogLevel::Verbose. */
void debug(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------
// Structured operational log (JSONL)
// ---------------------------------------------------------------------

/** Severity attached to a structured event. */
enum class LogSeverity { Debug, Info, Warn, Error };

/** @return the canonical lowercase name for @p sev ("info", ...). */
const char *logSeverityName(LogSeverity sev);

/**
 * One typed key/value attached to a structured event. Build with the
 * static factories so the JSON encoding (string vs. number vs. bool)
 * is decided by the caller, not by sniffing.
 *
 * The key must outlive the logEvent() call (string literals in
 * practice); string values are copied.
 */
struct LogField
{
    enum class Kind { U64, I64, F64, Str, Bool };

    const char *key = "";
    Kind kind = Kind::U64;
    uint64_t u64 = 0;
    int64_t i64 = 0;
    double f64 = 0;
    std::string str;
    bool b = false;

    static LogField num(const char *key, uint64_t v)
    {
        LogField f;
        f.key = key;
        f.kind = Kind::U64;
        f.u64 = v;
        return f;
    }

    static LogField num(const char *key, int64_t v)
    {
        LogField f;
        f.key = key;
        f.kind = Kind::I64;
        f.i64 = v;
        return f;
    }

    static LogField num(const char *key, int v)
    {
        return num(key, static_cast<int64_t>(v));
    }

    static LogField num(const char *key, double v)
    {
        LogField f;
        f.key = key;
        f.kind = Kind::F64;
        f.f64 = v;
        return f;
    }

    static LogField text(const char *key, std::string v)
    {
        LogField f;
        f.key = key;
        f.kind = Kind::Str;
        f.str = std::move(v);
        return f;
    }

    static LogField flag(const char *key, bool v)
    {
        LogField f;
        f.key = key;
        f.kind = Kind::Bool;
        f.b = v;
        return f;
    }
};

/**
 * A fully-assembled structured event as handed to an observer: the
 * monotonic timestamp (seconds since the first event-log activation),
 * the emitting component ("runner", "remote", "store", "fault", ...),
 * a short machine-readable event name, and the typed fields.
 */
struct LogEventView
{
    double t = 0;
    LogSeverity sev = LogSeverity::Info;
    const char *component = "";
    const char *event = "";
    const LogField *fields = nullptr;
    size_t numFields = 0;

    /** Render as a single JSONL line (no trailing newline). */
    std::string jsonLine() const;
};

/**
 * @return true when some sink (JSONL file or observer) is consuming
 * structured events. One relaxed atomic load; the first call resolves
 * HS_LOG_JSON (empty value = unset, unopenable path = fatal naming the
 * knob).
 */
bool logEventActive();

/**
 * Emit one structured event. Cheap no-op (atomic load + branch) when
 * no sink is active; otherwise the line is serialised under a mutex,
 * written and flushed so concurrent threads and crash-interrupted
 * processes still leave parseable JSONL behind.
 */
void logEvent(const char *component, const char *event, LogSeverity sev,
              std::initializer_list<LogField> fields = {});

/** logEvent() at Info, the common case. */
inline void
logEvent(const char *component, const char *event,
         std::initializer_list<LogField> fields = {})
{
    logEvent(component, event, LogSeverity::Info, fields);
}

/**
 * Open @p path as the process-wide JSONL sink (truncating). fatal()
 * when the file cannot be opened. Overrides any HS_LOG_JSON file
 * already open.
 */
void openJsonLog(const std::string &path);

/** Close the JSONL sink, if open. Idempotent. */
void closeJsonLog();

/**
 * Install an in-process observer that receives every structured event
 * (called under the log mutex — keep it fast, don't log from it).
 * Pass nullptr to remove. Lets tests capture the event stream in
 * process without a second instrumentation channel.
 */
void setLogEventObserver(std::function<void(const LogEventView &)> fn);

/** Append a JSON-escaped copy of @p s (quotes included) to @p out. */
void appendJsonString(std::string &out, const std::string &s);

} // namespace hs

#endif // HS_COMMON_LOG_HH
