#include "common/log.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/config.hh"

namespace hs {

namespace {

LogLevel globalLevel = LogLevel::Normal;

std::string
vformat(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
emit(const char *tag, const char *fmt, va_list args)
{
    std::string body = vformat(fmt, args);
    std::fprintf(stderr, "%s: %s\n", tag, body.c_str());
}

// Structured-event sink state. g_eventActive is the one-load fast
// path; everything else only matters once a sink exists. The same
// lazy-resolution shape as faultPlan(): the first logEvent() /
// logEventActive() call parses HS_LOG_JSON exactly once.
std::atomic<bool> g_eventActive{false};
std::atomic<bool> g_envResolved{false};
std::mutex g_eventMu;
std::FILE *g_jsonFile = nullptr;
std::function<void(const LogEventView &)> g_observer;
std::chrono::steady_clock::time_point g_t0;
bool g_t0Set = false;

/** Seconds since the sink first became active (monotonic clock). */
double
eventNow()
{
    auto now = std::chrono::steady_clock::now();
    if (!g_t0Set) {
        g_t0 = now;
        g_t0Set = true;
    }
    return std::chrono::duration<double>(now - g_t0).count();
}

void
updateActive()
{
    g_eventActive.store(g_jsonFile != nullptr || bool(g_observer),
                        std::memory_order_release);
}

/** Open @p path (truncate) as the sink. Caller holds g_eventMu. */
void
openLocked(const std::string &path, const char *what)
{
    if (g_jsonFile)
        std::fclose(g_jsonFile);
    g_jsonFile = std::fopen(path.c_str(), "w");
    if (!g_jsonFile)
        fatal("%s: cannot open '%s' for writing", what, path.c_str());
    updateActive();
}

void
resolveEnv()
{
    if (g_envResolved.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(g_eventMu);
    if (g_envResolved.load(std::memory_order_relaxed))
        return;
    std::string path = knobText("HS_LOG_JSON");
    if (!path.empty() && !g_jsonFile)
        openLocked(path, "HS_LOG_JSON");
    g_envResolved.store(true, std::memory_order_release);
}

void
appendField(std::string &out, const LogField &f)
{
    appendJsonString(out, f.key);
    out += ':';
    char buf[64];
    switch (f.kind) {
      case LogField::Kind::U64:
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(f.u64));
        out += buf;
        break;
      case LogField::Kind::I64:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(f.i64));
        out += buf;
        break;
      case LogField::Kind::F64:
        std::snprintf(buf, sizeof(buf), "%.17g", f.f64);
        out += buf;
        break;
      case LogField::Kind::Str:
        appendJsonString(out, f.str);
        break;
      case LogField::Kind::Bool:
        out += f.b ? "true" : "false";
        break;
    }
}

} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (globalLevel == LogLevel::Quiet)
        return;
    va_list args;
    va_start(args, fmt);
    emit("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (globalLevel == LogLevel::Quiet)
        return;
    va_list args;
    va_start(args, fmt);
    emit("info", fmt, args);
    va_end(args);
}

void
debug(const char *fmt, ...)
{
    if (globalLevel != LogLevel::Verbose)
        return;
    va_list args;
    va_start(args, fmt);
    emit("debug", fmt, args);
    va_end(args);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vformat(fmt, args);
    va_end(args);
    return out;
}

// ---------------------------------------------------------------------
// Structured operational log
// ---------------------------------------------------------------------

const char *
logSeverityName(LogSeverity sev)
{
    switch (sev) {
      case LogSeverity::Debug: return "debug";
      case LogSeverity::Info: return "info";
      case LogSeverity::Warn: return "warn";
      case LogSeverity::Error: return "error";
    }
    return "info";
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
LogEventView::jsonLine() const
{
    std::string line;
    line.reserve(96 + numFields * 24);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"t\":%.6f,\"sev\":\"%s\",", t,
                  logSeverityName(sev));
    line += buf;
    line += "\"comp\":";
    appendJsonString(line, component);
    line += ",\"event\":";
    appendJsonString(line, event);
    for (size_t i = 0; i < numFields; ++i) {
        line += ',';
        appendField(line, fields[i]);
    }
    line += '}';
    return line;
}

bool
logEventActive()
{
    if (!g_envResolved.load(std::memory_order_acquire))
        resolveEnv();
    return g_eventActive.load(std::memory_order_relaxed);
}

void
logEvent(const char *component, const char *event, LogSeverity sev,
         std::initializer_list<LogField> fields)
{
    if (!logEventActive())
        return;
    std::lock_guard<std::mutex> lock(g_eventMu);
    if (!g_jsonFile && !g_observer)
        return;
    LogEventView view;
    view.t = eventNow();
    view.sev = sev;
    view.component = component;
    view.event = event;
    view.fields = fields.begin();
    view.numFields = fields.size();
    if (g_jsonFile) {
        std::string line = view.jsonLine();
        line += '\n';
        std::fwrite(line.data(), 1, line.size(), g_jsonFile);
        std::fflush(g_jsonFile);
    }
    if (g_observer)
        g_observer(view);
}

void
openJsonLog(const std::string &path)
{
    logEventActive(); // resolve HS_LOG_JSON first so CLI wins cleanly
    std::lock_guard<std::mutex> lock(g_eventMu);
    if (g_jsonFile) {
        std::fclose(g_jsonFile);
        g_jsonFile = nullptr;
    }
    openLocked(path, "log-json");
}

void
closeJsonLog()
{
    std::lock_guard<std::mutex> lock(g_eventMu);
    if (g_jsonFile) {
        std::fclose(g_jsonFile);
        g_jsonFile = nullptr;
    }
    updateActive();
}

void
setLogEventObserver(std::function<void(const LogEventView &)> fn)
{
    logEventActive();
    std::lock_guard<std::mutex> lock(g_eventMu);
    g_observer = std::move(fn);
    updateActive();
}

} // namespace hs
