/**
 * @file
 * hs_report — self-contained HTML dashboard from hs_run artifacts.
 *
 * Ingests the structured outputs one traced run already produces
 * (`hs_run --json FILE --trace FILE.jsonl`) and renders the paper's
 * headline figures as a single HTML file with inline SVG and CSS — no
 * external assets, no JavaScript dependencies, deterministic bytes for
 * identical inputs (no timestamps), so reports diff cleanly and can be
 * archived next to the results they describe.
 *
 * Sections:
 *  - summary tiles (peak temperature, emergencies, duty cycle, IPC)
 *  - floorplan heatmap of peak per-block temperature (EV6 geometry)
 *  - temperature time series with the 355/355.5..356/358 K thresholds
 *  - DTM activity Gantt strip (stop-and-go stalls, sedation spans,
 *    fetch gating, heat-episode phases) from the JSONL event trace
 *  - per-thread IPC bars
 *  - the duty-cycle table (heat / (heat + cool)) per run
 *  - run-health metrics (counters, gauges, histogram summaries)
 *  - fleet timeline (from hs_run --log-json): per-lane cell Gantt with
 *    fault-fire markers, lane utilization / straggler table, cell
 *    source breakdown and per-worker telemetry rollups
 *
 * Flags: the table at the top of main(). Malformed arguments exit 2
 * with the usage text.
 */

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/blocks.hh"
#include "common/config.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "thermal/floorplan.hh"

namespace {

using namespace hs;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Escape text for HTML element content and attribute values. */
std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

/** printf-style formatting into a std::string. */
std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

/** Compact cycle count: "10.0M", "250K", "900". */
std::string
cyc(double c)
{
    if (c >= 1e6)
        return fmt("%.4gM", c / 1e6);
    if (c >= 1e3)
        return fmt("%.4gK", c / 1e3);
    return fmt("%.0f", c);
}

// ---------------------------------------------------------------------
// Input views
// ---------------------------------------------------------------------

/** Histogram summary as written by Histogram::writeJson. */
struct HistStat
{
    bool ok = false;
    double count = 0, sum = 0, min = 0, max = 0, mean = 0;
    double p50 = 0, p90 = 0, p99 = 0;
};

HistStat
histFrom(const json::Value *v)
{
    HistStat h;
    if (!v || !v->isObject())
        return h;
    h.ok = true;
    h.count = v->numberOr("count", 0);
    h.sum = v->numberOr("sum", 0);
    h.min = v->numberOr("min", 0);
    h.max = v->numberOr("max", 0);
    h.mean = v->numberOr("mean", 0);
    h.p50 = v->numberOr("p50", 0);
    h.p90 = v->numberOr("p90", 0);
    h.p99 = v->numberOr("p99", 0);
    return h;
}

struct ThreadRow
{
    int index = 0;
    int core = 0;
    std::string program;
    double ipc = 0;
    double normalCycles = 0, coolingCycles = 0, sedationCycles = 0;
};

/** Per-core slice of a multi-core run (the "cores" result array). */
struct CoreView
{
    int core = 0;
    double peak = 0, emergencies = 0, stopGo = 0;
    std::vector<std::pair<std::string, double>> blockPeaks;
};

struct TempPoint
{
    double cycle = 0, intreg = 0, hottest = 0, sink = 0;
};

/** One matrix cell, flattened out of the hs_run --json document. */
struct RunView
{
    std::string label;
    std::string source;
    double cycles = 0, peak = 0, emergencies = 0, stopGo = 0;
    int numCores = 1;
    std::vector<ThreadRow> threads;
    std::vector<std::pair<std::string, double>> blockPeaks;
    std::vector<CoreView> coreViews; ///< present only for N > 1 dies
    std::vector<TempPoint> temps;
    HistStat heat, cool, sedation;
};

/** Spans and duty statistics recovered from one JSONL event trace. */
struct Span
{
    double a = 0, b = 0;
};

struct TraceView
{
    std::string source;
    // Multi-core traces stamp events with a core id (absent = core 0);
    // spans are keyed so each core gets its own Gantt rows.
    std::map<int, std::vector<Span>> stall;
    std::map<std::pair<int, int>, std::vector<Span>> sedated;
    std::map<std::pair<int, int>, std::vector<Span>> gated;
    std::map<int, std::vector<Span>> heating, cooling;
    std::vector<double> dutyValues;
    double maxCycle = 0;
    int maxCore = 0;

    bool multiCore() const { return maxCore > 0; }
};

// --- fleet timeline (hs_run --log-json) ------------------------------

/** One cell's life on one execution lane, started -> resolved. */
struct FleetCell
{
    int lane = -1;
    size_t index = 0;
    std::string label;
    std::string outcome; ///< finished/remote_finished/cache_hit/disk_hit
    double start = 0, end = 0;
};

/** Per-worker rollup folded from remote job_telemetry/heartbeat
 *  events. */
struct FleetWorker
{
    double jobs = 0, heartbeats = 0;
    double simSeconds = 0, restoreSeconds = 0;
    double snapshotBytes = 0, cachedSnapshots = 0;
    double peakRssKb = 0;
};

/** Everything the fleet sections need from one events.jsonl. */
struct FleetView
{
    std::string source;
    std::vector<FleetCell> cells;
    std::map<int, std::vector<const FleetCell *>> lanes;
    std::map<std::string, FleetWorker> workers;
    std::vector<std::pair<double, std::string>> faultFires;
    double queued = 0, resumedStored = 0;
    double maxT = 0;

    bool loaded() const { return !source.empty(); }
};

void
loadFleet(const std::string &path, FleetView &out)
{
    out.source = path;
    std::ifstream in(path);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::string line;
    size_t lineno = 0;
    // Cells in flight: submission index -> started timestamp.
    std::map<size_t, double> open;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string err;
        json::Value ev = json::parse(line, &err);
        if (!err.empty())
            fatal("%s:%zu: %s", path.c_str(), lineno, err.c_str());
        double t = ev.numberOr("t", 0);
        out.maxT = std::max(out.maxT, t);
        std::string comp = ev.stringOr("comp", "");
        std::string kind = ev.stringOr("event", "");
        if (comp == "runner") {
            size_t index = static_cast<size_t>(ev.numberOr("index", 0));
            if (kind == "queued") {
                ++out.queued;
            } else if (kind == "started") {
                open[index] = t;
            } else if (kind == "finished" ||
                       kind == "remote_finished" ||
                       kind == "cache_hit" || kind == "disk_hit") {
                FleetCell c;
                c.lane = static_cast<int>(ev.numberOr("lane", -1));
                c.index = index;
                c.label = ev.stringOr("label", "");
                c.outcome = kind;
                c.end = t;
                auto it = open.find(index);
                // Store hits resolve without a Started event when the
                // cell never reached a lane; render them as instants.
                c.start = it != open.end() ? it->second : t;
                if (it != open.end())
                    open.erase(it);
                out.cells.push_back(std::move(c));
            } else if (kind == "campaign_resumed") {
                out.resumedStored = ev.numberOr("stored", 0);
            }
        } else if (comp == "remote") {
            if (kind == "job_telemetry") {
                FleetWorker &w = out.workers[ev.stringOr("worker", "?")];
                w.jobs += 1;
                w.simSeconds += ev.numberOr("sim_s", 0);
                w.restoreSeconds += ev.numberOr("restore_s", 0);
                w.snapshotBytes += ev.numberOr("snapshot_bytes", 0);
                const json::Value *cached = ev.find("snapshot_cached");
                if (cached && cached->isBool() && cached->boolean())
                    w.cachedSnapshots += 1;
                w.peakRssKb =
                    std::max(w.peakRssKb, ev.numberOr("rss_kb", 0));
            } else if (kind == "heartbeat") {
                out.workers[ev.stringOr("worker", "?")].heartbeats += 1;
            }
        } else if (comp == "fault" && kind == "fire") {
            out.faultFires.emplace_back(t, ev.stringOr("site", "?"));
        }
    }
    for (const FleetCell &c : out.cells)
        out.lanes[c.lane].push_back(&c);
}

void
loadMatrix(const std::string &path, std::vector<RunView> &out,
           std::vector<std::pair<std::string, json::Value>> &metrics)
{
    std::string err;
    json::Value doc = json::parse(readFile(path), &err);
    if (!err.empty())
        fatal("%s: %s", path.c_str(), err.c_str());
    const json::Value *runs = doc.find("runs");
    if (!runs || !runs->isArray())
        fatal("%s: no \"runs\" array (is this hs_run --json output?)",
              path.c_str());
    for (const json::Value &run : runs->array()) {
        RunView v;
        v.source = path;
        v.label = run.stringOr("label", "run");
        const json::Value *r = run.find("result");
        if (!r || !r->isObject())
            continue;
        v.cycles = r->numberOr("cycles", 0);
        v.peak = r->numberOr("peak_temp_K", 0);
        v.emergencies = r->numberOr("emergencies", 0);
        v.stopGo = r->numberOr("stop_and_go_triggers", 0);
        if (const json::Value *threads = r->find("threads");
            threads && threads->isArray()) {
            for (const json::Value &t : threads->array()) {
                ThreadRow tr;
                tr.index = static_cast<int>(t.numberOr("thread", 0));
                tr.core = static_cast<int>(t.numberOr("core", 0));
                tr.program = t.stringOr("program", "?");
                tr.ipc = t.numberOr("ipc", 0);
                tr.normalCycles = t.numberOr("normal_cycles", 0);
                tr.coolingCycles = t.numberOr("cooling_cycles", 0);
                tr.sedationCycles = t.numberOr("sedation_cycles", 0);
                v.threads.push_back(tr);
            }
        }
        if (const json::Value *blocks = r->find("peak_per_block_K");
            blocks && blocks->isObject()) {
            for (const auto &[name, val] : blocks->object())
                if (val.isNumber())
                    v.blockPeaks.emplace_back(name, val.number());
        }
        if (const json::Value *cores = r->find("cores");
            cores && cores->isArray()) {
            for (const json::Value &c : cores->array()) {
                CoreView cv;
                cv.core = static_cast<int>(c.numberOr("core", 0));
                cv.peak = c.numberOr("peak_temp_K", 0);
                cv.emergencies = c.numberOr("emergencies", 0);
                cv.stopGo = c.numberOr("stop_and_go_triggers", 0);
                if (const json::Value *b = c.find("peak_per_block_K");
                    b && b->isObject()) {
                    for (const auto &[name, val] : b->object())
                        if (val.isNumber())
                            cv.blockPeaks.emplace_back(name,
                                                       val.number());
                }
                v.coreViews.push_back(std::move(cv));
            }
            v.numCores =
                std::max<int>(1, static_cast<int>(v.coreViews.size()));
        }
        if (const json::Value *h = r->find("histograms");
            h && h->isObject()) {
            v.heat = histFrom(h->find("sim.episode_heat_cycles"));
            v.cool = histFrom(h->find("sim.episode_cool_cycles"));
            v.sedation = histFrom(h->find("sim.sedation_span_cycles"));
        }
        if (const json::Value *tt = r->find("temp_trace");
            tt && tt->isArray()) {
            for (const json::Value &s : tt->array()) {
                TempPoint p;
                p.cycle = s.numberOr("cycle", 0);
                p.intreg = s.numberOr("intreg_K", 0);
                p.hottest = s.numberOr("hottest_K", 0);
                p.sink = s.numberOr("sink_K", 0);
                v.temps.push_back(p);
            }
        }
        out.push_back(std::move(v));
    }
    // Keep the first matrix's metrics object: when several are given
    // they normally come from the same process anyway.
    if (metrics.empty())
        if (const json::Value *m = doc.find("metrics"); m && m->isObject())
            metrics = m->object();
}

void
loadTrace(const std::string &path, TraceView &out)
{
    out.source = path;
    std::ifstream in(path);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::string line;
    size_t lineno = 0;
    // Open-span bookkeeping, keyed per core (and per thread where the
    // event carries one): -1 means "not currently open".
    std::map<int, double> stallStart;
    struct EpisodeOpen { double heat = -1, peak = -1; };
    std::map<int, EpisodeOpen> episode;
    std::map<std::pair<int, int>, double> sedStart, gateStart;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string err;
        json::Value ev = json::parse(line, &err);
        if (!err.empty())
            fatal("%s:%zu: %s", path.c_str(), lineno, err.c_str());
        double cycle = ev.numberOr("cycle", 0);
        out.maxCycle = std::max(out.maxCycle, cycle);
        std::string kind = ev.stringOr("kind", "");
        int thread = static_cast<int>(ev.numberOr("thread", -1));
        // The writer omits "core" on core 0 to keep single-core
        // traces byte-identical to the pre-topology format.
        int core = static_cast<int>(ev.numberOr("core", 0));
        out.maxCore = std::max(out.maxCore, core);
        std::pair<int, int> slot{core, thread};
        if (kind == "global_stall_on") {
            stallStart[core] = cycle;
        } else if (kind == "global_stall_off") {
            auto it = stallStart.find(core);
            if (it != stallStart.end()) {
                out.stall[core].push_back({it->second, cycle});
                stallStart.erase(it);
            }
        } else if (kind == "thread_sedated") {
            sedStart[slot] = cycle;
        } else if (kind == "thread_released") {
            auto it = sedStart.find(slot);
            if (it != sedStart.end()) {
                out.sedated[slot].push_back({it->second, cycle});
                sedStart.erase(it);
            }
        } else if (kind == "fetch_gate_close") {
            gateStart[slot] = cycle;
        } else if (kind == "fetch_gate_open") {
            auto it = gateStart.find(slot);
            if (it != gateStart.end()) {
                out.gated[slot].push_back({it->second, cycle});
                gateStart.erase(it);
            }
        } else if (kind == "episode_rise_start") {
            // Re-arming overwrites an orphan rise.
            episode[core] = {cycle, -1};
        } else if (kind == "episode_peak") {
            episode[core].peak = cycle;
        } else if (kind == "episode_end") {
            EpisodeOpen &ep = episode[core];
            if (ep.heat >= 0 && ep.peak >= ep.heat) {
                out.heating[core].push_back({ep.heat, ep.peak});
                out.cooling[core].push_back({ep.peak, cycle});
            }
            out.dutyValues.push_back(ev.numberOr("value", 0));
            ep = {};
        }
    }
    // Close dangling spans at the end of the trace window.
    for (auto &[c, start] : stallStart)
        out.stall[c].push_back({start, out.maxCycle});
    for (auto &[slot, c] : sedStart)
        out.sedated[slot].push_back({c, out.maxCycle});
    for (auto &[slot, c] : gateStart)
        out.gated[slot].push_back({c, out.maxCycle});
}

// ---------------------------------------------------------------------
// Color helpers (reference palette; light/dark handled via CSS vars,
// data fills are computed here)
// ---------------------------------------------------------------------

struct Rgb
{
    int r = 0, g = 0, b = 0;
};

/** Sequential blue ramp endpoints (light 100 .. dark 700). */
constexpr Rgb rampLo{0xcd, 0xe2, 0xfb};
constexpr Rgb rampHi{0x0d, 0x36, 0x6b};

std::string
rampColor(double t)
{
    t = std::clamp(t, 0.0, 1.0);
    auto mix = [&](int a, int b) {
        return static_cast<int>(std::lround(a + (b - a) * t));
    };
    return fmt("#%02x%02x%02x", mix(rampLo.r, rampHi.r),
               mix(rampLo.g, rampHi.g), mix(rampLo.b, rampHi.b));
}

/** Relative luminance of the ramp at @p t, for in-fill label color. */
double
rampLuminance(double t)
{
    t = std::clamp(t, 0.0, 1.0);
    auto ch = [&](int a, int b) {
        double v = (a + (b - a) * t) / 255.0;
        return v <= 0.03928 ? v / 12.92
                            : std::pow((v + 0.055) / 1.055, 2.4);
    };
    return 0.2126 * ch(rampLo.r, rampHi.r) +
           0.7152 * ch(rampLo.g, rampHi.g) +
           0.0722 * ch(rampLo.b, rampHi.b);
}

// ---------------------------------------------------------------------
// HTML / SVG emission
// ---------------------------------------------------------------------

void
emitStyle(std::ostream &os)
{
    os << R"(<style>
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink2: #52514e;
  --muted: #898781; --grid: #e1e0d9;
  --cat1: #2a78d6; --cat2: #eb6834; --cat3: #1baf7a;
  --warning: #fab219; --serious: #ec835a; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink2: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a;
    --cat1: #3987e5; --cat2: #d95926; --cat3: #199e70;
  }
}
[data-theme="light"] {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink2: #52514e;
  --muted: #898781; --grid: #e1e0d9;
  --cat1: #2a78d6; --cat2: #eb6834; --cat3: #1baf7a;
}
[data-theme="dark"] {
  --surface: #1a1a19; --ink: #ffffff; --ink2: #c3c2b7;
  --muted: #898781; --grid: #2c2c2a;
  --cat1: #3987e5; --cat2: #d95926; --cat3: #199e70;
}
html { background: var(--surface); }
body {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--ink); background: var(--surface);
  max-width: 880px; margin: 24px auto; padding: 0 16px;
}
h1 { font-size: 22px; margin-bottom: 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
p.sub { color: var(--ink2); margin-top: 0; font-size: 13px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  border: 1px solid var(--grid); border-radius: 8px;
  padding: 10px 14px; min-width: 120px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--ink2); }
table { border-collapse: collapse; font-size: 13px; margin: 8px 0; }
th, td { padding: 4px 10px; text-align: right; }
th { color: var(--ink2); font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
tbody tr { border-top: 1px solid var(--grid); }
svg { display: block; }
svg text { font-family: system-ui, -apple-system, sans-serif; }
.axis { font-size: 11px; fill: var(--ink2); }
.lbl { font-size: 11px; fill: var(--ink); }
.lbl2 { font-size: 11px; fill: var(--ink2); }
.gridline { stroke: var(--grid); stroke-width: 1; }
.mark:hover { opacity: 0.8; }
.note { color: var(--muted); font-size: 13px; }
.legend { display: flex; gap: 16px; font-size: 12px;
          color: var(--ink2); margin: 4px 0; align-items: center; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 5px; }
</style>
)";
}

void
tile(std::ostream &os, const std::string &value, const std::string &key)
{
    os << "<div class=\"tile\"><div class=\"v\">" << esc(value)
       << "</div><div class=\"k\">" << esc(key) << "</div></div>\n";
}

/** Horizontal bar as a path: flat baseline end, 4px-rounded data end. */
std::string
barPath(double x, double y, double w, double h)
{
    double r = std::min(4.0, w);
    return fmt("M %.2f %.2f h %.2f a %.2f %.2f 0 0 1 %.2f %.2f "
               "v %.2f a %.2f %.2f 0 0 1 -%.2f %.2f h -%.2f Z",
               x, y, w - r, r, r, r, r, h - 2 * r, r, r, r, r, w - r);
}

/** Nice round step covering @p span in <= @p maxTicks intervals. */
double
tickStep(double span, int maxTicks)
{
    if (span <= 0)
        return 1;
    double raw = span / maxTicks;
    double mag = std::pow(10.0, std::floor(std::log10(raw)));
    for (double m : {1.0, 2.0, 5.0, 10.0})
        if (mag * m >= raw)
            return mag * m;
    return mag * 10;
}

/**
 * Multi-core dies: one heatmap tile per core, arranged on the same
 * near-square grid Topology uses (cols = ceil(sqrt(N)), row 0 at the
 * bottom), all tiles sharing a single color ramp so cross-core
 * gradients — the whole point of a coupled die — are visible at a
 * glance.
 */
void
emitTiledFloorplan(std::ostream &os, const RunView &run)
{
    os << "<h2>Peak temperature by core tile</h2>\n";
    os << "<p class=\"sub\">" << run.coreViews.size()
       << " EV6-style core tiles on one die, hottest sample per block "
          "over the quantum; one shared color ramp; run \""
       << esc(run.label) << "\".</p>\n";

    Floorplan fp = Floorplan::ev6();
    double maxX = 0, maxY = 0;
    for (int i = 0; i < numBlocks; ++i) {
        const Rect &r = fp.rect(blockFromIndex(i));
        maxX = std::max(maxX, r.x + r.w);
        maxY = std::max(maxY, r.y + r.h);
    }
    double lo = 1e300, hi = -1e300;
    for (const CoreView &cv : run.coreViews)
        for (const auto &[name, k] : cv.blockPeaks) {
            lo = std::min(lo, k);
            hi = std::max(hi, k);
        }
    if (hi <= lo)
        hi = lo + 1;

    int n = static_cast<int>(run.coreViews.size());
    int cols = std::max(
        1, static_cast<int>(std::ceil(std::sqrt(double(n)))));
    int rows = (n + cols - 1) / cols;

    const double W = 440, gap = 10, labelH = 14, legendH = 44;
    double tileW = (W - gap * (cols - 1)) / cols;
    double tileH = tileW * maxY / maxX;
    double rowPitch = tileH + labelH + gap;
    double H = rows * rowPitch - gap;
    os << fmt("<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
              "height=\"%.0f\" role=\"img\" "
              "aria-label=\"tiled floorplan heatmap\">\n",
              W, H + legendH, W, H + legendH);
    for (int ci = 0; ci < n; ++ci) {
        const CoreView &cv = run.coreViews[ci];
        int col = ci % cols, row = ci / cols;
        double ox = col * (tileW + gap);
        // Row 0 at the bottom, like the die's own coordinates.
        double oy = (rows - 1 - row) * rowPitch + labelH;
        os << fmt("<text class=\"lbl2\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"middle\">core %d · %.1f K</text>\n",
                  ox + tileW / 2, oy - 3, cv.core, cv.peak);
        os << fmt("<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" "
                  "height=\"%.2f\" fill=\"none\" class=\"gridline\"/>"
                  "\n",
                  ox, oy, tileW, tileH);
        for (const auto &[name, k] : cv.blockPeaks) {
            int idx = -1;
            for (int i = 0; i < numBlocks; ++i)
                if (name == blockName(blockFromIndex(i)))
                    idx = i;
            if (idx < 0)
                continue;
            const Rect &r = fp.rect(blockFromIndex(idx));
            double x = ox + r.x / maxX * tileW;
            double w = r.w / maxX * tileW;
            double y = oy + tileH - (r.y + r.h) / maxY * tileH;
            double h = r.h / maxY * tileH;
            double t = (k - lo) / (hi - lo);
            os << fmt("<rect class=\"mark\" x=\"%.2f\" y=\"%.2f\" "
                      "width=\"%.2f\" height=\"%.2f\" fill=\"%s\">",
                      x + 0.5, y + 0.5, std::max(0.0, w - 1),
                      std::max(0.0, h - 1), rampColor(t).c_str())
               << "<title>core " << cv.core << " " << esc(name) << ": "
               << fmt("%.2f K", k) << "</title></rect>\n";
        }
    }
    // Legend: the shared ramp with its end-point values.
    double ly = H + 16;
    for (int i = 0; i < 60; ++i)
        os << fmt("<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" "
                  "height=\"10\" fill=\"%s\"/>\n",
                  120 + i * 3.0, ly, 3.0, rampColor(i / 59.0).c_str());
    os << fmt("<text class=\"axis\" x=\"114\" y=\"%.2f\" "
              "text-anchor=\"end\">%.1f K</text>\n", ly + 9, lo);
    os << fmt("<text class=\"axis\" x=\"%.2f\" y=\"%.2f\">%.1f K"
              "</text>\n", 120 + 60 * 3.0 + 6, ly + 9, hi);
    os << "</svg>\n";

    os << "<details><summary class=\"note\">table view</summary>\n"
          "<table><thead><tr><th>block</th>";
    for (const CoreView &cv : run.coreViews)
        os << "<th>core " << cv.core << " K</th>";
    os << "</tr></thead><tbody>\n";
    if (!run.coreViews.empty()) {
        for (size_t b = 0; b < run.coreViews[0].blockPeaks.size();
             ++b) {
            os << "<tr><td>"
               << esc(run.coreViews[0].blockPeaks[b].first) << "</td>";
            for (const CoreView &cv : run.coreViews)
                os << "<td>"
                   << (b < cv.blockPeaks.size()
                           ? fmt("%.2f", cv.blockPeaks[b].second)
                           : std::string("—"))
                   << "</td>";
            os << "</tr>\n";
        }
    }
    os << "</tbody></table></details>\n";
}

void
emitFloorplan(std::ostream &os, const RunView &run)
{
    if (run.coreViews.size() > 1) {
        emitTiledFloorplan(os, run);
        return;
    }
    os << "<h2>Peak temperature by block</h2>\n";
    if (run.blockPeaks.empty()) {
        os << "<p class=\"note\">No per-block peak temperatures in the "
              "input (need hs_run --json from this build).</p>\n";
        return;
    }
    os << "<p class=\"sub\">EV6-style floorplan, hottest sample per "
          "block over the quantum; run \"" << esc(run.label)
       << "\".</p>\n";

    Floorplan fp = Floorplan::ev6();
    double maxX = 0, maxY = 0;
    for (int i = 0; i < numBlocks; ++i) {
        const Rect &r = fp.rect(blockFromIndex(i));
        maxX = std::max(maxX, r.x + r.w);
        maxY = std::max(maxY, r.y + r.h);
    }
    double lo = 1e300, hi = -1e300;
    for (const auto &[name, k] : run.blockPeaks) {
        lo = std::min(lo, k);
        hi = std::max(hi, k);
    }
    if (hi <= lo)
        hi = lo + 1;

    const double W = 440, H = W * maxY / maxX;
    const double legendH = 44;
    os << fmt("<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
              "height=\"%.0f\" role=\"img\" "
              "aria-label=\"floorplan heatmap\">\n",
              W, H + legendH, W, H + legendH);
    for (const auto &[name, k] : run.blockPeaks) {
        // Match the JSON block name back to floorplan geometry.
        int idx = -1;
        for (int i = 0; i < numBlocks; ++i)
            if (name == blockName(blockFromIndex(i)))
                idx = i;
        if (idx < 0)
            continue;
        const Rect &r = fp.rect(blockFromIndex(idx));
        double x = r.x / maxX * W;
        double w = r.w / maxX * W;
        // Flip y: floorplan origin is bottom-left, SVG's is top-left.
        double y = H - (r.y + r.h) / maxY * H;
        double h = r.h / maxY * H;
        double t = (k - lo) / (hi - lo);
        // 2px surface gap between fills.
        os << fmt("<rect class=\"mark\" x=\"%.2f\" y=\"%.2f\" "
                  "width=\"%.2f\" height=\"%.2f\" fill=\"%s\">",
                  x + 1, y + 1, std::max(0.0, w - 2),
                  std::max(0.0, h - 2), rampColor(t).c_str())
           << "<title>" << esc(name) << ": " << fmt("%.2f K", k)
           << "</title></rect>\n";
        // In-fill labels only where they fit; luminance picks the ink.
        if (w >= 52 && h >= 30) {
            const char *fill =
                rampLuminance(t) > 0.45 ? "#0b0b0b" : "#ffffff";
            os << fmt("<text x=\"%.2f\" y=\"%.2f\" "
                      "text-anchor=\"middle\" font-size=\"10\" "
                      "fill=\"%s\">%s</text>\n",
                      x + w / 2, y + h / 2 - 2, fill,
                      esc(name).c_str());
            os << fmt("<text x=\"%.2f\" y=\"%.2f\" "
                      "text-anchor=\"middle\" font-size=\"9\" "
                      "fill=\"%s\">%.1f K</text>\n",
                      x + w / 2, y + h / 2 + 9, fill, k);
        }
    }
    // Legend: the ramp with its end-point values.
    double ly = H + 16;
    for (int i = 0; i < 60; ++i) {
        os << fmt("<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" "
                  "height=\"10\" fill=\"%s\"/>\n",
                  120 + i * 3.0, ly, 3.0,
                  rampColor(i / 59.0).c_str());
    }
    os << fmt("<text class=\"axis\" x=\"114\" y=\"%.2f\" "
              "text-anchor=\"end\">%.1f K</text>\n", ly + 9, lo);
    os << fmt("<text class=\"axis\" x=\"%.2f\" y=\"%.2f\">%.1f K"
              "</text>\n", 120 + 60 * 3.0 + 6, ly + 9, hi);
    os << "</svg>\n";

    // Table view of the same data.
    os << "<details><summary class=\"note\">table view</summary>\n"
          "<table><thead><tr><th>block</th><th>peak K</th></tr>"
          "</thead><tbody>\n";
    for (const auto &[name, k] : run.blockPeaks)
        os << "<tr><td>" << esc(name) << "</td><td>" << fmt("%.2f", k)
           << "</td></tr>\n";
    os << "</tbody></table></details>\n";
}

void
emitTempSeries(std::ostream &os, const RunView &run)
{
    os << "<h2>Temperature over the quantum</h2>\n";
    if (run.temps.size() < 2) {
        os << "<p class=\"note\">No temperature trace in the input "
              "(run hs_run with --trace or --temp-trace).</p>\n";
        return;
    }
    os << "<p class=\"sub\">Integer register file vs. heat-sink "
          "temperature, run \"" << esc(run.label)
       << "\"; dashed lines mark the sedation window (355/356 K) and "
          "the 358 K emergency threshold.</p>\n";

    const double W = 760, H = 280;
    const double mL = 52, mR = 14, mT = 12, mB = 30;
    double plotW = W - mL - mR, plotH = H - mT - mB;
    double maxCycle = run.temps.back().cycle;
    double lo = 354, hi = 359;
    for (const TempPoint &p : run.temps) {
        lo = std::min({lo, p.intreg, p.sink});
        hi = std::max({hi, p.intreg, p.sink});
    }
    lo = std::floor(lo - 0.5);
    hi = std::ceil(hi + 0.5);
    auto X = [&](double c) { return mL + c / maxCycle * plotW; };
    auto Y = [&](double k) {
        return mT + (hi - k) / (hi - lo) * plotH;
    };

    os << fmt("<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
              "height=\"%.0f\" role=\"img\" "
              "aria-label=\"temperature time series\">\n", W, H, W, H);
    // Horizontal gridlines + y labels.
    double step = tickStep(hi - lo, 6);
    for (double k = std::ceil(lo / step) * step; k <= hi + 1e-9;
         k += step) {
        os << fmt("<line class=\"gridline\" x1=\"%.2f\" y1=\"%.2f\" "
                  "x2=\"%.2f\" y2=\"%.2f\"/>\n",
                  mL, Y(k), W - mR, Y(k));
        os << fmt("<text class=\"axis\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"end\">%.0f K</text>\n",
                  mL - 6, Y(k) + 4, k);
    }
    // X ticks in megacycles.
    double xstep = tickStep(maxCycle, 8);
    for (double c = 0; c <= maxCycle + 1e-9; c += xstep) {
        os << fmt("<text class=\"axis\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"middle\">%s</text>\n",
                  X(c), H - 10, cyc(c).c_str());
    }
    // Threshold lines (status colors, labeled — never color alone).
    struct Thr { double k; const char *color; const char *name; };
    for (const Thr &t : {Thr{358, "var(--critical)", "emergency 358"},
                         Thr{356, "var(--warning)", "upper 356"},
                         Thr{355, "var(--muted)", "lower 355"}}) {
        if (t.k < lo || t.k > hi)
            continue;
        os << fmt("<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" "
                  "y2=\"%.2f\" stroke=\"%s\" stroke-width=\"1\" "
                  "stroke-dasharray=\"5 3\"/>\n",
                  mL, Y(t.k), W - mR, Y(t.k), t.color);
        os << fmt("<text class=\"axis\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"end\">%s</text>\n",
                  W - mR - 4, Y(t.k) - 4, t.name);
    }
    // Series: IntReg (cat1) and sink (cat3), 2px lines.
    auto polyline = [&](auto get, const char *color) {
        os << "<polyline fill=\"none\" stroke=\"" << color
           << "\" stroke-width=\"2\" points=\"";
        for (const TempPoint &p : run.temps)
            os << fmt("%.2f,%.2f ", X(p.cycle), Y(get(p)));
        os << "\"/>\n";
    };
    polyline([](const TempPoint &p) { return p.intreg; },
             "var(--cat1)");
    polyline([](const TempPoint &p) { return p.sink; }, "var(--cat3)");
    os << "</svg>\n";
    os << "<div class=\"legend\">"
          "<span><span class=\"sw\" style=\"background:var(--cat1)\">"
          "</span>IntReg</span>"
          "<span><span class=\"sw\" style=\"background:var(--cat3)\">"
          "</span>heat sink</span></div>\n";
}

void
emitGantt(std::ostream &os, const TraceView &tr)
{
    os << "<h2>DTM activity</h2>\n";
    bool empty = tr.stall.empty() && tr.sedated.empty() &&
                 tr.gated.empty() && tr.heating.empty();
    if (tr.source.empty() || tr.maxCycle <= 0 || empty) {
        os << "<p class=\"note\">No DTM span events (pass a JSONL "
              "trace from hs_run --trace FILE.jsonl).</p>\n";
        return;
    }
    os << "<p class=\"sub\">When the thermal manager intervened over "
          "the quantum (trace " << esc(tr.source) << ").</p>\n";

    struct Row
    {
        std::string name;
        const char *color;
        const std::vector<Span> *spans;
    };
    std::vector<Row> rows;
    // Rows group by core; single-core traces keep the unprefixed
    // legacy row names.
    auto rowName = [&](int core, const std::string &name) {
        return tr.multiCore() ? fmt("c%d · %s", core, name.c_str())
                              : name;
    };
    for (int core = 0; core <= tr.maxCore; ++core) {
        if (auto it = tr.heating.find(core); it != tr.heating.end()) {
            rows.push_back({rowName(core, "heating"), "var(--cat2)",
                            &it->second});
            rows.push_back({rowName(core, "cooling"), "var(--cat3)",
                            &tr.cooling.at(core)});
        }
        if (auto it = tr.stall.find(core); it != tr.stall.end())
            rows.push_back({rowName(core, "global stall"),
                            "var(--critical)", &it->second});
        for (const auto &[slot, spans] : tr.sedated)
            if (slot.first == core)
                rows.push_back({rowName(core,
                                        fmt("sedated t%d", slot.second)),
                                "var(--warning)", &spans});
        for (const auto &[slot, spans] : tr.gated)
            if (slot.first == core)
                rows.push_back(
                    {rowName(core, fmt("fetch gate t%d", slot.second)),
                     "var(--serious)", &spans});
    }

    const double W = 760, rowH = 20, gap = 8, mL = 110, mB = 26;
    const double H = rows.size() * (rowH + gap) + mB + 4;
    double plotW = W - mL - 10;
    auto X = [&](double c) { return mL + c / tr.maxCycle * plotW; };

    os << fmt("<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
              "height=\"%.0f\" role=\"img\" "
              "aria-label=\"DTM activity gantt\">\n", W, H, W, H);
    double xstep = tickStep(tr.maxCycle, 8);
    for (double c = 0; c <= tr.maxCycle + 1e-9; c += xstep) {
        os << fmt("<line class=\"gridline\" x1=\"%.2f\" y1=\"4\" "
                  "x2=\"%.2f\" y2=\"%.2f\"/>\n",
                  X(c), X(c), H - mB);
        os << fmt("<text class=\"axis\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"middle\">%s</text>\n",
                  X(c), H - 10, cyc(c).c_str());
    }
    double y = 4;
    for (const Row &row : rows) {
        os << fmt("<text class=\"lbl2\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"end\">%s</text>\n",
                  mL - 8, y + rowH / 2 + 4, esc(row.name).c_str());
        for (const Span &s : *row.spans) {
            double x0 = X(s.a), x1 = X(s.b);
            double w = std::max(1.0, x1 - x0);
            os << fmt("<rect class=\"mark\" x=\"%.2f\" y=\"%.2f\" "
                      "width=\"%.2f\" height=\"%.2f\" rx=\"2\" "
                      "fill=\"%s\">",
                      x0, y, w, rowH, row.color)
               << "<title>" << esc(row.name) << ": " << cyc(s.a)
               << " – " << cyc(s.b) << " (" << cyc(s.b - s.a)
               << " cycles)</title></rect>\n";
        }
        y += rowH + gap;
    }
    os << "</svg>\n";
}

void
emitIpcBars(std::ostream &os, const std::vector<RunView> &runs)
{
    os << "<h2>Per-thread IPC</h2>\n";
    struct Bar
    {
        std::string label;
        double ipc;
        double sedFrac;
    };
    std::vector<Bar> bars;
    for (const RunView &r : runs)
        for (const ThreadRow &t : r.threads) {
            // Multi-core runs tag each context with its core tile.
            std::string slot =
                r.numCores > 1
                    ? fmt("c%d t%d", t.core, t.index)
                    : "t" + std::to_string(t.index);
            std::string label = runs.size() > 1
                                    ? r.label + " · " + slot + " " +
                                          t.program
                                    : slot + " " + t.program;
            double total = t.normalCycles + t.coolingCycles +
                           t.sedationCycles;
            bars.push_back(
                {label, t.ipc, total > 0 ? t.sedationCycles / total
                                         : 0});
        }
    if (bars.empty()) {
        os << "<p class=\"note\">No per-thread results in the input."
              "</p>\n";
        return;
    }
    os << "<p class=\"sub\">Committed instructions per cycle for each "
          "hardware context.</p>\n";
    double maxIpc = 0.1;
    for (const Bar &b : bars)
        maxIpc = std::max(maxIpc, b.ipc);

    const double W = 760, rowH = 20, gap = 8, mL = 190;
    const double H = bars.size() * (rowH + gap) + 6;
    double plotW = W - mL - 60;
    os << fmt("<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
              "height=\"%.0f\" role=\"img\" "
              "aria-label=\"per-thread IPC bars\">\n", W, H, W, H);
    double y = 2;
    for (const Bar &b : bars) {
        double w = b.ipc / maxIpc * plotW;
        os << fmt("<text class=\"lbl2\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"end\">%s</text>\n",
                  mL - 8, y + rowH / 2 + 4, esc(b.label).c_str());
        os << "<path class=\"mark\" d=\""
           << barPath(mL, y, std::max(2.0, w), rowH)
           << "\" fill=\"var(--cat1)\"><title>" << esc(b.label) << ": "
           << fmt("%.3f IPC", b.ipc) << "</title></path>\n";
        os << fmt("<text class=\"lbl\" x=\"%.2f\" y=\"%.2f\">"
                  "%.2f</text>\n",
                  mL + std::max(2.0, w) + 6, y + rowH / 2 + 4, b.ipc);
        y += rowH + gap;
    }
    os << "</svg>\n";
}

void
emitDutyTable(std::ostream &os, const std::vector<RunView> &runs,
              const TraceView &tr)
{
    os << "<h2>Duty cycle</h2>\n"
          "<p class=\"sub\">heat / (heat + cool) per run — the "
          "paper's power-density denial-of-service metric: a low duty "
          "cycle means the machine spends most of its time cooling "
          "down instead of doing work.</p>\n";
    os << "<table><thead><tr><th>run</th><th>episodes</th>"
          "<th>heat cycles</th><th>cool cycles</th><th>duty</th>"
          "<th>stop&amp;go</th><th>emergencies</th><th>peak K</th>"
          "</tr></thead><tbody>\n";
    bool any = false;
    for (const RunView &r : runs) {
        double heat = r.heat.ok ? r.heat.sum : 0;
        double cool = r.cool.ok ? r.cool.sum : 0;
        std::string duty =
            heat + cool > 0 ? fmt("%.3f", heat / (heat + cool)) : "—";
        os << "<tr><td>" << esc(r.label) << "</td><td>"
           << fmt("%.0f", r.heat.ok ? r.heat.count : 0) << "</td><td>"
           << cyc(heat) << "</td><td>" << cyc(cool) << "</td><td>"
           << duty << "</td><td>" << fmt("%.0f", r.stopGo)
           << "</td><td>" << fmt("%.0f", r.emergencies) << "</td><td>"
           << fmt("%.2f", r.peak) << "</td></tr>\n";
        any = true;
    }
    os << "</tbody></table>\n";
    if (!any)
        os << "<p class=\"note\">No runs in the input.</p>\n";
    if (!tr.dutyValues.empty()) {
        double sum = 0;
        for (double d : tr.dutyValues)
            sum += d;
        os << "<p class=\"sub\">Event trace agrees: "
           << tr.dutyValues.size()
           << " completed episode(s), mean per-episode duty "
           << fmt("%.3f", sum / double(tr.dutyValues.size()))
           << ".</p>\n";
    }
}

void
emitMetricsTable(
    std::ostream &os,
    const std::vector<std::pair<std::string, json::Value>> &metrics)
{
    os << "<h2>Run-health metrics</h2>\n";
    if (metrics.empty()) {
        os << "<p class=\"note\">No metrics object in the input.</p>\n";
        return;
    }
    os << "<p class=\"sub\">Process-wide counters, gauges and "
          "histogram summaries folded from every cell of the "
          "matrix.</p>\n";
    os << "<table><thead><tr><th>metric</th><th>count</th>"
          "<th>min</th><th>p50</th><th>p90</th><th>p99</th>"
          "<th>max</th><th>value</th></tr></thead><tbody>\n";
    for (const auto &[name, v] : metrics) {
        os << "<tr><td>" << esc(name) << "</td>";
        if (v.isObject()) {
            HistStat h = histFrom(&v);
            os << "<td>" << fmt("%.0f", h.count) << "</td><td>"
               << fmt("%.4g", h.min) << "</td><td>"
               << fmt("%.4g", h.p50) << "</td><td>"
               << fmt("%.4g", h.p90) << "</td><td>"
               << fmt("%.4g", h.p99) << "</td><td>"
               << fmt("%.4g", h.max) << "</td><td>—</td>";
        } else if (v.isNumber()) {
            os << "<td>—</td><td>—</td><td>—</td><td>—</td><td>—</td>"
                  "<td>—</td><td>"
               << fmt("%.6g", v.number()) << "</td>";
        } else {
            os << "<td colspan=\"7\">—</td>";
        }
        os << "</tr>\n";
    }
    os << "</tbody></table>\n";
}

const char *
outcomeColor(const std::string &outcome)
{
    if (outcome == "remote_finished")
        return "var(--cat2)";
    if (outcome == "cache_hit")
        return "var(--cat3)";
    if (outcome == "disk_hit")
        return "var(--warning)";
    return "var(--cat1)"; // finished locally
}

const char *
outcomeName(const std::string &outcome)
{
    if (outcome == "remote_finished")
        return "remote";
    if (outcome == "cache_hit")
        return "memory hit";
    if (outcome == "disk_hit")
        return "disk hit";
    return "computed";
}

void
emitFleetTimeline(std::ostream &os, const FleetView &fleet)
{
    os << "<h2>Fleet timeline</h2>\n";
    if (fleet.cells.empty()) {
        os << "<p class=\"note\">No cell lifecycle events in "
           << esc(fleet.source) << ".</p>\n";
        return;
    }
    os << "<p class=\"sub\">Each lane is one execution slot — local "
          "worker threads first, then one dispatcher per TCP worker — "
          "and each bar one matrix cell (timeline "
       << esc(fleet.source) << ").</p>\n";

    double maxT = std::max(fleet.maxT, 1e-9);
    const double W = 760, rowH = 20, gap = 8, mL = 70, mB = 26;
    const double H = fleet.lanes.size() * (rowH + gap) + mB + 4;
    double plotW = W - mL - 10;
    auto X = [&](double t) { return mL + t / maxT * plotW; };

    os << fmt("<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
              "height=\"%.0f\" role=\"img\" "
              "aria-label=\"fleet timeline gantt\">\n", W, H, W, H);
    double xstep = tickStep(maxT, 8);
    for (double t = 0; t <= maxT + 1e-9; t += xstep) {
        os << fmt("<line class=\"gridline\" x1=\"%.2f\" y1=\"4\" "
                  "x2=\"%.2f\" y2=\"%.2f\"/>\n",
                  X(t), X(t), H - mB);
        os << fmt("<text class=\"axis\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"middle\">%.3gs</text>\n",
                  X(t), H - 10, t);
    }
    double y = 4;
    for (const auto &[lane, cells] : fleet.lanes) {
        std::string name =
            lane < 0 ? std::string("store") : fmt("lane %d", lane);
        os << fmt("<text class=\"lbl2\" x=\"%.2f\" y=\"%.2f\" "
                  "text-anchor=\"end\">%s</text>\n",
                  mL - 8, y + rowH / 2 + 4, esc(name).c_str());
        for (const FleetCell *c : cells) {
            double x0 = X(c->start), x1 = X(c->end);
            double w = std::max(2.0, x1 - x0);
            os << fmt("<rect class=\"mark\" x=\"%.2f\" y=\"%.2f\" "
                      "width=\"%.2f\" height=\"%.2f\" rx=\"2\" "
                      "fill=\"%s\">",
                      x0, y, w, rowH, outcomeColor(c->outcome))
               << "<title>#" << c->index << " " << esc(c->label) << ": "
               << outcomeName(c->outcome)
               << fmt(", %.3f–%.3f s", c->start, c->end)
               << "</title></rect>\n";
        }
        y += rowH + gap;
    }
    // Fault-fire markers cut across every lane.
    for (const auto &[t, site] : fleet.faultFires) {
        os << fmt("<line x1=\"%.2f\" y1=\"4\" x2=\"%.2f\" y2=\"%.2f\" "
                  "stroke=\"var(--critical)\" stroke-width=\"2\" "
                  "stroke-dasharray=\"2 3\"><title>fault %s at "
                  "%.3f s</title></line>\n",
                  X(t), X(t), H - mB, esc(site).c_str(), t);
    }
    os << "</svg>\n";
    os << "<div class=\"legend\">"
          "<span><span class=\"sw\" style=\"background:var(--cat1)\">"
          "</span>computed</span>"
          "<span><span class=\"sw\" style=\"background:var(--cat2)\">"
          "</span>remote</span>"
          "<span><span class=\"sw\" style=\"background:var(--cat3)\">"
          "</span>memory hit</span>"
          "<span><span class=\"sw\" style=\"background:var(--warning)\">"
          "</span>disk hit</span>";
    if (!fleet.faultFires.empty())
        os << "<span><span class=\"sw\" "
              "style=\"background:var(--critical)\"></span>fault "
              "fired</span>";
    os << "</div>\n";
}

void
emitLaneTable(std::ostream &os, const FleetView &fleet)
{
    if (fleet.cells.empty())
        return;
    os << "<h2>Lane utilization</h2>\n"
          "<p class=\"sub\">Busy share of the campaign wall clock per "
          "lane; the straggler column names the longest cell, the "
          "first thing to look at when one lane drags the tail.</p>\n";
    os << "<table><thead><tr><th>lane</th><th>cells</th>"
          "<th>busy s</th><th>busy %</th><th>longest cell</th>"
          "<th>longest s</th></tr></thead><tbody>\n";
    double maxT = std::max(fleet.maxT, 1e-9);
    for (const auto &[lane, cells] : fleet.lanes) {
        double busy = 0;
        const FleetCell *longest = nullptr;
        for (const FleetCell *c : cells) {
            busy += c->end - c->start;
            if (!longest ||
                c->end - c->start > longest->end - longest->start)
                longest = c;
        }
        std::string name =
            lane < 0 ? std::string("store") : fmt("lane %d", lane);
        os << "<tr><td>" << esc(name) << "</td><td>" << cells.size()
           << "</td><td>" << fmt("%.3f", busy) << "</td><td>"
           << fmt("%.1f", 100.0 * busy / maxT) << "</td><td>"
           << (longest ? esc(longest->label) : std::string("—"))
           << "</td><td>"
           << (longest ? fmt("%.3f", longest->end - longest->start)
                       : std::string("—"))
           << "</td></tr>\n";
    }
    os << "</tbody></table>\n";
}

void
emitFleetBreakdown(std::ostream &os, const FleetView &fleet)
{
    if (fleet.cells.empty())
        return;
    double computed = 0, remote = 0, memory = 0, disk = 0;
    for (const FleetCell &c : fleet.cells) {
        if (c.outcome == "finished")
            ++computed;
        else if (c.outcome == "remote_finished")
            ++remote;
        else if (c.outcome == "cache_hit")
            ++memory;
        else if (c.outcome == "disk_hit")
            ++disk;
    }
    os << "<h2>Cell sources</h2>\n"
          "<p class=\"sub\">Where each cell's result came from.</p>\n";
    os << "<div class=\"tiles\">\n";
    tile(os, fmt("%.0f", computed), "computed locally");
    tile(os, fmt("%.0f", remote), "computed remotely");
    tile(os, fmt("%.0f", memory), "memory hits");
    tile(os, fmt("%.0f", disk), "disk hits");
    if (fleet.resumedStored > 0)
        tile(os, fmt("%.0f", fleet.resumedStored), "resumed from store");
    if (!fleet.faultFires.empty())
        tile(os, fmt("%zu", fleet.faultFires.size()), "fault fires");
    os << "</div>\n";
}

void
emitWorkerTable(std::ostream &os, const FleetView &fleet)
{
    if (fleet.workers.empty())
        return;
    os << "<h2>Worker telemetry</h2>\n"
          "<p class=\"sub\">Per-worker rollups folded from Result "
          "telemetry blocks and heartbeats — host measurements only, "
          "never part of the artifacts.</p>\n";
    os << "<table><thead><tr><th>worker</th><th>jobs</th>"
          "<th>sim s</th><th>restore s</th><th>heartbeats</th>"
          "<th>snapshot KiB</th><th>cached snaps</th>"
          "<th>peak RSS MiB</th></tr></thead><tbody>\n";
    for (const auto &[name, w] : fleet.workers) {
        os << "<tr><td>" << esc(name) << "</td><td>"
           << fmt("%.0f", w.jobs) << "</td><td>"
           << fmt("%.3f", w.simSeconds) << "</td><td>"
           << fmt("%.3f", w.restoreSeconds) << "</td><td>"
           << fmt("%.0f", w.heartbeats) << "</td><td>"
           << fmt("%.1f", w.snapshotBytes / 1024.0) << "</td><td>"
           << fmt("%.0f", w.cachedSnapshots) << "</td><td>"
           << fmt("%.1f", w.peakRssKb / 1024.0) << "</td></tr>\n";
    }
    os << "</tbody></table>\n";
}

void
emitReport(std::ostream &os, const std::string &title,
           const std::vector<RunView> &runs, const TraceView &trace,
           const FleetView &fleet,
           const std::vector<std::pair<std::string, json::Value>> &metrics)
{
    os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
          "<meta charset=\"utf-8\">\n"
          "<meta name=\"viewport\" content=\"width=device-width, "
          "initial-scale=1\">\n<title>"
       << esc(title) << "</title>\n";
    emitStyle(os);
    os << "</head>\n<body>\n<h1>" << esc(title) << "</h1>\n";
    os << "<p class=\"sub\">Heat Stroke simulator run report — "
       << runs.size() << " run(s)";
    if (!trace.source.empty())
        os << ", event trace " << esc(trace.source);
    os << ".</p>\n";

    // Summary tiles.
    double peak = 0, emergencies = 0, stopgo = 0;
    double heat = 0, cool = 0, ipcSum = 0;
    size_t nThreads = 0;
    for (const RunView &r : runs) {
        peak = std::max(peak, r.peak);
        emergencies += r.emergencies;
        stopgo += r.stopGo;
        if (r.heat.ok)
            heat += r.heat.sum;
        if (r.cool.ok)
            cool += r.cool.sum;
        for (const ThreadRow &t : r.threads) {
            ipcSum += t.ipc;
            ++nThreads;
        }
    }
    os << "<div class=\"tiles\">\n";
    tile(os, fmt("%.2f K", peak), "peak temperature");
    tile(os, fmt("%.0f", emergencies), "thermal emergencies");
    tile(os, heat + cool > 0 ? fmt("%.3f", heat / (heat + cool)) : "—",
         "duty cycle");
    tile(os,
         nThreads ? fmt("%.2f", ipcSum / double(nThreads)) : "—",
         "mean IPC / thread");
    tile(os, fmt("%.0f", stopgo), "stop-and-go triggers");
    os << "</div>\n";

    // Charts use the first run that carries the needed payload.
    const RunView *withBlocks = nullptr, *withTemps = nullptr;
    for (const RunView &r : runs) {
        if (!withBlocks && !r.blockPeaks.empty())
            withBlocks = &r;
        if (!withTemps && r.temps.size() >= 2)
            withTemps = &r;
    }
    static const RunView emptyRun;
    emitFloorplan(os, withBlocks ? *withBlocks : emptyRun);
    emitTempSeries(os, withTemps ? *withTemps : emptyRun);
    emitGantt(os, trace);
    emitIpcBars(os, runs);
    emitDutyTable(os, runs, trace);
    if (fleet.loaded()) {
        emitFleetTimeline(os, fleet);
        emitLaneTable(os, fleet);
        emitFleetBreakdown(os, fleet);
        emitWorkerTable(os, fleet);
    }
    emitMetricsTable(os, metrics);

    os << "<p class=\"note\">Generated by hs_report from hs_run "
          "--json/--trace artifacts; byte-identical for identical "
          "inputs.</p>\n</body>\n</html>\n";
}

} // namespace

int
main(int argc, char **argv)
{
    static const Knob flags[] = {
        {.flag = "--json", .type = KnobType::Path, .arg = "FILE",
         .repeat = true, .help = "matrix JSON from hs_run --json"},
        {.flag = "--trace", .type = KnobType::Path, .arg = "FILE",
         .repeat = true, .help = "JSONL event trace from hs_run --trace"},
        {.flag = "--events", .type = KnobType::Path, .arg = "FILE",
         .repeat = true,
         .help = "campaign timeline from hs_run --log-json (first file)"},
        {.flag = "--out", .type = KnobType::Path, .arg = "FILE",
         .def = "hs_report.html", .help = "output HTML (\"-\" = stdout)"},
        {.flag = "--title", .type = KnobType::Custom, .arg = "TEXT",
         .def = "Heat Stroke run report", .help = "report title"},
    };
    CommandLine cl(argc, argv, flags);
    const std::vector<std::string> json_paths = cl.values("--json");
    const std::vector<std::string> trace_paths = cl.values("--trace");
    const std::vector<std::string> events_paths = cl.values("--events");
    const std::string out_path = cl.text("--out");
    const std::string title = cl.text("--title");
    if (json_paths.empty() && trace_paths.empty() &&
        events_paths.empty()) {
        cl.fail("nothing to report; pass --json, --trace and/or --events");
    }

    std::vector<RunView> runs;
    std::vector<std::pair<std::string, json::Value>> metrics;
    for (const std::string &p : json_paths)
        loadMatrix(p, runs, metrics);
    TraceView trace;
    for (const std::string &p : trace_paths) {
        // Later traces extend the same view; the Gantt names its
        // source, so keep the first for the caption.
        TraceView tv;
        loadTrace(p, tv);
        if (trace.source.empty())
            trace = std::move(tv);
    }
    FleetView fleet;
    for (const std::string &p : events_paths) {
        // Same first-file policy as --trace: timelines from separate
        // campaigns have unrelated clocks, so they never merge.
        FleetView fv;
        loadFleet(p, fv);
        if (fleet.source.empty())
            fleet = std::move(fv);
    }

    if (out_path == "-") {
        emitReport(std::cout, title, runs, trace, fleet, metrics);
        return 0;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        fatal("cannot write '%s'", out_path.c_str());
    emitReport(out, title, runs, trace, fleet, metrics);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
