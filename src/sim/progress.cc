#include "sim/progress.hh"

#include <algorithm>
#include <cstring>

#include <unistd.h>

#include "common/log.hh"

namespace hs {

bool
streamIsTty(std::FILE *stream)
{
    int fd = fileno(stream);
    return fd >= 0 && isatty(fd) == 1;
}

namespace {

/** "12s" / "3.2m" style compact duration. */
void
fmtDuration(char *buf, size_t n, double secs)
{
    if (secs < 60)
        std::snprintf(buf, n, "%.0fs", secs);
    else if (secs < 3600)
        std::snprintf(buf, n, "%.1fm", secs / 60.0);
    else
        std::snprintf(buf, n, "%.1fh", secs / 3600.0);
}

} // namespace

ProgressReporter::ProgressReporter(size_t total, int jobs,
                                   ProgressOptions opts)
    : total_(total), jobs_(jobs > 0 ? jobs : 1), opts_(opts),
      start_(std::chrono::steady_clock::now()), lastPaint_(start_)
{
    watchdog_ = std::thread([this] { watchdogLoop(); });
}

ProgressReporter::~ProgressReporter()
{
    finish();
}

uint64_t
ProgressReporter::slowCells() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return slow_;
}

void
ProgressReporter::statusLine(char *buf, size_t n) const
{
    // ETA: cells left, executed jobs_ at a time, each taking about the
    // median observed cell time. Crude on purpose — it is a progress
    // line, not a scheduler.
    const CellTally &t = tally_;
    char eta[32] = "";
    if (!t.cellSeconds.empty() && t.done < total_) {
        double median = t.cellSeconds.percentile(0.5);
        double left = static_cast<double>(total_ - t.done) * median /
                      static_cast<double>(jobs_);
        char d[16];
        fmtDuration(d, sizeof(d), left);
        std::snprintf(eta, sizeof(eta), ", eta %s", d);
    }
    // Each cache tier is named explicitly so a warm --store rerun is
    // visibly "all disk hits" rather than folded into one hit count.
    std::snprintf(buf, n,
                  "[progress] %zu/%zu cells (%zu running, %zu mem "
                  "hit%s, %zu disk hit%s, %zu remote, %zu forked%s)",
                  t.done, total_, t.running, t.memHits,
                  t.memHits == 1 ? "" : "s", t.diskHits,
                  t.diskHits == 1 ? "" : "s", t.remote, t.forked, eta);
}

void
ProgressReporter::render()
{
    char line[160];
    statusLine(line, sizeof(line));
    if (opts_.ansi) {
        size_t len = std::strlen(line);
        // Overwrite in place, blanking any leftover tail.
        std::fprintf(opts_.out, "\r%s", line);
        for (size_t i = len; i < paintedLen_; ++i)
            std::fputc(' ', opts_.out);
        std::fflush(opts_.out);
        paintedLen_ = std::max(paintedLen_, len);
    } else {
        std::fprintf(opts_.out, "%s\n", line);
    }
    lastPaint_ = std::chrono::steady_clock::now();
}

void
ProgressReporter::onEvent(const CellEvent &ev)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_)
        return;
    if (ev.kind == CellEvent::Kind::Queued)
        return; // nothing to paint: total_ was given up front
    tally_ = *ev.tally;
    auto now = std::chrono::steady_clock::now();
    if (ev.kind == CellEvent::Kind::Started) {
        running_.push_back(
            {ev.index, ev.label ? ev.label : "", now, false});
    } else if (ev.kind != CellEvent::Kind::PrefixForked) {
        std::erase_if(running_, [&](const Running &r) {
            return r.index == ev.index;
        });
    }
    // ANSI redraws on every event (cheap, in place). Plain mode rations
    // itself to one line per interval, plus the last cell.
    double since_paint =
        std::chrono::duration<double>(now - lastPaint_).count();
    if (opts_.ansi || tally_.done == total_ ||
        since_paint >= opts_.minPlainInterval)
        render();
}

void
ProgressReporter::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
        cv_.wait_for(lock, std::chrono::milliseconds(200));
        if (stopped_)
            return;
        auto now = std::chrono::steady_clock::now();
        if (tally_.cellSeconds.count() >= 2) {
            double median = tally_.cellSeconds.percentile(0.5);
            double limit = kWatchdogFactor * median;
            for (Running &r : running_) {
                double secs =
                    std::chrono::duration<double>(now - r.since)
                        .count();
                if (!r.flagged && median > 0 && secs > limit) {
                    r.flagged = true;
                    ++slow_;
                    std::fprintf(opts_.out,
                                 "%s[watchdog] cell %zu '%s' running "
                                 "%.1fs (> %.1fx median %.2fs)\n",
                                 opts_.ansi ? "\r\n" : "", r.index,
                                 r.label.c_str(), secs,
                                 kWatchdogFactor, median);
                    paintedLen_ = 0;
                    if (opts_.ansi)
                        render();
                }
            }
        }
        // Keep the in-place ETA ticking even between events.
        if (opts_.ansi && tally_.done > 0 && tally_.done < total_)
            render();
    }
}

void
ProgressReporter::finish()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (finished_)
            return;
        finished_ = true;
        stopped_ = true;
    }
    cv_.notify_all();
    if (watchdog_.joinable())
        watchdog_.join();

    std::lock_guard<std::mutex> lock(mu_);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    char d[16];
    fmtDuration(d, sizeof(d), secs);
    std::fprintf(opts_.out,
                 "%s[progress] %zu/%zu cells in %s (%zu mem hit%s, "
                 "%zu disk hit%s, %zu remote, %zu forked%s%llu slow)\n",
                 opts_.ansi ? "\r" : "", tally_.done, total_, d,
                 tally_.memHits, tally_.memHits == 1 ? "" : "s",
                 tally_.diskHits, tally_.diskHits == 1 ? "" : "s",
                 tally_.remote, tally_.forked,
                 slow_ ? ", slow cells flagged: " : ", ",
                 static_cast<unsigned long long>(slow_));
    std::fflush(opts_.out);
}

} // namespace hs
