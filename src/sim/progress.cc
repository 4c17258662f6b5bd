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
    char eta[32] = "";
    if (done_ > memHits_ + diskHits_ && done_ < total_) {
        double median = cellSeconds_.percentile(0.5);
        double left = static_cast<double>(total_ - done_) * median /
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
                  done_, total_, running_.size(), memHits_,
                  memHits_ == 1 ? "" : "s", diskHits_,
                  diskHits_ == 1 ? "" : "s", remote_, forked_, eta);
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
    auto now = std::chrono::steady_clock::now();
    switch (ev.kind) {
      case CellEvent::Kind::Queued:
        return; // nothing to paint: total_ was given up front
      case CellEvent::Kind::Started:
        running_.push_back(
            {ev.index, ev.label ? ev.label : "", now, false});
        break;
      case CellEvent::Kind::PrefixForked:
        ++forked_;
        break;
      case CellEvent::Kind::CacheHit:
      case CellEvent::Kind::DiskHit:
      case CellEvent::Kind::Finished:
      case CellEvent::Kind::RemoteFinished: {
        auto it = std::find_if(running_.begin(), running_.end(),
                               [&](const Running &r) {
                                   return r.index == ev.index;
                               });
        if (it != running_.end())
            running_.erase(it);
        ++done_;
        if (ev.kind == CellEvent::Kind::CacheHit) {
            ++memHits_;
        } else if (ev.kind == CellEvent::Kind::DiskHit) {
            ++diskHits_;
        } else {
            if (ev.kind == CellEvent::Kind::RemoteFinished)
                ++remote_;
            cellSeconds_.observe(ev.hostSeconds);
        }
        break;
      }
    }
    // ANSI redraws on every event (cheap, in place). Plain mode rations
    // itself to one line per interval, plus the last cell.
    double since_paint =
        std::chrono::duration<double>(now - lastPaint_).count();
    if (opts_.ansi || done_ == total_ ||
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
        if (opts_.watchdogFactor > 0 && cellSeconds_.count() >= 2) {
            double median = cellSeconds_.percentile(0.5);
            double limit = opts_.watchdogFactor * median;
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
                                 opts_.watchdogFactor, median);
                    paintedLen_ = 0;
                    if (opts_.ansi)
                        render();
                }
            }
        }
        // Keep the in-place ETA ticking even between events.
        if (opts_.ansi && done_ > 0 && done_ < total_)
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
                 opts_.ansi ? "\r" : "", done_, total_, d, memHits_,
                 memHits_ == 1 ? "" : "s", diskHits_,
                 diskHits_ == 1 ? "" : "s", remote_, forked_,
                 slow_ ? ", slow cells flagged: " : ", ",
                 static_cast<unsigned long long>(slow_));
    std::fflush(opts_.out);
}

} // namespace hs
