/**
 * @file
 * Live run-health display for ParallelRunner matrices.
 *
 * ProgressReporter paints a single-line status from the runner's
 * CellTally, which every CellEvent carries (completed/total, cache
 * accounting split by tier — in-memory hits, persistent disk-store
 * hits, cells completed by remote workers — prefix forks, an ETA from
 * the tally's cell-seconds histogram). It keeps no counts of its own:
 * only the list of running cells its watchdog needs, which flags cells
 * running longer than kWatchdogFactor times the median cell time.
 * Everything here observes host wall-clock only — it never touches the
 * simulated path, so enabling it cannot perturb results.
 *
 * Output degrades by stream kind: when the output is a TTY the status
 * is redrawn in place with carriage returns; otherwise plain periodic
 * lines are printed (no ANSI, no \r), so logs stay readable under CI
 * and redirection.
 */

#ifndef HS_SIM_PROGRESS_HH
#define HS_SIM_PROGRESS_HH

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/runner.hh"

namespace hs {

/** The watchdog flags cells running longer than this multiple of the
 *  median simulated-cell time. */
constexpr double kWatchdogFactor = 4.0;

/** How a ProgressReporter paints. */
struct ProgressOptions
{
    /** Redraw one line in place (TTY); false = plain periodic lines. */
    bool ansi = false;
    /** Plain mode: minimum seconds between status lines. */
    double minPlainInterval = 1.0;
    /** Destination stream (stderr keeps stdout machine-readable). */
    std::FILE *out = stderr;
};

/** Paints matrix progress from CellEvents; thread-safe. */
class ProgressReporter
{
  public:
    /** @param jobs worker count, used only for the ETA estimate. */
    ProgressReporter(size_t total, int jobs, ProgressOptions opts);
    ~ProgressReporter();

    /** Feed one lifecycle event (wire via setCellObserver); paints
     *  from @c ev.tally. */
    void onEvent(const CellEvent &ev);

    /** Stop the watchdog and print the final summary (idempotent). */
    void finish();

    /** Cells the watchdog flagged as slow (tests). */
    uint64_t slowCells() const;

  private:
    struct Running
    {
        size_t index = 0;
        std::string label;
        std::chrono::steady_clock::time_point since;
        bool flagged = false;
    };

    void render();       ///< caller holds mu_
    void statusLine(char *buf, size_t n) const; ///< caller holds mu_
    void watchdogLoop();

    const size_t total_;
    const int jobs_;
    const ProgressOptions opts_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stopped_ = false;
    bool finished_ = false;
    CellTally tally_; ///< the runner's tally as of the latest event
    uint64_t slow_ = 0;
    std::vector<Running> running_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastPaint_;
    size_t paintedLen_ = 0; ///< ANSI: width to blank on redraw
    std::thread watchdog_;
};

/** @return true when @p stream is attached to a terminal. */
bool streamIsTty(std::FILE *stream);

} // namespace hs

#endif // HS_SIM_PROGRESS_HH
