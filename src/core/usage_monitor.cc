#include "core/usage_monitor.hh"

#include "common/log.hh"
#include "common/state_buffer.hh"

namespace hs {

UsageMonitor::UsageMonitor(int num_threads, int ewma_shift)
    : numThreads_(num_threads),
      shift_(ewma_shift),
      ewma_(static_cast<size_t>(num_threads) *
                static_cast<size_t>(numBlocks),
            FixedEwma(ewma_shift)),
      flatSum_(ewma_.size(), 0),
      flatWindows_(static_cast<size_t>(num_threads), 0)
{
    if (num_threads < 1)
        fatal("UsageMonitor needs at least one thread");
}

void
UsageMonitor::sample(const ActivityCounters &activity,
                     const std::vector<bool> &frozen)
{
    if (frozen.size() != static_cast<size_t>(numThreads_))
        fatal("UsageMonitor::sample: frozen flag count mismatch");
    if (boundTo_ != &activity) {
        // (Re)bind the window snapshot to this counter set.
        boundTo_ = &activity;
        snapshot_ = std::make_unique<ActivityCounters::Snapshot>(activity);
        snapshot_->take();
        return;
    }

    for (ThreadId t = 0; t < numThreads_; ++t) {
        if (frozen[static_cast<size_t>(t)])
            continue; // Section 3.2.2: do not compute during sedation
        ++flatWindows_[static_cast<size_t>(t)];
        for (int b = 0; b < numBlocks; ++b) {
            uint64_t delta = snapshot_->delta(t, blockFromIndex(b));
            size_t c = cell(t, blockFromIndex(b));
            ewma_[c].update(delta);
            flatSum_[c] += delta;
        }
    }
    snapshot_->take();
    ++samples_;
}

double
UsageMonitor::weightedAvg(ThreadId tid, Block b) const
{
    return ewma_[cell(tid, b)].value();
}

double
UsageMonitor::flatAvg(ThreadId tid, Block b) const
{
    uint64_t windows = flatWindows_[static_cast<size_t>(tid)];
    return windows ? static_cast<double>(flatSum_[cell(tid, b)]) /
                         static_cast<double>(windows)
                   : 0.0;
}

ThreadId
UsageMonitor::highestUsage(Block b,
                           const std::vector<bool> &eligible) const
{
    if (eligible.size() != static_cast<size_t>(numThreads_))
        fatal("UsageMonitor::highestUsage: eligibility count mismatch");
    ThreadId best = invalidThreadId;
    double best_avg = -1.0;
    for (ThreadId t = 0; t < numThreads_; ++t) {
        if (!eligible[static_cast<size_t>(t)])
            continue;
        double avg = weightedAvg(t, b);
        if (avg > best_avg) {
            best_avg = avg;
            best = t;
        }
    }
    return best;
}

void
UsageMonitor::reset()
{
    for (FixedEwma &e : ewma_)
        e.reset();
    std::fill(flatSum_.begin(), flatSum_.end(), 0);
    std::fill(flatWindows_.begin(), flatWindows_.end(), 0);
    snapshot_.reset();
    boundTo_ = nullptr;
    samples_ = 0;
}

template <class IO>
void
UsageMonitor::serialize(IO &io, const ActivityCounters &activity)
{
    io.tag(stateTag("UMON"), "UsageMonitor");
    io.echo(numThreads_, "usage-monitor thread count");
    io.echo(shift_, "usage-monitor EWMA shift");
    io.value(samples_);
    io.echo(static_cast<uint64_t>(ewma_.size()),
            "usage-monitor EWMA cell count");
    for (FixedEwma &e : ewma_) {
        int64_t raw = e.raw();
        io.value(raw);
        if constexpr (IO::kReading)
            e.setRaw(raw);
    }
    io.table(flatSum_, "usage-monitor flat-sum count");
    io.table(flatWindows_, "usage-monitor flat-window count");
    bool bound = snapshot_ != nullptr;
    io.value(bound);
    if constexpr (IO::kReading) {
        boundTo_ = bound ? &activity : nullptr;
        snapshot_ = bound ? std::make_unique<ActivityCounters::Snapshot>(
                                activity)
                          : nullptr;
    }
    if (bound)
        snapshot_->serialize(io);
}

template void UsageMonitor::serialize(StateWriter &,
                                      const ActivityCounters &);
template void UsageMonitor::serialize(StateReader &,
                                      const ActivityCounters &);

} // namespace hs
