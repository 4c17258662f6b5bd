#include "power/activity.hh"

#include "common/log.hh"
#include "common/state_buffer.hh"

namespace hs {

ActivityCounters::ActivityCounters(int num_threads)
    : numThreads_(num_threads),
      counts_(static_cast<size_t>(num_threads))
{
    if (num_threads < 1)
        fatal("ActivityCounters needs at least one thread");
    reset();
}

uint64_t
ActivityCounters::totalCount(Block b) const
{
    uint64_t total = 0;
    for (const auto &row : counts_)
        total += row[static_cast<size_t>(blockIndex(b))];
    return total;
}

void
ActivityCounters::reset()
{
    for (auto &row : counts_)
        row.fill(0);
}

template <class IO>
void
ActivityCounters::serialize(IO &io)
{
    io.tag(stateTag("ACTV"), "ActivityCounters");
    io.echo(numThreads_, "activity-counter thread count");
    io.table(counts_, "activity-counter row count");
}

template void ActivityCounters::serialize(StateWriter &);
template void ActivityCounters::serialize(StateReader &);

ActivityCounters::Snapshot::Snapshot(const ActivityCounters &owner)
    : owner_(owner), last_(owner.counts_.size())
{
    for (auto &row : last_)
        row.fill(0);
}

uint64_t
ActivityCounters::Snapshot::delta(ThreadId tid, Block b) const
{
    size_t t = static_cast<size_t>(tid);
    size_t i = static_cast<size_t>(blockIndex(b));
    return owner_.counts_[t][i] - last_[t][i];
}

void
ActivityCounters::Snapshot::take()
{
    last_ = owner_.counts_;
}

template <class IO>
void
ActivityCounters::Snapshot::serialize(IO &io)
{
    io.table(last_, "activity baseline row count");
}

template void ActivityCounters::Snapshot::serialize(StateWriter &);
template void ActivityCounters::Snapshot::serialize(StateReader &);

} // namespace hs
