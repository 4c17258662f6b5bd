#include "core/sedation.hh"

#include "common/log.hh"
#include "trace/tracer.hh"

namespace hs {

SelectiveSedation::SelectiveSedation(int num_threads,
                                     const SedationParams &params,
                                     Cycles monitor_interval)
    : numThreads_(num_threads),
      params_(params),
      monitor_(num_threads, params.ewmaShift),
      sedationRefs_(static_cast<size_t>(num_threads), 0)
{
    (void)monitor_interval;
    if (params.lowerThreshold >= params.upperThreshold)
        fatal("sedation: lower threshold must be below upper threshold");
    if (params.recheckCycles == 0)
        fatal("sedation: recheck interval must be positive");
}

bool
SelectiveSedation::isSedated(ThreadId tid) const
{
    return sedationRefs_[static_cast<size_t>(tid)] > 0;
}

void
SelectiveSedation::atMonitorSample(Cycles now,
                                   const ActivityCounters &activity)
{
    std::vector<bool> frozen(static_cast<size_t>(numThreads_));
    for (ThreadId t = 0; t < numThreads_; ++t)
        frozen[static_cast<size_t>(t)] = isSedated(t);
    monitor_.sample(activity, frozen);
    if (tracer_) {
        // One sample per thread at the register file, the block the
        // paper's usage monitor is calibrated against (Section 4).
        for (ThreadId t = 0; t < numThreads_; ++t)
            tracer_->emit(now, TraceKind::MonitorSample, t,
                          traceBlock(Block::IntReg),
                          monitor_.weightedAvg(t, Block::IntReg),
                          monitor_.samplesTaken());
    }
}

bool
SelectiveSedation::usageTriggered(Block b, double threshold,
                                  const DtmControl &control) const
{
    for (ThreadId tid = 0; tid < numThreads_; ++tid) {
        if (control.threadActive(tid) && !isSedated(tid) &&
            monitor_.weightedAvg(tid, b) >= threshold)
            return true;
    }
    return false;
}

int
SelectiveSedation::unsedatedActiveThreads(const DtmControl &control) const
{
    int count = 0;
    for (ThreadId t = 0; t < numThreads_; ++t) {
        if (control.threadActive(t) && !isSedated(t))
            ++count;
    }
    return count;
}

void
SelectiveSedation::sedate(Cycles now, Block b, ThreadId tid,
                          DtmControl &control)
{
    if (tracer_)
        tracer_->emit(now, TraceKind::ThreadSedated, tid, traceBlock(b),
                      monitor_.weightedAvg(tid, b),
                      sedationRefs_[static_cast<size_t>(tid)] + 1);
    if (++sedationRefs_[static_cast<size_t>(tid)] == 1) {
        if (params_.throttleFactor > 1)
            control.throttleThread(tid, params_.throttleFactor);
        else
            control.sedateThread(tid, true);
    }
    SedationEvent event{.cycle = now,
                        .resource = b,
                        .thread = tid,
                        .weightedAvg = monitor_.weightedAvg(tid, b)};
    events_.push_back(event);
    if (osReport_)
        osReport_(event);
    state_[static_cast<size_t>(blockIndex(b))].sedatedThreads
        .push_back(tid);
}

void
SelectiveSedation::releaseAll(Cycles now, Block b, DtmControl &control)
{
    ResourceState &st = state_[static_cast<size_t>(blockIndex(b))];
    for (ThreadId tid : st.sedatedThreads) {
        if (tracer_)
            tracer_->emit(now, TraceKind::ThreadReleased, tid,
                          traceBlock(b), 0.0,
                          sedationRefs_[static_cast<size_t>(tid)]);
        if (--sedationRefs_[static_cast<size_t>(tid)] == 0) {
            if (params_.throttleFactor > 1)
                control.throttleThread(tid, 1);
            else
                control.sedateThread(tid, false);
        }
    }
    st.sedatedThreads.clear();
    st.engaged = false;
}

bool
SelectiveSedation::sedateCulpritIfPossible(Cycles now, Block b,
                                           DtmControl &control)
{
    // The last un-sedated thread is left alone: it cannot degrade any
    // other thread and the stop-and-go safety net guards the chip
    // (Section 3.2.2).
    if (unsedatedActiveThreads(control) <= 1)
        return false;
    std::vector<bool> eligible(static_cast<size_t>(numThreads_));
    for (ThreadId t = 0; t < numThreads_; ++t)
        eligible[static_cast<size_t>(t)] =
            control.threadActive(t) && !isSedated(t);
    ThreadId culprit = monitor_.highestUsage(b, eligible);
    if (culprit == invalidThreadId)
        return false;
    sedate(now, b, culprit, control);
    return true;
}

void
SelectiveSedation::atSensorSample(Cycles now,
                                  const std::vector<Kelvin> &temps,
                                  DtmControl &control)
{
    for (int bi = 0; bi < numBlocks; ++bi) {
        Block b = blockFromIndex(bi);
        ResourceState &st = state_[static_cast<size_t>(bi)];
        Kelvin t = temps[static_cast<size_t>(bi)];

        if (!st.engaged) {
            bool trigger;
            if (params_.useUsageThreshold) {
                // Ablation: absolute usage threshold (Section 3.2.1
                // explains why this false-positives on bursty SPEC
                // behaviour). The trigger is not thermal, so latched
                // crossing traces do not apply.
                trigger = usageTriggered(b, params_.usageThreshold,
                                         control);
            } else {
                trigger = t >= params_.upperThreshold;
                if (trigger && !st.aboveUpper) {
                    st.aboveUpper = true;
                    if (tracer_)
                        tracer_->emit(now, TraceKind::SedUpperCross, -1,
                                      traceBlock(b), t);
                } else if (st.aboveUpper &&
                           t <= params_.lowerThreshold) {
                    st.aboveUpper = false;
                }
            }
            if (trigger && sedateCulpritIfPossible(now, b, control)) {
                st.engaged = true;
                st.recheckAt = now + params_.recheckCycles;
            }
        } else {
            if (t <= params_.lowerThreshold) {
                // Cooled: restore every thread sedated for this
                // resource.
                st.aboveUpper = false;
                if (tracer_)
                    tracer_->emit(now, TraceKind::SedLowerCross, -1,
                                  traceBlock(b), t,
                                  st.sedatedThreads.size());
                releaseAll(now, b, control);
            } else if (now >= st.recheckAt) {
                // Still hot after twice the cooling time: another
                // thread must also have a power-density problem.
                if (tracer_)
                    tracer_->emit(now, TraceKind::SedRecheck, -1,
                                  traceBlock(b), t,
                                  st.sedatedThreads.size());
                sedateCulpritIfPossible(now, b, control);
                st.recheckAt = now + params_.recheckCycles;
            }
        }
    }
}

} // namespace hs
