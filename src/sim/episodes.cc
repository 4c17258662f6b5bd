#include "sim/episodes.hh"

#include "common/log.hh"
#include "common/state_buffer.hh"
#include "trace/metrics.hh"
#include "trace/tracer.hh"

namespace hs {

std::vector<Episode>
extractEpisodes(const std::vector<TempSample> &trace,
                Kelvin trigger_temp, Kelvin resume_temp)
{
    if (resume_temp >= trigger_temp)
        fatal("extractEpisodes: resume must be below trigger");

    std::vector<Episode> episodes;
    enum class Phase { Low, Rising, Cooling };
    Phase phase = Phase::Low;
    Episode current;

    for (const TempSample &s : trace) {
        Kelvin t = s.intRegTemp;
        switch (phase) {
          case Phase::Low:
            if (t > resume_temp) {
                current = Episode{};
                current.riseStart = s.cycle;
                phase = Phase::Rising;
            }
            break;
          case Phase::Rising:
            if (t >= trigger_temp) {
                current.peakAt = s.cycle;
                phase = Phase::Cooling;
            } else if (t <= resume_temp) {
                phase = Phase::Low; // aborted rise: not an episode
            }
            break;
          case Phase::Cooling:
            if (t <= resume_temp) {
                current.fallEnd = s.cycle;
                episodes.push_back(current);
                phase = Phase::Low;
            }
            break;
        }
    }
    return episodes;
}

EpisodeStats
summarizeEpisodes(const std::vector<Episode> &episodes)
{
    EpisodeStats stats;
    stats.count = episodes.size();
    if (episodes.empty())
        return stats;
    double heat = 0, cool = 0, duty = 0;
    for (const Episode &e : episodes) {
        heat += static_cast<double>(e.heatCycles());
        cool += static_cast<double>(e.coolCycles());
        duty += e.dutyCycle();
    }
    stats.meanHeatCycles = heat / static_cast<double>(stats.count);
    stats.meanCoolCycles = cool / static_cast<double>(stats.count);
    stats.meanDutyCycle = duty / static_cast<double>(stats.count);
    return stats;
}

OnlineEpisodeDetector::OnlineEpisodeDetector(Kelvin trigger_temp,
                                             Kelvin resume_temp,
                                             Tracer *tracer)
    : trigger_(trigger_temp), resume_(resume_temp), tracer_(tracer)
{
    if (resume_temp >= trigger_temp)
        fatal("OnlineEpisodeDetector: resume must be below trigger");
}

void
OnlineEpisodeDetector::sample(Cycles cycle, Kelvin t)
{
    switch (phase_) {
      case Phase::Low:
        if (t > resume_) {
            current_ = Episode{};
            current_.riseStart = cycle;
            phase_ = Phase::Rising;
            if (tracer_)
                tracer_->emit(cycle, TraceKind::EpisodeRiseStart, -1,
                              traceNoBlock, t);
        }
        break;
      case Phase::Rising:
        if (t >= trigger_) {
            current_.peakAt = cycle;
            phase_ = Phase::Cooling;
            if (tracer_)
                tracer_->emit(cycle, TraceKind::EpisodePeak, -1,
                              traceNoBlock, t,
                              current_.heatCycles());
        } else if (t <= resume_) {
            phase_ = Phase::Low; // aborted rise: not an episode
        }
        break;
      case Phase::Cooling:
        if (t <= resume_) {
            current_.fallEnd = cycle;
            ++completed_;
            if (heatSink_)
                heatSink_->observe(
                    static_cast<double>(current_.heatCycles()));
            if (coolSink_)
                coolSink_->observe(
                    static_cast<double>(current_.coolCycles()));
            if (tracer_)
                tracer_->emit(cycle, TraceKind::EpisodeEnd, -1,
                              traceNoBlock, current_.dutyCycle(),
                              current_.heatCycles());
            phase_ = Phase::Low;
        }
        break;
    }
}

template <class IO>
void
OnlineEpisodeDetector::serialize(IO &io)
{
    io.tag(stateTag("EPIS"), "OnlineEpisodeDetector state");
    io.enumerated(phase_, Phase::Cooling, "episode phase");
    if constexpr (IO::kReading)
        current_ = Episode{};
    io.value(current_.riseStart);
    io.value(current_.peakAt);
    io.value(completed_);
}

template void OnlineEpisodeDetector::serialize(StateWriter &);
template void OnlineEpisodeDetector::serialize(StateReader &);

} // namespace hs
