/**
 * @file
 * Heat/cool episode analysis over temperature traces.
 *
 * Section 3.1 of the paper characterises heat stroke by its episode
 * structure: the hot spot heats from normal operation to the emergency
 * threshold, the pipeline stalls, the resource cools, and the cycle
 * repeats. This module extracts those episodes from a recorded
 * TempSample trace so examples, benches and tests can measure heat-up
 * times, cool-down times and duty cycles of *actual runs* rather than
 * idealised thermal-model step responses.
 */

#ifndef HS_SIM_EPISODES_HH
#define HS_SIM_EPISODES_HH

#include <vector>

#include "sim/results.hh"

namespace hs {

/** One heating-cooling episode of the traced hot spot. */
struct Episode
{
    Cycles riseStart = 0;  ///< trace point where the rise began
    Cycles peakAt = 0;     ///< crossing of the trigger temperature
    Cycles fallEnd = 0;    ///< recovery below the resume temperature

    Cycles heatCycles() const { return peakAt - riseStart; }
    Cycles coolCycles() const { return fallEnd - peakAt; }
    /** Active fraction of this episode (the paper's duty cycle). */
    double
    dutyCycle() const
    {
        Cycles total = fallEnd - riseStart;
        return total ? static_cast<double>(heatCycles()) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Aggregate episode statistics. */
struct EpisodeStats
{
    size_t count = 0;
    double meanHeatCycles = 0;
    double meanCoolCycles = 0;
    double meanDutyCycle = 0;
};

/**
 * Extract completed heat/cool episodes from a trace.
 *
 * An episode starts when the traced hot-spot temperature last crossed
 * @p resume_temp on its way up, peaks when it reaches @p trigger_temp,
 * and ends when it falls back below @p resume_temp. Episodes that
 * never reach the trigger, or are still open at the end of the trace,
 * are discarded.
 */
std::vector<Episode> extractEpisodes(const std::vector<TempSample> &trace,
                                     Kelvin trigger_temp,
                                     Kelvin resume_temp);

/** Aggregate a set of episodes. */
EpisodeStats summarizeEpisodes(const std::vector<Episode> &episodes);

class Histogram;
class Tracer;

/**
 * Online version of extractEpisodes(): fed one hot-spot sample at a
 * time by the simulator, it emits EpisodeRiseStart / EpisodePeak /
 * EpisodeEnd trace events as the phase machine advances. The phase
 * machine is byte-for-byte the same as the offline extractor, so the
 * event stream matches what extractEpisodes() would report on the same
 * samples.
 */
class OnlineEpisodeDetector
{
  public:
    OnlineEpisodeDetector(Kelvin trigger_temp, Kelvin resume_temp,
                          Tracer *tracer);

    /** Observe the hot-spot temperature at @p cycle. */
    void sample(Cycles cycle, Kelvin t);

    /**
     * Route every completed episode's heating / cooling durations (in
     * cycles) into @p heat / @p cool. The sinks are owned by the
     * caller and are not serialised — the owner reattaches them after
     * a restore. Either may be null.
     */
    void
    setDurationSinks(Histogram *heat, Histogram *cool)
    {
        heatSink_ = heat;
        coolSink_ = cool;
    }

    /** Completed episodes observed so far. */
    uint64_t completed() const { return completed_; }

    /** Snapshot state: the phase machine and its counters. */
    template <class IO> void serialize(IO &io);

  private:
    enum class Phase : uint8_t { Low = 0, Rising = 1, Cooling = 2 };

    Kelvin trigger_;
    Kelvin resume_;
    Tracer *tracer_;
    Histogram *heatSink_ = nullptr;
    Histogram *coolSink_ = nullptr;
    Phase phase_ = Phase::Low;
    Episode current_{};
    uint64_t completed_ = 0;
};

} // namespace hs

#endif // HS_SIM_EPISODES_HH
