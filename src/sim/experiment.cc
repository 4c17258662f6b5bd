#include "sim/experiment.hh"

#include <cmath>

#include "common/config.hh"
#include "common/log.hh"

namespace hs {

std::vector<std::string>
benchmarkSet()
{
    std::string which = knobText("HS_BENCH_SET");
    if (which == "quick")
        return {"gcc", "crafty", "mcf", "applu"};
    if (which == "full") {
        std::vector<std::string> names;
        for (const SpecProfile &p : specSuite())
            names.push_back(p.name);
        return names;
    }
    return paperFigureBenchmarks();
}

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opts;
    opts.timeScale = knobNumber("HS_SCALE");
    return opts;
}

SimConfig
makeSimConfig(const ExperimentOptions &opts)
{
    SimConfig cfg;
    double s = opts.timeScale;
    if (s <= 0)
        fatal("experiment: time scale must be positive");

    cfg.quantumCycles = static_cast<Cycles>(
        std::llround(500e6 / s)); // Section 4: one OS quantum
    cfg.thermal.timeScale = s;
    cfg.thermal.idealSink = opts.sink == SinkType::Ideal;
    cfg.thermal.convectionR = opts.convectionR;
    cfg.dtm = opts.sink == SinkType::Ideal ? DtmMode::None : opts.dtm;

    cfg.sedation.upperThreshold = opts.upperThreshold;
    cfg.sedation.lowerThreshold = opts.lowerThreshold;
    cfg.sedation.useUsageThreshold = opts.sedationUsageThreshold;
    // Twice the ~12.5 ms cooling time (Section 3.2.2), in cycles,
    // matched to the thermal scale.
    cfg.sedation.recheckCycles = static_cast<Cycles>(
        std::llround(2.0 * 0.0125 * cfg.energy.frequencyHz / s));
    // Keep the EWMA window matched to the (scaled) hot-spot formation
    // time: ~0.5 M cycles at paper scale (Section 4, x = 1/512),
    // shorter for scaled runs.
    cfg.sedation.ewmaShift = s >= 4.0 ? 7 : 9;

    cfg.recordTempTrace = opts.recordTempTrace;
    return cfg;
}

MaliciousParams
makeMaliciousParams(const ExperimentOptions &opts)
{
    return MaliciousParams{}.scaled(opts.timeScale);
}

} // namespace hs
