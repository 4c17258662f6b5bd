/**
 * @file
 * Canned experiment configurations for reproducing the paper's
 * evaluation (Section 5), shared by the bench harnesses, examples and
 * integration tests.
 *
 * Experiments are time-scaled by default (scale S: thermal
 * capacitances / S, quantum / S, malicious phase lengths / S) so the
 * full harness runs in minutes while preserving the number and shape
 * of heat/cool episodes per quantum. Set the HS_SCALE environment
 * variable to 1 for paper-scale runs (500 M cycles per quantum).
 */

#ifndef HS_SIM_EXPERIMENT_HH
#define HS_SIM_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/malicious.hh"

namespace hs {

/** Heat-sink configuration of a run (Section 5.3). */
enum class SinkType {
    Ideal,     ///< infinite heat removal; DTM never engages
    Realistic  ///< Table 1 packaging (0.8 K/W convection)
};

/** Options describing one experiment run. */
struct ExperimentOptions
{
    double timeScale = 50.0; ///< see file comment; 1.0 = paper scale
    SinkType sink = SinkType::Realistic;
    DtmMode dtm = DtmMode::StopAndGo;
    double convectionR = 0.8;   ///< K/W (Section 5.5 sweeps this)
    Kelvin upperThreshold = 356.0; ///< sedation (Section 5.6 sweeps)
    Kelvin lowerThreshold = 355.0;
    bool sedationUsageThreshold = false; ///< ablation (Section 3.2.1)
    bool recordTempTrace = false;

    /** @return options with the HS_SCALE env override applied. */
    static ExperimentOptions fromEnv();

    bool operator==(const ExperimentOptions &) const = default;
};

/**
 * Benchmark subset selected by the HS_BENCH_SET environment variable:
 * "quick" (4 benchmarks), "paper" (the 10 shown in the paper's
 * figures; the default), or "full" (all 18 profiles).
 */
std::vector<std::string> benchmarkSet();

/** Build the full SimConfig for @p opts. */
SimConfig makeSimConfig(const ExperimentOptions &opts);

/** Malicious kernel parameters matched to the option's time scale. */
MaliciousParams makeMaliciousParams(const ExperimentOptions &opts);

} // namespace hs

#endif // HS_SIM_EXPERIMENT_HH
