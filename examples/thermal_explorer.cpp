/**
 * @file
 * Thermal explorer: runs a workload pairing with temperature tracing
 * enabled and writes a CSV of the integer-register-file / hottest /
 * sink temperatures over the quantum — the raw material of the paper's
 * heat/cool duty-cycle discussion (Section 3.1).
 *
 * Usage: thermal_explorer [spec] [variant 0..3] [csv-path] [scale]
 * (variant 0 = run the SPEC program alone)
 */

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/config.hh"
#include "sim/episodes.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

int
main(int argc, char **argv)
{
    std::string spec = argc > 1 ? argv[1] : "gcc";
    int variant = argc > 2 ? std::atoi(argv[2]) : 2;
    std::string path = argc > 3 ? argv[3] : "thermal_trace.csv";
    double scale = argc > 4 ? std::atof(argv[4])
                            : hs::knobNumber("HS_SCALE");

    hs::ExperimentOptions opts;
    opts.timeScale = scale;
    opts.dtm = hs::DtmMode::StopAndGo;
    opts.recordTempTrace = true;

    hs::RunResult res =
        hs::executeRunSpec(variant == 0
                               ? hs::soloSpec(spec, opts)
                               : hs::withVariantSpec(spec, variant, opts));

    std::ofstream csv(path);
    if (!csv) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    csv << "cycle,intreg_K,hottest_K,sink_K\n";
    for (const hs::TempSample &s : res.tempTrace) {
        csv << s.cycle << "," << s.intRegTemp << "," << s.hottestTemp
            << "," << s.sinkTemp << "\n";
    }

    std::cout << "wrote " << res.tempTrace.size() << " samples to "
              << path << "\n";
    std::cout << "peak " << hs::blockName(res.hottestBlock) << " = "
              << res.peakTempOverall << " K, " << res.emergencies
              << " emergencies, " << res.stopAndGoTriggers
              << " stop-and-go stalls\n";

    // Episode structure of the run (paper Section 3.1).
    std::vector<hs::Episode> episodes =
        hs::extractEpisodes(res.tempTrace, 358.0, 351.0);
    hs::EpisodeStats stats = hs::summarizeEpisodes(episodes);
    if (stats.count) {
        std::cout << stats.count << " heat/cool episodes: mean heat-up "
                  << hs::TablePrinter::num(stats.meanHeatCycles / 1e3, 0)
                  << " Kcycles, mean cool-down "
                  << hs::TablePrinter::num(stats.meanCoolCycles / 1e3, 0)
                  << " Kcycles, mean duty cycle "
                  << hs::TablePrinter::num(stats.meanDutyCycle, 3)
                  << " (paper Section 3.1: ~0.088 under back-to-back "
                     "heat strokes)\n";
    } else {
        std::cout << "no completed heat/cool episodes in this trace\n";
    }
    return 0;
}
