/**
 * @file
 * Demonstrates selective sedation (Section 3.2) defeating heat stroke:
 * the same victim/attacker pairing as heat_stroke_attack, but the
 * sedation policy identifies the culprit thread from its weighted-
 * average register-file access rate, stops fetching from it while the
 * hot spot cools, and reports the offender to the OS.
 *
 * Usage: sedation_defense [spec] [variant] [scale]
 */

#include <cstdlib>
#include <iostream>

#include "common/config.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

int
main(int argc, char **argv)
{
    std::string spec = argc > 1 ? argv[1] : "gcc";
    int variant = argc > 2 ? std::atoi(argv[2]) : 2;
    double scale = argc > 3 ? std::atof(argv[3])
                            : hs::knobNumber("HS_SCALE");

    hs::ExperimentOptions opts;
    opts.timeScale = scale;

    opts.dtm = hs::DtmMode::StopAndGo;
    hs::RunResult solo = hs::executeRunSpec(hs::soloSpec(spec, opts));
    hs::RunResult attacked =
        hs::executeRunSpec(hs::withVariantSpec(spec, variant, opts));

    // Sedated run, with a live OS report: construct the simulator
    // directly so we can hook the callback.
    opts.dtm = hs::DtmMode::SelectiveSedation;
    hs::Simulator sim(hs::makeSimConfig(opts));
    sim.setWorkload(0, hs::synthesizeSpec(spec));
    sim.setWorkload(1,
                    hs::makeVariant(variant,
                                    hs::makeMaliciousParams(opts)));
    int reports = 0;
    sim.setOsReport(
        [&](const hs::SedationEvent &e) {
            if (reports++ < 5) {
                std::cout << "[OS report] cycle " << e.cycle
                          << ": thread " << e.thread << " sedated for "
                          << hs::blockName(e.resource)
                          << " (weighted avg "
                          << hs::TablePrinter::num(e.weightedAvg, 1)
                          << " accesses/window)\n";
            }
        });
    hs::RunResult defended = sim.run();
    if (reports > 5)
        std::cout << "[OS report] ... " << (reports - 5) << " more\n";
    std::cout << "\n";

    hs::TablePrinter table(std::cout);
    table.header({"configuration", spec + " IPC", "emergencies",
                  "victim stalled %"});
    table.row({"solo (realistic sink)",
               hs::TablePrinter::num(solo.threads[0].ipc),
               std::to_string(solo.emergencies),
               hs::TablePrinter::num(solo.coolingFraction(0) * 100, 1)});
    table.row({"+variant" + std::to_string(variant) + ", stop-and-go",
               hs::TablePrinter::num(attacked.threads[0].ipc),
               std::to_string(attacked.emergencies),
               hs::TablePrinter::num(attacked.coolingFraction(0) * 100,
                                     1)});
    table.row({"+variant" + std::to_string(variant) +
                   ", selective sedation",
               hs::TablePrinter::num(defended.threads[0].ipc),
               std::to_string(defended.emergencies),
               hs::TablePrinter::num(
                   (defended.coolingFraction(0) +
                    defended.sedationFraction(0)) * 100, 1)});

    std::cout << "\nattacker (thread 1) spent "
              << hs::TablePrinter::num(defended.sedationFraction(1) *
                                           100, 1)
              << "% of the quantum sedated; " << defended.sedationEvents
                     .size()
              << " sedation action(s) were reported to the OS\n";
    return 0;
}
