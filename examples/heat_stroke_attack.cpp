/**
 * @file
 * Demonstrates the heat-stroke attack (Section 3.1): a SPEC victim
 * shares the SMT with malicious variant 2 under conventional
 * stop-and-go DTM, and its performance collapses. The same pairing on
 * an ideal heat sink shows the attack is thermal, not a fetch-policy
 * artefact.
 *
 * Usage: heat_stroke_attack [spec] [variant] [scale]
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

    std::cout << "The malicious kernel (paper Figure "
              << (variant == 1 ? 1 : 2) << " style):\n"
              << "----------------------------------------\n";
    hs::MaliciousParams mp = hs::makeMaliciousParams(opts);
    mp.unroll = 4; // shorten the listing for display
    std::cout << (variant == 1 ? hs::variant1Asm(mp)
                               : hs::variant2Asm(mp))
              << "----------------------------------------\n\n";

    opts.sink = hs::SinkType::Realistic;
    opts.dtm = hs::DtmMode::StopAndGo;
    hs::RunResult solo = hs::executeRunSpec(hs::soloSpec(spec, opts));

    hs::RunResult attacked =
        hs::executeRunSpec(hs::withVariantSpec(spec, variant, opts));

    opts.sink = hs::SinkType::Ideal;
    hs::RunResult ideal =
        hs::executeRunSpec(hs::withVariantSpec(spec, variant, opts));

    double solo_ipc = solo.threads[0].ipc;
    double atk_ipc = attacked.threads[0].ipc;
    double ideal_ipc = ideal.threads[0].ipc;

    hs::TablePrinter table(std::cout);
    table.header({"configuration", spec + " IPC", "emergencies",
                  "cooling-stall %"});
    table.row({"solo, realistic sink", hs::TablePrinter::num(solo_ipc),
               std::to_string(solo.emergencies),
               hs::TablePrinter::num(solo.coolingFraction(0) * 100, 1)});
    table.row({"+variant" + std::to_string(variant) + ", ideal sink",
               hs::TablePrinter::num(ideal_ipc),
               std::to_string(ideal.emergencies),
               hs::TablePrinter::num(ideal.coolingFraction(0) * 100, 1)});
    table.row({"+variant" + std::to_string(variant) +
                   ", realistic sink (stop-and-go)",
               hs::TablePrinter::num(atk_ipc),
               std::to_string(attacked.emergencies),
               hs::TablePrinter::num(attacked.coolingFraction(0) * 100,
                                     1)});

    if (solo_ipc > 0) {
        std::cout << "\nheat-stroke degradation: "
                  << hs::TablePrinter::num(
                         (1.0 - atk_ipc / solo_ipc) * 100.0, 1)
                  << "% IPC loss vs solo (ideal-sink run shows "
                  << hs::TablePrinter::num(
                         (1.0 - ideal_ipc / solo_ipc) * 100.0, 1)
                  << "%, so the damage is thermal)\n";
    }
    return 0;
}
