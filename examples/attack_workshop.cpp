/**
 * @file
 * Attack workshop: assemble your own kernel (the paper's Figure 1/2
 * syntax) and test it against a SPEC victim under selective sedation.
 *
 * Usage: attack_workshop [asm-file] [victim] [scale]
 * With no asm-file, a built-in Figure 1 listing is used.
 *
 * Reports the victim's degradation under stop-and-go, whether the
 * sedation monitor identified your kernel as the culprit, and how much
 * of the quantum it spent sedated.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/config.hh"
#include "isa/assembler.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace {

const char *defaultAttack = R"(# Figure 1: the basic register-file hammer
L$1:
    addl $10, $24, $25
    addl $11, $24, $25
    addl $12, $24, $25
    addl $13, $24, $25
    addl $14, $24, $25
    addl $15, $24, $25
    addl $16, $24, $25
    addl $17, $24, $25
    br L$1
)";

} // namespace

int
main(int argc, char **argv)
{
    std::string source = defaultAttack;
    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::cerr << "cannot open " << argv[1] << "\n";
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        source = buf.str();
    }
    std::string victim = argc > 2 ? argv[2] : "gcc";
    double scale = argc > 3 ? std::atof(argv[3])
                            : hs::knobNumber("HS_SCALE");

    hs::Program attack;
    try {
        attack = hs::assemble(source, "custom-attack");
    } catch (const hs::AsmError &e) {
        std::cerr << "assembly failed: " << e.what() << "\n";
        return 1;
    }
    attack.setInitReg(24, 7);
    attack.setInitReg(25, 13);
    std::cout << "assembled " << attack.size()
              << " instructions:\n----\n" << source << "----\n\n";

    hs::ExperimentOptions opts;
    opts.timeScale = scale;
    opts.dtm = hs::DtmMode::StopAndGo;

    hs::RunResult solo = hs::executeRunSpec(hs::soloSpec(victim, opts));

    auto run_pair = [&](hs::DtmMode dtm) {
        opts.dtm = dtm;
        hs::Simulator sim(hs::makeSimConfig(opts));
        sim.setWorkload(0, hs::synthesizeSpec(victim));
        sim.setWorkload(1, attack);
        return sim.run();
    };
    hs::RunResult attacked = run_pair(hs::DtmMode::StopAndGo);
    hs::RunResult defended = run_pair(hs::DtmMode::SelectiveSedation);

    double solo_ipc = solo.threads[0].ipc;
    std::cout << victim << " solo IPC              : "
              << hs::TablePrinter::num(solo_ipc) << "\n";
    std::cout << "under attack (stop-and-go) : "
              << hs::TablePrinter::num(attacked.threads[0].ipc) << " ("
              << hs::TablePrinter::num(
                     (1 - attacked.threads[0].ipc / solo_ipc) * 100, 1)
              << "% loss, " << attacked.emergencies
              << " emergencies)\n";
    std::cout << "under selective sedation   : "
              << hs::TablePrinter::num(defended.threads[0].ipc) << " ("
              << defended.emergencies << " emergencies)\n\n";

    bool caught = false;
    for (const hs::SedationEvent &e : defended.sedationEvents)
        caught = caught || e.thread == 1;
    if (caught) {
        std::cout << "verdict: your kernel was identified and sedated ("
                  << hs::TablePrinter::num(
                         defended.sedationFraction(1) * 100, 1)
                  << "% of the quantum).\n";
    } else if (attacked.emergencies == 0) {
        std::cout << "verdict: your kernel never formed a hot spot — "
                     "no heat stroke, nothing to sedate.\n";
    } else {
        std::cout << "verdict: your kernel heated the chip but evaded "
                     "sedation — the safety net handled it ("
                  << defended.stopAndGoTriggers
                  << " global stalls).\n";
    }
    return 0;
}
