/**
 * @file
 * Quickstart: declare a small experiment matrix — two SPEC-like
 * workloads sharing the 2-way SMT, with and without an attacker — and
 * run it through the parallel experiment engine.
 *
 * Usage: quickstart [specA] [specB] [scale]
 */

#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/config.hh"
#include "sim/runner.hh"

int
main(int argc, char **argv)
{
    std::string a = argc > 1 ? argv[1] : "gcc";
    std::string b = argc > 2 ? argv[2] : "mesa";
    double scale = argc > 3 ? std::atof(argv[3])
                            : hs::knobNumber("HS_SCALE");

    hs::ExperimentOptions opts;
    opts.timeScale = scale;
    opts.dtm = hs::DtmMode::StopAndGo;

    std::cout << "heatstroke quickstart: " << a << " + " << b
              << " on a 2-way SMT (time scale 1/" << scale << ")\n";

    // Declare the matrix: the pair alone, then the victim co-scheduled
    // with malicious variant 2. The engine (HS_JOBS workers) returns
    // results in submission order, bit-identical to a serial loop.
    std::vector<hs::RunSpec> specs = {
        hs::specPairSpec(a, b, opts),
        hs::withVariantSpec(a, 2, opts),
    };
    std::vector<hs::RunResult> results = hs::runMatrix(specs);

    for (size_t i = 0; i < specs.size(); ++i) {
        const hs::RunResult &res = results[i];
        std::cout << "\n--- " << specs[i].label << " ---\n";
        std::cout << "cycles simulated : " << res.cycles << "\n";
        std::cout << "avg chip power   : " << res.avgTotalPowerW
                  << " W\n";
        std::cout << "peak temperature : " << res.peakTempOverall
                  << " K (" << hs::blockName(res.hottestBlock) << ")\n";
        std::cout << "emergencies      : " << res.emergencies << "\n\n";

        hs::TablePrinter table(std::cout);
        table.header({"thread", "program", "IPC", "IntReg acc/cyc",
                      "normal%", "cooling%"});
        for (size_t t = 0; t < res.threads.size(); ++t) {
            const hs::ThreadResult &tr = res.threads[t];
            table.row(
                {std::to_string(t), tr.program,
                 hs::TablePrinter::num(tr.ipc),
                 hs::TablePrinter::num(tr.intRegAccessRate),
                 hs::TablePrinter::num(res.normalFraction(t) * 100, 1),
                 hs::TablePrinter::num(res.coolingFraction(t) * 100,
                                       1)});
        }
    }
    return 0;
}
