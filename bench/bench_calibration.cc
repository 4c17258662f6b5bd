/**
 * @file
 * Calibration bench: Table 1 parameters and the Section 3.1 thermal
 * numbers — hot-spot formation time, cool-down time, and the resulting
 * stop-and-go duty cycle under back-to-back heat strokes.
 *
 * The paper reports ~1.2 ms to heat the register file to emergency,
 * ~12.5 ms to cool, and a duty cycle of 1.2/(1.2+12) ~= 0.088. That
 * is a first episode, heating from the normal operating temperature;
 * back-to-back episodes heat from the stop-and-go resume point, so the
 * bench also repeats the cycle in the same model and prints both.
 * These are pure thermal-model measurements at paper scale (no
 * pipeline), so this bench is fast regardless of HS_SCALE and needs no
 * simulation matrix.
 */

#include <cstdio>

#include "core/stop_and_go.hh"
#include "power/energy_model.hh"
#include "sim/experiment.hh"
#include "thermal/thermal_model.hh"

namespace {

using namespace hs;

/** Attack-phase activity: nominal mix with the register file hammered
 *  (variant 1/2 hammer rate measured on the pipeline: ~16/cycle). */
std::array<double, numBlocks>
attackRates()
{
    auto rates = SimConfig::defaultNominalRates();
    rates[static_cast<size_t>(blockIndex(Block::IntReg))] = 16.5;
    rates[static_cast<size_t>(blockIndex(Block::IntQ))] = 16.0;
    return rates;
}

/** One heat-to-emergency plus cool-to-resume cycle. */
struct Cycle
{
    double heatUpMs = 0;
    double coolDownMs = 0;
    double dutyCycle = 0;
};

struct CalibResult
{
    Cycle first;    ///< heating from the normal operating temperature
    Cycle repeated; ///< heating again from the resume point
    Kelvin normalTemp = 0;
    Kelvin attackSteady = 0;
};

/** Hammer until the stop-and-go trigger, then stall until the resume
 *  temperature, from wherever @p tm stands. */
Cycle
heatAndCool(ThermalModel &tm, const std::vector<Watts> &attack,
            const std::vector<Watts> &idle, const StopAndGoParams &sg)
{
    const double dt = 5e-6; // the 20 K-cycle sensor interval at 4 GHz
    double heat = 0;
    while (tm.blockTemp(Block::IntReg) < sg.triggerTemp && heat < 0.5) {
        tm.step(attack, dt);
        heat += dt;
    }
    double cool = 0;
    while (tm.blockTemp(Block::IntReg) > sg.resumeTemp && cool < 1.0) {
        tm.step(idle, dt);
        cool += dt;
    }
    return {heat * 1e3, cool * 1e3, heat / (heat + cool)};
}

CalibResult
measure()
{
    EnergyModel em;
    ThermalModel tm(Floorplan::ev6(), {});
    StopAndGoParams sg;

    std::vector<Watts> nominal =
        em.steadyPower(SimConfig::defaultNominalRates());
    std::vector<Watts> attack = em.steadyPower(attackRates());
    std::vector<Watts> idle = em.idlePower();

    CalibResult out;
    tm.initSteadyState(nominal);
    out.normalTemp = tm.blockTemp(Block::IntReg);
    out.attackSteady = tm.steadyTemps(attack)[static_cast<size_t>(
        blockIndex(Block::IntReg))];

    out.first = heatAndCool(tm, attack, idle, sg);
    out.repeated = heatAndCool(tm, attack, idle, sg);
    return out;
}

void
printTables()
{
    std::printf("\n=== Table 1: system parameters (as configured) ===\n");
    hs::SmtParams smt;
    hs::EnergyParams energy = hs::EnergyParams::defaults();
    hs::ThermalParams thermal;
    std::printf("  instruction issue        %d, out-of-order\n",
                smt.issueWidth);
    std::printf("  L1 i & d                 %llu KB %d-way, %d-cycle\n",
                static_cast<unsigned long long>(
                    smt.mem.l1d.sizeBytes / 1024),
                smt.mem.l1d.assoc, smt.mem.l1d.hitLatency);
    std::printf("  L2 (shared)              %llu MB %d-way, %d-cycle\n",
                static_cast<unsigned long long>(
                    smt.mem.l2.sizeBytes / (1024 * 1024)),
                smt.mem.l2.assoc, smt.mem.l2.hitLatency);
    std::printf("  RUU / LSQ                %d / %d entries\n",
                smt.ruuEntries, smt.lsqEntries);
    std::printf("  memory ports             %d\n", smt.memPorts);
    std::printf("  off-chip memory latency  %d cycles\n",
                smt.mem.memLatency);
    std::printf("  SMT contexts             %d\n", smt.numThreads);
    std::printf("  Vdd / frequency          %.1f V / %.0f GHz\n",
                energy.vdd, energy.frequencyHz / 1e9);
    std::printf("  convection resistance    %.1f K/W\n",
                thermal.convectionR);
    std::printf("  emergency / upper / lower thresholds  "
                "358.0 / 356.0 / 355.0 K\n");

    CalibResult r = measure();
    std::printf("\n=== Section 3.1: heat-stroke thermal cycle "
                "(paper: ~1.2 ms heat, ~12.5 ms cool, duty 0.088) "
                "===\n");
    std::printf("  IntReg normal operating temp : %.2f K "
                "(paper: ~354 K)\n", r.normalTemp);
    std::printf("  IntReg attack steady state   : %.2f K\n",
                r.attackSteady);
    std::printf("  first episode (the paper's 1.2/(1.2+12.5)), heating "
                "from the normal temp:\n");
    std::printf("    heat-up to 358 K emergency : %.2f ms\n",
                r.first.heatUpMs);
    std::printf("    cool-down to resume temp   : %.2f ms\n",
                r.first.coolDownMs);
    std::printf("    duty cycle                 : %.3f\n",
                r.first.dutyCycle);
    std::printf("  repeated cycle, heating from the resume temp:\n");
    std::printf("    heat-up to 358 K emergency : %.2f ms\n",
                r.repeated.heatUpMs);
    std::printf("    cool-down to resume temp   : %.2f ms\n",
                r.repeated.coolDownMs);
    std::printf("    duty cycle                 : %.3f\n",
                r.repeated.dutyCycle);
}

} // namespace

int
main()
{
    printTables();
    return 0;
}
