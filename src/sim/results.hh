/**
 * @file
 * Result records for one simulated OS quantum, plus small table
 * formatting helpers shared by the bench harnesses.
 */

#ifndef HS_SIM_RESULTS_HH
#define HS_SIM_RESULTS_HH

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "common/blocks.hh"
#include "common/types.hh"
#include "core/sedation.hh"
#include "trace/event.hh"
#include "trace/metrics.hh"

namespace hs {

/**
 * One named run-health histogram exported by a run (episode
 * durations, sedation spans, queue occupancy, ...). Tools merge these
 * into the process-wide MetricsRegistry per cell, in submission order.
 */
struct NamedHistogram
{
    std::string name;
    std::string desc;
    Histogram hist;

    bool operator==(const NamedHistogram &) const = default;
};

/** Per-thread outcome of a run. */
struct ThreadResult
{
    std::string program;
    int core = 0; ///< core the context lives on (0 on single-core dies)
    uint64_t committed = 0;
    double ipc = 0.0;
    uint64_t normalCycles = 0;
    uint64_t coolingCycles = 0;   ///< global stop-and-go stalls
    uint64_t sedationCycles = 0;  ///< thread-selective stalls
    double intRegAccessRate = 0.0; ///< accesses/cycle, whole quantum
    double l1dMissRate = 0.0;      ///< (shared cache; whole-run rate)
    double l2MissRate = 0.0;       ///< (shared cache; whole-run rate)
    double bpredAccuracy = 1.0;    ///< (shared predictor; whole-run)
    double fpPerInst = 0.0;        ///< FP-unit accesses per committed

    bool operator==(const ThreadResult &) const = default;

    /** The record's encode/decode body (see sim/serialize.hh). */
    template <class IO> void serialize(IO &io);
};

/**
 * Per-core outcome of a multi-core run. The legacy top-level RunResult
 * fields aggregate across cores (summed counters, per-block maxima);
 * this record keeps each core's own view. Single-core runs leave
 * RunResult::cores empty so their outputs keep their historical bytes.
 */
struct CoreResult
{
    int core = 0;
    /** Explicit, always-zero padding (here and below): results carry
     *  core records as raw bytes, so equal records must have equal
     *  bytes. */
    uint8_t pad0[4] = {};
    Cycles activeCycles = 0;
    uint64_t emergencies = 0;
    std::array<uint64_t, numBlocks> emergenciesPerBlock{};
    std::array<Kelvin, numBlocks> peakTemp{};
    Kelvin peakTempOverall = 0;
    Block hottestBlock = Block::IntReg;
    uint8_t pad1[7] = {};
    uint64_t stopAndGoTriggers = 0;
    Cycles coolingStallCycles = 0;

    bool operator==(const CoreResult &) const = default;
};
static_assert(sizeof(CoreResult) == 328, "CoreResult is encoded raw");

/** One downsampled temperature trace point. */
struct TempSample
{
    Cycles cycle = 0;
    Kelvin intRegTemp = 0;
    Kelvin hottestTemp = 0;
    Kelvin sinkTemp = 0;

    bool operator==(const TempSample &) const = default;
};

/** Outcome of one simulated quantum. */
struct RunResult
{
    Cycles cycles = 0;
    Cycles activeCycles = 0;
    std::vector<ThreadResult> threads;

    /** Topology width of the run; per-core views are populated only
     *  when more than one core shares the die. */
    int numCores = 1;
    std::vector<CoreResult> cores;

    uint64_t emergencies = 0; ///< upward crossings of the emergency temp
    std::array<uint64_t, numBlocks> emergenciesPerBlock{};
    std::array<Kelvin, numBlocks> peakTemp{};
    Kelvin peakTempOverall = 0;
    Block hottestBlock = Block::IntReg;

    uint64_t stopAndGoTriggers = 0;
    Cycles coolingStallCycles = 0;
    std::vector<SedationEvent> sedationEvents;
    /** Threads the OS descheduled as repeat offenders (extension). */
    std::vector<ThreadId> descheduledThreads;

    double avgTotalPowerW = 0.0;
    std::vector<TempSample> tempTrace;

    /** Structured event trace (empty unless SimConfig::traceEvents).
     *  Participates in operator==, so the bit-identity tests also pin
     *  down the exact event sequence of prefix-shared runs. */
    std::vector<TraceEvent> traceEvents;
    uint64_t traceEventsDropped = 0; ///< ring-overflow losses

    /**
     * Simulation throughput: host wall-clock seconds spent inside
     * Simulator::run() and simulated cycles per host second. These are
     * measurements of the machine, not of the simulated system — they
     * vary run to run and are therefore excluded from operator==.
     */
    double hostSeconds = 0.0;
    double simCyclesPerHostSec = 0.0;

    /**
     * Run-health histograms (observability, not outcome): excluded
     * from operator== like the host-throughput fields, so the
     * bit-identity contract on the simulated result is untouched.
     * Their own prefix-fork/cold identity is covered separately by
     * tests/test_histograms.cc.
     */
    std::vector<NamedHistogram> histograms;

    /** Fraction helpers for the Figure 6 breakdown. */
    double normalFraction(size_t thread) const;
    double coolingFraction(size_t thread) const;
    double sedationFraction(size_t thread) const;

    /**
     * Field-for-field (bit-identical doubles) comparison of the
     * simulated outcome. The host-throughput fields (hostSeconds,
     * simCyclesPerHostSec) are deliberately NOT compared: two runs of
     * the same spec are "the same result" regardless of how fast the
     * host executed them.
     */
    bool operator==(const RunResult &o) const;

    /** The record's encode/decode body ("RRES"-tagged section, see
     *  sim/serialize.hh). */
    template <class IO> void serialize(IO &io);
};

/** Degradation of @p measured relative to @p base, in percent. */
double degradationPct(double base, double measured);

/**
 * Emit @p r as a JSON object (17-significant-digit doubles, so values
 * round-trip bit-identically). @p indent is the opening indentation
 * level in two-space steps; the temperature trace is included only
 * when non-empty.
 */
void writeResultJson(std::ostream &os, const RunResult &r, int indent = 0);

/** Column names of the per-thread CSV emission (no trailing comma). */
std::string resultCsvHeader();

/** One CSV row per thread of @p r, each line prefixed by @p prefix. */
void writeResultCsv(std::ostream &os, const RunResult &r,
                    const std::string &prefix = "");

/** Minimal fixed-width table printer for bench output. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::ostream &os) : os_(os) {}

    /** Set column headers; widths derive from header length + 2. */
    void header(const std::vector<std::string> &columns);

    /** Print one row (converted with to_string-style formatting). */
    void row(const std::vector<std::string> &cells);

    /** Format a double with @p digits decimals. */
    static std::string num(double v, int digits = 2);

  private:
    std::ostream &os_;
    std::vector<size_t> widths_;
};

} // namespace hs

#endif // HS_SIM_RESULTS_HH
