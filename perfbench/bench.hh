/**
 * @file
 * Shared declarations of the repository benchmark (hs_perfbench).
 *
 * The benchmark drives the simulator only through its public API and
 * times those calls from outside; nothing under src/ is instrumented.
 * Every workload runs the same shape of loop: set up, run one pass of
 * its matrix, repeat until the measuring time is spent, then check the
 * outputs against a cold serial reference. See README.md for the
 * workloads, the metrics and the layer -> end-to-end map.
 */

#ifndef HS_PERFBENCH_BENCH_HH
#define HS_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/runner.hh"

namespace hsbench {

/** Untraced passes never stop before these, so every pass median has
 *  several samples and every op tail at least ten samples beyond it. */
constexpr size_t kMinPasses = 3;
constexpr size_t kMinOps = 110;

/** Command-line settings of one benchmark invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** HS_SCALE of every cell; only the smoke test changes it. */
    double scale = 1000.0;
    /** Corrupt one reference result so the gate must catch it. */
    bool injectMismatch = false;
    /** Scratch directory for stores and the span dump. */
    std::string workDir = ".bench_build/perfbench/work";
    std::string gitRev = "unknown";
    std::string srcDigest = "unknown";
};

/** Seconds on the steady clock since an arbitrary fixed origin. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One traced interval: parent is an index into the same list, -1 for
 *  a root. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
};

/** In-memory span list, written out once when the benchmark ends. */
class SpanRecorder
{
  public:
    int add(std::string name, double start, double end, int parent);
    void close(int id, double end);
    std::vector<int> children(int id) const;
    /** Duration of span @p id minus the union of its children. */
    double selfTime(int id) const;
    const std::vector<Span> &spans() const { return spans_; }
    /** Dump every span as JSON to @p path (false on I/O error). */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mu_; ///< guards spans_ and children_
    std::vector<Span> spans_;
    std::vector<std::vector<int>> children_;
};

/** What a workload measured; main.cc turns it into the output line. */
struct Report
{
    int lanes = 0;
    std::vector<double> setupS; ///< one per set-up
    std::vector<double> wallS;  ///< one per untraced pass
    std::vector<double> mcps;   ///< delivered Mcycles per wall second
    std::vector<double> opS;    ///< every op of every untraced pass
    std::vector<double> rssMb;  ///< peak RSS of each untraced pass
    std::string opName;         ///< what one op is
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for stderr
    /** Per-layer metrics of the traced run: name -> (value, unit). */
    std::map<std::string, std::pair<double, std::string>> layers;

    void fail(std::string why);
    void layer(const std::string &name, double value, const char *unit)
    {
        layers[name] = {value, unit};
    }
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Matrix base options: realistic sink at the benchmark's scale. */
hs::ExperimentOptions baseOptions(const Options &o);

// --- workloads (workloads.cc) -----------------------------------------
Report runAttackMatrix(const Options &o);
Report runPolicySweep(const Options &o);
Report runCampaignCold(const Options &o);
Report runStoreWarm(const Options &o);

// --- traced-run layer probes (trace.cc) --------------------------------

/**
 * Replay every cell of @p specs cold through makeSimulator ->
 * setProfiling(true) -> run(), fill the smt./thermal./sim. cost-centre
 * metrics of @p rep, and count each replayed result that differs from
 * @p expected as a failure.
 */
void replayCells(const std::vector<hs::RunSpec> &specs,
                 const std::vector<hs::RunResult> &expected, Report &rep);

/** Time Simulator::save()/restore() on @p spec after a full run(). */
void probeSnapshot(const hs::RunSpec &spec, Report &rep);

/** Time RcNetwork::step and stepBatch at widths 2, 8 and 32 on the
 *  network a simulator of @p spec builds. */
void probeThermal(const hs::RunSpec &spec, Report &rep);

/** Time encodeRunResult/decodeRunResult and DiskResultStore put/load
 *  over @p specs / @p results in a scratch store under @p dir. */
void probeSerializeAndStore(const std::vector<hs::RunSpec> &specs,
                            const std::vector<hs::RunResult> &results,
                            const std::string &dir, Report &rep);

} // namespace hsbench

#endif // HS_PERFBENCH_BENCH_HH
