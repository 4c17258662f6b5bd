/**
 * @file
 * Process-wide registry of named counters, gauges, and histograms.
 *
 * Tools fold run outcomes and engine statistics into the registry and
 * emit it alongside structured results (hs_run --json gains a
 * "metrics" object). Counters accumulate unsigned totals; gauges hold
 * the last (or an aggregated) double; histograms keep log-bucketed
 * distributions with exact-count merging. The registry is thread-safe —
 * the parallel experiment engine's workers may fold concurrently — and
 * emission is deterministic (name-sorted).
 *
 * Determinism contract for merged registries: bucket counts, count,
 * min, and max merge exactly (integer adds / monotone folds), so any
 * merge order yields the same histogram shape. The running sum is IEEE
 * double addition, which is only bit-associative when every observed
 * value is an integer below 2^53 — true for all cycle-count and
 * occupancy histograms the simulator exports. Callers that need
 * byte-identical JSON across worker counts must additionally merge
 * per-cell registries in a fixed (submission) order; see
 * foldRunMetrics() in src/sim/runner.hh.
 */

#ifndef HS_TRACE_METRICS_HH
#define HS_TRACE_METRICS_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace hs {

/**
 * Log-bucketed distribution summary.
 *
 * Values are bucketed by binary exponent: a positive value v with
 * v = m * 2^e, m in [0.5, 1), lands in the bucket covering
 * [2^(e-1), 2^e). Non-positive values share a dedicated zero bucket,
 * and exponents outside [kMinExp, kMaxExp] clamp into the edge
 * buckets. The fixed bucket array makes observe() allocation-free
 * (safe inside the zero-allocation cycle loop) and merge() an exact
 * integer addition.
 *
 * Percentile estimates use the nearest-rank bucket with linear
 * interpolation inside its bounds, clamped to the observed [min, max]
 * — so an estimate always lies within the bucket that contains the
 * true order statistic.
 */
class Histogram
{
  public:
    static constexpr int kMinExp = -32;      ///< smallest kept exponent
    static constexpr int kMaxExp = 44;       ///< largest kept exponent
    /** Bucket 0 holds v <= 0; buckets 1.. hold clamped exponents. */
    static constexpr int kBuckets = kMaxExp - kMinExp + 2;

    /** Record one sample. Allocation-free. */
    void observe(double v);

    /** Fold @p o into this histogram (bucket counts add exactly). */
    void merge(const Histogram &o);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    /** Smallest / largest observed value (0.0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** sum / count (0.0 when empty). */
    double mean() const;
    bool empty() const { return count_ == 0; }

    /**
     * Estimate the @p p quantile, p in [0, 1] (0.5 = median). Returns
     * 0.0 when empty; min()/max() at the extremes.
     */
    double percentile(double p) const;

    /** Bucket index a value lands in (tests / introspection). */
    static int bucketFor(double v);
    /** Inclusive lower bound of bucket @p b (0.0 for bucket 0). */
    static double bucketLo(int b);
    /** Exclusive upper bound of bucket @p b (+inf for the last). */
    static double bucketHi(int b);
    /** Samples recorded in bucket @p b. */
    uint64_t bucketCount(int b) const;

    bool operator==(const Histogram &) const = default;

    /** Snapshot and result state ("HIST"-tagged section). */
    template <class IO> void serialize(IO &io);

    /**
     * Emit `{"count": N, "sum": S, "min": m, "max": M, "mean": a,
     * "p50": x, "p90": y, "p99": z}` on one line, doubles with 17
     * significant digits.
     */
    void writeJson(std::ostream &os) const;

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;  ///< valid only when count_ > 0
    double max_ = 0.0;  ///< valid only when count_ > 0
    std::array<uint64_t, kBuckets> buckets_{};
};

/** Named counters, gauges, and histograms. */
class MetricsRegistry
{
  public:
    /** What a registered metric holds. */
    enum class Kind : uint8_t { Counter, Gauge, Histogram };

    /** One registered metric. */
    struct Metric
    {
        std::string name;
        std::string desc;
        Kind kind = Kind::Counter;
        uint64_t count = 0;  ///< counters
        double value = 0.0;  ///< gauges
        hs::Histogram hist;  ///< histograms
    };

    MetricsRegistry() = default;

    /** The process-wide instance tools fold into. */
    static MetricsRegistry &global();

    /** Add @p delta to counter @p name (creating it at zero). */
    void counterAdd(const std::string &name, uint64_t delta,
                    const std::string &desc = "");

    /** Set gauge @p name to @p v. */
    void gaugeSet(const std::string &name, double v,
                  const std::string &desc = "");

    /** Raise gauge @p name to @p v if @p v is larger (peak tracking). */
    void gaugeMax(const std::string &name, double v,
                  const std::string &desc = "");

    /** Record @p v in histogram @p name (creating it empty). */
    void histogramObserve(const std::string &name, double v,
                          const std::string &desc = "");

    /** Fold @p h into histogram @p name (creating it empty). */
    void histogramMerge(const std::string &name, const Histogram &h,
                        const std::string &desc = "");

    /** Current value of counter @p name (0 if absent). */
    uint64_t counter(const std::string &name) const;

    /** Current value of gauge @p name (0.0 if absent). */
    double gauge(const std::string &name) const;

    /** Copy of histogram @p name (empty if absent). */
    Histogram histogram(const std::string &name) const;

    /**
     * Fold every metric of @p other into this registry: counters add,
     * gauges keep the maximum (every multi-cell gauge we export is a
     * peak), histograms merge. Call in a fixed order — e.g. cell
     * submission order — when byte-identical output matters.
     */
    void mergeFrom(const MetricsRegistry &other);

    /** Name-sorted copy of every metric. */
    std::vector<Metric> snapshot() const;

    /** Drop every metric (tests). */
    void reset();

    /**
     * Emit `{ "name": value, ... }` name-sorted, counters as integers,
     * gauges with 17 significant digits, and histograms as one-line
     * summary objects. @p indent is the opening indentation level in
     * two-space steps.
     */
    void writeJson(std::ostream &os, int indent = 0) const;

  private:
    Metric &cell(const std::string &name, Kind kind,
                 const std::string &desc);

    mutable std::mutex mu_;
    std::map<std::string, Metric> metrics_;
};

} // namespace hs

#endif // HS_TRACE_METRICS_HH
