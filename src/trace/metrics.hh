/**
 * @file
 * Log-bucketed histogram: the distribution type behind every
 * run-health metric (episode durations, sedation spans, queue
 * occupancy, per-cell wall time).
 *
 * Determinism contract for merged histograms: bucket counts, count,
 * min, and max merge exactly (integer adds / monotone folds), so any
 * merge order yields the same histogram shape. The running sum is IEEE
 * double addition, which is only bit-associative when every observed
 * value is an integer below 2^53 — true for all cycle-count and
 * occupancy histograms the simulator exports. Callers that need
 * byte-identical JSON across worker counts must additionally merge
 * per-cell histograms in a fixed (submission) order; see RunMetrics in
 * src/sim/runner.hh.
 */

#ifndef HS_TRACE_METRICS_HH
#define HS_TRACE_METRICS_HH

#include <array>
#include <cstdint>
#include <ostream>

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

} // namespace hs

#endif // HS_TRACE_METRICS_HH
