#include "trace/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/state_buffer.hh"

namespace hs {

namespace {

void
writeDouble(std::ostream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

} // namespace

int
Histogram::bucketFor(double v)
{
    if (!(v > 0.0))
        return 0;
    int e = 0;
    std::frexp(v, &e); // v = m * 2^e, m in [0.5, 1)
    e = std::clamp(e, kMinExp, kMaxExp);
    return e - kMinExp + 1;
}

double
Histogram::bucketLo(int b)
{
    if (b <= 1)
        return 0.0; // zero bucket, and the underflow bucket reaches 0
    return std::ldexp(1.0, kMinExp + b - 2); // 2^(e-1)
}

double
Histogram::bucketHi(int b)
{
    if (b <= 0)
        return 0.0;
    if (b >= kBuckets - 1)
        return HUGE_VAL; // overflow bucket is open above
    return std::ldexp(1.0, kMinExp + b - 1); // 2^e
}

uint64_t
Histogram::bucketCount(int b) const
{
    return b >= 0 && b < kBuckets ? buckets_[static_cast<size_t>(b)] : 0;
}

void
Histogram::observe(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    ++count_;
    sum_ += v;
    ++buckets_[static_cast<size_t>(bucketFor(v))];
}

void
Histogram::merge(const Histogram &o)
{
    if (o.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = o.min_;
        max_ = o.max_;
    } else {
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }
    count_ += o.count_;
    sum_ += o.sum_;
    for (int b = 0; b < kBuckets; ++b)
        buckets_[static_cast<size_t>(b)] +=
            o.buckets_[static_cast<size_t>(b)];
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return min_;
    if (p >= 1.0)
        return max_;
    // Nearest-rank (1-based) target, then interpolate inside the
    // bucket that holds it.
    uint64_t target = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    target = std::clamp<uint64_t>(target, 1, count_);
    uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
        uint64_t n = buckets_[static_cast<size_t>(b)];
        if (n == 0)
            continue;
        if (cum + n >= target) {
            if (b == 0)
                return std::clamp(0.0, min_, max_);
            double lo = bucketLo(b);
            double hi = bucketHi(b);
            double frac = (static_cast<double>(target - cum) - 0.5) /
                          static_cast<double>(n);
            double est = std::isinf(hi) ? max_ : lo + (hi - lo) * frac;
            return std::clamp(est, min_, max_);
        }
        cum += n;
    }
    return max_;
}

template <class IO>
void
Histogram::serialize(IO &io)
{
    io.tag(stateTag("HIST"), "Histogram");
    io.value(count_);
    io.value(sum_);
    io.value(min_);
    io.value(max_);
    io.value(buckets_);
}

template void Histogram::serialize(StateWriter &);
template void Histogram::serialize(StateReader &);

void
Histogram::writeJson(std::ostream &os) const
{
    os << "{\"count\": " << count_ << ", \"sum\": ";
    writeDouble(os, sum_);
    os << ", \"min\": ";
    writeDouble(os, min());
    os << ", \"max\": ";
    writeDouble(os, max());
    os << ", \"mean\": ";
    writeDouble(os, mean());
    os << ", \"p50\": ";
    writeDouble(os, percentile(0.50));
    os << ", \"p90\": ";
    writeDouble(os, percentile(0.90));
    os << ", \"p99\": ";
    writeDouble(os, percentile(0.99));
    os << "}";
}

} // namespace hs
