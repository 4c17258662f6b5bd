/**
 * @file
 * Run-health histogram tests: bucket geometry, percentile bracketing,
 * exact merge algebra (associativity / commutativity down to the bit),
 * snapshot round-trips of the simulator's instrumentation, and
 * byte-identical merged metrics across engine worker counts.
 *
 * Simulation-backed tests run at HS scale 2000 (250 K-cycle quanta) so
 * the whole file stays fast.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/progress.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/metrics.hh"

namespace {

using namespace hs;

/** Deterministic 64-bit mixer (no global RNG in tests). */
uint64_t
mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    return opts;
}

// --- bucket geometry ---------------------------------------------------

TEST(Histogram, BucketGeometry)
{
    // Non-positive values share bucket 0.
    EXPECT_EQ(Histogram::bucketFor(0.0), 0);
    EXPECT_EQ(Histogram::bucketFor(-3.5), 0);

    // Powers of two land on bucket boundaries: [2^(e-1), 2^e).
    for (double v : {1.0, 2.0, 1024.0, 0.25, 1e-6, 3.75e8}) {
        int b = Histogram::bucketFor(v);
        EXPECT_GE(b, 1);
        EXPECT_LT(b, Histogram::kBuckets);
        EXPECT_GE(v, Histogram::bucketLo(b)) << "v=" << v;
        EXPECT_LT(v, Histogram::bucketHi(b)) << "v=" << v;
    }

    // Extremes clamp to the edge buckets instead of overflowing.
    EXPECT_EQ(Histogram::bucketFor(1e300), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucketFor(1e-300), 1);
    EXPECT_TRUE(std::isinf(Histogram::bucketHi(Histogram::kBuckets - 1)));
}

TEST(Histogram, BasicMoments)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.percentile(0.5), 0.0);

    for (double v : {4.0, 1.0, 16.0, 1.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 22.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 16.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 16.0);
}

/**
 * Percentile bracketing: for any sample set, the estimate for p must
 * lie inside the bucket containing the true order statistic (and
 * always inside [min, max]).
 */
TEST(Histogram, PercentileWithinTrueOrderStatisticBucket)
{
    for (uint64_t seed : {1ull, 7ull, 42ull}) {
        Histogram h;
        std::vector<double> values;
        for (int i = 0; i < 500; ++i) {
            // Log-uniform-ish positive values across many buckets.
            uint64_t r = mix(seed * 1000 + i);
            double v = std::ldexp(1.0 + double(r % 1000) / 1000.0,
                                  int(r % 30) - 10);
            values.push_back(v);
            h.observe(v);
        }
        std::sort(values.begin(), values.end());
        for (double p : {0.1, 0.25, 0.5, 0.9, 0.99}) {
            size_t rank = std::min(
                values.size() - 1,
                size_t(std::ceil(p * double(values.size()))) - 1);
            double truth = values[rank];
            double est = h.percentile(p);
            EXPECT_GE(est, Histogram::bucketLo(
                               Histogram::bucketFor(truth)))
                << "p=" << p << " seed=" << seed;
            EXPECT_LE(est, Histogram::bucketHi(
                               Histogram::bucketFor(truth)))
                << "p=" << p << " seed=" << seed;
            EXPECT_GE(est, h.min());
            EXPECT_LE(est, h.max());
        }
    }
}

// --- merge algebra -----------------------------------------------------

Histogram
fromValues(const std::vector<double> &vs)
{
    Histogram h;
    for (double v : vs)
        h.observe(v);
    return h;
}

/**
 * Merge is associative and commutative to the bit for integer-valued
 * observations below 2^53 — exactly what the simulator's cycle-count
 * and occupancy histograms record. operator== compares count, sum,
 * min, max, and every bucket.
 */
TEST(Histogram, MergeAssociativeAndCommutativeBitExact)
{
    for (uint64_t seed : {3ull, 11ull}) {
        std::vector<double> va, vb, vc;
        for (int i = 0; i < 200; ++i) {
            va.push_back(double(mix(seed + i) % 2000000));
            vb.push_back(double(mix(seed + 1000 + i) % (1u << 20)));
            vc.push_back(double(mix(seed + 2000 + i) % 97));
        }
        Histogram a = fromValues(va), b = fromValues(vb),
                  c = fromValues(vc);

        Histogram ab = a;
        ab.merge(b);
        Histogram ba = b;
        ba.merge(a);
        EXPECT_EQ(ab, ba) << "commutativity, seed=" << seed;

        Histogram ab_c = ab;
        ab_c.merge(c);
        Histogram bc = b;
        bc.merge(c);
        Histogram a_bc = a;
        a_bc.merge(bc);
        EXPECT_EQ(ab_c, a_bc) << "associativity, seed=" << seed;

        // Splitting a stream and merging the parts equals observing
        // the whole stream.
        std::vector<double> all = va;
        all.insert(all.end(), vb.begin(), vb.end());
        EXPECT_EQ(ab, fromValues(all));
    }
}

TEST(Histogram, MergeWithEmptyIsIdentity)
{
    Histogram a = fromValues({1.0, 2.0, 3.0});
    Histogram empty;
    Histogram m = a;
    m.merge(empty);
    EXPECT_EQ(m, a);
    Histogram m2 = empty;
    m2.merge(a);
    EXPECT_EQ(m2, a);
}

// --- simulator instrumentation -----------------------------------------

TEST(RunHealth, SimulatorExportsNamedHistograms)
{
    RunSpec spec = withVariantSpec("gcc", 2, fastOpts());
    RunResult r = executeRunSpec(spec);

    auto find = [&](const std::string &name) -> const Histogram * {
        for (const NamedHistogram &h : r.histograms)
            if (h.name == name)
                return &h.hist;
        return nullptr;
    };
    for (const char *name :
         {"sim.episode_heat_cycles", "sim.episode_cool_cycles",
          "sim.sedation_span_cycles", "sim.ruu_occupancy",
          "sim.lsq_occupancy", "sim.fetch_slot_share"})
        EXPECT_NE(find(name), nullptr) << name;

    // The attack mix heats: occupancy is sampled every sensor period
    // and both threads got fetch slots.
    EXPECT_GT(find("sim.ruu_occupancy")->count(), 0u);
    EXPECT_EQ(find("sim.fetch_slot_share")->count(), 2u);
    EXPECT_NEAR(find("sim.fetch_slot_share")->sum(), 1.0, 1e-9);

    // Completed heat episodes must balance: every heating span has a
    // cooling span.
    const Histogram *heat = find("sim.episode_heat_cycles");
    const Histogram *cool = find("sim.episode_cool_cycles");
    EXPECT_EQ(heat->count(), cool->count());
}

TEST(RunHealth, SedationSpansRecordedUnderSedationDtm)
{
    ExperimentOptions opts = fastOpts();
    opts.dtm = DtmMode::SelectiveSedation;
    RunSpec spec = withVariantSpec("gcc", 2, opts);
    RunResult r = executeRunSpec(spec);

    const Histogram *sed = nullptr;
    for (const NamedHistogram &h : r.histograms)
        if (h.name == "sim.sedation_span_cycles")
            sed = &h.hist;
    ASSERT_NE(sed, nullptr);
    ASSERT_GT(sed->count(), 0u);
    // Span lengths are cycle counts inside one quantum.
    EXPECT_GE(sed->min(), 1.0);
    EXPECT_LT(sed->max(), 1e9);
}

/**
 * Snapshot round-trip: a run forked from a mid-run prefix snapshot
 * must reproduce the cold run's histograms exactly — the histogram
 * state, open sedation spans, and episode-detector state all travel
 * through save()/restore().
 */
TEST(RunHealth, HistogramsSurvivePrefixForkBitExact)
{
    // The innocent pair at convection R = 1.2 K/W climbs slowly enough
    // for runPrefix to bank a snapshot before the 353 K divergence
    // temperature, yet the episode detector has already seen a rise
    // begin — so histogram and detector state genuinely travel through
    // the snapshot (the attack mix crosses 353 K before the first
    // snapshot point and would fork nothing).
    ExperimentOptions opts = fastOpts();
    opts.dtm = DtmMode::SelectiveSedation;
    opts.convectionR = 1.2;
    RunSpec spec = specPairSpec("gcc", "mesa", opts);

    SimSnapshot snap;
    Cycles fork =
        makePrefixSimulator(spec)->runPrefix({353.0}, /*stride=*/1, snap);
    ASSERT_GT(fork, 0u);

    RunResult cold = executeRunSpec(spec);
    RunResult warm = executeRunSpec(spec, &snap);
    ASSERT_EQ(cold, warm);
    // operator== excludes histograms; compare them explicitly.
    ASSERT_EQ(cold.histograms.size(), warm.histograms.size());
    for (size_t i = 0; i < cold.histograms.size(); ++i) {
        EXPECT_EQ(cold.histograms[i].name, warm.histograms[i].name);
        EXPECT_EQ(cold.histograms[i].hist, warm.histograms[i].hist)
            << cold.histograms[i].name;
    }
}

// --- engine folding ----------------------------------------------------

std::vector<RunSpec>
smallMatrix()
{
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", opts));
    specs.push_back(withVariantSpec("gcc", 2, opts));
    specs.push_back(withVariantSpec("crafty", 3, opts));
    specs.push_back(
        withVariantSpec("applu", 2, opts)
            .withDtm(DtmMode::SelectiveSedation));
    specs.push_back(soloSpec("mcf", opts));
    specs.push_back(specPairSpec("gcc", "mesa", opts));
    // An innocent sedation threshold sweep: one prefix-shared group,
    // so forked cells' histograms enter the fold too.
    for (double upper : {356.0, 356.5, 357.0}) {
        ExperimentOptions sed = opts;
        sed.dtm = DtmMode::SelectiveSedation;
        sed.upperThreshold = upper;
        sed.lowerThreshold = upper - 1.0;
        specs.push_back(specPairSpec("gcc", "mesa", sed));
    }
    return specs;
}

/**
 * The cross-talk fix: per-cell histograms live in each RunResult and
 * are folded in submission order, so the merged metrics are
 * byte-identical to the fold of solo cold runs no matter how many
 * workers raced to produce the results or which cells forked from a
 * shared prefix. ("host"-named metrics are machine-dependent and are
 * only added when the caller passes cell timings — not here.)
 */
TEST(RunHealth, MergedMetricsIdenticalAcrossWorkerCounts)
{
    std::vector<RunSpec> specs = smallMatrix();

    std::vector<RunResult> solo;
    for (const RunSpec &s : specs)
        solo.push_back(executeRunSpec(s));
    std::ostringstream solo_js;
    RunMetrics{}.writeJson(solo_js, solo);
    EXPECT_NE(solo_js.str().find("sim.episode_heat_cycles"),
              std::string::npos);

    for (int jobs : {1, 4}) {
        for (bool prefix : {true, false}) {
            ParallelRunner runner(jobs);
            runner.setPrefixSharing(prefix);
            std::ostringstream js;
            RunMetrics{}.writeJson(js, runner.run(specs));
            EXPECT_EQ(solo_js.str(), js.str())
                << "jobs " << jobs << (prefix ? ", prefix" : "");
            if (prefix) {
                EXPECT_GE(runner.prefixStats().forkedRuns, 2u);
            }
        }
    }
}

// --- lifecycle events and progress -------------------------------------

TEST(RunHealth, CellObserverSeesEveryLifecycleEvent)
{
    std::vector<RunSpec> specs = smallMatrix();
    ResultStore store;
    ParallelRunner runner(2, &store);

    std::vector<CellEvent::Kind> kinds;
    size_t queued = 0, started = 0, finished = 0, cache_hits = 0;
    runner.setCellObserver([&](const CellEvent &ev) {
        // The callback is serialized by the runner; no locking here.
        kinds.push_back(ev.kind);
        EXPECT_EQ(ev.total, specs.size());
        EXPECT_LT(ev.index, specs.size());
        switch (ev.kind) {
          case CellEvent::Kind::Queued: ++queued; break;
          case CellEvent::Kind::Started: ++started; break;
          case CellEvent::Kind::Finished:
            EXPECT_GE(ev.hostSeconds, 0.0);
            ++finished;
            break;
          case CellEvent::Kind::CacheHit: ++cache_hits; break;
          default: break;
        }
    });

    runner.run(specs);
    EXPECT_EQ(queued, specs.size());
    EXPECT_EQ(started, specs.size());
    EXPECT_EQ(finished, specs.size());
    EXPECT_EQ(cache_hits, 0u);
    EXPECT_EQ(runner.tally().cellSeconds.count(), specs.size());

    // A second pass over the same matrix is served from the store.
    queued = started = finished = cache_hits = 0;
    runner.run(specs);
    EXPECT_EQ(queued, specs.size());
    EXPECT_EQ(cache_hits, specs.size());
    EXPECT_EQ(finished, 0u);
}

/** Fold @p ev into @p t and hand it to @p rep, as the runner does. */
void
feed(ProgressReporter &rep, CellTally &t, CellEvent ev)
{
    t.fold(ev);
    ev.tally = &t;
    rep.onEvent(ev);
}

/** Everything written to @p out; closes it. */
std::string
drain(std::FILE *out)
{
    std::rewind(out);
    std::string text;
    char buf[512];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0)
        text.append(buf, n);
    std::fclose(out);
    return text;
}

size_t
occurrences(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

TEST(RunHealth, ProgressReporterPlainModeHasNoAnsi)
{
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    {
        ProgressOptions popts;
        popts.ansi = false;
        popts.minPlainInterval = 0.0; // paint every event
        popts.out = out;
        ProgressReporter rep(2, 1, popts);
        CellTally t;
        feed(rep, t, {CellEvent::Kind::Queued, 0, 2, "a", 0.0});
        feed(rep, t, {CellEvent::Kind::Queued, 1, 2, "b", 0.0});
        feed(rep, t, {CellEvent::Kind::Started, 0, 2, "a", 0.0});
        feed(rep, t, {CellEvent::Kind::Finished, 0, 2, "a", 0.01});
        feed(rep, t, {CellEvent::Kind::Started, 1, 2, "b", 0.0});
        feed(rep, t, {CellEvent::Kind::Finished, 1, 2, "b", 0.01});
        rep.finish();
    }
    std::string text = drain(out);

    EXPECT_NE(text.find("[progress] 2/2 cells"), std::string::npos)
        << text;
    EXPECT_EQ(text.find('\x1b'), std::string::npos) << "ANSI escape";
    EXPECT_EQ(text.find('\r'), std::string::npos) << "carriage return";
}

TEST(RunHealth, WatchdogFlagsAStuckCellOnce)
{
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    uint64_t slow = 0;
    {
        ProgressOptions popts;
        popts.out = out;
        ProgressReporter rep(3, 1, popts);
        CellTally t;
        for (size_t i = 0; i < 3; ++i)
            feed(rep, t, {CellEvent::Kind::Queued, i, 3, "c", 0.0});
        for (size_t i = 0; i < 2; ++i) {
            feed(rep, t, {CellEvent::Kind::Started, i, 3, "fast", 0.0});
            feed(rep, t, {CellEvent::Kind::Finished, i, 3, "fast", 0.01});
        }
        // Median 10 ms: the watchdog limit is kWatchdogFactor x that,
        // so a cell that never finishes is flagged on its next pass.
        auto t0 = std::chrono::steady_clock::now();
        feed(rep, t, {CellEvent::Kind::Started, 2, 3, "stuck", 0.0});
        while (rep.slowCells() == 0 &&
               std::chrono::steady_clock::now() - t0 <
                   std::chrono::seconds(2))
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        EXPECT_EQ(rep.slowCells(), 1u);
        EXPECT_LT(secs, 1.0) << "watchdog passes are 200 ms apart";
        // Two more watchdog passes must not flag the same cell again.
        std::this_thread::sleep_for(std::chrono::milliseconds(450));
        slow = rep.slowCells();
        rep.finish();
    }
    std::string text = drain(out);
    EXPECT_EQ(slow, 1u);
    EXPECT_EQ(occurrences(text, "[watchdog]"), 1u) << text;
    EXPECT_EQ(occurrences(text, "[watchdog] cell 2 'stuck'"), 1u) << text;
    EXPECT_NE(text.find("slow cells flagged: 1 slow"), std::string::npos)
        << text;
}

TEST(RunHealth, ProgressReporterCountsBothHitTiers)
{
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    CellTally t;
    {
        ProgressOptions popts;
        popts.minPlainInterval = 0.0;
        popts.out = out;
        ProgressReporter rep(2, 1, popts);
        feed(rep, t, {CellEvent::Kind::Queued, 0, 2, "m", 0.0});
        feed(rep, t, {CellEvent::Kind::Queued, 1, 2, "d", 0.0});
        feed(rep, t, {CellEvent::Kind::Started, 0, 2, "m", 0.0});
        feed(rep, t, {CellEvent::Kind::CacheHit, 0, 2, "m", 0.0});
        feed(rep, t, {CellEvent::Kind::Started, 1, 2, "d", 0.0});
        feed(rep, t, {CellEvent::Kind::DiskHit, 1, 2, "d", 0.0});
        rep.finish();
    }
    std::string text = drain(out);
    EXPECT_EQ(t.running, 0u);
    EXPECT_EQ(t.done, 2u);
    // No simulated cell: no ETA, and the hit tiers are named apart.
    EXPECT_NE(text.find("[progress] 2/2 cells (0 running, 1 mem hit, "
                        "1 disk hit, 0 remote, 0 forked)\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("(1 mem hit, 1 disk hit, 0 remote, 0 forked, "
                        "0 slow)\n"),
              std::string::npos)
        << text;
}

/**
 * Seeded lifecycles of many cells, interleaved as concurrent lanes
 * would: after every fold running + done <= total, and at the end
 * every cell is resolved and the tiers add up.
 */
TEST(CellTally, FoldKeepsRunningPlusDoneWithinTotal)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        const size_t n = 1 + mix(seed) % 40;
        std::vector<std::vector<CellEvent::Kind>> pending(n);
        size_t simulated = 0;
        for (size_t i = 0; i < n; ++i) {
            using K = CellEvent::Kind;
            uint64_t r = mix(seed * 1000 + i);
            std::vector<K> &life = pending[i];
            life.push_back(K::Started);
            if (r & 1)
                life.push_back(K::PrefixForked);
            const K ends[] = {K::CacheHit, K::DiskHit, K::Finished,
                              K::RemoteFinished};
            life.push_back(ends[(r >> 1) % 4]);
            simulated += life.back() == K::Finished ||
                         life.back() == K::RemoteFinished;
        }
        CellTally t;
        for (size_t i = 0; i < n; ++i)
            t.fold({CellEvent::Kind::Queued, i, n, "", 0.0});
        std::vector<size_t> next(n, 0);
        for (uint64_t step = 0;; ++step) {
            std::vector<size_t> live;
            for (size_t i = 0; i < n; ++i)
                if (next[i] < pending[i].size())
                    live.push_back(i);
            if (live.empty())
                break;
            size_t i = live[mix(seed ^ (step << 8)) % live.size()];
            t.fold({pending[i][next[i]++], i, n, "", 0.001});
            ASSERT_LE(t.running + t.done, t.total);
        }
        EXPECT_EQ(t.total, n);
        EXPECT_EQ(t.running, 0u);
        EXPECT_EQ(t.done, n);
        EXPECT_EQ(t.cellSeconds.count(), simulated);
        EXPECT_EQ(t.memHits + t.diskHits + simulated, n);
        EXPECT_LE(t.remote, simulated);
    }
}

} // namespace
