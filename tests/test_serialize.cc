/**
 * @file
 * Round-trip tests for the RunSpec/RunResult binary serialiser: the
 * distributed service is only sound if a result that crossed the wire
 * (or the disk) is indistinguishable — including its JSON/CSV bytes —
 * from the locally computed original.
 */

#include <cstring>
#include <new>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "sim/remote.hh"
#include "sim/results.hh"
#include "sim/run_spec.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"
#include "sim/simulator.hh"
#include "trace/tracer.hh"

namespace {

using namespace hs;

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    return opts;
}

/** A spec exercising every serialised field, incl. non-POD members. */
RunSpec
fancySpec()
{
    ExperimentOptions opts = fastOpts();
    opts.dtm = DtmMode::SelectiveSedation;
    opts.upperThreshold = 351.25;
    opts.lowerThreshold = 350.5;
    opts.recordTempTrace = true;
    RunSpec spec = withVariantSpec("gcc", 2, opts);
    spec.sensorNoiseK = 0.125;
    spec.descheduleAfter = 3;
    spec.label = "fancy spec, with punctuation";
    return spec;
}

TEST(Serialize, Fnv1aMatchesKnownVectors)
{
    // Standard FNV-1a 64-bit test vectors.
    const uint8_t a[] = {'a'};
    EXPECT_EQ(fnv1a64(a, 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64(a, 1), 0xaf63dc4c8601ec8cull);
    const uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
    EXPECT_EQ(fnv1a64(foobar, 6), 0x85944171f73967e8ull);
}

/** A real encoded RunResult with its two host-dependent fields
 *  zeroed, so its bytes are the same on every run and machine. */
std::vector<uint8_t>
realRecord()
{
    ExperimentOptions opts;
    opts.timeScale = 20000.0;
    RunResult r = executeRunSpec(soloSpec("gcc", opts));
    r.hostSeconds = 0.0;
    r.simCyclesPerHostSec = 0.0;
    return encodeRunResult(r);
}

TEST(Checksum64, PinnedValues)
{
    // Pinned so that stores written by one build validate under the
    // next: the sum is part of the .hsr and HSRP formats.
    // 31/32/33 bytes straddle one four-lane block.
    std::vector<uint8_t> bytes(33);
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<uint8_t>(i * 37 + 1);
    EXPECT_EQ(checksum64(nullptr, 0), 0x84cfd106dcd703ddull);
    EXPECT_EQ(checksum64(bytes.data(), 1), 0x808ff345390ed256ull);
    EXPECT_EQ(checksum64(bytes.data(), 31), 0x053ec4ad717f3889ull);
    EXPECT_EQ(checksum64(bytes.data(), 32), 0x9b82c273b4da0570ull);
    EXPECT_EQ(checksum64(bytes.data(), 33), 0xfb86da8468bc8c05ull);

    std::vector<uint8_t> rec = realRecord();
    ASSERT_EQ(rec.size(), 4982u);
    EXPECT_EQ(checksum64(rec.data(), rec.size()), 0xf36c51bb3c1a5ef3ull);
}

TEST(Checksum64, EverySingleBitFlipChangesTheSum)
{
    std::vector<uint8_t> rec = realRecord();
    const uint64_t sum = checksum64(rec.data(), rec.size());
    size_t unchanged = 0;
    for (size_t bit = 0; bit < rec.size() * 8; ++bit) {
        rec[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        unchanged += checksum64(rec.data(), rec.size()) == sum;
        rec[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(unchanged, 0u);
}

TEST(Checksum64, EveryTruncationChangesTheSum)
{
    std::vector<uint8_t> rec = realRecord();
    const uint64_t sum = checksum64(rec.data(), rec.size());
    size_t unchanged = 0;
    for (size_t n = 0; n < rec.size(); ++n)
        unchanged += checksum64(rec.data(), n) == sum;
    EXPECT_EQ(unchanged, 0u);
}

TEST(Serialize, RunSpecRoundTripPreservesCanonicalKey)
{
    RunSpec spec = fancySpec();
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    w.record(spec);
    StateReader r(bytes);
    RunSpec back;
    r.record(back);
    EXPECT_EQ(r.remaining(), 0u);

    EXPECT_EQ(back.canonicalKey(), spec.canonicalKey());
    EXPECT_EQ(back.hash(), spec.hash());
    EXPECT_EQ(back.label, spec.label);
    EXPECT_EQ(back.workloads.size(), spec.workloads.size());
    EXPECT_EQ(back.workloads[0].name, spec.workloads[0].name);
}

TEST(Serialize, MultiWorkloadSpecRoundTrip)
{
    RunSpec spec = specPairSpec("gcc", "mesa", fastOpts());
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    w.record(spec);
    StateReader r(bytes);
    RunSpec back;
    r.record(back);
    EXPECT_EQ(back.canonicalKey(), spec.canonicalKey());
}

TEST(Serialize, RunResultRoundTripIsBitIdentical)
{
    // A real simulated result with a temperature trace and histograms
    // on board, so every container field is non-trivially exercised.
    RunSpec spec = fancySpec();
    RunResult original = executeRunSpec(spec);
    ASSERT_FALSE(original.threads.empty());
    ASSERT_FALSE(original.tempTrace.empty());

    RunResult back = decodeRunResult(encodeRunResult(original));

    // operator== covers the simulated outcome bit for bit...
    EXPECT_TRUE(back == original);
    // ...and the fields it deliberately excludes must survive too: a
    // store-served rerun re-emits the cold run's host throughput.
    EXPECT_EQ(back.hostSeconds, original.hostSeconds);
    EXPECT_EQ(back.simCyclesPerHostSec, original.simCyclesPerHostSec);
    ASSERT_EQ(back.histograms.size(), original.histograms.size());
    for (size_t i = 0; i < back.histograms.size(); ++i)
        EXPECT_TRUE(back.histograms[i] == original.histograms[i]);
}

TEST(Serialize, RoundTrippedResultEmitsIdenticalJsonAndCsv)
{
    RunSpec spec = soloSpec("gcc", fastOpts());
    RunResult original = executeRunSpec(spec);
    RunResult back = decodeRunResult(encodeRunResult(original));

    std::ostringstream j0, j1;
    writeResultJson(j0, original);
    writeResultJson(j1, back);
    EXPECT_EQ(j0.str(), j1.str());

    std::ostringstream c0, c1;
    writeResultCsv(c0, original);
    writeResultCsv(c1, back);
    EXPECT_EQ(c0.str(), c1.str());
}

/** checksum64 of a whole byte buffer. */
uint64_t
sumOf(const std::vector<uint8_t> &bytes)
{
    return checksum64(bytes.data(), bytes.size());
}

/** Sedation options with an upper trigger of @p upper (lower = -1 K). */
ExperimentOptions
sedationOpts(double upper)
{
    ExperimentOptions opts = fastOpts();
    opts.dtm = DtmMode::SelectiveSedation;
    opts.upperThreshold = upper;
    opts.lowerThreshold = upper - 1.0;
    return opts;
}

/** The snapshot of @p spec at its first sensor boundary: at scale
 *  25000 the quantum is exactly one 20 K-cycle sensor interval. */
SimSnapshot
firstBoundarySnapshot(RunSpec spec)
{
    spec.opts.timeScale = 25000.0;
    auto sim = makePrefixSimulator(spec);
    sim->run();
    SimSnapshot snap;
    sim->save(snap);
    return snap;
}

TEST(Serialize, EncodingsArePinned)
{
    // Snapshot, .hsr and HSRP bytes are formats: stores on disk, peers
    // on the wire and shipped snapshots all assume them. These sums
    // must not move unless kResultFormatVersion (and, for frames,
    // kRemoteProtocolVersion) moves with them.
    RunSpec traced = withVariantSpec("gcc", 2, sedationOpts(354.0))
                         .withTopology(2, {0, 0})
                         .withTraceEvents(true);
    RunResult result = executeRunSpec(traced);
    result.hostSeconds = 0.0;
    result.simCyclesPerHostSec = 0.0;
    ASSERT_EQ(result.cores.size(), 2u);
    ASSERT_FALSE(result.sedationEvents.empty());
    ASSERT_FALSE(result.traceEvents.empty());
    std::vector<uint8_t> record = encodeRunResult(result);
    EXPECT_EQ(record.size(), 42960u);
    EXPECT_EQ(sumOf(record), 0x53fddc9bb065be82ull);

    RunSpec benign = specPairSpec("gcc", "mesa", fastOpts());
    SimSnapshot one = firstBoundarySnapshot(benign);
    EXPECT_EQ(one.cycle, 20000u);
    EXPECT_EQ(one.bytes.size(), 910491u);
    EXPECT_EQ(sumOf(one.bytes), 0x5689184024f6161full);
    SimSnapshot two =
        firstBoundarySnapshot(benign.withTopology(2, {0, 1}));
    EXPECT_EQ(two.cycle, 20000u);
    EXPECT_EQ(two.bytes.size(), 1804314u);
    EXPECT_EQ(sumOf(two.bytes), 0x2fc6af6ad11c8889ull);

    RunSpec spec = fancySpec();
    SimSnapshot snap;
    snap.cycle = 40000;
    for (int i = 0; i < 100; ++i)
        snap.bytes.push_back(static_cast<uint8_t>(i * 7));
    EXPECT_EQ(sumOf(encodeJob(42, spec, nullptr, 0)),
              0xc1295900abf90f85ull);
    EXPECT_EQ(sumOf(encodeJob(43, spec, &snap, sumOf(snap.bytes))),
              0xd26586bdc5bb35deull);
    EXPECT_EQ(sumOf(encodeJobRef(44, spec, 0xfeedfacecafebeefull)),
              0x659305b3be413073ull);

    JobTelemetry tel;
    tel.simSeconds = 1.5;
    tel.restoreSeconds = 0.25;
    tel.snapshotBytes = 12345;
    tel.snapshotFromCache = true;
    tel.peakRssKb = 4096;
    tel.tickedCycles = 1000;
    tel.stalledCycles = 200;
    tel.sensorSamples = 60;
    tel.tickSeconds = 0.75;
    tel.thermalSeconds = 0.125;
    tel.stallSeconds = 0.0625;
    EXPECT_EQ(sumOf(encodeResult(45, result)), 0x56eac2708489e0e4ull);
    EXPECT_EQ(sumOf(encodeResult(46, result, &tel)), 0x11a592e571e9dbcbull);

    HeartbeatInfo hb;
    hb.jobsDone = 7;
    hb.uptimeSeconds = 12.5;
    hb.currentLabel = "gcc+mesa sedation";
    EXPECT_EQ(sumOf(encodeHeartbeat(hb)), 0x6827074823ac850full);
}

/** Append a @p T to @p v that was default-constructed over bytes all
 *  reading @p fill, then given its fields by @p set: whatever bytes
 *  the type leaves unset keep @p fill. */
template <class T, class Set>
void
appendBuiltOver(std::vector<T> &v, uint8_t fill, Set set)
{
    alignas(T) unsigned char raw[sizeof(T)];
    std::memset(raw, fill, sizeof(raw));
    T *t = new (raw) T;
    set(*t);
    v.push_back(*t);
    t->~T();
}

/** A result holding one of each record encoded as raw bytes, every
 *  one built over storage pre-filled with @p fill. */
RunResult
resultBuiltOver(uint8_t fill)
{
    alignas(RunResult) unsigned char raw[sizeof(RunResult)];
    std::memset(raw, fill, sizeof(raw));
    RunResult *r = new (raw) RunResult;
    r->cycles = 1000;
    r->numCores = 2;
    r->hottestBlock = Block::IntReg;
    for (int c = 0; c < 2; ++c) {
        appendBuiltOver(r->cores, fill, [c](CoreResult &cr) {
            cr.core = c;
            cr.activeCycles = 900;
            cr.hottestBlock = Block::IntReg;
            cr.stopAndGoTriggers = 3;
        });
    }
    appendBuiltOver(r->sedationEvents, fill, [](SedationEvent &e) {
        e.cycle = 500;
        e.resource = Block::IntReg;
        e.thread = 1;
        e.weightedAvg = 2.5;
    });
    appendBuiltOver(r->traceEvents, fill, [](TraceEvent &e) {
        e.cycle = 600;
        e.value = 2.5;
        e.thread = 1;
        e.cat = TraceCategory::Dtm;
        e.kind = TraceKind::ThreadSedated;
        e.block = 0;
    });
    RunResult out = *r;
    r->~RunResult();
    return out;
}

TEST(Serialize, EqualResultsEncodeToEqualBytes)
{
    // Two results that compare equal must encode to the same bytes,
    // whatever the memory they were built in held: a rerun's record
    // can then be compared to the first byte for byte.
    RunResult zeros = resultBuiltOver(0x00);
    RunResult ones = resultBuiltOver(0xff);
    ASSERT_TRUE(zeros == ones);
    EXPECT_EQ(encodeRunResult(zeros), encodeRunResult(ones));
}

TEST(Serialize, TrailingBytesAreFatal)
{
    RunResult r = executeRunSpec(soloSpec("gcc", fastOpts()));
    std::vector<uint8_t> bytes = encodeRunResult(r);
    bytes.push_back(0x5a);
    EXPECT_DEATH(decodeRunResult(bytes), "trailing");
}

// --- hostile input ------------------------------------------------------

/** Overwrite the 8 bytes at @p at with @p v. */
void
poke64(std::vector<uint8_t> &bytes, size_t at, uint64_t v)
{
    ASSERT_LE(at + sizeof(v), bytes.size());
    std::memcpy(bytes.data() + at, &v, sizeof(v));
}

TEST(SerializeDeathTest, WrappedCountIsTruncatedNotThrown)
{
    // 2^61 + 1 eight-byte elements: the byte count wraps to 8, which
    // fits; the count check must still see the claim as truncated.
    std::vector<uint8_t> bytes(16, 0);
    poke64(bytes, 0, (uint64_t{1} << 61) + 1);
    auto read = [&] {
        StateReader r(bytes);
        std::vector<uint64_t> v;
        r.vec(v);
    };
    EXPECT_DEATH(read(), "truncated");
}

TEST(SerializeDeathTest, HugeListCountsFailCleanly)
{
    // A Result frame: type, id, "RRES", cycles, active cycles, then
    // the thread count.
    RunResult result = resultBuiltOver(0);
    std::vector<uint8_t> frame = encodeResult(1, result);
    poke64(frame, 1 + 8 + 4 + 8 + 8, uint64_t{1} << 40);
    RunResult out;
    EXPECT_DEATH(decodeResult(frame, out), "truncated");

    // A Job frame: type, id, "SPEC", then the workload count.
    frame = encodeJob(2, fancySpec(), nullptr, 0);
    poke64(frame, 1 + 8 + 4, uint64_t{1} << 40);
    EXPECT_DEATH(decodeJob(frame), "truncated");
}

/** The offset of the one byte at which @p a and @p b differ. */
size_t
onlyDifference(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    EXPECT_EQ(a.size(), b.size());
    size_t at = 0, diffs = 0;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a[i] != b[i]) {
            at = i;
            ++diffs;
        }
    }
    EXPECT_EQ(diffs, 1u);
    return at;
}

TEST(SerializeDeathTest, OutOfRangeEnumsAreRejected)
{
    // Each case flips one enum field between two legal values to find
    // its byte, then stores 0xff there.
    RunResult base = resultBuiltOver(0);
    auto resultWith = [&](auto &&set) {
        RunResult r = base;
        set(r);
        return encodeRunResult(r);
    };
    std::vector<uint8_t> bytes = encodeRunResult(base);
    size_t at = onlyDifference(bytes, resultWith([](RunResult &r) {
                                   r.hottestBlock = Block::FpAdd;
                               }));
    bytes[at] = 0xff;
    EXPECT_DEATH(decodeRunResult(bytes), "hottest block 255 out of range");

    const struct
    {
        const char *message;
        std::vector<uint8_t> other;
    } resultCases[] = {
        {"core hottest block 255 out of range",
         resultWith([](RunResult &r) {
             r.cores[1].hottestBlock = Block::FpAdd;
         })},
        {"sedation resource 255 out of range",
         resultWith([](RunResult &r) {
             r.sedationEvents[0].resource = Block::FpAdd;
         })},
        {"trace kind 255 out of range", resultWith([](RunResult &r) {
             r.traceEvents[0].kind = TraceKind::SedRecheck;
         })},
    };
    for (const auto &c : resultCases) {
        bytes = encodeRunResult(base);
        bytes[onlyDifference(bytes, c.other)] = 0xff;
        EXPECT_DEATH(decodeRunResult(bytes), c.message);
    }

    RunSpec spec = fancySpec();
    auto jobWith = [&](auto &&set) {
        RunSpec s = spec;
        set(s);
        return encodeJob(3, s, nullptr, 0);
    };
    const struct
    {
        const char *message;
        std::vector<uint8_t> other;
    } specCases[] = {
        {"workload kind 255 out of range", jobWith([](RunSpec &s) {
             s.workloads[0].kind = WorkloadSpec::Kind::Asm;
         })},
        {"sink type 255 out of range",
         jobWith([](RunSpec &s) { s.opts.sink = SinkType::Ideal; })},
        {"DTM mode 255 out of range",
         jobWith([](RunSpec &s) { s.opts.dtm = DtmMode::None; })},
    };
    for (const auto &c : specCases) {
        bytes = encodeJob(3, spec, nullptr, 0);
        bytes[onlyDifference(bytes, c.other)] = 0xff;
        EXPECT_DEATH(decodeJob(bytes), c.message);
    }

    Tracer tracer(4);
    tracer.emit(traceEvent(10, TraceKind::StopGoTrigger, 0, 0));
    auto saved = [](Tracer &t) {
        std::vector<uint8_t> out;
        StateWriter w(out);
        t.serialize(w);
        return out;
    };
    auto restore = [](const std::vector<uint8_t> &in) {
        Tracer t(4);
        StateReader r(in);
        t.serialize(r);
    };
    Tracer other(4);
    other.emit(traceEvent(10, TraceKind::EmergencyUp, 0, 0));
    std::vector<uint8_t> mine = saved(tracer);
    std::vector<uint8_t> theirs = saved(other);
    // EmergencyUp is a Thermal event: category and kind both differ.
    ASSERT_EQ(mine.size(), theirs.size());
    std::vector<size_t> diffs;
    for (size_t i = 0; i < mine.size(); ++i)
        if (mine[i] != theirs[i])
            diffs.push_back(i);
    ASSERT_EQ(diffs.size(), 2u);
    bytes = mine;
    bytes[diffs[0]] = 0xff;
    EXPECT_DEATH(restore(bytes), "trace category 255 out of range");
    bytes = mine;
    bytes[diffs[1]] = 0xff;
    EXPECT_DEATH(restore(bytes), "trace kind 255 out of range");
}

} // namespace
