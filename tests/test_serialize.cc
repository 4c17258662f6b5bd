/**
 * @file
 * Round-trip tests for the RunSpec/RunResult binary serialiser: the
 * distributed service is only sound if a result that crossed the wire
 * (or the disk) is indistinguishable — including its JSON/CSV bytes —
 * from the locally computed original.
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "sim/results.hh"
#include "sim/run_spec.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"

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
    saveRunSpec(w, spec);
    StateReader r(bytes);
    RunSpec back = loadRunSpec(r);
    EXPECT_TRUE(r.done());

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
    saveRunSpec(w, spec);
    StateReader r(bytes);
    EXPECT_EQ(loadRunSpec(r).canonicalKey(), spec.canonicalKey());
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

TEST(Serialize, TrailingBytesAreFatal)
{
    RunResult r = executeRunSpec(soloSpec("gcc", fastOpts()));
    std::vector<uint8_t> bytes = encodeRunResult(r);
    bytes.push_back(0x5a);
    EXPECT_DEATH(decodeRunResult(bytes), "trailing");
}

} // namespace
