#include "sim/serialize.hh"

#include <cstring>

namespace hs {

uint64_t
fnv1a64(const uint8_t *data, size_t size, uint64_t seed)
{
    uint64_t h = seed;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

constexpr uint64_t kLaneMul = 0x9e3779b97f4a7c15ull; // odd

/** One lane step. A bijection of @p word for a fixed @p h (xor, a
 *  multiply by an odd constant, an xorshift), and of @p h for a fixed
 *  word, so a changed word changes the lane and every later state. */
inline uint64_t
mixWord(uint64_t h, uint64_t word)
{
    h = (h ^ word) * kLaneMul;
    return h ^ (h >> 32);
}

inline uint64_t
loadWord(const uint8_t *p)
{
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
}

} // namespace

uint64_t
checksum64(const uint8_t *data, size_t size)
{
    // Four lanes with distinct starts (hex digits of pi): a 32-byte
    // block feeds one word to each, and the lanes' multiplies overlap.
    uint64_t lane[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                        0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
    size_t i = 0;
    for (; i + 32 <= size; i += 32)
        for (size_t k = 0; k < 4; ++k)
            lane[k] = mixWord(lane[k], loadWord(data + i + 8 * k));
    for (size_t k = 0; i + 8 <= size; i += 8, ++k)
        lane[k] = mixWord(lane[k], loadWord(data + i));
    uint64_t tail = 0;
    if (i < size)
        std::memcpy(&tail, data + i, size - i);

    uint64_t h = 0;
    for (uint64_t l : lane)
        h = mixWord(h, l);
    h = mixWord(mixWord(h, tail), size);
    // MurmurHash3's 64-bit finaliser: a bijection that spreads every
    // input bit over the whole sum.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

namespace {

// The smallest wire size of one list element, which bounds a reader's
// element counts by the bytes left.
/** kind, name length, variant, text length. */
constexpr size_t kWorkloadMinBytes = 1 + 8 + 4 + 8;
/** program length, core, ten 8-byte counters and rates. */
constexpr size_t kThreadMinBytes = 8 + 4 + 10 * 8;
/** name and description lengths, then the histogram's fixed fields. */
constexpr size_t kHistogramMinBytes =
    8 + 8 + 4 + 8 + 3 * 8 + Histogram::kBuckets * 8;

constexpr Block kLastBlock = static_cast<Block>(numBlocks - 1);

} // namespace

template <class IO>
void
ThreadResult::serialize(IO &io)
{
    io.string(program);
    io.value(core);
    io.value(committed);
    io.value(ipc);
    io.value(normalCycles);
    io.value(coolingCycles);
    io.value(sedationCycles);
    io.value(intRegAccessRate);
    io.value(l1dMissRate);
    io.value(l2MissRate);
    io.value(bpredAccuracy);
    io.value(fpPerInst);
}

template <class IO>
void
RunSpec::serialize(IO &io)
{
    io.tag(stateTag("SPEC"), "RunSpec");
    io.length(workloads, kWorkloadMinBytes);
    for (WorkloadSpec &wl : workloads) {
        io.enumerated(wl.kind, WorkloadSpec::Kind::Asm, "workload kind");
        io.string(wl.name);
        io.value(wl.variant);
        io.string(wl.asmText);
    }
    io.value(opts.timeScale);
    io.enumerated(opts.sink, SinkType::Realistic, "sink type");
    io.enumerated(opts.dtm, DtmMode::FetchGating, "DTM mode");
    io.value(opts.convectionR);
    io.value(opts.upperThreshold);
    io.value(opts.lowerThreshold);
    io.value(opts.sedationUsageThreshold);
    io.value(opts.recordTempTrace);
    io.value(numThreads);
    io.value(dieShrink);
    io.value(sensorNoiseK);
    io.value(descheduleAfter);
    io.value(traceEvents);
    io.value(numCores);
    io.vec(placement);
    io.string(label);
}

template <class IO>
void
RunResult::serialize(IO &io)
{
    io.tag(stateTag("RRES"), "RunResult");
    io.value(cycles);
    io.value(activeCycles);
    io.length(threads, kThreadMinBytes);
    for (ThreadResult &t : threads)
        io.record(t);
    io.value(numCores);
    io.vec(cores);
    io.value(emergencies);
    io.value(emergenciesPerBlock);
    io.value(peakTemp);
    io.value(peakTempOverall);
    io.enumerated(hottestBlock, kLastBlock, "hottest block");
    io.value(stopAndGoTriggers);
    io.value(coolingStallCycles);
    io.vec(sedationEvents);
    io.vec(descheduledThreads);
    io.value(avgTotalPowerW);
    io.vec(tempTrace);
    io.vec(traceEvents);
    io.value(traceEventsDropped);
    io.value(hostSeconds);
    io.value(simCyclesPerHostSec);
    io.length(histograms, kHistogramMinBytes);
    for (NamedHistogram &h : histograms) {
        io.string(h.name);
        io.string(h.desc);
        io.record(h.hist);
    }
    // The raw-copied records hold enums too; the JSON and trace
    // writers panic on one past its last value.
    if constexpr (IO::kReading) {
        for (const CoreResult &c : cores)
            StateReader::checkEnum(c.hottestBlock, kLastBlock,
                                   "core hottest block");
        for (const SedationEvent &e : sedationEvents)
            StateReader::checkEnum(e.resource, kLastBlock,
                                   "sedation resource");
        for (const TraceEvent &e : traceEvents) {
            StateReader::checkEnum(e.cat, TraceCategory::Episode,
                                   "trace category");
            StateReader::checkEnum(e.kind, TraceKind::EpisodeEnd,
                                   "trace kind");
        }
    }
}

template void ThreadResult::serialize(StateWriter &);
template void ThreadResult::serialize(StateReader &);
template void RunSpec::serialize(StateWriter &);
template void RunSpec::serialize(StateReader &);
template void RunResult::serialize(StateWriter &);
template void RunResult::serialize(StateReader &);

std::vector<uint8_t>
encodeRunResult(const RunResult &result)
{
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    w.record(result);
    return bytes;
}

RunResult
decodeRunResult(std::span<const uint8_t> bytes)
{
    StateReader r(bytes.data(), bytes.size());
    RunResult result;
    r.record(result);
    r.expectEnd("decodeRunResult");
    return result;
}

} // namespace hs
