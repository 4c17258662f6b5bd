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

void
saveRunSpec(StateWriter &w, const RunSpec &spec)
{
    w.putTag(stateTag("SPEC"));
    w.put<uint64_t>(spec.workloads.size());
    for (const WorkloadSpec &wl : spec.workloads) {
        w.put<uint8_t>(static_cast<uint8_t>(wl.kind));
        w.putString(wl.name);
        w.put<int32_t>(wl.variant);
        w.putString(wl.asmText);
    }
    w.put<double>(spec.opts.timeScale);
    w.put<uint8_t>(static_cast<uint8_t>(spec.opts.sink));
    w.put<uint8_t>(static_cast<uint8_t>(spec.opts.dtm));
    w.put<double>(spec.opts.convectionR);
    w.put<double>(spec.opts.upperThreshold);
    w.put<double>(spec.opts.lowerThreshold);
    w.put<uint8_t>(spec.opts.sedationUsageThreshold ? 1 : 0);
    w.put<uint8_t>(spec.opts.recordTempTrace ? 1 : 0);
    w.put<int32_t>(spec.numThreads);
    w.put<double>(spec.dieShrink);
    w.put<double>(spec.sensorNoiseK);
    w.put<int32_t>(spec.descheduleAfter);
    w.put<uint8_t>(spec.traceEvents ? 1 : 0);
    w.put<int32_t>(spec.numCores);
    w.putVec(spec.placement);
    w.putString(spec.label);
}

RunSpec
loadRunSpec(StateReader &r)
{
    r.expectTag(stateTag("SPEC"), "RunSpec");
    RunSpec spec;
    uint64_t n = r.get<uint64_t>();
    spec.workloads.resize(static_cast<size_t>(n));
    for (WorkloadSpec &wl : spec.workloads) {
        wl.kind = static_cast<WorkloadSpec::Kind>(r.get<uint8_t>());
        wl.name = r.getString();
        wl.variant = r.get<int32_t>();
        wl.asmText = r.getString();
    }
    spec.opts.timeScale = r.get<double>();
    spec.opts.sink = static_cast<SinkType>(r.get<uint8_t>());
    spec.opts.dtm = static_cast<DtmMode>(r.get<uint8_t>());
    spec.opts.convectionR = r.get<double>();
    spec.opts.upperThreshold = r.get<double>();
    spec.opts.lowerThreshold = r.get<double>();
    spec.opts.sedationUsageThreshold = r.get<uint8_t>() != 0;
    spec.opts.recordTempTrace = r.get<uint8_t>() != 0;
    spec.numThreads = r.get<int32_t>();
    spec.dieShrink = r.get<double>();
    spec.sensorNoiseK = r.get<double>();
    spec.descheduleAfter = r.get<int32_t>();
    spec.traceEvents = r.get<uint8_t>() != 0;
    spec.numCores = r.get<int32_t>();
    r.getVec(spec.placement);
    spec.label = r.getString();
    return spec;
}

namespace {

void
saveThreadResult(StateWriter &w, const ThreadResult &t)
{
    w.putString(t.program);
    w.put<int32_t>(t.core);
    w.put<uint64_t>(t.committed);
    w.put<double>(t.ipc);
    w.put<uint64_t>(t.normalCycles);
    w.put<uint64_t>(t.coolingCycles);
    w.put<uint64_t>(t.sedationCycles);
    w.put<double>(t.intRegAccessRate);
    w.put<double>(t.l1dMissRate);
    w.put<double>(t.l2MissRate);
    w.put<double>(t.bpredAccuracy);
    w.put<double>(t.fpPerInst);
}

ThreadResult
loadThreadResult(StateReader &r)
{
    ThreadResult t;
    t.program = r.getString();
    t.core = r.get<int32_t>();
    t.committed = r.get<uint64_t>();
    t.ipc = r.get<double>();
    t.normalCycles = r.get<uint64_t>();
    t.coolingCycles = r.get<uint64_t>();
    t.sedationCycles = r.get<uint64_t>();
    t.intRegAccessRate = r.get<double>();
    t.l1dMissRate = r.get<double>();
    t.l2MissRate = r.get<double>();
    t.bpredAccuracy = r.get<double>();
    t.fpPerInst = r.get<double>();
    return t;
}

} // namespace

void
saveRunResult(StateWriter &w, const RunResult &result)
{
    w.putTag(stateTag("RRES"));
    w.put<uint64_t>(result.cycles);
    w.put<uint64_t>(result.activeCycles);
    w.put<uint64_t>(result.threads.size());
    for (const ThreadResult &t : result.threads)
        saveThreadResult(w, t);
    w.put<int32_t>(result.numCores);
    w.putVec(result.cores); // CoreResult is fixed-size POD
    w.put<uint64_t>(result.emergencies);
    w.put(result.emergenciesPerBlock);
    w.put(result.peakTemp);
    w.put<double>(result.peakTempOverall);
    w.put<uint8_t>(static_cast<uint8_t>(result.hottestBlock));
    w.put<uint64_t>(result.stopAndGoTriggers);
    w.put<uint64_t>(result.coolingStallCycles);
    w.putVec(result.sedationEvents);
    w.putVec(result.descheduledThreads);
    w.put<double>(result.avgTotalPowerW);
    w.putVec(result.tempTrace);
    w.putVec(result.traceEvents);
    w.put<uint64_t>(result.traceEventsDropped);
    w.put<double>(result.hostSeconds);
    w.put<double>(result.simCyclesPerHostSec);
    w.put<uint64_t>(result.histograms.size());
    for (const NamedHistogram &h : result.histograms) {
        w.putString(h.name);
        w.putString(h.desc);
        h.hist.saveState(w);
    }
}

RunResult
loadRunResult(StateReader &r)
{
    r.expectTag(stateTag("RRES"), "RunResult");
    RunResult result;
    result.cycles = r.get<uint64_t>();
    result.activeCycles = r.get<uint64_t>();
    uint64_t nthreads = r.get<uint64_t>();
    result.threads.resize(static_cast<size_t>(nthreads));
    for (ThreadResult &t : result.threads)
        t = loadThreadResult(r);
    result.numCores = r.get<int32_t>();
    r.getVec(result.cores);
    result.emergencies = r.get<uint64_t>();
    result.emergenciesPerBlock =
        r.get<std::array<uint64_t, numBlocks>>();
    result.peakTemp = r.get<std::array<Kelvin, numBlocks>>();
    result.peakTempOverall = r.get<double>();
    result.hottestBlock = static_cast<Block>(r.get<uint8_t>());
    result.stopAndGoTriggers = r.get<uint64_t>();
    result.coolingStallCycles = r.get<uint64_t>();
    r.getVec(result.sedationEvents);
    r.getVec(result.descheduledThreads);
    result.avgTotalPowerW = r.get<double>();
    r.getVec(result.tempTrace);
    r.getVec(result.traceEvents);
    result.traceEventsDropped = r.get<uint64_t>();
    result.hostSeconds = r.get<double>();
    result.simCyclesPerHostSec = r.get<double>();
    uint64_t nhists = r.get<uint64_t>();
    result.histograms.resize(static_cast<size_t>(nhists));
    for (NamedHistogram &h : result.histograms) {
        h.name = r.getString();
        h.desc = r.getString();
        h.hist.restoreState(r);
    }
    return result;
}

std::vector<uint8_t>
encodeRunResult(const RunResult &result)
{
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    saveRunResult(w, result);
    return bytes;
}

RunResult
decodeRunResult(std::span<const uint8_t> bytes)
{
    StateReader r(bytes.data(), bytes.size());
    RunResult result = loadRunResult(r);
    if (!r.done())
        fatal("decodeRunResult: %zu trailing bytes after the result "
              "record",
              r.remaining());
    return result;
}

} // namespace hs
