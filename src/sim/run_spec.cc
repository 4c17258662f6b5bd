#include "sim/run_spec.hh"

#include <charconv>

#include "common/log.hh"
#include "sim/serialize.hh"

namespace hs {

WorkloadSpec
WorkloadSpec::spec(std::string name)
{
    WorkloadSpec w;
    w.kind = Kind::Spec;
    w.name = std::move(name);
    return w;
}

WorkloadSpec
WorkloadSpec::maliciousVariant(int which)
{
    if (which < 1 || which > 4)
        fatal("WorkloadSpec: malicious variant must be 1..4, got %d",
              which);
    WorkloadSpec w;
    w.kind = Kind::Variant;
    w.name = "variant" + std::to_string(which);
    w.variant = which;
    return w;
}

WorkloadSpec
WorkloadSpec::assembly(std::string label, std::string text)
{
    WorkloadSpec w;
    w.kind = Kind::Asm;
    w.name = std::move(label);
    w.asmText = std::move(text);
    return w;
}

namespace {

/** Append @p v exactly as printf's "%.17g" prints it (the key text
 *  every existing store is addressed by), without printf's cost. */
void
appendNum(std::string &out, double v)
{
    char buf[40];
    auto r = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

const char *
sinkName(SinkType s)
{
    return s == SinkType::Ideal ? "ideal" : "real";
}

} // namespace

std::string
RunSpec::canonicalKey() const
{
    return buildKey(true);
}

std::string
RunSpec::divergenceKey() const
{
    return buildKey(false);
}

std::string
RunSpec::buildKey(bool with_policy) const
{
    std::string key;
    key.reserve(160);
    key += "ts=";
    appendNum(key, opts.timeScale);
    key += ";sink=";
    key += sinkName(opts.sink);
    if (with_policy) {
        key += ";dtm=";
        key += dtmModeName(opts.dtm);
    }
    key += ";conv=";
    appendNum(key, opts.convectionR);
    if (with_policy) {
        key += ";upper=";
        appendNum(key, opts.upperThreshold);
        key += ";lower=";
        appendNum(key, opts.lowerThreshold);
        key += ";usage=";
        key += opts.sedationUsageThreshold ? '1' : '0';
    }
    key += ";trace=";
    key += opts.recordTempTrace ? '1' : '0';
    key += ";etrace=";
    key += traceEvents ? '1' : '0';
    key += ";nthreads=";
    key += std::to_string(numThreads);
    key += ";shrink=";
    appendNum(key, dieShrink);
    key += ";noise=";
    appendNum(key, sensorNoiseK);
    if (with_policy) {
        key += ";desched=";
        key += std::to_string(descheduleAfter);
    }
    if (numCores > 1) {
        // Emitted only off the single-core default so every
        // pre-topology key (and its FNV hash) is unchanged.
        key += ";cores=";
        key += std::to_string(numCores);
        key += ";place=";
        for (size_t i = 0; i < placement.size(); ++i) {
            if (i)
                key += ',';
            key += std::to_string(placement[i]);
        }
    }
    for (const WorkloadSpec &w : workloads) {
        key += '|';
        switch (w.kind) {
          case WorkloadSpec::Kind::Spec:
            key += "spec:";
            key += w.name;
            break;
          case WorkloadSpec::Kind::Variant:
            key += "variant:";
            key += std::to_string(w.variant);
            break;
          case WorkloadSpec::Kind::Asm:
            key += "asm:";
            // The program text, not the label, determines behaviour.
            key += w.asmText;
            break;
        }
    }
    return key;
}

uint64_t
RunSpec::hash() const
{
    return keyHash(canonicalKey());
}

uint64_t
keyHash(const std::string &key)
{
    return fnv1a64(reinterpret_cast<const uint8_t *>(key.data()),
                   key.size());
}

RunSpec
RunSpec::withLabel(std::string l) const
{
    RunSpec s = *this;
    s.label = std::move(l);
    return s;
}

RunSpec
RunSpec::withDtm(DtmMode mode) const
{
    RunSpec s = *this;
    s.opts.dtm = mode;
    return s;
}

RunSpec
RunSpec::withSink(SinkType sink) const
{
    RunSpec s = *this;
    s.opts.sink = sink;
    return s;
}

RunSpec
RunSpec::withTraceEvents(bool on) const
{
    RunSpec s = *this;
    s.traceEvents = on;
    return s;
}

RunSpec
RunSpec::withTopology(int cores, std::vector<int> place) const
{
    RunSpec s = *this;
    s.numCores = cores;
    s.placement = std::move(place);
    return s;
}

RunSpec
soloSpec(const std::string &name, const ExperimentOptions &opts)
{
    RunSpec s;
    s.workloads.push_back(WorkloadSpec::spec(name));
    s.opts = opts;
    s.label = name;
    return s;
}

RunSpec
maliciousSoloSpec(int variant, const ExperimentOptions &opts)
{
    RunSpec s;
    s.workloads.push_back(WorkloadSpec::maliciousVariant(variant));
    s.opts = opts;
    s.label = "variant" + std::to_string(variant);
    return s;
}

RunSpec
withVariantSpec(const std::string &name, int variant,
                const ExperimentOptions &opts)
{
    RunSpec s;
    s.workloads.push_back(WorkloadSpec::spec(name));
    s.workloads.push_back(WorkloadSpec::maliciousVariant(variant));
    s.opts = opts;
    s.label = name + "+variant" + std::to_string(variant);
    return s;
}

RunSpec
specPairSpec(const std::string &a, const std::string &b,
             const ExperimentOptions &opts)
{
    RunSpec s;
    s.workloads.push_back(WorkloadSpec::spec(a));
    s.workloads.push_back(WorkloadSpec::spec(b));
    s.opts = opts;
    s.label = a + "+" + b;
    return s;
}

} // namespace hs
