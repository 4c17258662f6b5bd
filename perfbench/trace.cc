/**
 * @file
 * Span recording and the layer probes of a traced run. Everything is
 * timed from outside public calls: cell cost centres come from the
 * simulator's own SimProfile, the rest from steady-clock spans around
 * single calls.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.hh"
#include "common/log.hh"
#include "sim/disk_store.hh"
#include "sim/serialize.hh"
#include "sim/simulator.hh"

namespace hsbench {

using namespace hs;

int
SpanRecorder::add(std::string name, double start, double end, int parent)
{
    std::lock_guard<std::mutex> lock(mu_);
    int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), start, end, parent});
    children_.emplace_back();
    if (parent >= 0)
        children_[parent].push_back(id);
    return id;
}

void
SpanRecorder::close(int id, double end)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = end;
}

std::vector<int>
SpanRecorder::children(int id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return children_[id];
}

double
SpanRecorder::selfTime(int id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Span &s = spans_[id];
    std::vector<std::pair<double, double>> cover;
    for (int c : children_[id]) {
        double a = std::max(s.start, spans_[c].start);
        double b = std::min(s.end, spans_[c].end);
        if (b > a)
            cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0, reach = s.start;
    for (auto [a, b] : cover) {
        a = std::max(a, reach);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return (s.end - s.start) - covered;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string name;
        appendJsonString(name, s.name);
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": %s, \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %d}%s\n",
                     i, name.c_str(), s.start - t0, s.end - t0, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

void
Report::fail(std::string why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(std::move(why));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ExperimentOptions
baseOptions(const Options &o)
{
    ExperimentOptions opts;
    opts.timeScale = o.scale;
    opts.sink = SinkType::Realistic;
    return opts;
}

void
replayCells(const std::vector<RunSpec> &specs,
            const std::vector<RunResult> &expected, Report &rep)
{
    SimProfile sum;
    double build = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        double t0 = now();
        std::unique_ptr<Simulator> sim = makeSimulator(specs[i]);
        build += now() - t0;
        sim->setProfiling(true);
        RunResult r = sim->run();
        const SimProfile &p = sim->profile();
        sum.tickedCycles += p.tickedCycles;
        sum.stalledCycles += p.stalledCycles;
        sum.sensorSamples += p.sensorSamples;
        sum.tickSeconds += p.tickSeconds;
        sum.thermalSeconds += p.thermalSeconds;
        sum.stallSeconds += p.stallSeconds;
        if (!(r == expected[i]))
            rep.fail("cell " + specs[i].label +
                     " differs from its traced cold replay");
    }
    rep.layer("smt.tick_s", sum.tickSeconds, "s");
    rep.layer("smt.tick_mcps",
              sum.tickSeconds > 0 ? sum.tickedCycles / sum.tickSeconds / 1e6
                                  : 0.0,
              "Mcycles/s");
    rep.layer("thermal.sample_s", sum.thermalSeconds, "s");
    rep.layer("thermal.samples", static_cast<double>(sum.sensorSamples),
              "count");
    rep.layer("sim.stall_s", sum.stallSeconds, "s");
    rep.layer("sim.stalled_mcycles", sum.stalledCycles / 1e6, "Mcycles");
    rep.layer("sim.build_s", build, "s");
}

void
probeSnapshot(const RunSpec &spec, Report &rep)
{
    std::unique_ptr<Simulator> sim = makeSimulator(spec);
    const SimConfig &cfg = sim->config();
    if (cfg.quantumCycles % cfg.sensorInterval != 0) {
        // save() is only legal at a sensor boundary; at scales whose
        // quantum does not end on one there is nothing to time.
        rep.layer("sim.snapshot_save_s", 0.0, "s");
        rep.layer("sim.snapshot_restore_s", 0.0, "s");
        rep.layer("sim.snapshot_mb", 0.0, "MB");
        return;
    }
    sim->run();
    SimSnapshot snap;
    std::vector<double> save, restore;
    for (int k = 0; k < 7; ++k) {
        double t0 = now();
        sim->save(snap);
        save.push_back(now() - t0);
    }
    for (int k = 0; k < 7; ++k) {
        std::unique_ptr<Simulator> fresh = makeSimulator(spec);
        double t0 = now();
        fresh->restore(snap);
        restore.push_back(now() - t0);
    }
    rep.layer("sim.snapshot_save_s", median(save), "s");
    rep.layer("sim.snapshot_restore_s", median(restore), "s");
    rep.layer("sim.snapshot_mb", snap.sizeBytes() / 1e6, "MB");
}

void
probeThermal(const RunSpec &spec, Report &rep)
{
    std::unique_ptr<Simulator> sim = makeSimulator(spec);
    const double dt = sim->sensorDt();
    RcNetwork net = sim->thermal().network();
    const size_t nodes = static_cast<size_t>(net.numNodes());
    constexpr double kProbeSeconds = 0.2;

    std::vector<Watts> power(nodes, 0.5);
    uint64_t steps = 0;
    double t0 = now();
    do {
        for (int k = 0; k < 64; ++k, ++steps)
            net.step(power, dt);
    } while (now() - t0 < kProbeSeconds);
    rep.layer("thermal.step_us", (now() - t0) / steps * 1e6, "us");

    for (int lanes : {2, 8, 32}) {
        std::vector<Watts> p(nodes * lanes);
        std::vector<Kelvin> temps(nodes * lanes);
        for (size_t i = 0; i < nodes; ++i)
            for (int l = 0; l < lanes; ++l) {
                p[i * lanes + l] = 0.5 + 0.01 * l;
                temps[i * lanes + l] = net.temps()[i];
            }
        uint64_t iters = 0;
        double b0 = now();
        do {
            for (int k = 0; k < 16; ++k, ++iters)
                net.stepBatch(p, temps, lanes, dt);
        } while (now() - b0 < kProbeSeconds);
        double s = now() - b0;
        rep.layer(strprintf("thermal.stepbatch_w%d_mups", lanes),
                  static_cast<double>(nodes) * lanes * iters / s / 1e6,
                  "Mupdates/s");
    }
}

void
probeSerializeAndStore(const std::vector<RunSpec> &specs,
                       const std::vector<RunResult> &results,
                       const std::string &dir, Report &rep)
{
    std::vector<std::vector<uint8_t>> blobs(results.size());
    double bytes = 0;
    uint64_t n = 0;
    double t0 = now();
    do {
        for (size_t i = 0; i < results.size(); ++i, ++n)
            blobs[i] = encodeRunResult(results[i]);
    } while (now() - t0 < 0.2);
    rep.layer("serialize.encode_us", (now() - t0) / n * 1e6, "us");
    for (const std::vector<uint8_t> &b : blobs)
        bytes += static_cast<double>(b.size());
    rep.layer("serialize.result_kb", bytes / blobs.size() / 1e3, "KB");

    n = 0;
    t0 = now();
    do {
        for (size_t i = 0; i < blobs.size(); ++i, ++n)
            if (!(decodeRunResult(blobs[i]) == results[i]))
                rep.fail("result of " + specs[i].label +
                         " does not survive a serialize round trip");
    } while (now() - t0 < 0.2);
    rep.layer("serialize.decode_us", (now() - t0) / n * 1e6, "us");

    std::filesystem::remove_all(dir);
    std::vector<double> put, load;
    {
        DiskResultStore store(dir);
        for (size_t i = 0; i < specs.size(); ++i) {
            double p0 = now();
            if (!store.store(specs[i], results[i]))
                rep.fail("store write of " + specs[i].label + " failed");
            put.push_back(now() - p0);
        }
        for (size_t i = 0; i < specs.size(); ++i) {
            RunResult back;
            double l0 = now();
            DiskResultStore::LoadStatus st = store.load(specs[i], back);
            load.push_back(now() - l0);
            if (st != DiskResultStore::LoadStatus::Hit ||
                !(back == results[i]))
                rep.fail("store read of " + specs[i].label +
                         " did not return what was written");
        }
    }
    std::filesystem::remove_all(dir);
    rep.layer("store.put_us", median(put) * 1e6, "us");
    rep.layer("store.load_us", median(load) * 1e6, "us");
}

} // namespace hsbench
