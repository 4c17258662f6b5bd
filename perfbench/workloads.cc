/**
 * @file
 * The four benchmark workloads. Each one builds a seeded matrix, runs
 * passes of it through the public engine API until the measuring time
 * is spent, and gates the outputs against a cold serial reference.
 *
 * Load is a closed loop: one process submits the whole matrix and a
 * fixed number of lanes pull cells (2 local lanes, or 1 local lane
 * plus 2 `hs_run --serve` worker processes for the campaign), so at
 * most 4 threads are busy and the numbers measure the program rather
 * than the scheduler.
 */

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "bench.hh"
#include "common/framing.hh"
#include "common/log.hh"
#include "sim/disk_store.hh"
#include "sim/manifest.hh"
#include "sim/remote.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "workload/spec_profiles.hh"

namespace hsbench {

using namespace hs;

namespace {

/** Cells recomputed cold per workload by the correctness gate. */
constexpr size_t kGateCells = 3;

using Rng64 = std::mt19937_64;

std::vector<std::string>
shuffledVictims(Rng64 &rng)
{
    std::vector<std::string> v = paperFigureBenchmarks();
    std::shuffle(v.begin(), v.end(), rng);
    return v;
}

/** Timestamps one ParallelRunner::run() call yields to its observer. */
struct PassTimes
{
    double entry = 0;       ///< just before run()
    double firstStart = -1; ///< first Started event (end of pre-pass)
    double end = 0;         ///< run() returned
    std::vector<double> started, done;
    std::vector<CellEvent::Kind> kind;

    double wall() const { return end - entry; }
    double prepass() const
    {
        return (firstStart < 0 ? end : firstStart) - entry;
    }
};

/**
 * Run one pass of @p specs on @p runner, timing each cell through the
 * CellEvent observer. With @p rec the pass is traced: a runner.run
 * span, its pre-pass and one span per cell are recorded as they
 * happen.
 */
std::vector<RunResult>
runPass(ParallelRunner &runner, const std::vector<RunSpec> &specs,
        PassTimes &t, SpanRecorder *rec, int parent)
{
    size_t n = specs.size();
    t.started.assign(n, 0.0);
    t.done.assign(n, 0.0);
    t.kind.assign(n, CellEvent::Kind::Queued);
    t.firstStart = -1;
    int runSpan = -1;
    runner.setCellObserver([&](const CellEvent &ev) {
        double at = now();
        switch (ev.kind) {
          case CellEvent::Kind::Started:
            t.started[ev.index] = at;
            if (t.firstStart < 0) {
                t.firstStart = at;
                if (rec)
                    rec->add("runner.prepass", t.entry, at, runSpan);
            }
            break;
          case CellEvent::Kind::Finished:
          case CellEvent::Kind::RemoteFinished:
          case CellEvent::Kind::DiskHit:
          case CellEvent::Kind::CacheHit:
            t.done[ev.index] = at;
            t.kind[ev.index] = ev.kind;
            if (rec)
                rec->add(std::string("cell ") + ev.label,
                         t.started[ev.index], at, runSpan);
            break;
          default:
            break;
        }
    });
    t.entry = now();
    if (rec)
        runSpan = rec->add("runner.run", t.entry, t.entry, parent);
    std::vector<RunResult> out = runner.run(specs);
    t.end = now();
    if (rec)
        rec->close(runSpan, t.end);
    runner.setCellObserver(nullptr);
    return out;
}

uint64_t
deliveredCycles(const std::vector<RunResult> &results)
{
    uint64_t c = 0;
    for (const RunResult &r : results)
        c += r.cycles;
    return c;
}

/** True while the measuring loop should run another pass. */
bool
morePasses(const Options &o, double t0, size_t passes, size_t ops)
{
    double spent = now() - t0;
    size_t minPasses = o.trace ? 2 * kMinPasses : kMinPasses;
    if (passes < minPasses)
        return true;
    // The op floor may stretch a run, but never past 4x its time.
    if (!o.trace && ops < kMinOps && spent < 4 * o.seconds)
        return true;
    return spent < o.seconds;
}

/** Traced runs alternate traced and untraced passes so the tracing
 *  overhead is measured inside one process. */
bool
tracedPass(const Options &o, size_t pass)
{
    return o.trace && pass % 2 == 1;
}

/**
 * Start a pass as a fresh process would: hand freed heap back to the
 * kernel and reset the peak-RSS mark, so peak_rss_mb measures what one
 * pass holds rather than allocator history of the passes before it.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS since the last reset (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    fatal("perfbench: no VmHWM in /proc/self/status");
    return 0.0;
}

/**
 * Bookkeeping shared by every workload: checks each pass against the
 * first, keeps the per-pass figures, and runs the cold-reference gate.
 */
struct Measure
{
    const Options &o;
    Report &rep;
    SpanRecorder *rec;
    double t0 = now();
    size_t passes = 0;
    std::vector<RunResult> first;
    // Per traced pass: wall, lane-seconds and summed layer self time.
    std::vector<double> tracedWall, laneS, layerS;
    // Per pass engine figures (traced runs report their medians).
    std::vector<double> prepassS, busyS, idleFrac, forked, savedFrac;

    Measure(const Options &opts, Report &r, SpanRecorder *recorder)
        : o(opts), rep(r), rec(recorder)
    {}

    /** True while another pass should run; if so, starts it. */
    bool
    more() const
    {
        if (!morePasses(o, t0, passes, rep.opS.size()))
            return false;
        resetPeakRss();
        return true;
    }

    /** Fold one finished pass in. @p ops are its op seconds. */
    void
    pass(const std::vector<RunSpec> &specs, std::vector<RunResult> &&res,
         const PassTimes &t, const std::vector<double> &setups,
         const std::vector<double> &ops, bool wasTraced, int passSpan)
    {
        rep.attempted += specs.size();
        for (size_t i = 0; i < specs.size(); ++i) {
            if (res[i].cycles == 0)
                rep.fail("cell " + specs[i].label + " was not delivered");
            else if (!first.empty() && !(res[i] == first[i]))
                rep.fail("cell " + specs[i].label +
                         " differs from its first pass");
        }
        double wall = t.wall();
        double busy = 0;
        for (size_t i = 0; i < specs.size(); ++i)
            busy += t.done[i] - t.started[i];
        prepassS.push_back(t.prepass());
        busyS.push_back(busy);
        idleFrac.push_back(1.0 - busy / (wall * rep.lanes));
        if (wasTraced) {
            tracedWall.push_back(wall);
            laneS.push_back(wall * rep.lanes);
            // Leaf spans of runner.run: the pre-pass and every cell.
            double layer = 0;
            for (int c : rec->children(passSpan))
                if (rec->spans()[c].name == "runner.run")
                    for (int leaf : rec->children(c))
                        layer += rec->selfTime(leaf);
            layerS.push_back(layer);
        } else {
            rep.setupS.insert(rep.setupS.end(), setups.begin(),
                              setups.end());
            rep.wallS.push_back(wall);
            rep.rssMb.push_back(peakRssMb());
            rep.mcps.push_back(deliveredCycles(res) / wall / 1e6);
            rep.opS.insert(rep.opS.end(), ops.begin(), ops.end());
        }
        if (first.empty())
            first = std::move(res);
        ++passes;
    }

    /** Engine counters of one pass's runner. */
    void
    engine(const ParallelRunner &runner)
    {
        PrefixShareStats ps = runner.prefixStats();
        forked.push_back(static_cast<double>(ps.forkedRuns));
        savedFrac.push_back(static_cast<double>(ps.savedCycles) /
                            deliveredCycles(first));
    }

    /**
     * Recompute a seeded sample of cells through executeRunSpec() and
     * compare with operator==. Every pass matched the first one, so a
     * wrong first result makes the cell wrong in every pass.
     */
    void
    gate(const std::vector<RunSpec> &specs)
    {
        Rng64 rng(o.seed * 0x9e3779b97f4a7c15ull + 17);
        std::vector<size_t> idx(specs.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::shuffle(idx.begin(), idx.end(), rng);
        idx.resize(std::min(kGateCells, idx.size()));
        for (size_t k = 0; k < idx.size(); ++k) {
            RunResult ref = executeRunSpec(specs[idx[k]]);
            if (o.injectMismatch && k == 0)
                ref.cycles += 1;
            if (!(ref == first[idx[k]]))
                for (size_t p = 0; p < passes; ++p)
                    rep.fail("cell " + specs[idx[k]].label +
                             " differs from its cold serial reference");
        }
    }

    /** Engine and accounting rows of a traced run. */
    void
    layers()
    {
        rep.layer("runner.prepass_s", median(prepassS), "s");
        rep.layer("runner.lane_busy_s", median(busyS), "s");
        rep.layer("runner.lane_idle_frac", median(idleFrac), "frac");
        rep.layer("runner.forked_cells", median(forked), "count");
        rep.layer("runner.saved_cycles_frac", median(savedFrac), "frac");
        double lane = median(laneS), layer = median(layerS);
        rep.layer("accounting.lane_s", lane, "s");
        rep.layer("accounting.layer_sum_s", layer, "s");
        rep.layer("accounting.leftover_frac",
                  lane > 0 ? 1.0 - layer / lane : 0.0, "frac");
        double u = median(rep.wallS);
        rep.layer("trace.overhead_frac",
                  u > 0 ? median(tracedWall) / u - 1.0 : 0.0, "frac");
    }
};

/** Batch-engine rows; all zero while the default batch width is 1. */
void
batchLayers(const std::vector<BatchStats> &per_pass, Report &rep)
{
    std::vector<double> lanes, peeled, scout;
    for (const BatchStats &b : per_pass) {
        lanes.push_back(static_cast<double>(b.lanes));
        peeled.push_back(b.lanes ? static_cast<double>(b.peeledLanes) /
                                       b.lanes
                                 : 0.0);
        scout.push_back(b.scoutCycles / 1e6);
    }
    rep.layer("batch.lanes", median(lanes), "count");
    rep.layer("batch.peeled_frac", median(peeled), "frac");
    rep.layer("batch.scout_mcycles", median(scout), "Mcycles");
}

/** A per-layer row name with its unit. */
struct LayerName
{
    const char *name;
    const char *unit;
};

/** Rows of layers a workload does not pass through, kept at 0 so every
 *  traced run reports the same names. */
void
zeroLayers(Report &rep, std::initializer_list<LayerName> rows)
{
    for (const LayerName &r : rows)
        rep.layer(r.name, 0.0, r.unit);
}

const std::initializer_list<LayerName> kRemoteLayers = {
    {"remote.frame_rtt_us", "us"},     {"remote.job_overhead_s", "s"},
    {"remote.snapshot_mb_sent", "MB"}, {"remote.snapshot_mb_saved", "MB"},
    {"remote.requeued_cells", "count"}, {"remote.lost_workers", "count"}};

const std::initializer_list<LayerName> kStoreLayers = {
    {"store.hit_frac", "frac"}, {"store.corrupt", "count"},
    {"store.manifest_s", "s"}};

/** Probe rows every traced run reports: every cell of the matrix is
 *  replayed and checked, not a sample. */
void
probeLayers(const Options &o, const std::vector<RunSpec> &specs,
            const std::vector<RunResult> &results, Report &rep)
{
    replayCells(specs, results, rep);
    // A benign cell with no DTM is legal to save() after its run.
    ExperimentOptions none = baseOptions(o);
    none.dtm = DtmMode::None;
    RunSpec probe = specPairSpec("gcc", "mesa", none).withLabel("probe");
    probeSnapshot(probe, rep);
    probeThermal(probe, rep);
    probeSerializeAndStore(specs, results, o.workDir + "/probe_store",
                           rep);
}

// --- matrices ----------------------------------------------------------

const char *
modeTag(DtmMode m)
{
    return m == DtmMode::StopAndGo ? "stopgo" : "sedation";
}

RunSpec
attackCell(const Options &o, const std::string &victim, int variant,
           DtmMode mode)
{
    ExperimentOptions opts = baseOptions(o);
    opts.dtm = mode;
    return withVariantSpec(victim, variant, opts)
        .withLabel(victim + "+v" + std::to_string(variant) + "_" +
                   modeTag(mode));
}

/**
 * All ten paper victims x variants {1, 2} x {stop-and-go, sedation}:
 * 40 cells in seeded order. Every victim is in every matrix because
 * the largest program present sets peak RSS and the mix sets the
 * pass time; the seed draws the order and the gate sample.
 */
std::vector<RunSpec>
attackMatrix(const Options &o)
{
    std::vector<RunSpec> specs;
    for (const std::string &v : paperFigureBenchmarks())
        for (int variant : {1, 2})
            for (DtmMode m : {DtmMode::StopAndGo,
                              DtmMode::SelectiveSedation})
                specs.push_back(attackCell(o, v, variant, m));
    Rng64 rng(o.seed);
    std::shuffle(specs.begin(), specs.end(), rng);
    return specs;
}

/**
 * One pair's fig-5-style policy lanes: none, stop-and-go, DVFS,
 * fetch-gating, a sedation threshold ladder and the usage ablation
 * (@p full), or an 8-lane subset of them.
 */
void
policyLanes(const Options &o, const std::string &a, const std::string &b,
            int cores, bool full, std::vector<RunSpec> &out)
{
    auto lane = [&](const std::string &kind, ExperimentOptions opts) {
        RunSpec s = specPairSpec(a, b, opts);
        if (cores > 1)
            s = s.withTopology(cores, {0, 1});
        out.push_back(s.withLabel(a + "+" + b + (cores > 1 ? "_2c_" : "_") +
                                  kind));
    };
    ExperimentOptions base = baseOptions(o);
    for (DtmMode m : {DtmMode::None, DtmMode::StopAndGo,
                      DtmMode::DvfsThrottle, DtmMode::FetchGating}) {
        ExperimentOptions opts = base;
        opts.dtm = m;
        lane(dtmModeName(m), opts);
    }
    std::vector<double> ladder =
        full ? std::vector<double>{355.0, 355.5, 356.0, 356.5, 357.0,
                                   357.5, 358.0}
             : std::vector<double>{355.5, 356.5, 357.5};
    std::vector<double> usage =
        full ? std::vector<double>{356.0, 357.0}
             : std::vector<double>{356.0};
    for (bool use : {false, true})
        for (double upper : use ? usage : ladder) {
            ExperimentOptions s = base;
            s.dtm = DtmMode::SelectiveSedation;
            s.upperThreshold = upper;
            s.lowerThreshold = upper - 1.0;
            s.sedationUsageThreshold = use;
            lane(strprintf("%s%.1f", use ? "usage" : "sed", upper), s);
        }
}

/**
 * A seeded perfect matching of the ten paper benchmarks into five
 * single-core pairs plus a gcc+mesa pair on a 2-core die, 13 lanes
 * each: 78 cells. Every benchmark appears once, so the matrix's total
 * work changes little from seed to seed; the 2-core pair is fixed
 * because its die and programs set the largest snapshot and simulator.
 */
std::vector<RunSpec>
policyMatrix(const Options &o)
{
    Rng64 rng(o.seed);
    std::vector<std::string> v = shuffledVictims(rng);
    std::vector<RunSpec> specs;
    for (size_t p = 0; p < v.size() / 2; ++p)
        policyLanes(o, v[2 * p], v[2 * p + 1], 1, true, specs);
    policyLanes(o, "gcc", "mesa", 2, true, specs);
    return specs;
}

/**
 * Eight seeded victims, each as variant 1 under stop-and-go and
 * variant 2 under sedation, plus one 8-lane gcc+mesa policy group:
 * 24 cells in seeded order. The group's pair is fixed because its
 * program footprint sets the size of the snapshot every pass ships.
 */
std::vector<RunSpec>
campaignMatrix(const Options &o)
{
    Rng64 rng(o.seed);
    std::vector<std::string> v = shuffledVictims(rng);
    std::vector<RunSpec> specs;
    for (size_t k = 0; k < 8; ++k) {
        specs.push_back(attackCell(o, v[k], 1, DtmMode::StopAndGo));
        specs.push_back(attackCell(o, v[k], 2, DtmMode::SelectiveSedation));
    }
    policyLanes(o, "gcc", "mesa", 1, false, specs);
    std::shuffle(specs.begin(), specs.end(), rng);
    return specs;
}

// --- worker processes ----------------------------------------------------

std::string
selfDir()
{
    return std::filesystem::read_symlink("/proc/self/exe")
        .parent_path()
        .string();
}

uint16_t
freePort()
{
    Socket s = tcpListen(0);
    uint16_t port = localPort(s);
    if (port == 0)
        fatal("perfbench: no free loopback port");
    return port;
}

/**
 * Loopback `hs_run --serve` worker processes, spawned and handshaken
 * by the constructor and shut down and reaped by the destructor.
 */
class Fleet
{
  public:
    explicit Fleet(int n)
    {
        for (int i = 0; i < n; ++i) {
            Proc w = spawn();
            procs_.push_back(w);
            Socket sock = connectWhenUp(w);
            rtt_.push_back(handshake(sock));
            endpoints_.push_back(Endpoint{"127.0.0.1", w.port});
        }
    }

    ~Fleet()
    {
        for (Proc &w : procs_)
            stop(w);
    }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    const std::vector<Endpoint> &endpoints() const { return endpoints_; }
    /** HSRP Hello -> HelloAck round trip per worker, in seconds. */
    const std::vector<double> &rtt() const { return rtt_; }

  private:
    struct Proc
    {
        pid_t pid = -1;
        uint16_t port = 0;
    };

    static Proc
    spawn()
    {
        static const std::string exe = selfDir() + "/hs_run";
        Proc w;
        w.port = freePort();
        std::string port = std::to_string(w.port);
        w.pid = fork();
        if (w.pid < 0)
            fatal("perfbench: fork failed");
        if (w.pid == 0) {
            // Never outlive the benchmark, even if it is killed.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            int null = open("/dev/null", O_RDWR);
            dup2(null, 0);
            dup2(null, 1);
            dup2(null, 2);
            execl(exe.c_str(), exe.c_str(), "--serve", port.c_str(),
                  static_cast<char *>(nullptr));
            _exit(127);
        }
        return w;
    }

    /** Connect to a freshly spawned worker, retrying until it
     *  listens (a raw connect, so the retries stay quiet). */
    static Socket
    connectWhenUp(const Proc &w)
    {
        double deadline = now() + 20.0;
        while (now() < deadline) {
            int fd = socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(w.port);
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)) == 0)
                return Socket(fd);
            ::close(fd);
            if (waitpid(w.pid, nullptr, WNOHANG) == w.pid)
                fatal("perfbench: worker on port %u exited at start-up",
                      w.port);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        fatal("perfbench: worker on port %u never listened", w.port);
        return Socket();
    }

    static double
    handshake(const Socket &sock)
    {
        std::vector<uint8_t> ack;
        std::string why;
        double t0 = now();
        if (!sendFrame(sock, encodeHello(FrameType::Hello)) ||
            recvFrame(sock, ack, 10000) != RecvStatus::Ok ||
            !checkHello(ack, FrameType::HelloAck, why))
            fatal("perfbench: worker handshake failed: %s", why.c_str());
        return now() - t0;
    }

    /** Ask @p w to shut down and reap it (killing it if it lingers). */
    static void
    stop(Proc &w)
    {
        RemoteWorker rw(Endpoint{"127.0.0.1", w.port});
        if (rw.ensureConnected())
            rw.sendShutdown();
        double deadline = now() + 5.0;
        while (waitpid(w.pid, nullptr, WNOHANG) == 0) {
            if (now() > deadline) {
                kill(w.pid, SIGKILL);
                waitpid(w.pid, nullptr, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    std::vector<Proc> procs_;
    std::vector<Endpoint> endpoints_;
    std::vector<double> rtt_;
};

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/**
 * Time @p reps set-ups made by @p make into @p times and return the
 * last one's product (earlier ones are torn down untimed). Set-ups
 * are short and the host is noisy, so each pass takes several.
 */
template <class Make>
auto
timedSetup(int reps, std::vector<double> &times, Make &&make)
{
    times.clear();
    for (int r = 1;; ++r) {
        double t0 = now();
        auto product = make();
        times.push_back(now() - t0);
        if (r >= reps)
            return product;
    }
}

/** What an in-process pass needs before its first dispatch. */
struct LocalSetup
{
    std::vector<RunSpec> specs;
    std::unique_ptr<ResultStore> store;
    std::unique_ptr<ParallelRunner> runner;
};

/**
 * The measuring loop of the two in-process simulating workloads: a
 * fresh matrix, ResultStore and 2-lane runner per pass. @p op turns a
 * pass's timestamps into its op seconds.
 */
template <class Matrix, class Op>
Report
runLocal(const Options &o, const char *name, Matrix &&matrix, Op &&op,
         const char *opName)
{
    Report rep;
    rep.lanes = 2;
    rep.opName = opName;
    SpanRecorder rec;
    Measure m(o, rep, &rec);
    std::vector<RunSpec> specs;
    std::vector<BatchStats> batch;
    std::vector<double> setups;
    while (m.more()) {
        bool traced = tracedPass(o, m.passes);
        int span = traced ? rec.add("pass", now(), now(), -1) : -1;
        LocalSetup s = timedSetup(8, setups, [&] {
            LocalSetup ls;
            ls.specs = matrix(o);
            ls.store = std::make_unique<ResultStore>();
            ls.runner =
                std::make_unique<ParallelRunner>(rep.lanes, ls.store.get());
            return ls;
        });
        specs = s.specs;
        PassTimes t;
        std::vector<RunResult> res =
            runPass(*s.runner, specs, t, traced ? &rec : nullptr, span);
        std::vector<double> ops;
        for (size_t i = 0; i < specs.size(); ++i)
            ops.push_back(op(t, i));
        m.pass(specs, std::move(res), t, setups, ops, traced, span);
        m.engine(*s.runner);
        batch.push_back(s.runner->batchStats());
        if (traced)
            rec.close(span, now());
    }
    m.gate(specs);
    if (o.trace) {
        m.layers();
        batchLayers(batch, rep);
        zeroLayers(rep, kRemoteLayers);
        zeroLayers(rep, kStoreLayers);
        probeLayers(o, specs, m.first, rep);
        rec.write(o.workDir + "/spans-" + name + ".json");
    }
    return rep;
}

/** Distinct fixture cells reusing @p payload_specs' results: each one
 *  nudges the convection resistance, a keyed field. */
std::vector<RunSpec>
fixtureMatrix(const std::vector<RunSpec> &payload_specs, size_t n)
{
    std::vector<RunSpec> specs;
    specs.reserve(n);
    for (size_t j = 0; j < n; ++j) {
        RunSpec s = payload_specs[j % payload_specs.size()];
        s.opts.convectionR += 1e-7 * static_cast<double>(j + 1);
        s.label = "fixture" + std::to_string(j);
        specs.push_back(std::move(s));
    }
    return specs;
}

} // namespace

// --- workloads -------------------------------------------------------------

Report
runAttackMatrix(const Options &o)
{
    return runLocal(
        o, "attack_matrix", attackMatrix,
        [](const PassTimes &t, size_t i) {
            return t.done[i] - t.started[i];
        },
        "one attack cell, Started to Finished");
}

Report
runPolicySweep(const Options &o)
{
    // Forked cells finish almost at once after the shared warm-up, so
    // their own run time says little; a user waits from submission.
    return runLocal(
        o, "policy_sweep", policyMatrix,
        [](const PassTimes &t, size_t i) { return t.done[i] - t.entry; },
        "one cell's turnaround from matrix submission");
}

Report
runCampaignCold(const Options &o)
{
    Report rep;
    rep.lanes = 3;
    rep.opName = "one cell's turnaround seen by the coordinator";
    SpanRecorder rec;
    Measure m(o, rep, &rec);
    std::vector<RunSpec> specs;
    std::vector<BatchStats> batch;
    std::vector<double> setups, rtt, manifestS, overhead, sent, saved,
        requeued, lost;
    const std::string storeDir = o.workDir + "/campaign_store";

    struct Campaign
    {
        std::vector<RunSpec> specs;
        std::unique_ptr<DiskResultStore> disk;
        std::unique_ptr<ResultStore> store;
        std::unique_ptr<Fleet> fleet;
        std::unique_ptr<ParallelRunner> runner;
    };
    while (m.more()) {
        bool traced = tracedPass(o, m.passes);
        int span = traced ? rec.add("pass", now(), now(), -1) : -1;
        double s0 = now();
        // Every set-up opens a store of its own, so each one is fresh.
        std::filesystem::create_directories(storeDir);
        int rep_no = 0;
        Campaign c = timedSetup(3, setups, [&] {
            Campaign c;
            c.specs = campaignMatrix(o);
            c.disk = std::make_unique<DiskResultStore>(
                storeDir + "/" + std::to_string(rep_no++));
            double m0 = now();
            prepareCampaign(*c.disk, c.specs);
            manifestS.push_back(now() - m0);
            c.store = std::make_unique<ResultStore>();
            c.store->attachDisk(c.disk.get());
            c.fleet = std::make_unique<Fleet>(2);
            c.runner = std::make_unique<ParallelRunner>(1, c.store.get());
            c.runner->setWorkers(c.fleet->endpoints());
            return c;
        });
        rtt.insert(rtt.end(), c.fleet->rtt().begin(), c.fleet->rtt().end());
        if (traced)
            rec.add("setup", s0, now(), span);
        specs = c.specs;

        PassTimes t;
        std::vector<RunResult> res =
            runPass(*c.runner, specs, t, traced ? &rec : nullptr, span);
        c.fleet.reset();
        std::filesystem::remove_all(storeDir);

        std::vector<double> ops;
        double remoteTurn = 0;
        for (size_t i = 0; i < specs.size(); ++i) {
            ops.push_back(t.done[i] - t.started[i]);
            if (t.kind[i] == CellEvent::Kind::RemoteFinished)
                remoteTurn += t.done[i] - t.started[i];
        }
        if (c.disk->writes() != specs.size())
            rep.fail(strprintf("campaign store took %llu of %zu writes",
                               static_cast<unsigned long long>(
                                   c.disk->writes()),
                               specs.size()));
        RemoteStats rs = c.runner->remoteStats();
        double remoteWork = 0, bytesSent = 0, bytesSaved = 0;
        for (const WorkerTelemetry &w : rs.perWorker) {
            remoteWork += w.simSeconds + w.restoreSeconds;
            bytesSent += w.snapshotBytesSent;
            bytesSaved += w.snapshotBytesSaved;
        }
        overhead.push_back(rs.remoteCells
                               ? (remoteTurn - remoteWork) / rs.remoteCells
                               : 0.0);
        sent.push_back(bytesSent / 1e6);
        saved.push_back(bytesSaved / 1e6);
        requeued.push_back(static_cast<double>(rs.requeuedCells));
        lost.push_back(static_cast<double>(rs.lostWorkers));

        m.pass(specs, std::move(res), t, setups, ops, traced, span);
        m.engine(*c.runner);
        batch.push_back(c.runner->batchStats());
        if (traced)
            rec.close(span, now());
    }
    m.gate(specs);
    if (o.trace) {
        m.layers();
        batchLayers(batch, rep);
        rep.layer("remote.frame_rtt_us", median(rtt) * 1e6, "us");
        rep.layer("remote.job_overhead_s", median(overhead), "s");
        rep.layer("remote.snapshot_mb_sent", median(sent), "MB");
        rep.layer("remote.snapshot_mb_saved", median(saved), "MB");
        rep.layer("remote.requeued_cells", sum(requeued), "count");
        rep.layer("remote.lost_workers", sum(lost), "count");
        rep.layer("store.hit_frac", 0.0, "frac"); // a fresh store
        rep.layer("store.corrupt", 0.0, "count");
        rep.layer("store.manifest_s", median(manifestS), "s");
        probeLayers(o, specs, m.first, rep);
        rec.write(o.workDir + "/spans-campaign_cold.json");
    }
    return rep;
}

Report
runStoreWarm(const Options &o)
{
    Report rep;
    rep.lanes = 2;
    rep.opName = "one store lookup, Started to DiskHit";
    constexpr size_t kRecords = 4096;
    const std::string dir = o.workDir + "/warm_store";

    // Untimed fixture: a few real payloads under many distinct specs.
    Rng64 rng(o.seed);
    std::vector<std::string> victims = shuffledVictims(rng);
    std::vector<RunSpec> payloadSpecs;
    for (int k = 0; k < 4; ++k)
        payloadSpecs.push_back(
            attackCell(o, victims[k], 1 + k % 2,
                       k < 2 ? DtmMode::StopAndGo
                             : DtmMode::SelectiveSedation));
    std::vector<RunResult> payloads =
        ParallelRunner(rep.lanes, nullptr).run(payloadSpecs);
    std::filesystem::remove_all(dir);
    {
        DiskResultStore fixture(dir);
        std::vector<RunSpec> specs = fixtureMatrix(payloadSpecs, kRecords);
        for (size_t j = 0; j < specs.size(); ++j)
            if (!fixture.store(specs[j], payloads[j % payloads.size()]))
                fatal("perfbench: cannot write the store fixture");
    }

    SpanRecorder rec;
    Measure m(o, rep, &rec);
    std::vector<RunSpec> specs;
    std::vector<double> setups, manifestS, hitFrac, corrupt;
    std::vector<BatchStats> batch;

    struct Warm
    {
        std::vector<RunSpec> specs;
        std::unique_ptr<DiskResultStore> disk;
        std::unique_ptr<ResultStore> store;
        std::unique_ptr<ParallelRunner> runner;
        uint64_t stored = 0;
    };
    while (m.more()) {
        bool traced = tracedPass(o, m.passes);
        int span = traced ? rec.add("pass", now(), now(), -1) : -1;
        Warm w = timedSetup(1, setups, [&] {
            Warm w;
            w.specs = fixtureMatrix(payloadSpecs, kRecords);
            w.disk = std::make_unique<DiskResultStore>(dir);
            double m0 = now();
            w.stored = prepareCampaign(*w.disk, w.specs).storedCells;
            manifestS.push_back(now() - m0);
            w.store = std::make_unique<ResultStore>();
            w.store->attachDisk(w.disk.get());
            w.runner = std::make_unique<ParallelRunner>(rep.lanes,
                                                        w.store.get());
            return w;
        });
        specs = w.specs;
        if (w.stored != specs.size())
            rep.fail("store fixture is missing cells");

        PassTimes t;
        std::vector<RunResult> res =
            runPass(*w.runner, specs, t, traced ? &rec : nullptr, span);
        std::vector<double> ops;
        for (size_t i = 0; i < specs.size(); ++i) {
            ops.push_back(t.done[i] - t.started[i]);
            if (t.kind[i] != CellEvent::Kind::DiskHit)
                rep.fail("lookup " + specs[i].label + " was not a disk hit");
            if (!(res[i] == payloads[i % payloads.size()]))
                rep.fail("lookup " + specs[i].label +
                         " differs from its fixture payload");
        }
        if (w.disk->corrupt() != 0)
            rep.fail("store reported corrupt records");
        hitFrac.push_back(static_cast<double>(w.disk->hits()) /
                          specs.size());
        corrupt.push_back(static_cast<double>(w.disk->corrupt()));
        m.pass(specs, std::move(res), t, setups, ops, traced, span);
        m.engine(*w.runner);
        batch.push_back(w.runner->batchStats());
        if (traced)
            rec.close(span, now());
    }
    // The payloads themselves are the reference: recompute them cold.
    for (size_t k = 0; k < payloadSpecs.size(); ++k) {
        RunResult ref = executeRunSpec(payloadSpecs[k]);
        if (o.injectMismatch && k == 0)
            ref.cycles += 1;
        // A wrong payload makes every lookup that served it wrong.
        if (!(ref == payloads[k]))
            for (size_t n = 0; n < m.passes * kRecords / payloads.size();
                 ++n)
                rep.fail("payload " + payloadSpecs[k].label +
                         " differs from its cold serial reference");
    }
    if (o.trace) {
        m.layers();
        batchLayers(batch, rep);
        zeroLayers(rep, kRemoteLayers);
        rep.layer("store.hit_frac", median(hitFrac), "frac");
        rep.layer("store.corrupt", sum(corrupt), "count");
        rep.layer("store.manifest_s", median(manifestS), "s");
        probeLayers(o, payloadSpecs, payloads, rep);
        rec.write(o.workDir + "/spans-store_warm.json");
    }
    std::filesystem::remove_all(dir);
    return rep;
}

} // namespace hsbench
