/**
 * @file
 * TCP worker-sharding tests: endpoint parsing, frame round trips,
 * handshake refusal, an in-process coordinator/worker end-to-end run
 * (results must match serial execution bit for bit), and the dead-
 * worker fallback path (every cell still computed, locally).
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/framing.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "runner_events.hh"
#include "sim/remote.hh"
#include "sim/result_store.hh"
#include "sim/run_spec.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"
#include "sim/simulator.hh"

namespace {

using namespace hs;

ExperimentOptions
fastOpts()
{
    ExperimentOptions opts;
    opts.timeScale = 2000.0;
    return opts;
}

std::vector<RunSpec>
smallMatrix()
{
    ExperimentOptions opts = fastOpts();
    std::vector<RunSpec> specs;
    specs.push_back(soloSpec("gcc", opts));
    specs.push_back(soloSpec("mesa", opts));
    specs.push_back(
        soloSpec("gcc", opts).withDtm(DtmMode::SelectiveSedation));
    return specs;
}

TEST(RemoteEndpoints, ParsesSingleAndList)
{
    std::vector<Endpoint> eps;
    ASSERT_TRUE(parseEndpoints("127.0.0.1:7471", eps));
    ASSERT_EQ(eps.size(), 1u);
    EXPECT_EQ(eps[0].host, "127.0.0.1");
    EXPECT_EQ(eps[0].port, 7471);

    eps.clear();
    ASSERT_TRUE(parseEndpoints("a:1,b:65535", eps));
    ASSERT_EQ(eps.size(), 2u);
    EXPECT_EQ(eps[0].str(), "a:1");
    EXPECT_EQ(eps[1].str(), "b:65535");
}

TEST(RemoteEndpoints, RejectsMalformedEntries)
{
    std::vector<Endpoint> eps;
    EXPECT_FALSE(parseEndpoints("", eps));
    EXPECT_FALSE(parseEndpoints("noport", eps));
    EXPECT_FALSE(parseEndpoints(":7471", eps));
    EXPECT_FALSE(parseEndpoints("host:", eps));
    EXPECT_FALSE(parseEndpoints("host:0", eps));
    EXPECT_FALSE(parseEndpoints("host:65536", eps));
    EXPECT_FALSE(parseEndpoints("host:x", eps));
    EXPECT_FALSE(parseEndpoints("good:1,,also:2", eps));
}

TEST(RemoteFrames, HelloValidatesAndRefuses)
{
    std::vector<uint8_t> hello = encodeHello(FrameType::Hello);
    std::string why;
    EXPECT_TRUE(checkHello(hello, FrameType::Hello, why)) << why;

    // Wrong expected type (a Job where a Hello must be).
    EXPECT_FALSE(checkHello(hello, FrameType::HelloAck, why));

    // Tampered magic.
    std::vector<uint8_t> bad = hello;
    bad[1] ^= 0xff;
    EXPECT_FALSE(checkHello(bad, FrameType::Hello, why));

    // Tampered protocol version.
    bad = hello;
    bad[5] ^= 0x01;
    EXPECT_FALSE(checkHello(bad, FrameType::Hello, why));
    EXPECT_FALSE(why.empty());

    // Truncated frame.
    bad = std::vector<uint8_t>(hello.begin(), hello.begin() + 3);
    EXPECT_FALSE(checkHello(bad, FrameType::Hello, why));
}

TEST(RemoteFrames, JobRoundTripWithoutSnapshot)
{
    RunSpec spec = soloSpec("gcc", fastOpts());
    std::vector<uint8_t> frame = encodeJob(42, spec, nullptr, 0);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(frame[0], static_cast<uint8_t>(FrameType::Job));

    RemoteJob job = decodeJob(frame);
    EXPECT_EQ(job.id, 42u);
    EXPECT_FALSE(job.hasSnapshot());
    EXPECT_EQ(job.spec.canonicalKey(), spec.canonicalKey());
    EXPECT_EQ(job.spec.hash(), spec.hash());
}

TEST(RemoteFrames, JobRoundTripCarriesSnapshot)
{
    RunSpec spec = soloSpec("gcc", fastOpts());
    SimSnapshot snap;
    snap.cycle = 1234;
    snap.bytes = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};

    const uint64_t hash = checksum64(snap.bytes.data(), snap.bytes.size());
    RemoteJob job = decodeJob(encodeJob(7, spec, &snap, hash));
    EXPECT_EQ(job.id, 7u);
    ASSERT_TRUE(job.hasSnapshot());
    EXPECT_EQ(job.snapMode, RemoteJob::SnapMode::Inline);
    EXPECT_EQ(job.snapshotHash, hash);
    EXPECT_EQ(job.snapshot.cycle, snap.cycle);
    EXPECT_EQ(job.snapshot.bytes, snap.bytes);
}

TEST(RemoteFrames, HelloCarriesCapabilityWord)
{
    std::string why;
    uint32_t caps = 0;

    // Explicit word round-trips untouched.
    std::vector<uint8_t> hello =
        encodeHello(FrameType::Hello, kCapTelemetry);
    ASSERT_TRUE(checkHello(hello, FrameType::Hello, why, &caps)) << why;
    EXPECT_EQ(caps, kCapTelemetry);

    // The one-argument form advertises this build's word.
    caps = 0;
    ASSERT_TRUE(checkHello(encodeHello(FrameType::HelloAck),
                           FrameType::HelloAck, why, &caps))
        << why;
    EXPECT_EQ(caps, localCaps());
    // Telemetry is the only optional capability left.
    EXPECT_EQ(localCaps() & ~kCapTelemetry, 0u);
}

TEST(RemoteFrames, JobReferenceRoundTrip)
{
    RunSpec spec = soloSpec("gcc", fastOpts());
    RemoteJob job =
        decodeJob(encodeJobRef(11, spec, 0xfeedfacecafebeefull));
    EXPECT_EQ(job.id, 11u);
    ASSERT_TRUE(job.hasSnapshot());
    EXPECT_EQ(job.snapMode, RemoteJob::SnapMode::Reference);
    EXPECT_EQ(job.snapshotHash, 0xfeedfacecafebeefull);
    EXPECT_TRUE(job.snapshot.bytes.empty());
}

TEST(RemoteFrames, ResultTelemetryBlockRoundTrips)
{
    RunResult original = executeRunSpec(soloSpec("gcc", fastOpts()));

    JobTelemetry tel;
    tel.profile.totalSeconds = 1.25;
    tel.profile.snapshotSeconds = 0.5;
    tel.snapshotBytes = 4096;
    tel.snapshotFromCache = true;
    tel.peakRssKb = 123456;
    tel.profile.tickedCycles = 777;
    tel.profile.stalledCycles = 88;
    tel.profile.sensorSamples = 9;
    tel.profile.tickSeconds = 0.75;
    tel.profile.thermalSeconds = 0.25;
    tel.profile.stallSeconds = 0.125;

    RunResult back;
    JobTelemetry tback;
    bool has = false;
    EXPECT_EQ(decodeResult(encodeResult(3, original, &tel), back,
                           &tback, &has),
              3u);
    EXPECT_TRUE(back == original);
    ASSERT_TRUE(has);
    EXPECT_EQ(tback.profile.totalSeconds, tel.profile.totalSeconds);
    EXPECT_EQ(tback.profile.snapshotSeconds, tel.profile.snapshotSeconds);
    EXPECT_EQ(tback.snapshotBytes, tel.snapshotBytes);
    EXPECT_EQ(tback.snapshotFromCache, tel.snapshotFromCache);
    EXPECT_EQ(tback.peakRssKb, tel.peakRssKb);
    EXPECT_EQ(tback.profile.tickedCycles, tel.profile.tickedCycles);
    EXPECT_EQ(tback.profile.stalledCycles, tel.profile.stalledCycles);
    EXPECT_EQ(tback.profile.sensorSamples, tel.profile.sensorSamples);
    EXPECT_EQ(tback.profile.tickSeconds, tel.profile.tickSeconds);
    EXPECT_EQ(tback.profile.thermalSeconds, tel.profile.thermalSeconds);
    EXPECT_EQ(tback.profile.stallSeconds, tel.profile.stallSeconds);

    // Telemetry stays optional: a bare Result decodes with has=false.
    has = true;
    EXPECT_EQ(decodeResult(encodeResult(4, original), back, &tback,
                           &has),
              4u);
    EXPECT_FALSE(has);
}

TEST(RemoteFrames, HeartbeatRoundTrips)
{
    HeartbeatInfo hb;
    hb.jobsDone = 17;
    hb.uptimeSeconds = 12.5;
    hb.currentLabel = "gcc-sweep-3";

    HeartbeatInfo back = decodeHeartbeat(encodeHeartbeat(hb));
    EXPECT_EQ(back.jobsDone, hb.jobsDone);
    EXPECT_EQ(back.uptimeSeconds, hb.uptimeSeconds);
    EXPECT_EQ(back.currentLabel, hb.currentLabel);
}

TEST(RemoteFrames, ResultRoundTripIsBitIdentical)
{
    RunResult original = executeRunSpec(soloSpec("gcc", fastOpts()));
    RunResult back;
    EXPECT_EQ(decodeResult(encodeResult(9, original), back), 9u);
    EXPECT_TRUE(back == original);
    EXPECT_EQ(back.hostSeconds, original.hostSeconds);
}

/** A worker serving on an ephemeral localhost port in this process. */
class InProcessWorker
{
  public:
    InProcessWorker()
    {
        listener_ = tcpListen(0);
        port_ = localPort(listener_);
        thread_ = std::thread([this] { jobs_ = serveWorker(listener_); });
    }

    ~InProcessWorker()
    {
        if (thread_.joinable()) {
            stop();
            thread_.join();
        }
    }

    Endpoint endpoint() const { return Endpoint{"127.0.0.1", port_}; }
    uint64_t jobsExecuted() const { return jobs_; }

    /** Ask the serve loop to return, then join. */
    void
    stop()
    {
        RemoteWorker handle(endpoint());
        ASSERT_TRUE(handle.ensureConnected());
        handle.sendShutdown();
    }

    void
    join()
    {
        thread_.join();
    }

  private:
    Socket listener_;
    uint16_t port_ = 0;
    uint64_t jobs_ = 0;
    std::thread thread_;
};

TEST(RemoteEndToEnd, WorkerMatchesSerialExecution)
{
    std::vector<RunSpec> specs = smallMatrix();
    std::vector<RunResult> serial;
    for (const RunSpec &spec : specs)
        serial.push_back(executeRunSpec(spec));

    InProcessWorker worker;
    ResultStore store;
    ParallelRunner runner(1, &store);
    runner.setWorkers({worker.endpoint()});
    std::vector<RunResult> sharded = runner.run(specs);

    RemoteStats stats = runner.remoteStats();
    EXPECT_EQ(stats.workers, 1u);
    EXPECT_EQ(stats.lostWorkers, 0u);
    EXPECT_EQ(stats.requeuedCells, 0u);
    EXPECT_GT(stats.remoteCells, 0u);

    ASSERT_EQ(sharded.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(sharded[i] == serial[i]) << "cell " << i;
    }

    worker.stop();
    worker.join();
    EXPECT_EQ(worker.jobsExecuted() + stats.requeuedCells,
              stats.remoteCells);
}

TEST(RemoteEndToEnd, DeadWorkerFallsBackLocally)
{
    // Reserve a port with a listener that never accepts a handshake,
    // then close it: connects to the endpoint are refused, so every
    // cell must be recovered by the dispatcher's local fallback.
    uint16_t port;
    {
        Socket ghost = tcpListen(0);
        port = localPort(ghost);
    }

    std::vector<RunSpec> specs = smallMatrix();
    std::vector<RunResult> serial;
    for (const RunSpec &spec : specs)
        serial.push_back(executeRunSpec(spec));

    ResultStore store;
    ParallelRunner runner(1, &store);
    runner.setWorkers({Endpoint{"127.0.0.1", port}});
    std::vector<RunResult> results = runner.run(specs);

    RemoteStats stats = runner.remoteStats();
    EXPECT_EQ(stats.workers, 0u);
    EXPECT_EQ(stats.remoteCells, 0u);

    ASSERT_EQ(results.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(results[i] == serial[i]) << "cell " << i;
}

/**
 * A relay between a coordinator and one worker, for one connection,
 * that flips the last byte of every Job frame carrying an inline
 * snapshot: the snapshot's own bytes, after the coordinator hashed
 * them. Everything else passes through unchanged.
 */
class TamperingProxy
{
  public:
    explicit TamperingProxy(Endpoint worker)
        : listener_(tcpListen(0)), port_(localPort(listener_))
    {
        thread_ = std::thread([this, worker] { relay(worker); });
    }

    ~TamperingProxy()
    {
        if (thread_.joinable())
            thread_.join();
    }

    Endpoint endpoint() const { return Endpoint{"127.0.0.1", port_}; }

    /** Wait for the connection to end; @return the frames altered. */
    int
    finish()
    {
        thread_.join();
        return tampered_;
    }

  private:
    void
    relay(const Endpoint &worker)
    {
        Socket coord = tcpAccept(listener_, 30000);
        if (!coord.valid())
            return;
        Socket work = tcpConnect(worker.host, worker.port);
        std::vector<uint8_t> frame;
        while (work.valid() &&
               recvFrame(coord, frame, 30000) == RecvStatus::Ok &&
               !frame.empty()) {
            const auto type = static_cast<FrameType>(frame[0]);
            if (type == FrameType::Job &&
                decodeJob(frame).snapMode == RemoteJob::SnapMode::Inline) {
                frame.back() ^= 0x01;
                ++tampered_;
            }
            if (!sendFrame(work, frame) || type == FrameType::Shutdown)
                return;
            // The worker's answer, after any heartbeats; a worker that
            // drops the connection ends the relay, closing both ends.
            do {
                if (recvFrame(work, frame, 30000) != RecvStatus::Ok ||
                    frame.empty() || !sendFrame(coord, frame))
                    return;
            } while (frame[0] == static_cast<uint8_t>(FrameType::Heartbeat));
        }
    }

    Socket listener_;
    uint16_t port_ = 0;
    int tampered_ = 0;
    std::thread thread_;
};

/**
 * A snapshot damaged after the coordinator hashed it is refused by the
 * worker, which drops the connection; the coordinator recomputes the
 * cell locally, so the matrix still equals a cold run.
 */
TEST(RemoteEndToEnd, TamperedSnapshotIsRefusedAndRecomputedLocally)
{
    // One divergence group: sedation cells that differ only in their
    // thresholds, so every cell forks from the shared prefix and every
    // first job on a connection carries the snapshot inline.
    ExperimentOptions opts = fastOpts();
    opts.dtm = DtmMode::SelectiveSedation;
    std::vector<RunSpec> specs;
    for (double upper : {356.0, 356.5, 357.0, 357.5}) {
        opts.upperThreshold = upper;
        opts.lowerThreshold = upper - 1.0;
        specs.push_back(specPairSpec("gcc", "mesa", opts));
    }
    std::vector<RunResult> cold;
    for (const RunSpec &spec : specs)
        cold.push_back(executeRunSpec(spec));

    std::atomic<int> refusals{0};
    setLogEventObserver([&](const LogEventView &ev) {
        if (std::string(ev.event) == "snapshot_corrupt")
            refusals.fetch_add(1);
    });
    InProcessWorker worker;

    // Directly: the tampered job is refused, not run.
    SimSnapshot snap;
    ASSERT_GT(makePrefixSimulator(specs[0])->runPrefix(
                  {specs[0].opts.upperThreshold}, 1, snap),
              0u);
    {
        TamperingProxy proxy(worker.endpoint());
        RemoteWorker handle(proxy.endpoint());
        ASSERT_TRUE(handle.ensureConnected());
        RunResult out;
        EXPECT_FALSE(handle.runJob(0, specs[0], &snap, out));
        EXPECT_FALSE(handle.alive());
        EXPECT_EQ(proxy.finish(), 1);
        EXPECT_EQ(refusals.load(), 1);
    }

    // Through the runner: whatever cell reached the worker is requeued
    // locally and the results equal the cold run.
    TamperingProxy proxy(worker.endpoint());
    ResultStore store;
    ParallelRunner runner(1, &store);
    runner.setWorkers({proxy.endpoint()});
    std::vector<RunResult> results = runner.run(specs);
    const int tampered = proxy.finish();
    setLogEventObserver(nullptr);

    RemoteStats stats = runner.remoteStats();
    EXPECT_EQ(stats.workers, 1u);
    EXPECT_EQ(stats.remoteCells, 0u);
    EXPECT_EQ(stats.lostWorkers, static_cast<uint64_t>(tampered));
    EXPECT_EQ(stats.requeuedCells, static_cast<uint64_t>(tampered));
    EXPECT_EQ(refusals.load(), 1 + tampered);
    EXPECT_GT(runner.prefixStats().forkedRuns, 0u);
    ASSERT_EQ(results.size(), cold.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_TRUE(results[i] == cold[i]) << "cell " << i;

    worker.stop();
    worker.join();
    EXPECT_EQ(worker.jobsExecuted(), 0u);
}

TEST(RemoteEndToEnd, TwoWorkersStillFoldInSubmissionOrder)
{
    std::vector<RunSpec> specs = smallMatrix();
    std::vector<RunResult> serial;
    for (const RunSpec &spec : specs)
        serial.push_back(executeRunSpec(spec));

    InProcessWorker w0, w1;
    ResultStore store;
    ParallelRunner runner(1, &store);
    runner.setWorkers({w0.endpoint(), w1.endpoint()});
    std::vector<RunResult> sharded = runner.run(specs);

    EXPECT_EQ(runner.remoteStats().workers, 2u);
    ASSERT_EQ(sharded.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(sharded[i] == serial[i]) << "cell " << i;
}

/**
 * Fails the test binary if it is still in scope after @p limit: a
 * deadlocked lane pool must fail, not hang (even outside ctest's own
 * timeout).
 */
class Deadline
{
  public:
    explicit Deadline(std::chrono::seconds limit)
        : guard_([this, limit] {
              std::unique_lock<std::mutex> lock(mu_);
              if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
                  std::fprintf(stderr, "deadline: the runner did not "
                                       "finish in time (deadlock?)\n");
                  std::_Exit(1);
              }
          })
    {}

    Deadline(const Deadline &) = delete;
    Deadline &operator=(const Deadline &) = delete;

    ~Deadline()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_one();
        guard_.join();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread guard_; ///< last: starts once the rest is built
};

/** A 4-cell sedation threshold group on the innocent pair, on a sink
 *  of convection resistance @p conv (one divergence group per value). */
std::vector<RunSpec>
thresholdGroup(double conv)
{
    ExperimentOptions opts = fastOpts();
    opts.dtm = DtmMode::SelectiveSedation;
    opts.convectionR = conv;
    std::vector<RunSpec> specs;
    for (double upper : {356.0, 356.5, 357.0, 357.5}) {
        opts.upperThreshold = upper;
        opts.lowerThreshold = upper - 1.0;
        specs.push_back(specPairSpec("gcc", "mesa", opts));
    }
    return specs;
}

/** @p specs run with prefix sharing off: the cold reference. */
std::vector<RunResult>
runUnshared(const std::vector<RunSpec> &specs)
{
    ParallelRunner runner(1);
    runner.setPrefixSharing(false);
    return runner.run(specs);
}

TEST(RemoteEndToEnd, RemoteLaneWaitsForItsGroupsPrefix)
{
    // The group comes first, but the dispatcher lane takes the ready
    // cold cells while the only local lane builds the group's prefix;
    // it then runs or waits for the forked cells like any lane.
    std::vector<RunSpec> specs = thresholdGroup(0.8);
    specs.push_back(soloSpec("mesa", fastOpts()));
    specs.push_back(soloSpec("mcf", fastOpts()));
    const std::vector<RunResult> cold = runUnshared(specs);

    Deadline deadline(std::chrono::seconds(300));
    InProcessWorker worker;
    ResultStore store;
    ParallelRunner runner(1, &store);
    runner.setWorkers({worker.endpoint()});
    std::vector<RunResult> results = runner.run(specs);

    EXPECT_GT(runner.tally().remote, 0u);
    EXPECT_EQ(runner.prefixStats().forkedRuns, 4u);
    EXPECT_EQ(runner.remoteStats().lostWorkers, 0u);
    ASSERT_EQ(results.size(), cold.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_TRUE(results[i] == cold[i]) << "cell " << i;
}

TEST(RunnerClaims, RemoteLaneStartsColdCellsBeforeWaitingForks)
{
    // The group comes first and its prefix is long (a scale-500
    // quantum, 40x a cold cell's); the cold cells are short (scale
    // 20000). The only local lane builds the prefix, and the
    // dispatcher, which never takes a prefix task, starts every cold
    // cell before the prefix is built instead of waiting for it.
    std::vector<RunSpec> specs;
    for (RunSpec &s : thresholdGroup(0.8)) {
        s.opts.timeScale = 500.0;
        specs.push_back(s.withLabel("fork" + std::to_string(specs.size())));
    }
    ExperimentOptions shortOpts;
    shortOpts.timeScale = 20000.0;
    for (const char *name : {"mcf", "mesa", "vpr"})
        specs.push_back(soloSpec(name, shortOpts)
                            .withLabel(std::string("cold-") + name));
    const std::vector<RunResult> cold = runUnshared(specs);

    Deadline deadline(std::chrono::seconds(300));
    InProcessWorker worker;
    ResultStore store;
    test::RunnerEventLog log;
    ParallelRunner runner(1, &store);
    runner.setWorkers({worker.endpoint()});
    std::vector<RunResult> results = runner.run(specs);

    ASSERT_EQ(runner.prefixStats().groups, 1u);
    const size_t built = log.find("prefix_built", specs[0].label);
    ASSERT_NE(built, test::RunnerEventLog::npos);
    for (size_t i = 4; i < specs.size(); ++i) {
        const size_t at = log.find("started", specs[i].label);
        ASSERT_NE(at, test::RunnerEventLog::npos) << specs[i].label;
        EXPECT_LT(at, built) << specs[i].label;
        EXPECT_EQ(log.events()[at].lane, 1) << specs[i].label;
    }
    ASSERT_EQ(results.size(), cold.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_TRUE(results[i] == cold[i]) << "cell " << i;
}

TEST(RemoteEndToEnd, LanePoolDrainsMoreOrFewerGroupsThanLanes)
{
    ExperimentOptions opts = fastOpts();
    // One group among cold cells: more lanes than groups.
    std::vector<RunSpec> oneGroup = thresholdGroup(0.8);
    oneGroup.insert(oneGroup.begin(), soloSpec("mcf", opts));
    oneGroup.push_back(soloSpec("mesa", opts));
    // Four groups: more groups than lanes at jobs 1 and 2.
    std::vector<RunSpec> fourGroups;
    for (double conv : {0.6, 0.65, 0.7, 0.75})
        for (RunSpec &s : thresholdGroup(conv))
            fourGroups.push_back(std::move(s));
    fourGroups.push_back(soloSpec("mcf", opts));

    Deadline deadline(std::chrono::seconds(300));
    InProcessWorker worker;
    for (const std::vector<RunSpec> *specs : {&oneGroup, &fourGroups}) {
        const std::vector<RunResult> cold = runUnshared(*specs);
        const size_t groups = specs->size() / 4;
        for (int jobs : {1, 2, 8}) {
            SCOPED_TRACE(std::to_string(groups) + " group(s), jobs " +
                         std::to_string(jobs));
            ResultStore store;
            ParallelRunner runner(jobs, &store);
            runner.setWorkers({worker.endpoint()});
            std::vector<RunResult> results = runner.run(*specs);
            EXPECT_EQ(runner.prefixStats().groups, groups);
            EXPECT_EQ(runner.prefixStats().forkedRuns, 4 * groups);
            EXPECT_EQ(runner.tally().done, specs->size());
            ASSERT_EQ(results.size(), cold.size());
            for (size_t i = 0; i < cold.size(); ++i)
                EXPECT_TRUE(results[i] == cold[i]) << "cell " << i;
        }
    }
}

// --- fleet telemetry ---------------------------------------------------

/** Drop the host-throughput lines from a matrix JSON artifact; those
 *  two fields are the only machine-dependent bytes in it. */
std::string
stripHostLines(const std::string &json)
{
    std::istringstream in(json);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.find("host_seconds") != std::string::npos ||
            line.find("sim_cycles_per_host_sec") != std::string::npos)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

TEST(RemoteTelemetry, SnapshotShipsOnceThenByReference)
{
    // A sedation pair with a real warm-up snapshot, like the prefix
    // engine would ship for a threshold sweep.
    ExperimentOptions opts = fastOpts();
    opts.dtm = DtmMode::SelectiveSedation;
    opts.upperThreshold = 356.0;
    opts.lowerThreshold = 355.0;
    RunSpec spec = specPairSpec("gcc", "mesa", opts);

    SimSnapshot snap;
    ASSERT_GT(makePrefixSimulator(spec)->runPrefix(
                  {spec.opts.upperThreshold}, 1, snap),
              0u);
    ASSERT_GT(snap.sizeBytes(), 0u);
    RunResult warm = executeRunSpec(spec, &snap);

    // The worker runs forked cells through executeRunSpec() too, so
    // its telemetry carries the cycles it ticked past the fork.
    std::mutex mu;
    std::vector<uint64_t> ticked;
    setLogEventObserver([&](const LogEventView &ev) {
        if (std::string(ev.event) != "job_telemetry")
            return;
        for (size_t i = 0; i < ev.numFields; ++i)
            if (std::string(ev.fields[i].key) == "ticked_cycles") {
                std::lock_guard<std::mutex> lock(mu);
                ticked.push_back(ev.fields[i].u64);
            }
    });

    InProcessWorker worker;
    RemoteWorker handle(worker.endpoint());
    ASSERT_TRUE(handle.ensureConnected());
    ASSERT_TRUE(handle.caps() & kCapTelemetry);

    RunResult r1, r2;
    ASSERT_TRUE(handle.runJob(0, spec, &snap, r1));
    ASSERT_TRUE(handle.runJob(1, spec, &snap, r2));
    setLogEventObserver(nullptr);
    EXPECT_TRUE(r1 == warm);
    EXPECT_TRUE(r2 == warm);
    ASSERT_EQ(ticked.size(), 2u);
    EXPECT_GT(ticked[0], 0u);
    EXPECT_EQ(ticked[1], ticked[0]);

    // The first job carried the payload, the second only its hash.
    const WorkerTelemetry &wt = handle.telemetry();
    EXPECT_EQ(wt.jobs, 2u);
    EXPECT_EQ(wt.snapshotBytesSent, snap.sizeBytes());
    EXPECT_EQ(wt.snapshotBytesSaved, snap.sizeBytes());

    handle.sendShutdown();
    worker.join();
}

TEST(RemoteTelemetry, HeartbeatsFoldIntoWorkerCounters)
{
    setenv("HS_HEARTBEAT_MS", "1", 1);
    {
        InProcessWorker worker;
        RemoteWorker handle(worker.endpoint());
        ASSERT_TRUE(handle.ensureConnected());
        ASSERT_TRUE(handle.caps() & kCapTelemetry);

        // Give the worker time to queue a few heartbeats, then run a
        // job: the dispatcher folds everything queued ahead of the
        // Result frame.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        RunResult r;
        ASSERT_TRUE(
            handle.runJob(0, soloSpec("gcc", fastOpts()), nullptr, r));

        EXPECT_GE(handle.telemetry().heartbeats, 1u);
        EXPECT_GT(handle.telemetry().simSeconds, 0.0);

        handle.sendShutdown();
        worker.join();
    }
    unsetenv("HS_HEARTBEAT_MS");
}

TEST(RemoteTelemetry, HeartbeatHookFeedsTheRunnersLiveCount)
{
    setenv("HS_HEARTBEAT_MS", "1", 1);
    {
        // The hook sees exactly the heartbeats the handle folds.
        InProcessWorker worker;
        uint64_t hooked = 0;
        RemoteWorker handle(worker.endpoint(),
                            [&](const HeartbeatInfo &) { ++hooked; });
        ASSERT_TRUE(handle.ensureConnected());
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        RunResult r;
        ASSERT_TRUE(
            handle.runJob(0, soloSpec("gcc", fastOpts()), nullptr, r));
        EXPECT_GE(hooked, 1u);
        EXPECT_EQ(hooked, handle.telemetry().heartbeats);
        handle.sendShutdown();
        worker.join();
    }
    {
        // The runner's live count (what --status-port serves) covers
        // every heartbeat its dispatchers folded.
        InProcessWorker worker;
        ResultStore store;
        ParallelRunner runner(1, &store);
        runner.setWorkers({worker.endpoint()});
        runner.run(smallMatrix());
        RemoteStats rs = runner.remoteStats();
        ASSERT_EQ(rs.perWorker.size(), 1u);
        EXPECT_EQ(rs.heartbeats, rs.perWorker[0].heartbeats);
        EXPECT_EQ(rs.remoteCells, runner.tally().remote);
    }
    unsetenv("HS_HEARTBEAT_MS");
}

TEST(RemoteTelemetry, TwoWorkerArtifactsIdenticalAndEventsParse)
{
    std::vector<RunSpec> specs = smallMatrix();
    std::vector<RunResult> serial;
    for (const RunSpec &spec : specs)
        serial.push_back(executeRunSpec(spec));
    std::ostringstream solo;
    writeMatrixJson(solo, specs, serial);

    // Capture the whole fleet's structured log (coordinator and the
    // in-process workers share the sink).
    std::string path = "/tmp/hs_remote_events_" +
                       std::to_string(::getpid()) + ".jsonl";
    openJsonLog(path);

    std::vector<RunResult> sharded;
    RemoteStats rs;
    {
        InProcessWorker w0, w1;
        ResultStore store;
        ParallelRunner runner(1, &store);
        runner.setWorkers({w0.endpoint(), w1.endpoint()});
        sharded = runner.run(specs);
        rs = runner.remoteStats();
    }
    closeJsonLog();

    // Telemetry on changed no artifact byte (host throughput aside).
    std::ostringstream fleet;
    writeMatrixJson(fleet, specs, sharded);
    EXPECT_EQ(stripHostLines(solo.str()), stripHostLines(fleet.str()));

    // Per-worker rollups cover every remote cell.
    ASSERT_EQ(rs.perWorker.size(), 2u);
    EXPECT_EQ(rs.perWorker[0].jobs + rs.perWorker[1].jobs,
              rs.remoteCells);

    // The event stream is valid JSONL and contains the expected
    // lifecycle + telemetry records.
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    size_t queued = 0, finished = 0, telemetry = 0, connected = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string err;
        json::Value v = json::parse(line, &err);
        ASSERT_EQ(err, "") << "bad JSONL line: " << line;
        EXPECT_GE(v.numberOr("t", -1), 0.0);
        std::string comp = v.stringOr("comp", "");
        std::string event = v.stringOr("event", "");
        EXPECT_FALSE(comp.empty());
        EXPECT_FALSE(event.empty());
        if (comp == "runner" && event == "queued")
            ++queued;
        if (comp == "runner" &&
            (event == "finished" || event == "remote_finished"))
            ++finished;
        if (comp == "remote" && event == "job_telemetry")
            ++telemetry;
        if (comp == "remote" && event == "worker_connected")
            ++connected;
    }
    EXPECT_EQ(queued, specs.size());
    EXPECT_EQ(finished, specs.size());
    EXPECT_EQ(telemetry, rs.remoteCells);
    // Two engine connections, plus one short-lived connection per
    // worker for the shutdown frame.
    EXPECT_GE(connected, 2u);
    std::remove(path.c_str());
}

TEST(RemoteTelemetry, TelemetryOffKeepsResultsIdentical)
{
    // Both sides stop advertising kCapTelemetry.
    setenv("HS_HEARTBEAT_MS", "0", 1);
    EXPECT_EQ(localCaps() & kCapTelemetry, 0u);
    {
        std::vector<RunSpec> specs = smallMatrix();
        std::vector<RunResult> serial;
        for (const RunSpec &spec : specs)
            serial.push_back(executeRunSpec(spec));

        InProcessWorker worker;
        ResultStore store;
        ParallelRunner runner(1, &store);
        runner.setWorkers({worker.endpoint()});
        std::vector<RunResult> sharded = runner.run(specs);

        ASSERT_EQ(sharded.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_TRUE(sharded[i] == serial[i]) << "cell " << i;

        RemoteStats rs = runner.remoteStats();
        ASSERT_EQ(rs.perWorker.size(), 1u);
        EXPECT_EQ(rs.perWorker[0].heartbeats, 0u);
        EXPECT_EQ(rs.perWorker[0].simSeconds, 0.0);
    }
    unsetenv("HS_HEARTBEAT_MS");
}

} // namespace
