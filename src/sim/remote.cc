#include "sim/remote.hh"

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/config.hh"
#include "common/fault.hh"
#include "common/log.hh"
#include "common/state_buffer.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"
#include "sim/simulator.hh"

namespace hs {

bool
parseEndpoints(const std::string &list, std::vector<Endpoint> &out)
{
    out.clear();
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        std::string item =
            list.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        size_t colon = item.rfind(':');
        if (colon == std::string::npos || colon == 0)
            return false;
        std::string host = item.substr(0, colon);
        std::string port = item.substr(colon + 1);
        char *end = nullptr;
        long p = std::strtol(port.c_str(), &end, 10);
        if (end == port.c_str() || *end != '\0' || p < 1 || p > 65535)
            return false;
        out.push_back({host, static_cast<uint16_t>(p)});
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return !out.empty();
}

uint32_t
localCaps()
{
    return knobInt("HS_HEARTBEAT_MS") > 0 ? kCapTelemetry : 0;
}

std::vector<uint8_t>
encodeHello(FrameType type)
{
    return encodeHello(type, localCaps());
}

std::vector<uint8_t>
encodeHello(FrameType type, uint32_t caps)
{
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    w.value(static_cast<uint8_t>(type));
    w.value(kRemoteMagic);
    w.value(kRemoteProtocolVersion);
    w.value(kResultFormatVersion);
    w.value(caps);
    return bytes;
}

bool
checkHello(const std::vector<uint8_t> &frame, FrameType expected,
           std::string &why, uint32_t *peer_caps)
{
    if (frame.size() != 1 + 4 * sizeof(uint32_t)) {
        why = "malformed handshake frame";
        return false;
    }
    StateReader r(frame);
    uint8_t type = 0;
    uint32_t magic = 0, protocol = 0, format = 0, caps = 0;
    r.value(type);
    r.value(magic);
    r.value(protocol);
    r.value(format);
    r.value(caps);
    if (type != static_cast<uint8_t>(expected)) {
        why = "unexpected frame type in handshake";
        return false;
    }
    if (magic != kRemoteMagic) {
        why = "not a heat-stroke peer (bad magic)";
        return false;
    }
    if (protocol != kRemoteProtocolVersion) {
        why = "protocol version mismatch";
        return false;
    }
    if (format != kResultFormatVersion) {
        why = "result-format version mismatch (rebuild the peer)";
        return false;
    }
    if (peer_caps)
        *peer_caps = caps;
    return true;
}

namespace {

/** The leading frame-type byte of every frame but the handshake's. */
template <class IO>
void
frameType(IO &io, FrameType type)
{
    io.echo(static_cast<uint8_t>(type), "frame type");
}

/** The one body of a Job frame. The snapshot payload travels only in
 *  Inline mode; @p snap is where it is written from or read into. The
 *  part types are const when encoding. */
template <class IO, class Spec, class Snap>
void
jobFrame(IO &io, uint64_t &id, Spec &spec, RemoteJob::SnapMode &mode,
         uint64_t &snapshot_hash, Snap &snap)
{
    frameType(io, FrameType::Job);
    io.value(id);
    io.record(spec);
    io.enumerated(mode, RemoteJob::SnapMode::Reference, "snapshot mode");
    if (mode != RemoteJob::SnapMode::None)
        io.value(snapshot_hash);
    if (mode == RemoteJob::SnapMode::Inline) {
        io.value(snap.cycle);
        io.vec(snap.bytes);
    }
}

template <class IO, class Telemetry>
void
telemetryBlock(IO &io, Telemetry &tel)
{
    io.value(tel.profile.totalSeconds);
    io.value(tel.profile.snapshotSeconds);
    io.value(tel.snapshotBytes);
    io.value(tel.snapshotFromCache);
    io.value(tel.peakRssKb);
    io.value(tel.profile.tickedCycles);
    io.value(tel.profile.stalledCycles);
    io.value(tel.profile.sensorSamples);
    io.value(tel.profile.tickSeconds);
    io.value(tel.profile.thermalSeconds);
    io.value(tel.profile.stallSeconds);
}

/** The one body of a Result frame; @p tel travels when @p has_tel. */
template <class IO, class Result, class Telemetry>
void
resultFrame(IO &io, uint64_t &id, Result &result, bool &has_tel,
            Telemetry &tel)
{
    frameType(io, FrameType::Result);
    io.value(id);
    io.record(result);
    io.value(has_tel);
    if (has_tel)
        telemetryBlock(io, tel);
}

template <class IO, class Heartbeat>
void
heartbeatFrame(IO &io, Heartbeat &hb)
{
    frameType(io, FrameType::Heartbeat);
    io.value(hb.jobsDone);
    io.value(hb.uptimeSeconds);
    io.string(hb.currentLabel);
}

const SimSnapshot kNoSnapshot;
const JobTelemetry kNoTelemetry;

} // namespace

std::vector<uint8_t>
encodeJob(uint64_t id, const RunSpec &spec, const SimSnapshot *snap,
          uint64_t snapshot_hash)
{
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    RemoteJob::SnapMode mode =
        snap ? RemoteJob::SnapMode::Inline : RemoteJob::SnapMode::None;
    jobFrame(w, id, spec, mode, snapshot_hash, snap ? *snap : kNoSnapshot);
    return bytes;
}

std::vector<uint8_t>
encodeJobRef(uint64_t id, const RunSpec &spec, uint64_t snapshot_hash)
{
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    RemoteJob::SnapMode mode = RemoteJob::SnapMode::Reference;
    jobFrame(w, id, spec, mode, snapshot_hash, kNoSnapshot);
    return bytes;
}

RemoteJob
decodeJob(const std::vector<uint8_t> &frame)
{
    StateReader r(frame);
    RemoteJob job;
    jobFrame(r, job.id, job.spec, job.snapMode, job.snapshotHash,
             job.snapshot);
    r.expectEnd("decodeJob");
    return job;
}

std::vector<uint8_t>
encodeResult(uint64_t id, const RunResult &result,
             const JobTelemetry *telemetry)
{
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    bool has_tel = telemetry != nullptr;
    resultFrame(w, id, result, has_tel,
                telemetry ? *telemetry : kNoTelemetry);
    return bytes;
}

uint64_t
decodeResult(const std::vector<uint8_t> &frame, RunResult &out,
             JobTelemetry *telemetry, bool *has_telemetry)
{
    StateReader r(frame);
    uint64_t id = 0;
    bool carried = false;
    JobTelemetry tel;
    resultFrame(r, id, out, carried, tel);
    r.expectEnd("decodeResult");
    if (has_telemetry)
        *has_telemetry = carried;
    if (carried && telemetry)
        *telemetry = tel;
    return id;
}

std::vector<uint8_t>
encodeHeartbeat(const HeartbeatInfo &hb)
{
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    heartbeatFrame(w, hb);
    return bytes;
}

HeartbeatInfo
decodeHeartbeat(const std::vector<uint8_t> &frame)
{
    StateReader r(frame);
    HeartbeatInfo hb;
    heartbeatFrame(r, hb);
    r.expectEnd("decodeHeartbeat");
    return hb;
}

uint64_t
currentPeakRssKb()
{
#ifdef __linux__
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    uint64_t kb = 0;
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            unsigned long long v = 0;
            if (std::sscanf(line + 6, "%llu", &v) == 1)
                kb = v;
            break;
        }
    }
    std::fclose(f);
    return kb;
#else
    return 0;
#endif
}

namespace {

/// Handshakes should complete immediately; a peer that stalls for 10 s
/// is not a healthy peer.
constexpr int kHandshakeTimeoutMs = 10000;

/** The handshake frame, with a byte flipped when chaos asks for it. */
std::vector<uint8_t>
helloFrame(FrameType type)
{
    std::vector<uint8_t> frame = encodeHello(type);
    if (faultFire("handshake_garbage"))
        frame[1] ^= 0xff; // first magic byte: the peer must refuse
    return frame;
}

/**
 * Background heartbeat pump for one worker connection: every
 * HS_HEARTBEAT_MS it sends jobs-done / uptime / current-cell under the
 * shared send mutex (so result frames never interleave mid-frame).
 * Send failures are ignored — the serve loop notices a vanished
 * coordinator on its own.
 */
class HeartbeatSender
{
  public:
    HeartbeatSender(Socket &conn, std::mutex &sendMu, bool enabled)
        : conn_(conn), sendMu_(sendMu),
          t0_(std::chrono::steady_clock::now())
    {
        int period = knobInt("HS_HEARTBEAT_MS");
        if (!enabled || period <= 0)
            return;
        thread_ = std::thread([this, period] { pump(period); });
    }

    ~HeartbeatSender()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void jobStarted(const std::string &label)
    {
        std::lock_guard<std::mutex> lock(mu_);
        label_ = label;
    }

    void jobFinished()
    {
        std::lock_guard<std::mutex> lock(mu_);
        label_.clear();
        ++jobsDone_;
    }

  private:
    void pump(int period_ms)
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            if (cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                             [this] { return stop_; }))
                return;
            HeartbeatInfo hb;
            hb.jobsDone = jobsDone_;
            hb.currentLabel = label_;
            hb.uptimeSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
            lock.unlock();
            std::vector<uint8_t> frame = encodeHeartbeat(hb);
            {
                std::lock_guard<std::mutex> sendLock(sendMu_);
                sendFrame(conn_, frame);
            }
            lock.lock();
        }
    }

    Socket &conn_;
    std::mutex &sendMu_;
    std::chrono::steady_clock::time_point t0_;
    std::mutex mu_; ///< guards label_/jobsDone_/stop_
    std::string label_;
    uint64_t jobsDone_ = 0;
    bool stop_ = false;
    std::condition_variable cv_;
    std::thread thread_;
};

/** Serve one coordinator connection. @return true on Shutdown. */
bool
serveConnection(Socket &conn, uint64_t &jobsDone)
{
    std::vector<uint8_t> frame;
    RecvStatus st = recvFrame(conn, frame, kHandshakeTimeoutMs);
    std::string why;
    uint32_t peerCaps = 0;
    if (st == RecvStatus::Eof) {
        // A port probe or health check: nothing was refused.
        inform("worker: connection closed before the handshake");
        return false;
    }
    if (st != RecvStatus::Ok ||
        !checkHello(frame, FrameType::Hello, why, &peerCaps)) {
        warn("worker: refusing coordinator: %s",
             st == RecvStatus::Ok ? why.c_str() : "no Hello frame");
        return false;
    }
    if (!sendFrame(conn, helloFrame(FrameType::HelloAck)))
        return false;
    uint32_t caps = localCaps() & peerCaps;
    inform("worker: coordinator connected");
    logEvent("worker", "coordinator_connected",
             {LogField::num("caps", static_cast<uint64_t>(caps))});

    std::mutex sendMu;
    HeartbeatSender heartbeat(conn, sendMu,
                              (caps & kCapTelemetry) != 0);
    // Warm-up snapshots this connection has already received, keyed by
    // content hash: repeat jobs of the same divergence group arrive as
    // references instead of re-shipping megabytes of state.
    std::unordered_map<uint64_t, SimSnapshot> snapshotCache;

    for (;;) {
        // Between jobs a worker waits indefinitely: idle is normal.
        st = recvFrame(conn, frame, -1);
        if (st == RecvStatus::Eof) {
            inform("worker: coordinator disconnected");
            return false;
        }
        if (st != RecvStatus::Ok || frame.empty()) {
            warn("worker: dropping broken coordinator connection");
            return false;
        }
        FrameType type = static_cast<FrameType>(frame[0]);
        if (type == FrameType::Shutdown) {
            inform("worker: shutdown requested");
            return true;
        }
        if (type != FrameType::Job) {
            warn("worker: unexpected frame type %u; dropping "
                 "connection",
                 static_cast<unsigned>(frame[0]));
            return false;
        }
        RemoteJob job = decodeJob(frame);
        const SimSnapshot *snap = nullptr;
        bool snapFromCache = false;
        switch (job.snapMode) {
          case RemoteJob::SnapMode::None:
            break;
          case RemoteJob::SnapMode::Inline:
            // The hash is the cache key every later reference names,
            // so it must be the hash of these bytes: a snapshot damaged
            // after hashing would fork every sibling from bad state.
            // Refuse it; the coordinator requeues the cell locally.
            if (checksum64(job.snapshot.bytes.data(),
                           job.snapshot.bytes.size()) != job.snapshotHash) {
                warn("worker: snapshot for job %llu fails its checksum; "
                     "dropping connection",
                     static_cast<unsigned long long>(job.id));
                logEvent("worker", "snapshot_corrupt", LogSeverity::Warn,
                         {LogField::num("job", job.id)});
                return false;
            }
            snap = &(snapshotCache[job.snapshotHash] =
                         std::move(job.snapshot));
            break;
          case RemoteJob::SnapMode::Reference: {
            auto it = snapshotCache.find(job.snapshotHash);
            if (it == snapshotCache.end()) {
                // Protocol violation: the coordinator believes we hold
                // a snapshot we never saw. Drop the connection so it
                // falls back to computing locally instead of feeding
                // us jobs we cannot run faithfully.
                warn("worker: unknown snapshot reference %016llx; "
                     "dropping connection",
                     static_cast<unsigned long long>(job.snapshotHash));
                return false;
            }
            snap = &it->second;
            snapFromCache = true;
            break;
          }
        }
        inform("worker: job %llu '%s'%s",
               static_cast<unsigned long long>(job.id),
               job.spec.label.c_str(),
               snap ? (snapFromCache ? " (forking from cached prefix)"
                                     : " (forking from shipped prefix)")
                    : "");
        logEvent("worker", "job_start",
                 {LogField::num("job", job.id),
                  LogField::text("label", job.spec.label),
                  LogField::flag("snapshot", snap != nullptr),
                  LogField::flag("snapshot_cached", snapFromCache)});
        heartbeat.jobStarted(job.spec.label);
        if (faultFire("worker_crash")) {
            // The whole point of this site is that the process is
            // gone before the Result frame exists: the coordinator
            // must requeue the cell, not wait on it.
            warn("worker: injected crash before job %llu completes",
                 static_cast<unsigned long long>(job.id));
            std::_Exit(3);
        }

        JobTelemetry tel;
        RunResult result = executeRunSpec(job.spec, snap, &tel.profile);
        bool telem = (caps & kCapTelemetry) != 0;
        if (telem) {
            tel.snapshotBytes = snap ? snap->bytes.size() : 0;
            tel.snapshotFromCache = snapFromCache;
            tel.peakRssKb = currentPeakRssKb();
        }
        ++jobsDone;
        heartbeat.jobFinished();
        logEvent("worker", "job_done",
                 {LogField::num("job", job.id),
                  LogField::text("label", job.spec.label),
                  LogField::num("sim_s", tel.profile.totalSeconds),
                  LogField::num("restore_s", tel.profile.snapshotSeconds)});
        std::vector<uint8_t> reply =
            encodeResult(job.id, result, telem ? &tel : nullptr);
        std::lock_guard<std::mutex> sendLock(sendMu);
        if (!sendFrame(conn, reply)) {
            warn("worker: coordinator vanished before the result was "
                 "delivered");
            return false;
        }
    }
}

} // namespace

uint64_t
serveWorker(Socket &listener)
{
    uint64_t jobsDone = 0;
    for (;;) {
        Socket conn = tcpAccept(listener, -1);
        if (!conn.valid())
            continue;
        if (serveConnection(conn, jobsDone))
            return jobsDone;
    }
}

uint64_t
serveWorker(uint16_t port)
{
    Socket listener = tcpListen(port);
    if (!listener.valid())
        fatal("worker: cannot listen on port %u", port);
    inform("worker: serving on port %u", port);
    return serveWorker(listener);
}

RemoteWorker::~RemoteWorker()
{
    if (state_ != State::Connected)
        return;
    // Closing with the worker's heartbeats still unread would reset the
    // connection, and the worker would log the end of a good campaign
    // as a broken connection. Half-close instead and read until the
    // worker, seeing EOF between jobs, closes its side.
    ::shutdown(sock_.fd(), SHUT_WR);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    std::vector<uint8_t> frame;
    while (recvFrame(sock_, frame, 1000) == RecvStatus::Ok &&
           std::chrono::steady_clock::now() < until) {
    }
}

bool
RemoteWorker::ensureConnected()
{
    if (state_ == State::Connected)
        return true;
    if (state_ == State::Dead)
        return false;
    state_ = State::Dead; // until the handshake proves otherwise
    sock_ = tcpConnect(ep_.host, ep_.port);
    if (!sock_.valid())
        return false;
    if (!sendFrame(sock_, helloFrame(FrameType::Hello))) {
        warn("worker %s: handshake send failed", ep_.str().c_str());
        return false;
    }
    std::vector<uint8_t> frame;
    RecvStatus st = recvFrame(sock_, frame, kHandshakeTimeoutMs);
    std::string why;
    uint32_t peerCaps = 0;
    if (st != RecvStatus::Ok ||
        !checkHello(frame, FrameType::HelloAck, why, &peerCaps)) {
        warn("worker %s: handshake failed: %s", ep_.str().c_str(),
             st == RecvStatus::Ok ? why.c_str() : "no HelloAck");
        return false;
    }
    caps_ = localCaps() & peerCaps;
    shippedSnapshots_.clear();
    state_ = State::Connected;
    logEvent("remote", "worker_connected",
             {LogField::text("worker", ep_.str()),
              LogField::num("caps", static_cast<uint64_t>(caps_))});
    return true;
}

bool
RemoteWorker::runJob(uint64_t id, const RunSpec &spec,
                     const SimSnapshot *snap, RunResult &out)
{
    if (!ensureConnected())
        return false;
    // Snapshot-by-reference: once a warm-up snapshot has been shipped
    // over this connection, later siblings of the same divergence
    // group send its content hash instead of its bytes.
    std::vector<uint8_t> jobFrame;
    uint64_t snapBytes = snap ? snap->bytes.size() : 0;
    // One checksum per job: it both names the snapshot for the
    // worker's cache and lets the worker verify the inline bytes.
    uint64_t hash =
        snap ? checksum64(snap->bytes.data(), snap->bytes.size()) : 0;
    if (snap && shippedSnapshots_.count(hash)) {
        jobFrame = encodeJobRef(id, spec, hash);
        telemetry_.snapshotBytesSaved += snapBytes;
    } else {
        jobFrame = encodeJob(id, spec, snap, hash);
        if (snap)
            shippedSnapshots_.insert(hash);
        telemetry_.snapshotBytesSent += snapBytes;
    }
    if (!sendFrame(sock_, jobFrame)) {
        warn("worker %s lost (send failed); requeueing cell locally",
             ep_.str().c_str());
        state_ = State::Dead;
        return false;
    }
    std::vector<uint8_t> frame;
    for (;;) {
        RecvStatus st =
            recvFrame(sock_, frame, knobInt("HS_REMOTE_TIMEOUT_MS"));
        if (st != RecvStatus::Ok) {
            warn("worker %s lost (%s); requeueing cell locally",
                 ep_.str().c_str(),
                 st == RecvStatus::Timeout ? "timed out"
                                           : "disconnected");
            state_ = State::Dead;
            return false;
        }
        if (!frame.empty() &&
            frame[0] == static_cast<uint8_t>(FrameType::Heartbeat)) {
            // Liveness, not results: fold and keep waiting. Each
            // heartbeat restarts the job timeout — a worker that still
            // beats is slow, not lost.
            HeartbeatInfo hb = decodeHeartbeat(frame);
            ++telemetry_.heartbeats;
            if (onHeartbeat_)
                onHeartbeat_(hb);
            logEvent("remote", "heartbeat",
                     {LogField::text("worker", ep_.str()),
                      LogField::num("jobs_done", hb.jobsDone),
                      LogField::num("uptime_s", hb.uptimeSeconds),
                      LogField::text("label", hb.currentLabel)});
            continue;
        }
        break;
    }
    JobTelemetry tel;
    bool hasTel = false;
    if (frame.empty() ||
        frame[0] != static_cast<uint8_t>(FrameType::Result) ||
        decodeResult(frame, out, &tel, &hasTel) != id) {
        warn("worker %s answered out of protocol; requeueing cell "
             "locally",
             ep_.str().c_str());
        state_ = State::Dead;
        return false;
    }
    ++telemetry_.jobs;
    if (hasTel) {
        telemetry_.simSeconds += tel.profile.totalSeconds;
        telemetry_.restoreSeconds += tel.profile.snapshotSeconds;
        telemetry_.peakRssKb = std::max(telemetry_.peakRssKb,
                                        tel.peakRssKb);
        logEvent("remote", "job_telemetry",
                 {LogField::text("worker", ep_.str()),
                  LogField::num("job", id),
                  LogField::text("label", spec.label),
                  LogField::num("sim_s", tel.profile.totalSeconds),
                  LogField::num("restore_s", tel.profile.snapshotSeconds),
                  LogField::num("snapshot_bytes", tel.snapshotBytes),
                  LogField::flag("snapshot_cached",
                                 tel.snapshotFromCache),
                  LogField::num("rss_kb", tel.peakRssKb),
                  LogField::num("ticked_cycles", tel.profile.tickedCycles),
                  LogField::num("stalled_cycles", tel.profile.stalledCycles),
                  LogField::num("sensor_samples", tel.profile.sensorSamples),
                  LogField::num("tick_s", tel.profile.tickSeconds),
                  LogField::num("thermal_s", tel.profile.thermalSeconds),
                  LogField::num("stall_s", tel.profile.stallSeconds)});
    }
    return true;
}

void
RemoteWorker::sendShutdown()
{
    if (state_ != State::Connected)
        return;
    std::vector<uint8_t> bytes;
    StateWriter w(bytes);
    w.value(static_cast<uint8_t>(FrameType::Shutdown));
    sendFrame(sock_, bytes);
    sock_.close();
    state_ = State::Fresh;
}

} // namespace hs
