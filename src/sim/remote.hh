/**
 * @file
 * TCP worker sharding for the experiment engine.
 *
 * A worker process (`hs_run --serve PORT`) listens for a coordinator,
 * executes the RunSpecs it is sent, and streams the finished RunResults
 * back. The coordinator (`hs_run --workers host:port,...`) treats each
 * connected worker as one extra lane of its thread pool: local threads
 * and remote dispatchers pull cells from the same queue, and results
 * fold in submission order, so the artifacts are identical to a purely
 * local run.
 *
 * Wire protocol (all messages are framing.hh length-prefixed frames;
 * the first payload byte is the FrameType):
 *
 *   coordinator -> worker   Hello     magic, protocol version, result
 *                                     format version, capability bits
 *   worker -> coordinator   HelloAck  the same tuple, the worker's own
 *   coordinator -> worker   Job       job id, RunSpec, optional warm-up
 *                                     snapshot — inline with its
 *                                     checksum64 on first use over a
 *                                     connection (the worker verifies
 *                                     it), by that checksum on repeats
 *   worker -> coordinator   Result    job id, RunResult, optional
 *                                     per-job telemetry block
 *   worker -> coordinator   Heartbeat jobs done, uptime, current cell
 *                                     (periodic, telemetry cap only)
 *   coordinator -> worker   Shutdown  serve loop returns
 *
 * Both sides validate the handshake tuple before anything else: a
 * mismatched build (different protocol or serialised-record layout)
 * is refused up front instead of misparsing payloads. The capability
 * word is negotiated as the AND of both sides' bits, so either side
 * can decline telemetry unilaterally. After a worker vanishes mid-job
 * (disconnect, timeout), the coordinator marks it dead and the
 * dispatcher computes that cell — and any further cells it pulls —
 * locally, so no cell is ever dropped.
 *
 * Simulations are deterministic, so where a cell runs cannot change
 * its result: a remote RunResult round-trips bit-for-bit through the
 * serialiser and is indistinguishable from a local one. Telemetry
 * rides in sidecar structs (JobTelemetry, WorkerTelemetry) that never
 * touch RunResult or the canonical artifacts.
 *
 * Knobs (HS_REMOTE_TIMEOUT_MS, HS_HEARTBEAT_MS): `hs_run --help`.
 */

#ifndef HS_SIM_REMOTE_HH
#define HS_SIM_REMOTE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/framing.hh"
#include "sim/results.hh"
#include "sim/run_spec.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"

namespace hs {

/** Protocol identifier ("HSRP") exchanged in the handshake. */
constexpr uint32_t kRemoteMagic = 0x50525348;
/** Bump on any wire-protocol change; peers must match exactly.
 *  v2: capability word in the handshake, snapshot-by-reference jobs,
 *  telemetry blocks on Result frames, Heartbeat frames.
 *  v3: snapshot-by-reference is unconditional (no capability bit).
 *  The snapshot hash in Job frames became checksum64() with result
 *  format 3; the handshake's result-format echo already refuses an
 *  older peer, so that change needed no protocol bump. */
constexpr uint32_t kRemoteProtocolVersion = 3;

/** Capability bits carried in the handshake (negotiated by AND). */
constexpr uint32_t kCapTelemetry = 1u << 0; ///< telemetry + heartbeats

/** This build's capability word (HS_HEARTBEAT_MS=0 drops telemetry). */
uint32_t localCaps();

/** First payload byte of every frame. */
enum class FrameType : uint8_t {
    Hello = 1,
    HelloAck = 2,
    Job = 3,
    Result = 4,
    Shutdown = 5,
    Heartbeat = 6,
};

/** One worker address. */
struct Endpoint
{
    std::string host;
    uint16_t port = 0;

    std::string str() const { return host + ":" + std::to_string(port); }
};

/**
 * Parse "host:port[,host:port]..." into @p out.
 * @return false on any malformed entry (empty host, bad port).
 */
bool parseEndpoints(const std::string &list, std::vector<Endpoint> &out);

/** Handshake frame: FrameType + magic + protocol + format + caps. */
std::vector<uint8_t> encodeHello(FrameType type);
std::vector<uint8_t> encodeHello(FrameType type, uint32_t caps);

/**
 * Validate a Hello/HelloAck frame against this build's versions.
 * @return false with @p why filled when the peer must be refused.
 * On success @p peer_caps (may be null) receives the peer's raw
 * capability word.
 */
bool checkHello(const std::vector<uint8_t> &frame, FrameType expected,
                std::string &why, uint32_t *peer_caps = nullptr);

/**
 * Host-side execution cost of one remote job. Pure observability —
 * every field is machine- and load-dependent, so none of this may ever
 * feed into RunResult, the canonical artifacts, or anything compared
 * for bit-identity.
 */
struct JobTelemetry
{
    /** The job's simulator cost centres: run() wall time, snapshot
     *  restore time and the tick/thermal/stall split (counters are
     *  deterministic, the seconds are host measurements). snapshotOps
     *  does not travel and decodes as 0. */
    SimProfile profile;
    uint64_t snapshotBytes = 0;  ///< warm-up snapshot size (0 = cold)
    bool snapshotFromCache = false; ///< served from the worker cache
    uint64_t peakRssKb = 0;      ///< worker process VmHWM after the job
};

/** One periodic worker liveness report. */
struct HeartbeatInfo
{
    uint64_t jobsDone = 0;     ///< jobs completed on this connection
    double uptimeSeconds = 0;  ///< seconds since the connection opened
    std::string currentLabel;  ///< label of the job in flight ("" idle)
};

/**
 * Per-worker fleet counters the coordinator folds from Result
 * telemetry blocks and Heartbeat frames. Host-dependent, sidecar-only
 * (reported via RemoteStats, never via artifacts).
 */
struct WorkerTelemetry
{
    std::string endpoint;
    uint64_t jobs = 0;            ///< jobs this worker completed
    uint64_t heartbeats = 0;      ///< heartbeat frames folded
    double simSeconds = 0;        ///< total remote simulation wall time
    double restoreSeconds = 0;    ///< total snapshot restore time
    uint64_t snapshotBytesSent = 0;  ///< inline snapshot payloads
    uint64_t snapshotBytesSaved = 0; ///< bytes elided via references
    uint64_t peakRssKb = 0;       ///< max RSS the worker reported
};

/** A job as shipped to a worker. */
struct RemoteJob
{
    /** How the warm-up snapshot travels. */
    enum class SnapMode : uint8_t {
        None = 0,     ///< cold cell
        Inline = 1,   ///< full snapshot payload in this frame
        Reference = 2 ///< content hash of a previously shipped snapshot
    };

    uint64_t id = 0;
    RunSpec spec;
    SnapMode snapMode = SnapMode::None;
    uint64_t snapshotHash = 0; ///< checksum64 of snapshot.bytes
    SimSnapshot snapshot;      ///< payload (Inline only)

    bool hasSnapshot() const { return snapMode != SnapMode::None; }
};

/** Encode a cold or inline-snapshot job; @p snapshot_hash is
 *  checksum64() of @p snap's bytes (ignored when @p snap is null). */
std::vector<uint8_t> encodeJob(uint64_t id, const RunSpec &spec,
                               const SimSnapshot *snap,
                               uint64_t snapshot_hash);
/** Encode a snapshot-by-reference job. */
std::vector<uint8_t> encodeJobRef(uint64_t id, const RunSpec &spec,
                                  uint64_t snapshot_hash);
RemoteJob decodeJob(const std::vector<uint8_t> &frame);

std::vector<uint8_t> encodeResult(uint64_t id, const RunResult &result,
                                  const JobTelemetry *telemetry = nullptr);
/**
 * @return the job id; fills @p out. When the frame carries a telemetry
 * block and @p telemetry is non-null it is filled and @p has_telemetry
 * (may be null) set.
 */
uint64_t decodeResult(const std::vector<uint8_t> &frame, RunResult &out,
                      JobTelemetry *telemetry = nullptr,
                      bool *has_telemetry = nullptr);

std::vector<uint8_t> encodeHeartbeat(const HeartbeatInfo &hb);
HeartbeatInfo decodeHeartbeat(const std::vector<uint8_t> &frame);

/**
 * Worker-side serve loop on an already-listening socket: accept a
 * coordinator, handshake, execute Jobs until the connection closes
 * (then re-accept) or a Shutdown frame arrives (then return).
 * @return the number of jobs executed.
 */
uint64_t serveWorker(Socket &listener);

/** Convenience for `hs_run --serve`: listen on @p port (fatal on bind
 *  failure) and serve. */
uint64_t serveWorker(uint16_t port);

/**
 * Coordinator-side handle on one worker. Used by exactly one
 * dispatcher thread; connects lazily on the first job and stays dead
 * after any failure (the dispatcher then computes locally).
 */
class RemoteWorker
{
  public:
    /** Called on the dispatcher thread for every heartbeat folded, so
     *  a live view can count them while a long remote cell runs. */
    using HeartbeatHook = std::function<void(const HeartbeatInfo &)>;

    explicit RemoteWorker(Endpoint ep, HeartbeatHook on_heartbeat = {})
        : ep_(std::move(ep)), onHeartbeat_(std::move(on_heartbeat))
    {
        telemetry_.endpoint = ep_.str();
    }

    /** Closes a live connection gracefully: half-close, then read to
     *  the worker's EOF for at most a second. */
    ~RemoteWorker();

    const Endpoint &endpoint() const { return ep_; }

    /** @return false once the worker has been declared lost. */
    bool alive() const { return state_ != State::Dead; }
    /** True after at least one successful handshake. */
    bool connected() const { return state_ == State::Connected; }

    /** Negotiated capability word (valid once connected). */
    uint32_t caps() const { return caps_; }

    /** Connect + handshake if not yet attempted. */
    bool ensureConnected();

    /**
     * Run @p spec on the worker (forking from @p snap when non-null).
     * Blocks up to HS_REMOTE_TIMEOUT_MS for the result; Heartbeat
     * frames arriving in between are folded into telemetry() and reset
     * the wait. On any failure the worker is marked dead and the
     * caller runs the cell locally.
     */
    bool runJob(uint64_t id, const RunSpec &spec, const SimSnapshot *snap,
                RunResult &out);

    /** Politely stop the worker's serve loop (best effort). */
    void sendShutdown();

    /** Fleet counters folded so far (read after the dispatcher quits;
     *  a single dispatcher thread owns this worker). */
    const WorkerTelemetry &telemetry() const { return telemetry_; }

  private:
    enum class State { Fresh, Connected, Dead };

    Endpoint ep_;
    HeartbeatHook onHeartbeat_;
    Socket sock_;
    State state_ = State::Fresh;
    uint32_t caps_ = 0;
    WorkerTelemetry telemetry_;
    /** Content hashes of snapshots this connection already shipped. */
    std::unordered_set<uint64_t> shippedSnapshots_;
};

/** @return this process's peak RSS in KiB (0 where unsupported). */
uint64_t currentPeakRssKb();

} // namespace hs

#endif // HS_SIM_REMOTE_HH
