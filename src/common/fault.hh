/**
 * @file
 * Seeded, deterministic fault injection for the distributed service.
 *
 * The coordinator/worker sharding and the persistent result store
 * promise that *where a cell runs can never change its result* — a
 * claim that only means something if it survives crashes, torn writes
 * and partitions. This layer turns those failures into a reproducible
 * input: named injection sites threaded through the transport
 * (framing.cc), the wire protocol (remote.cc), the disk store
 * (disk_store.cc) and the engine (runner.cc) consult one process-wide
 * FaultPlan, and the plan decides deterministically — from a seed, the
 * site name and a per-site call counter — whether each call fails.
 * Re-running a chaos schedule with the same seed replays the same
 * decision sequence per site, so every bug it finds is reproducible
 * with one environment variable.
 *
 * The plan comes from HS_FAULTS:
 *
 *     HS_FAULTS=<seed>:<site-rule>[,<site-rule>]...
 *     site-rule := <site>@<probability>    fire each call with prob. P
 *                | <site>=<n>              fire exactly on the n-th
 *                                          call (1-based), once
 *
 * e.g.  HS_FAULTS="42:recv_mid_eof@0.2,store_crash=3"
 *
 * `*@P` / `*=N` applies to every site without an explicit rule. Site
 * names are validated against the registry below; a typo is fatal()
 * up front (the house rule for malformed environment knobs), never a
 * silently inert schedule.
 *
 * Sites (where they are honoured):
 *   recv_mid_eof        framing: a frame dies between its length
 *                       prefix and its payload (mid-frame truncation)
 *   connect_fail        framing: tcpConnect() fails outright
 *   connect_delay       framing: tcpConnect() stalls before dialing
 *   handshake_garbage   remote: a Hello/HelloAck byte is flipped, so
 *                       the peer must refuse the handshake
 *   worker_crash        remote: the worker _Exit()s mid-job, after
 *                       accepting a Job and before its Result
 *   store_torn_write    disk store: the record is truncated halfway
 *                       and still published (a torn write that made
 *                       it through a crash)
 *   store_rename_fail   disk store: the tmp file never renames into
 *                       place (the cell simply loses persistence)
 *   store_checksum_flip disk store: the published record's checksum
 *                       field is flipped (silent media corruption)
 *   store_crash         disk store: the writer _Exit()s right after
 *                       publishing a record (chaos-killed coordinator;
 *                       drives the campaign-resume tests)
 *   dispatch_delay      runner: a worker lane stalls briefly before
 *                       picking up a cell (perturbs which lane runs
 *                       what — results must not care)
 *
 * When HS_FAULTS is unset, faultFire() is one branch on a null
 * pointer: the production paths compile to exactly their old selves.
 */

#ifndef HS_COMMON_FAULT_HH
#define HS_COMMON_FAULT_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hs {

/** One parsed site rule (see the file comment for the grammar). */
struct FaultRule
{
    double probability = 0.0; ///< @P rules; 0 when this is an =N rule
    uint64_t nthCall = 0;     ///< =N rules; 0 when this is a @P rule
};

/** A seeded schedule of injection decisions. Thread-safe. */
class FaultPlan
{
  public:
    /**
     * Parse "<seed>:<site-rule>[,...]". @return nullptr with @p why
     * filled on any malformed seed, unknown site, or bad rule.
     */
    static std::unique_ptr<FaultPlan> parse(const std::string &spec,
                                            std::string &why);

    /** Every site name the registry knows (tests, chaos drivers). */
    static const std::vector<std::string> &knownSites();

    /**
     * Should the current call at @p site fail? Deterministic in
     * (seed, site, per-site call count); each call advances the
     * site's counter exactly once.
     */
    bool fire(const std::string &site);

    uint64_t seed() const { return seed_; }

    /** Calls made at @p site so far (tests, chaos logs). */
    uint64_t calls(const std::string &site) const;
    /** Faults actually injected at @p site so far. */
    uint64_t fired(const std::string &site) const;

    /** Canonical one-line description of the parsed plan. */
    std::string str() const;

  private:
    FaultPlan() = default;

    struct SiteState
    {
        uint64_t calls = 0;
        uint64_t fired = 0;
    };

    uint64_t seed_ = 0;
    std::unordered_map<std::string, FaultRule> rules_;
    bool hasWildcard_ = false;
    FaultRule wildcard_;
    mutable std::mutex mu_;
    std::unordered_map<std::string, SiteState> sites_;
};

/**
 * The process-wide plan: parsed from HS_FAULTS on first call (fatal()
 * on a malformed value), nullptr when HS_FAULTS is unset or empty.
 * Every injection site branches on this — the null check *is* the
 * whole production-path cost.
 */
FaultPlan *faultPlan();

/**
 * Replace the process-wide plan (tests and chaos harnesses; pass
 * nullptr to clear). Not thread-safe against concurrent faultFire()
 * callers — install before starting workers.
 */
void installFaultPlan(std::unique_ptr<FaultPlan> plan);

/** Convenience guard: installs a plan for one scope, restores null. */
class ScopedFaultPlan
{
  public:
    /** fatal() if @p spec does not parse — tests want loud typos. */
    explicit ScopedFaultPlan(const std::string &spec);
    ~ScopedFaultPlan();

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

/** True iff the active plan injects a fault at @p site right now. */
inline bool
faultFire(const char *site)
{
    FaultPlan *plan = faultPlan();
    return plan && plan->fire(site);
}

} // namespace hs

#endif // HS_COMMON_FAULT_HH
