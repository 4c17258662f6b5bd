/**
 * @file
 * Live campaign status endpoint.
 *
 * `hs_run --status-port P` starts a StatusServer: a background thread
 * that accepts plain TCP/HTTP connections and answers every request
 * with a Prometheus-style text snapshot of the campaign (cells
 * queued/running/done, cache/disk/remote hits, fault fires, worker
 * heartbeats). Poll it with `curl localhost:P` while a long campaign
 * runs.
 *
 * Every cell line renders the ParallelRunner's CellTally (sim/runner.hh)
 * — the same counts --progress paints — so a snapshot always satisfies
 * running + done <= total. Fault fires come from the fault layer's own
 * per-site counts, heartbeats from the runner's heartbeat hook; no line
 * is derived from log event names. The server is pure observability:
 * serving a request can never perturb results. The response is written
 * raw (HTTP/1.0, connection closed after one response) — deliberately
 * not framing.hh frames, which are length-prefixed for peers, not
 * curl-friendly.
 */

#ifndef HS_SIM_STATUS_HH
#define HS_SIM_STATUS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/framing.hh"
#include "sim/runner.hh"

namespace hs {

/**
 * The status body: eight `name value` lines, cell counts from @p t,
 * then @p fault_fires and @p heartbeats.
 */
std::string renderStatus(const CellTally &t, uint64_t fault_fires,
                         uint64_t heartbeats);

/**
 * Minimal single-threaded status responder for @p runner. Construction
 * binds the port (fatal on failure, mirroring `--serve`) and starts the
 * accept loop; destruction stops it, and must happen before @p runner
 * goes away. Each request renders the runner's tally afresh.
 */
class StatusServer
{
  public:
    StatusServer(uint16_t port, const ParallelRunner &runner);
    ~StatusServer();

    StatusServer(const StatusServer &) = delete;
    StatusServer &operator=(const StatusServer &) = delete;

    /** Port actually bound (for tests using port 0). */
    uint16_t port() const { return port_; }

  private:
    void serveLoop();

    Socket listener_;
    uint16_t port_ = 0;
    const ParallelRunner &runner_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace hs

#endif // HS_SIM_STATUS_HH
