/**
 * @file
 * Live campaign status endpoint.
 *
 * `hs_run --status-port P` starts a StatusServer: a background thread
 * that accepts plain TCP/HTTP connections and answers every request
 * with a Prometheus-style text snapshot of the campaign's counters
 * (cells queued/running/done, cache/disk/remote hits, fault fires,
 * worker heartbeats). Poll it with `curl localhost:P` while a long
 * campaign runs.
 *
 * The server is pure observability: the snapshot callback reads
 * atomic counters maintained off the simulated path, so serving a
 * request can never perturb results. The response is written raw
 * (HTTP/1.0, connection closed after one response) — deliberately not
 * framing.hh frames, which are length-prefixed for peers, not
 * curl-friendly.
 */

#ifndef HS_SIM_STATUS_HH
#define HS_SIM_STATUS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/framing.hh"

namespace hs {

/**
 * Minimal single-threaded status responder. Construction binds the
 * port (fatal on failure, mirroring `--serve`) and starts the accept
 * loop; destruction stops it. @p snapshot is called once per request
 * from the server thread and must return the plaintext body (already
 * formatted, e.g. "hs_cells_done 12\n...").
 */
class StatusServer
{
  public:
    StatusServer(uint16_t port, std::function<std::string()> snapshot);
    ~StatusServer();

    StatusServer(const StatusServer &) = delete;
    StatusServer &operator=(const StatusServer &) = delete;

    /** Port actually bound (for tests using port 0). */
    uint16_t port() const { return port_; }

  private:
    void serveLoop();

    Socket listener_;
    uint16_t port_ = 0;
    std::function<std::string()> snapshot_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace hs

#endif // HS_SIM_STATUS_HH
