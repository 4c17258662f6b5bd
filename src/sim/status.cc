#include "sim/status.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

#include "common/fault.hh"
#include "common/log.hh"

namespace hs {

std::string
renderStatus(const CellTally &t, uint64_t fault_fires, uint64_t heartbeats)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "hs_cells_total %zu\n"
                  "hs_cells_running %zu\n"
                  "hs_cells_done %zu\n"
                  "hs_hits_memory %zu\n"
                  "hs_hits_disk %zu\n"
                  "hs_cells_remote %zu\n"
                  "hs_fault_fires %llu\n"
                  "hs_worker_heartbeats %llu\n",
                  t.total, t.running, t.done, t.memHits, t.diskHits,
                  t.remote, static_cast<unsigned long long>(fault_fires),
                  static_cast<unsigned long long>(heartbeats));
    return buf;
}

StatusServer::StatusServer(uint16_t port, const ParallelRunner &runner)
    : runner_(runner)
{
    listener_ = tcpListen(port);
    if (!listener_.valid())
        fatal("status: cannot listen on port %u", port);
    port_ = localPort(listener_);
    inform("status: serving counters on port %u", port_);
    logEvent("status", "listening", {LogField::num("port", port_)});
    thread_ = std::thread([this] { serveLoop(); });
}

StatusServer::~StatusServer()
{
    stop_.store(true);
    if (thread_.joinable())
        thread_.join();
}

void
StatusServer::serveLoop()
{
    while (!stop_.load()) {
        // Short accept timeout so stop_ is honoured promptly.
        Socket conn = tcpAccept(listener_, 200);
        if (!conn.valid())
            continue;
        // Drain whatever request line arrived (we answer anything),
        // then write one complete HTTP/1.0 response and close. The
        // version=0.0.4 content type is the Prometheus text format.
        char buf[1024];
        (void)::recv(conn.fd(), buf, sizeof(buf), MSG_DONTWAIT);
        // Fault fires come from the fault layer's own per-site counts.
        uint64_t fires = 0;
        if (const FaultPlan *plan = faultPlan())
            for (const std::string &site : FaultPlan::knownSites())
                fires += plan->fired(site);
        std::string body = renderStatus(runner_.tally(), fires,
                                        runner_.remoteStats().heartbeats);
        std::string resp =
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4\r\n"
            "Content-Length: " + std::to_string(body.size()) + "\r\n"
            "Connection: close\r\n\r\n" + body;
        size_t off = 0;
        while (off < resp.size()) {
            ssize_t n = ::send(conn.fd(), resp.data() + off,
                               resp.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            off += static_cast<size_t>(n);
        }
    }
}

} // namespace hs
