#include "sim/status.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/log.hh"

namespace hs {

StatusServer::StatusServer(uint16_t port,
                           std::function<std::string()> snapshot)
    : snapshot_(std::move(snapshot))
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
        std::string body = snapshot_ ? snapshot_() : std::string();
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
