/**
 * @file
 * The --status-port endpoint end to end: a ParallelRunner over a
 * half-warm matrix (some cells on disk, some simulated) served by a
 * StatusServer on an ephemeral port, read back over TCP and parsed.
 * Every line must agree with the runner's cell tally, and every tally
 * the observer sees must keep running + done <= total.
 */

#include <sys/socket.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/framing.hh"
#include "sim/disk_store.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/status.hh"

#include "scratch_dir.hh"

namespace {

using namespace hs;
using hs::test::ScratchDir;

/** One GET against @p port; @return the response body. */
std::string
fetchStatus(uint16_t port)
{
    Socket s = tcpConnect("127.0.0.1", port);
    EXPECT_TRUE(s.valid());
    if (!s.valid())
        return "";
    const std::string req = "GET / HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(s.fd(), req.data(), req.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(req.size()));
    std::string resp;
    char buf[1024];
    for (ssize_t n; (n = ::recv(s.fd(), buf, sizeof(buf), 0)) > 0;)
        resp.append(buf, static_cast<size_t>(n));
    EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << resp;
    size_t body = resp.find("\r\n\r\n");
    EXPECT_NE(body, std::string::npos) << resp;
    return body == std::string::npos ? "" : resp.substr(body + 4);
}

/** Metric names in order, and their values. */
struct Status
{
    std::vector<std::string> names;
    std::map<std::string, uint64_t> value;
};

Status
parseStatus(const std::string &body)
{
    Status st;
    std::istringstream in(body);
    std::string name;
    uint64_t v = 0;
    while (in >> name >> v) {
        st.names.push_back(name);
        st.value[name] = v;
    }
    return st;
}

TEST(StatusEndpoint, HalfWarmMatrixServesTheRunnersTally)
{
    ExperimentOptions opts;
    opts.timeScale = 20000.0;
    std::vector<RunSpec> specs = {
        soloSpec("gcc", opts), soloSpec("mcf", opts),
        soloSpec("mesa", opts), withVariantSpec("gcc", 2, opts)};
    const size_t stored = 2;

    ScratchDir dir("store_test_status");
    DiskResultStore disk(dir.path());
    for (size_t i = 0; i < stored; ++i)
        ASSERT_TRUE(disk.store(specs[i], executeRunSpec(specs[i])));

    ResultStore mem;
    mem.attachDisk(&disk);
    ParallelRunner runner(2, &mem);
    size_t folds = 0;
    runner.setCellObserver([&](const CellEvent &ev) {
        ASSERT_NE(ev.tally, nullptr);
        CellTally t = *ev.tally;
        EXPECT_LE(t.running + t.done, t.total) << "after event "
                                               << folds;
        ++folds;
    });
    StatusServer server(0, runner);
    ASSERT_NE(server.port(), 0);

    Status before = parseStatus(fetchStatus(server.port()));
    EXPECT_EQ(before.value["hs_cells_total"], 0u);

    // Poll the endpoint from another thread while the lanes fold: the
    // status thread reads the tally concurrently with the writers.
    std::atomic<bool> running{true};
    size_t polls = 0;
    std::thread poller([&] {
        do {
            Status mid = parseStatus(fetchStatus(server.port()));
            EXPECT_LE(mid.value["hs_cells_running"] +
                          mid.value["hs_cells_done"],
                      mid.value["hs_cells_total"]);
            ++polls;
        } while (running.load());
    });
    runner.run(specs);
    running.store(false);
    poller.join();
    EXPECT_GE(polls, 1u);
    EXPECT_EQ(folds, 3 * specs.size()) << "queued, started, resolved";

    Status st = parseStatus(fetchStatus(server.port()));
    const std::vector<std::string> names = {
        "hs_cells_total",  "hs_cells_running", "hs_cells_done",
        "hs_hits_memory",  "hs_hits_disk",     "hs_cells_remote",
        "hs_fault_fires",  "hs_worker_heartbeats"};
    EXPECT_EQ(st.names, names);
    EXPECT_EQ(st.value["hs_cells_total"], specs.size());
    EXPECT_EQ(st.value["hs_cells_running"], 0u);
    EXPECT_EQ(st.value["hs_cells_done"], st.value["hs_cells_total"]);
    EXPECT_EQ(st.value["hs_hits_disk"], stored);
    EXPECT_EQ(st.value["hs_hits_memory"], 0u);
    EXPECT_EQ(st.value["hs_cells_remote"], 0u);
    EXPECT_EQ(st.value["hs_fault_fires"], 0u);
    EXPECT_EQ(st.value["hs_worker_heartbeats"], 0u);

    // The body is exactly the runner's tally, rendered.
    CellTally t = runner.tally();
    EXPECT_EQ(fetchStatus(server.port()), renderStatus(t, 0, 0));
    EXPECT_EQ(t.cellSeconds.count(), specs.size() - stored);

    // A rerun is served from memory and the counts accumulate.
    runner.run(specs);
    st = parseStatus(fetchStatus(server.port()));
    EXPECT_EQ(st.value["hs_cells_total"], 2 * specs.size());
    EXPECT_EQ(st.value["hs_cells_running"], 0u);
    EXPECT_EQ(st.value["hs_cells_done"], 2 * specs.size());
    EXPECT_EQ(st.value["hs_hits_memory"], specs.size());
}

} // namespace
