/**
 * @file
 * The runner's structured log events, recorded for scheduling tests.
 *
 * A RunnerEventLog installs a structured-log observer for its lifetime
 * and keeps every "runner" event (queued, started, finished,
 * prefix_built, ...) in emission order: the order the --log-json
 * stream would show.
 */

#ifndef HS_TESTS_RUNNER_EVENTS_HH
#define HS_TESTS_RUNNER_EVENTS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/log.hh"

namespace hs::test {

struct RunnerEvent
{
    std::string event, label;
    uint64_t index = 0;
    int64_t lane = -1;
};

class RunnerEventLog
{
  public:
    static constexpr size_t npos = static_cast<size_t>(-1);

    RunnerEventLog()
    {
        setLogEventObserver([this](const LogEventView &ev) {
            if (std::string(ev.component) != "runner")
                return;
            RunnerEvent r;
            r.event = ev.event;
            for (size_t f = 0; f < ev.numFields; ++f) {
                const LogField &field = ev.fields[f];
                std::string key = field.key;
                if (key == "label")
                    r.label = field.str;
                else if (key == "index")
                    r.index = field.u64;
                else if (key == "lane")
                    r.lane = field.i64;
            }
            std::lock_guard<std::mutex> lock(mu_);
            events_.push_back(std::move(r));
        });
    }

    ~RunnerEventLog() { setLogEventObserver(nullptr); }

    RunnerEventLog(const RunnerEventLog &) = delete;
    RunnerEventLog &operator=(const RunnerEventLog &) = delete;

    std::vector<RunnerEvent>
    events() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return events_;
    }

    /** Position of the first @p event logged for @p label, or npos. */
    size_t
    find(const std::string &event, const std::string &label) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t at = 0; at < events_.size(); ++at)
            if (events_[at].event == event && events_[at].label == label)
                return at;
        return npos;
    }

  private:
    mutable std::mutex mu_;
    std::vector<RunnerEvent> events_;
};

} // namespace hs::test

#endif // HS_TESTS_RUNNER_EVENTS_HH
