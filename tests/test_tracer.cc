/**
 * @file
 * Unit tests for the event tracer ring, the category filter parser,
 * the trace writers, and the metrics registry — the pieces the golden
 * and CLI tests exercise only end to end.
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/state_buffer.hh"
#include "trace/metrics.hh"
#include "trace/tracer.hh"
#include "trace/writers.hh"

namespace hs {
namespace {

TraceEvent
ev(Cycles cycle, TraceKind kind, int thread = -1)
{
    return traceEvent(cycle, kind, thread, traceNoBlock,
                      static_cast<double>(cycle), cycle);
}

// --- ring semantics ----------------------------------------------------

TEST(Tracer, DropsOldestOnOverflow)
{
    Tracer t(4);
    for (Cycles c = 1; c <= 6; ++c)
        t.emit(ev(c, TraceKind::EmergencyUp));

    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.emitted(), 6u);
    EXPECT_EQ(t.dropped(), 2u);
    // The tail of the timeline survives: events 3..6.
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.at(i).cycle, i + 3);

    std::vector<TraceEvent> out;
    t.exportTo(out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.front().cycle, 3u);
    EXPECT_EQ(out.back().cycle, 6u);
}

TEST(Tracer, DropCategoryErasesAsIfNeverRecorded)
{
    Tracer t(8);
    t.emit(ev(1, TraceKind::MonitorSample, 0));
    t.emit(ev(2, TraceKind::EmergencyUp));
    t.emit(ev(3, TraceKind::MonitorSample, 1));
    t.emit(ev(4, TraceKind::ThreadSedated, 1));

    t.dropCategory(TraceCategory::Monitor);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.emitted(), 2u); // deducted, not counted as dropped
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.at(0).kind, TraceKind::EmergencyUp);
    EXPECT_EQ(t.at(1).kind, TraceKind::ThreadSedated);
}

TEST(Tracer, StateRoundTripsExactly)
{
    Tracer a(4);
    for (Cycles c = 1; c <= 6; ++c)
        a.emit(ev(c, TraceKind::StopGoTrigger));

    std::vector<uint8_t> buf;
    StateWriter w(buf);
    a.serialize(w);
    Tracer b(4);
    StateReader r(buf);
    b.serialize(r);

    EXPECT_EQ(b.size(), a.size());
    EXPECT_EQ(b.emitted(), a.emitted());
    EXPECT_EQ(b.dropped(), a.dropped());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(b.at(i), a.at(i)) << "event " << i;

    // The restored ring keeps behaving like a ring.
    b.emit(ev(7, TraceKind::StopGoRelease));
    EXPECT_EQ(b.at(b.size() - 1).cycle, 7u);
    EXPECT_EQ(b.dropped(), 3u);
}

// --- category filter parsing -------------------------------------------

TEST(TraceFilter, ParsesNamesAndRejectsJunk)
{
    uint32_t mask = 0;
    ASSERT_TRUE(parseTraceFilter("dtm", mask));
    EXPECT_EQ(mask, traceCategoryBit(TraceCategory::Dtm));

    ASSERT_TRUE(parseTraceFilter("dtm,thermal,episode", mask));
    EXPECT_EQ(mask, traceCategoryBit(TraceCategory::Dtm) |
                        traceCategoryBit(TraceCategory::Thermal) |
                        traceCategoryBit(TraceCategory::Episode));

    ASSERT_TRUE(parseTraceFilter("monitor,fetch", mask));
    EXPECT_EQ(mask, traceCategoryBit(TraceCategory::Monitor) |
                        traceCategoryBit(TraceCategory::Fetch));

    uint32_t before = mask;
    EXPECT_FALSE(parseTraceFilter("dtm,bogus", mask));
    EXPECT_FALSE(parseTraceFilter("", mask));
    EXPECT_FALSE(parseTraceFilter("dtm,,thermal", mask));
    EXPECT_EQ(mask, before) << "failed parse must not touch the mask";
}

// --- writers -----------------------------------------------------------

TEST(TraceWriters, JsonlHonoursMaskAndFormat)
{
    std::vector<TraceEvent> events;
    events.push_back(traceEvent(100, TraceKind::SedUpperCross, -1,
                                traceBlock(Block::IntReg), 356.25, 0));
    events.push_back(traceEvent(200, TraceKind::MonitorSample, 1,
                                traceBlock(Block::IntReg), 1234.5, 7));

    std::stringstream all;
    writeTraceJsonl(all, events);
    EXPECT_EQ(all.str(),
              "{\"cycle\": 100, \"cat\": \"dtm\", \"kind\": "
              "\"sed_upper_cross\", \"thread\": -1, \"block\": "
              "\"IntReg\", \"value\": 356.25, \"arg\": 0}\n"
              "{\"cycle\": 200, \"cat\": \"monitor\", \"kind\": "
              "\"monitor_sample\", \"thread\": 1, \"block\": "
              "\"IntReg\", \"value\": 1234.5, \"arg\": 7}\n");

    std::stringstream only_dtm;
    writeTraceJsonl(only_dtm, events,
                    traceCategoryBit(TraceCategory::Dtm));
    EXPECT_EQ(only_dtm.str().find("monitor"), std::string::npos);
    EXPECT_NE(only_dtm.str().find("sed_upper_cross"), std::string::npos);
}

TEST(TraceWriters, ChromeTracePairsSpansAndCounters)
{
    std::vector<TraceEvent> events;
    events.push_back(ev(1000, TraceKind::ThreadSedated, 1));
    events.push_back(ev(2000, TraceKind::MonitorSample, 1));
    events.push_back(ev(3000, TraceKind::ThreadReleased, 1));

    std::stringstream ss;
    writeChromeTrace(ss, events, /*cycles_per_us=*/1000.0);
    std::string doc = ss.str();
    // One B/E pair for the sedation window, a counter sample between.
    EXPECT_NE(doc.find("\"name\": \"sedated\", \"ph\": \"B\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"sedated\", \"ph\": \"E\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"ewma_t1\", \"ph\": \"C\""),
              std::string::npos);
    // cycles_per_us converts 1000 cycles to ts 1.0.
    EXPECT_NE(doc.find("\"ts\": 1.000000"), std::string::npos);
}

// --- metrics registry --------------------------------------------------

TEST(Metrics, CountersAccumulateAndGaugesTrackPeaks)
{
    MetricsRegistry m;
    m.counterAdd("runs", 2, "simulated quanta");
    m.counterAdd("runs", 3);
    EXPECT_EQ(m.counter("runs"), 5u);
    EXPECT_EQ(m.counter("absent"), 0u);

    m.gaugeSet("temp", 350.0);
    m.gaugeMax("temp", 356.5);
    m.gaugeMax("temp", 340.0); // lower: ignored
    EXPECT_EQ(m.gauge("temp"), 356.5);

    auto snap = m.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "runs"); // name-sorted
    EXPECT_EQ(snap[1].name, "temp");
    EXPECT_EQ(snap[0].desc, "simulated quanta");

    m.reset();
    EXPECT_TRUE(m.snapshot().empty());
}

TEST(Metrics, WriteJsonIsSortedAndTyped)
{
    MetricsRegistry m;
    m.gaugeSet("b.gauge", 1.5);
    m.counterAdd("a.counter", 42);

    std::stringstream ss;
    m.writeJson(ss);
    EXPECT_EQ(ss.str(), "{\n  \"a.counter\": 42,\n  \"b.gauge\": 1.5\n}");
}

} // namespace
} // namespace hs
