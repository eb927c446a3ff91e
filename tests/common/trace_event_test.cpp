#include "common/trace_event.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace mcsim {
namespace {

TEST(TraceEventSink, DisabledByDefaultAndDropsEvents) {
  TraceEventSink s;
  EXPECT_FALSE(s.enabled());
  s.complete(TraceEventSink::name_id("x"), 0, 10, 20);
  s.instant(TraceEventSink::name_id("y"), 0, 15);
  EXPECT_EQ(s.event_count(), 0u);
}

TEST(TraceEventSink, NameIdsInternStably) {
  const TraceEventSink::NameId a = TraceEventSink::name_id("ev-intern-a");
  const TraceEventSink::NameId b = TraceEventSink::name_id("ev-intern-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, TraceEventSink::name_id("ev-intern-a"));
  EXPECT_EQ(TraceEventSink::name_of(a), "ev-intern-a");
}

TEST(TraceEventSink, EmptySpansAreDropped) {
  TraceEventSink s;
  s.enable();
  s.complete(TraceEventSink::name_id("x"), 0, 10, 10);  // zero-length
  s.complete(TraceEventSink::name_id("x"), 0, 10, 5);   // inverted
  EXPECT_EQ(s.event_count(), 0u);
  s.complete(TraceEventSink::name_id("x"), 0, 10, 11);
  EXPECT_EQ(s.event_count(), 1u);
}

TEST(TraceEventSink, ToJsonSortsByStartAndPutsMetadataFirst) {
  TraceEventSink s;
  s.enable();
  s.set_track(0, "core0");
  s.set_track(1, "cache0");
  // Recorded in close order (30 first), must export in start order.
  s.complete(TraceEventSink::name_id("late"), 0, 30, 40);
  s.complete(TraceEventSink::name_id("early"), 1, 5, 50);
  s.instant(TraceEventSink::name_id("mark"), 0, 12);

  Json j = s.to_json();
  ASSERT_TRUE(j.contains("traceEvents"));
  const Json& ev = j["traceEvents"];
  ASSERT_EQ(ev.size(), 5u);  // 2 metadata + 3 timeline

  EXPECT_EQ(ev[0]["ph"].as_string(), "M");
  EXPECT_EQ(ev[1]["ph"].as_string(), "M");
  EXPECT_EQ(ev[0]["args"]["name"].as_string(), "core0");

  EXPECT_EQ(ev[2]["name"].as_string(), "early");
  EXPECT_EQ(ev[2]["ph"].as_string(), "X");
  EXPECT_EQ(ev[2]["ts"].as_uint(), 5u);
  EXPECT_EQ(ev[2]["dur"].as_uint(), 45u);
  EXPECT_EQ(ev[3]["name"].as_string(), "mark");
  EXPECT_EQ(ev[3]["ph"].as_string(), "i");
  EXPECT_EQ(ev[4]["name"].as_string(), "late");

  // Monotonic start timestamps across the timeline section.
  std::uint64_t prev = 0;
  for (std::size_t i = 2; i < ev.size(); ++i) {
    EXPECT_GE(ev[i]["ts"].as_uint(), prev);
    prev = ev[i]["ts"].as_uint();
  }
}

TEST(TraceEventSink, WriteRoundTripsThroughParser) {
  TraceEventSink s;
  s.enable();
  s.set_track(0, "core0");
  s.complete(TraceEventSink::name_id("miss"), 0, 100, 180);
  s.instant(TraceEventSink::name_id("squash"), 0, 150);

  const std::string path = "trace_event_test.json";
  ASSERT_TRUE(s.write(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::remove(path.c_str());

  std::string err;
  Json j = Json::parse(buf.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(j.contains("traceEvents"));

  std::uint64_t timeline = 0;
  for (std::size_t i = 0; i < j["traceEvents"].size(); ++i) {
    const Json& e = j["traceEvents"][i];
    // Every record carries the fields Perfetto's legacy loader needs.
    for (const char* key : {"ph", "name", "pid", "tid"}) {
      EXPECT_TRUE(e.contains(key)) << "missing key " << key;
    }
    if (e["ph"].as_string() != "M") ++timeline;
  }
  EXPECT_EQ(timeline, s.event_count());
}

TEST(TraceEventSink, DisableStopsRecordingButKeepsHistory) {
  TraceEventSink s;
  s.enable();
  s.instant(TraceEventSink::name_id("x"), 0, 1);
  s.enable(false);
  s.instant(TraceEventSink::name_id("x"), 0, 2);
  EXPECT_EQ(s.event_count(), 1u);
}

TEST(TraceEventSink, InstantArgsRoundTripThroughParser) {
  const TraceEventSink::NameId seq = TraceEventSink::name_id("seq");
  const TraceEventSink::NameId addr = TraceEventSink::name_id("addr");
  TraceEventSink s;
  s.enable();
  s.instant(TraceEventSink::name_id("slb-insert"), 0, 7, {seq, 3}, {addr, 0x5030});
  s.instant(TraceEventSink::name_id("sb-release"), 0, 8, {seq, 4});
  s.instant(TraceEventSink::name_id("mark"), 0, 9);

  const std::string path = "trace_event_args_test.json";
  ASSERT_TRUE(s.write(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::remove(path.c_str());

  std::string err;
  Json j = Json::parse(buf.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json& ev = j["traceEvents"];
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0]["name"].as_string(), "slb-insert");
  EXPECT_EQ(ev[0]["args"]["seq"].as_uint(), 3u);
  EXPECT_EQ(ev[0]["args"]["addr"].as_uint(), 0x5030u);
  EXPECT_EQ(ev[1]["args"]["seq"].as_uint(), 4u);
  EXPECT_FALSE(ev[1]["args"].contains("addr"));
  EXPECT_FALSE(ev[2].contains("args")) << "an instant without args exports none";
}

TEST(TraceEventSink, EventsAreInRecordOrderWithTheirArgs) {
  const TraceEventSink::NameId seq = TraceEventSink::name_id("seq");
  const TraceEventSink::NameId line = TraceEventSink::name_id("line");
  const TraceEventSink::NameId span = TraceEventSink::name_id("span");
  const TraceEventSink::NameId inval = TraceEventSink::name_id("line:invalidate");
  const TraceEventSink::NameId squash = TraceEventSink::name_id("squash");
  TraceEventSink s;
  s.enable();
  s.complete(span, 1, 2, 30);  // recorded when it closes, after later starts
  s.instant(inval, 0, 20, {line, 0x5030});
  s.instant(squash, 0, 20, {seq, 4});

  const std::vector<TraceEventSink::Event>& ev = s.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].name, span);
  EXPECT_EQ(ev[0].phase, TraceEventSink::Phase::kComplete);
  EXPECT_EQ(ev[0].track, 1u);
  EXPECT_EQ(ev[0].ts, 2u);
  EXPECT_EQ(ev[0].dur(), 28u);
  EXPECT_EQ(ev[1].name, inval);
  EXPECT_EQ(ev[1].arg(line), 0x5030u);
  EXPECT_EQ(ev[1].arg(seq, 99), 99u) << "an absent arg reads as the fallback";
  EXPECT_EQ(ev[2].name, squash);
  EXPECT_EQ(ev[2].phase, TraceEventSink::Phase::kInstant);
  EXPECT_EQ(ev[2].ts, 20u);
  EXPECT_EQ(ev[2].arg(seq), 4u);
  EXPECT_EQ(ev[2].dur(), 0u);
}

TEST(TraceEventSink, ClearDropsEventsButKeepsTrackNames) {
  TraceEventSink s;
  s.enable();
  s.set_track(0, "core0");
  s.instant(TraceEventSink::name_id("x"), 0, 1);
  s.clear();
  EXPECT_EQ(s.event_count(), 0u);
  // Track metadata survives a clear: the next export is still labelled.
  Json j = s.to_json();
  const Json& ev = j["traceEvents"];
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0]["ph"].as_string(), "M");
}

}  // namespace
}  // namespace mcsim
