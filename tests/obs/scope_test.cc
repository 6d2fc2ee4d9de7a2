// obs::Scope (DESIGN.md §8): the registry booking, the profiler phase tag,
// and the kScopeBegin/kScopeEnd events the GRAPPLE_TRACE export draws as
// Chrome B/E spans. Every trace assertion parses the rendered JSON with the
// obs parser, so these double as checks that the trace loads. The recorder
// is process-global and other suites in this binary emit events of their
// own, so assertions filter by scope names no other code uses.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/scope.h"
#include "src/support/byte_io.h"
#include "src/support/timer.h"

namespace grapple {
namespace obs {
namespace {

struct ParsedEvent {
  std::string name;
  std::string ph;
  int tid = 0;
  double ts = 0;
};

std::vector<ParsedEvent> EventsOf(const std::string& trace_json) {
  std::string error;
  std::optional<JsonValue> doc = ParseJson(trace_json, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  std::vector<ParsedEvent> events;
  if (!doc.has_value()) {
    return events;
  }
  const JsonValue* array = doc->Find("traceEvents");
  EXPECT_NE(array, nullptr);
  if (array == nullptr) {
    return events;
  }
  for (const JsonValue& item : array->items) {
    events.push_back(ParsedEvent{item.StringOr("name", ""), item.StringOr("ph", ""),
                                 static_cast<int>(item.NumberOr("tid", -1)),
                                 item.NumberOr("ts", 0)});
  }
  return events;
}

std::vector<ParsedEvent> RenderAll() {
  EventLogInstall();
  return EventsOf(EventLogTailChromeTrace(0));
}

// Events named `name`, in trace order.
std::vector<ParsedEvent> Named(const std::vector<ParsedEvent>& events, const std::string& name) {
  std::vector<ParsedEvent> out;
  for (const ParsedEvent& event : events) {
    if (event.name == name) {
      out.push_back(event);
    }
  }
  return out;
}

// Every E closes the innermost open B of its tid, by name.
void ExpectWellNested(const std::vector<ParsedEvent>& events) {
  std::map<int, std::vector<std::string>> open;
  for (const ParsedEvent& event : events) {
    if (event.ph == "B") {
      open[event.tid].push_back(event.name);
    } else if (event.ph == "E") {
      std::vector<std::string>& stack = open[event.tid];
      ASSERT_FALSE(stack.empty()) << "orphan E '" << event.name << "' on tid " << event.tid;
      EXPECT_EQ(stack.back(), event.name) << "tid " << event.tid;
      stack.pop_back();
    }
  }
}

TEST(ScopeTest, NestedScopesRenderWellNestedBeginEnd) {
  EventLogInstall();
  const ScopeName outer("t_outer");
  const ScopeName middle("t_middle");
  const ScopeName leaf("t_leaf");
  {
    Scope a(outer);
    {
      Scope b(middle);
      { Scope c(leaf); }
    }
  }
  std::vector<ParsedEvent> events = RenderAll();
  ExpectWellNested(events);
  std::vector<std::string> sequence;
  for (const ParsedEvent& event : events) {
    if (event.name == "t_outer" || event.name == "t_middle" || event.name == "t_leaf") {
      sequence.push_back(event.ph + ":" + event.name);
    }
  }
  EXPECT_EQ(sequence, (std::vector<std::string>{"B:t_outer", "B:t_middle", "B:t_leaf",
                                                "E:t_leaf", "E:t_middle", "E:t_outer"}));
}

TEST(ScopeTest, ThreadsGetDistinctTids) {
  EventLogInstall();
  { Scope scope(ScopeName("t_main_scope")); }
  std::thread worker([] { Scope scope(ScopeName("t_worker_scope")); });
  worker.join();
  std::vector<ParsedEvent> events = RenderAll();
  std::vector<ParsedEvent> main_scope = Named(events, "t_main_scope");
  std::vector<ParsedEvent> worker_scope = Named(events, "t_worker_scope");
  ASSERT_EQ(main_scope.size(), 2u);
  ASSERT_EQ(worker_scope.size(), 2u);
  EXPECT_NE(main_scope[0].tid, worker_scope[0].tid);
}

TEST(ScopeTest, RuntimeBuiltNameResolves) {
  EventLogInstall();
  ScopeName dynamic(std::string("t_dyn_") + "name");
  EXPECT_EQ(dynamic.id(), ScopeName("t_dyn_name").id()) << "interning must be stable";
  { Scope scope(dynamic); }
  std::vector<ParsedEvent> events = Named(RenderAll(), "t_dyn_name");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, "B");
  EXPECT_EQ(events[1].ph, "E");
}

// The merged trace interleaves every thread's ring into one timestamp-
// sorted stream, so post-processors can read it as a timeline.
TEST(ScopeTest, TraceIsTimestampSortedAcrossThreads) {
  EventLogInstall();
  const ScopeName probe("t_sort_probe");
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&probe] { Scope scope(probe); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    { Scope scope(probe); }
  }
  std::vector<ParsedEvent> events = RenderAll();
  double last_ts = -1;
  for (const ParsedEvent& event : events) {
    EXPECT_GE(event.ts, last_ts) << "trace not globally timestamp-sorted";
    last_ts = event.ts;
  }
  std::set<int> tids;
  for (const ParsedEvent& event : Named(events, "t_sort_probe")) {
    tids.insert(event.tid);
  }
  EXPECT_EQ(Named(events, "t_sort_probe").size(), 24u);
  EXPECT_GE(tids.size(), 2u) << "the check needs scopes from several threads to mean anything";
}

// A registry-backed Scope books the exact nanoseconds of its block into the
// caller's counter (nested scopes each book their own block, repeated
// scopes accumulate) and restores the enclosing profiler phase tag.
TEST(ScopeTest, BooksExactNanosAndRestoresEnclosingPhaseTag) {
  EventLogInstall();
  // The phase tag lives in the profiler's per-thread context, which exists
  // once the profiler has run; a 1 Hz run never samples this short test.
  ASSERT_TRUE(ProfilerStart(1));
  ProfilerStop();
  profiler_internal::ThreadProf* tp = profiler_internal::CurrentThreadProf();
  ASSERT_NE(tp, nullptr);
  auto phase_tag = [tp] {
    uint32_t tag = profiler_internal::SwapPhase(tp, 0);
    profiler_internal::SwapPhase(tp, tag);
    return tag;
  };

  MetricsRegistry registry;
  MetricId outer_ns = registry.Counter("phase_t_outer_ns");
  MetricId inner_ns = registry.Counter("phase_t_inner_ns");
  const ScopeName outer("t_booked_outer");
  const ScopeName inner("t_booked_inner");
  uint32_t tag_before = phase_tag();
  WallTimer wall;
  {
    Scope a(outer, &registry, outer_ns);
    EXPECT_EQ(phase_tag(), outer.id() + 1);
    for (int i = 0; i < 2; ++i) {
      Scope b(inner, &registry, inner_ns);
      EXPECT_EQ(phase_tag(), inner.id() + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(phase_tag(), outer.id() + 1) << "inner scope must restore the outer tag";
  }
  uint64_t wall_ns = wall.ElapsedNanos();
  EXPECT_EQ(phase_tag(), tag_before);

  MetricsSnapshot snapshot = registry.Snapshot();
  uint64_t booked_inner = snapshot.CounterOr("phase_t_inner_ns");
  uint64_t booked_outer = snapshot.CounterOr("phase_t_outer_ns");
  EXPECT_GE(booked_inner, uint64_t{4000000}) << "two 2 ms scopes accumulate";
  EXPECT_GE(booked_outer, booked_inner) << "the outer block contains both inner ones";
  EXPECT_LE(booked_outer, wall_ns);

  // Without a registry a Scope books nothing.
  { Scope untimed(outer); }
  EXPECT_EQ(registry.Snapshot().CounterOr("phase_t_outer_ns"), booked_outer);
}

// Rings overwrite oldest-first: with capacity 8, an outer scope around 20
// inner ones keeps only the newest 8 events, so the outer end and one inner
// end have lost their begins. The renderer must drop both orphans.
TEST(ScopeTest, OverwrittenBeginsLeaveNoOrphanEnds) {
  EventLogInstall();
  EventLogSetCapacity(8);  // applies to rings created from now on
  std::thread producer([] {
    Scope outer(ScopeName("t_ring_outer"));
    const ScopeName inner("t_ring_inner");
    for (int i = 0; i < 20; ++i) {
      Scope scope(inner);
    }
  });
  producer.join();
  EventLogSetCapacity(4096);  // restore the default for later suites

  std::vector<ParsedEvent> events = RenderAll();
  ExpectWellNested(events);
  EXPECT_TRUE(Named(events, "t_ring_outer").empty());
  std::vector<ParsedEvent> inner = Named(events, "t_ring_inner");
  ASSERT_EQ(inner.size(), 6u) << "8 survivors minus the orphan inner E and outer E";
  for (size_t i = 0; i < inner.size(); ++i) {
    EXPECT_EQ(inner[i].ph, i % 2 == 0 ? "B" : "E");
  }
}

// GRAPPLE_TRACE=<path>: the exit export loads as JSON and carries the
// scopes. Threadsafe death tests re-exec the binary, so the child starts
// with no recorder installed (the variable is read once, at install) and
// runs the test body up to its EXPECT_EXIT: paths must not depend on the
// process, and nothing before the EXPECT_EXIT may fail in the child.
TEST(ScopeTest, TraceEnvFlushesLoadableFileAtExit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::string path = ::testing::TempDir() + "/grapple_scope_test_trace.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        setenv("GRAPPLE_TRACE", path.c_str(), 1);
        EventLogInstall();
        { Scope scope(ScopeName("t_file_scope")); }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  std::remove(path.c_str());
  std::vector<ParsedEvent> events = EventsOf(std::string(bytes.begin(), bytes.end()));
  EXPECT_EQ(Named(events, "t_file_scope").size(), 2u);
}

// An unwritable GRAPPLE_TRACE path costs one stderr line at exit, not a
// crash or a changed exit status.
TEST(ScopeTest, TraceEnvUnwritablePathWarnsAtExit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::string path = ::testing::TempDir() + "/grapple_scope_test_missing/trace.json";
  EXPECT_EXIT(
      {
        setenv("GRAPPLE_TRACE", path.c_str(), 1);
        EventLogInstall();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "failed to write trace");
}

}  // namespace
}  // namespace obs
}  // namespace grapple
