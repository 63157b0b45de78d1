#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/de_health.h"
#include "datagen/forum_generator.h"
#include "datagen/split.h"
#include "index/pipeline.h"
#include "obs/trace.h"

namespace dehealth::obs {
namespace {

/// Every test drains the global tracer on exit so a failing assertion
/// can't leave tracing enabled for the rest of the binary.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (Tracer::Global().recording()) Tracer::Global().DrainForTest();
  }
};

TEST_F(TraceTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(TracingEnabled());
  {
    Span span("test", "noop");
    span.SetArg("ignored", 1);
  }
  Tracer::Global().StartForTest();
  EXPECT_TRUE(Tracer::Global().DrainForTest().empty());
}

TEST_F(TraceTest, RecordsCompletedSpans) {
  Tracer::Global().StartForTest();
  {
    Span span("cat", "outer");
    span.SetArg("value", 42);
  }
  const std::vector<TraceEvent> events = Tracer::Global().DrainForTest();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].category, "cat");
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[0].arg_name, "value");
  EXPECT_EQ(events[0].arg_value, 42);
  EXPECT_FALSE(TracingEnabled());
}

TEST_F(TraceTest, NestedSpansTrackDepthAndOrdering) {
  Tracer::Global().StartForTest();
  {
    Span outer("t", "outer");
    {
      Span inner("t", "inner");
    }
  }
  std::vector<TraceEvent> events = Tracer::Global().DrainForTest();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer starts first even though inner completes
  // (and is appended) first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  // The inner span nests inside the outer's interval.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
}

TEST_F(TraceTest, SpansFromDyingThreadsSurvive) {
  Tracer::Global().StartForTest();
  std::thread worker([] { Span span("t", "worker"); });
  worker.join();  // thread (and its buffer) fully gone before the drain
  const std::vector<TraceEvent> events = Tracer::Global().DrainForTest();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "worker");
}

TEST_F(TraceTest, ManyThreadsAllEventsCollected) {
  Tracer::Global().StartForTest();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) Span span("t", "work");
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Tracer::Global().DrainForTest().size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST_F(TraceTest, StartWhileRecordingFails) {
  Tracer::Global().StartForTest();
  EXPECT_FALSE(Tracer::Global().Start("x").ok());
}

TEST(FormatTraceTest, JsonlOneObjectPerLine) {
  TraceEvent e;
  e.category = "cat";
  e.name = "step";
  e.start_ns = 1500;
  e.duration_ns = 2000;
  e.tid = 3;
  e.depth = 1;
  const std::string out = FormatTrace({e}, /*chrome=*/false);
  EXPECT_EQ(out,
            "{\"cat\":\"cat\",\"name\":\"step\",\"start_us\":1.500,"
            "\"dur_us\":2.000,\"tid\":3,\"depth\":1}\n");
}

TEST_F(TraceTest, SpanHoldsTwoArguments) {
  Tracer::Global().StartForTest();
  {
    Span span("cat", "pack");
    span.SetArg("users", 8);
    span.SetArg("rows", 3);
    span.SetArg("users", 9);  // a name already set keeps its slot
  }
  const std::vector<TraceEvent> events = Tracer::Global().DrainForTest();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].arg_name, "users");
  EXPECT_EQ(events[0].arg_value, 9);
  EXPECT_STREQ(events[0].arg2_name, "rows");
  EXPECT_EQ(events[0].arg2_value, 3);
  const std::string line = FormatTrace(events, /*chrome=*/false);
  const std::string args = ",\"args\":{\"users\":9,\"rows\":3}}\n";
  ASSERT_GE(line.size(), args.size());
  EXPECT_EQ(line.substr(line.size() - args.size()), args);
}

TEST(FormatTraceTest, ChromeTraceEventDocument) {
  TraceEvent e;
  e.category = "cat";
  e.name = "step";
  e.start_ns = 1000;
  e.duration_ns = 500;
  e.tid = 0;
  e.arg_name = "n";
  e.arg_value = 7;
  const std::string out = FormatTrace({e}, /*chrome=*/true);
  EXPECT_EQ(out,
            "{\"traceEvents\":[\n"
            "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"cat\","
            "\"name\":\"step\",\"ts\":1.000,\"dur\":0.500,"
            "\"args\":{\"n\":7}}\n"
            "]}\n");
}

/// The determinism contract of ISSUE 5: running the attack with tracing
/// enabled must leave every result byte untouched. (Trace spans read the
/// monotonic clock but never an RNG stream.)
TEST(TraceDeterminismTest, TracedAttackBitwiseIdenticalToUntraced) {
  ForumConfig config;
  config.num_users = 40;
  config.seed = 77;
  config.style.vocabulary_size = 300;
  config.max_posts_per_user = 16;
  auto forum = GenerateForum(config);
  ASSERT_TRUE(forum.ok());
  auto scenario = MakeClosedWorldScenario(forum->dataset, 0.5, 5);
  ASSERT_TRUE(scenario.ok());
  const UdaGraph anon = BuildUdaGraph(scenario->anonymized);
  const UdaGraph aux = BuildUdaGraph(scenario->auxiliary);
  DeHealthConfig attack;
  attack.top_k = 5;
  attack.num_threads = 4;

  auto untraced = RunDeHealthAttack(anon, aux, attack);
  ASSERT_TRUE(untraced.ok());

  Tracer::Global().StartForTest();
  auto traced = RunDeHealthAttack(anon, aux, attack);
  const std::vector<TraceEvent> events = Tracer::Global().DrainForTest();
  ASSERT_TRUE(traced.ok());

  EXPECT_FALSE(events.empty());  // the pipeline actually emitted spans
  EXPECT_EQ(untraced->candidates, traced->candidates);
  EXPECT_EQ(untraced->refined.predictions, traced->refined.predictions);
  EXPECT_EQ(untraced->refined.rejected, traced->refined.rejected);
}

}  // namespace
}  // namespace dehealth::obs
