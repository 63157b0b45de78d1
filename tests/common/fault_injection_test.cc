#include "common/fault_injection.h"

#include <string>

#include <gtest/gtest.h>

namespace dehealth {
namespace {

/// Every test arms the global registry and must disarm it on exit, or the
/// leaked rules would fire inside unrelated tests in this binary.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultInjectionTest, DisarmedByDefault) {
  FaultInjector::Global().Reset();
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(InjectFaultPoint("anything").ok());
}

TEST_F(FaultInjectionTest, EmptySpecDisarms) {
  ASSERT_TRUE(FaultInjector::Global().Configure("x:fail:1").ok());
  EXPECT_TRUE(FaultInjector::Global().enabled());
  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  EXPECT_FALSE(FaultInjector::Global().enabled());
}

TEST_F(FaultInjectionTest, MalformedSpecsAreInvalidArgument) {
  for (const char* spec :
       {"justasite", "site:fail", "site:explode:1", ":fail:1", "site:fail:0",
        "site:fail:one", "site:fail:1:x", "a:fail:1:2:3"}) {
    Status st = FaultInjector::Global().Configure(spec);
    EXPECT_FALSE(st.ok()) << spec;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << spec;
  }
  // A failed Configure must not leave a half-armed registry.
  EXPECT_FALSE(FaultInjector::Global().enabled());
}

TEST_F(FaultInjectionTest, FiresOnExactHitNumber) {
  ASSERT_TRUE(FaultInjector::Global().Configure("w:fail:3").ok());
  EXPECT_TRUE(InjectFaultPoint("w").ok());   // hit 1
  EXPECT_TRUE(InjectFaultPoint("w").ok());   // hit 2
  Status st = InjectFaultPoint("w");         // hit 3: fires
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("injected fault at w"), std::string::npos);
  EXPECT_TRUE(InjectFaultPoint("w").ok());   // hit 4: one-shot by default
}

TEST_F(FaultInjectionTest, CountWindowAndForever) {
  ASSERT_TRUE(
      FaultInjector::Global().Configure("a:fail:2:2,b:reset:1:0").ok());
  EXPECT_TRUE(InjectFaultPoint("a").ok());
  EXPECT_FALSE(InjectFaultPoint("a").ok());  // hits 2 and 3 fire
  EXPECT_FALSE(InjectFaultPoint("a").ok());
  EXPECT_TRUE(InjectFaultPoint("a").ok());   // window over
  for (int i = 0; i < 5; ++i) {
    Status st = InjectFaultPoint("b");       // count 0 = forever
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  }
}

TEST_F(FaultInjectionTest, SitesCountIndependently) {
  ASSERT_TRUE(FaultInjector::Global().Configure("x:fail:2").ok());
  EXPECT_TRUE(InjectFaultPoint("y").ok());   // unrelated site: no counting
  EXPECT_TRUE(InjectFaultPoint("x").ok());
  EXPECT_TRUE(InjectFaultPoint("y").ok());
  EXPECT_FALSE(InjectFaultPoint("x").ok());  // x's own 2nd hit
}

TEST_F(FaultInjectionTest, ConfigureClearsOldRulesAndCounters) {
  ASSERT_TRUE(FaultInjector::Global().Configure("x:fail:1").ok());
  EXPECT_FALSE(InjectFaultPoint("x").ok());
  // Re-arming resets the hit counter: "x:fail:1" fires again on hit 1.
  ASSERT_TRUE(FaultInjector::Global().Configure("x:fail:1").ok());
  EXPECT_FALSE(InjectFaultPoint("x").ok());
  // Replacing the rules drops the old site entirely.
  ASSERT_TRUE(FaultInjector::Global().Configure("z:fail:1").ok());
  EXPECT_TRUE(InjectFaultPoint("x").ok());
}

TEST_F(FaultInjectionTest, StatusShapesMatchKinds) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("e:enospc:1,r:reset:1,s:short:1,t:stall:1")
                  .ok());
  Status enospc = InjectFaultPoint("e");
  EXPECT_EQ(enospc.code(), StatusCode::kInternal);
  EXPECT_NE(enospc.message().find("No space left on device"),
            std::string::npos);
  Status reset = InjectFaultPoint("r");
  EXPECT_EQ(reset.code(), StatusCode::kUnavailable);
  EXPECT_NE(reset.message().find("Connection reset"), std::string::npos);
  Status shortio = InjectFaultPoint("s");
  EXPECT_EQ(shortio.code(), StatusCode::kInternal);
  // A stall delays but succeeds — degraded, not failed.
  EXPECT_TRUE(InjectFaultPoint("t").ok());
}

TEST_F(FaultInjectionTest, DataFaultFlipAndShort) {
  ASSERT_TRUE(
      FaultInjector::Global().Configure("buf.data:flip:1,cut:short:1").ok());
  const std::string original = "abcdefgh";
  std::string flipped = original;
  EXPECT_TRUE(InjectDataFault("buf.data", &flipped));
  EXPECT_EQ(flipped.size(), original.size());
  EXPECT_NE(flipped, original);  // exactly one bit differs, mid-buffer
  EXPECT_EQ(flipped[4] ^ original[4], 0x10);

  std::string cut = original;
  EXPECT_TRUE(InjectDataFault("cut", &cut));
  EXPECT_EQ(cut, original.substr(0, original.size() / 2));
}

TEST_F(FaultInjectionTest, DataFaultIgnoresStatusShapedKinds) {
  ASSERT_TRUE(FaultInjector::Global().Configure("d:fail:1:0").ok());
  std::string data = "payload";
  EXPECT_FALSE(InjectDataFault("d", &data));
  EXPECT_EQ(data, "payload");  // never corrupted in an undefined way
}

TEST_F(FaultInjectionTest, FlipOutsideDataSitesIsRejected) {
  // A status-shaped site has nothing to flip: the rule could never fire.
  for (const char* spec : {"file.read:flip:1", "x:flip:1:0"}) {
    Status st = FaultInjector::Global().Configure(spec);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(FaultInjector::Global().Configure("file.read.data:flip:1").ok());
}

TEST_F(FaultInjectionTest, StatusKindsAtDataSitesAreRejected) {
  // A data site corrupts a buffer and returns no Status to fail with.
  for (const char* spec :
       {"file.read.data:fail:1", "segment.load.data:enospc:1",
        "forum.load.data:reset:1", "snapshot.load.data:stall:1"}) {
    Status st = FaultInjector::Global().Configure(spec);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_FALSE(FaultInjector::Global().enabled());
  // short and crash apply at both kinds of site.
  EXPECT_TRUE(FaultInjector::Global()
                  .Configure("file.read.data:short:1,file.read:short:1,"
                             "job.phase2:crash:9,file.read.data:crash:9")
                  .ok());
}

TEST_F(FaultInjectionTest, DeterministicAcrossRearm) {
  // The same spec against the same call sequence fires at the same point —
  // the property every kill-and-resume test in this suite leans on.
  for (int run = 0; run < 3; ++run) {
    ASSERT_TRUE(FaultInjector::Global().Configure("seq:fail:4:2").ok());
    int first_failure = -1;
    int failures = 0;
    for (int i = 1; i <= 8; ++i) {
      if (!InjectFaultPoint("seq").ok()) {
        if (first_failure < 0) first_failure = i;
        ++failures;
      }
    }
    EXPECT_EQ(first_failure, 4);
    EXPECT_EQ(failures, 2);
  }
}

}  // namespace
}  // namespace dehealth
