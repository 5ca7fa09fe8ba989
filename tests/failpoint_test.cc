// Tests for the deterministic fault-injection registry (common/failpoint).
//
// The registry functions are plain functions and fully testable in every
// build; only the TMN_FAILPOINT *sites* inside the library compile away
// when TMN_FAILPOINTS=OFF, so tests that go through library IO skip there
// (the failpoints lane builds with the sites on).

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/status.h"

namespace tmn::common {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { DeactivateAllFailpoints(); }
  void TearDown() override { DeactivateAllFailpoints(); }
};

TEST_F(FailpointTest, EnabledMatchesCompileFlag) {
  const bool tu_enabled =
#ifdef TMN_ENABLE_FAILPOINTS
      true;
#else
      false;
#endif
  // TMN_FAILPOINTS is a global compile definition, so the test TU and the
  // library always agree.
  EXPECT_EQ(FailpointsEnabled(), tu_enabled);
}

TEST_F(FailpointTest, UnarmedSiteNeverFires) {
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(FailpointShouldFail("test.unarmed"));
  }
  EXPECT_EQ(FailpointHits("test.unarmed"), 5u);
}

TEST_F(FailpointTest, FiresOnExactlyTheNthHit) {
  ActivateFailpoint("test.nth", 3);
  EXPECT_FALSE(FailpointShouldFail("test.nth"));
  EXPECT_FALSE(FailpointShouldFail("test.nth"));
  EXPECT_TRUE(FailpointShouldFail("test.nth"));
}

TEST_F(FailpointTest, ArmedSiteIsOneShot) {
  ActivateFailpoint("test.oneshot", 1);
  EXPECT_TRUE(FailpointShouldFail("test.oneshot"));
  // Disarmed after firing: the retry path must succeed.
  EXPECT_FALSE(FailpointShouldFail("test.oneshot"));
  EXPECT_FALSE(FailpointShouldFail("test.oneshot"));
}

TEST_F(FailpointTest, ActivationResetsTheHitCounter) {
  EXPECT_FALSE(FailpointShouldFail("test.reset"));
  EXPECT_FALSE(FailpointShouldFail("test.reset"));
  ActivateFailpoint("test.reset", 2);  // Counted from now, not from 0.
  EXPECT_FALSE(FailpointShouldFail("test.reset"));
  EXPECT_TRUE(FailpointShouldFail("test.reset"));
}

TEST_F(FailpointTest, DeactivateDisarms) {
  ActivateFailpoint("test.disarm", 1);
  DeactivateFailpoint("test.disarm");
  EXPECT_FALSE(FailpointShouldFail("test.disarm"));
}

TEST_F(FailpointTest, DeactivateAllDisarmsEverything) {
  ActivateFailpoint("test.all.a", 1);
  ActivateFailpoint("test.all.b", 1);
  DeactivateAllFailpoints();
  EXPECT_FALSE(FailpointShouldFail("test.all.a"));
  EXPECT_FALSE(FailpointShouldFail("test.all.b"));
}

TEST_F(FailpointTest, SpecParserArmsMultipleSites) {
  ActivateFailpointsFromSpec("test.spec.a@2,test.spec.b@1:fail");
  EXPECT_FALSE(FailpointShouldFail("test.spec.a"));
  EXPECT_TRUE(FailpointShouldFail("test.spec.a"));
  EXPECT_TRUE(FailpointShouldFail("test.spec.b"));
}

TEST_F(FailpointTest, SpecParserSkipsMalformedEntries) {
  // Malformed entries warn on stderr and are skipped; valid ones still arm.
  ActivateFailpointsFromSpec("garbage,@3,test.spec.c@x,test.spec.ok@1");
  EXPECT_FALSE(FailpointShouldFail("garbage"));
  EXPECT_FALSE(FailpointShouldFail("test.spec.c"));
  EXPECT_TRUE(FailpointShouldFail("test.spec.ok"));
}

TEST_F(FailpointTest, AtomicWriteRenameSiteFailsThenRecovers) {
  if (!FailpointsEnabled()) {
    GTEST_SKIP() << "library built without failpoint sites";
  }
  const std::string path = ::testing::TempDir() + "/fp_atomic.bin";
  ActivateFailpoint("io.atomic_write.rename", 1);
  const Status failed = AtomicWriteFile(path, "doomed");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // The failure hit after the tmp was written but before publication:
  // the destination must not exist.
  EXPECT_FALSE(FileExists(path));
  // One-shot: the retry succeeds.
  ASSERT_TRUE(AtomicWriteFile(path, "survived").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "survived");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(FailpointTest, ShortWriteSiteLeavesTruncatedTmpOnly) {
  if (!FailpointsEnabled()) {
    GTEST_SKIP() << "library built without failpoint sites";
  }
  const std::string path = ::testing::TempDir() + "/fp_short.bin";
  ActivateFailpoint("io.atomic_write.write", 1);
  const Status failed = AtomicWriteFile(path, "0123456789");
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(FileExists(path));  // Never published.
  // The simulated disk-full left a half-written tmp file behind.
  EXPECT_TRUE(FileExists(path + ".tmp"));
  EXPECT_EQ(ReadFileToString(path + ".tmp").value(), "01234");
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace tmn::common
