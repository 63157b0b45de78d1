#include "io/file_util.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "testing/scoped_temp_dir.h"

namespace dehealth {
namespace {

TEST(FileUtilTest, RoundTripsBinaryContent) {
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_file_util_test.bin");
  std::string content = "binary\0payload\nwith\tstuff";
  content += '\0';
  content += '\xFF';
  ASSERT_TRUE(WriteStringToFile(content, path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);
  std::remove(path.c_str());
}

TEST(FileUtilTest, RoundTripsEmptyFile) {
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_file_util_empty.bin");
  ASSERT_TRUE(WriteStringToFile("", path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
  std::remove(path.c_str());
}

TEST(FileUtilTest, MissingFileIsNotFound) {
  const ScopedTempDir tmp;
  auto r = ReadFileToString(tmp.File("definitely_missing_dehealth_util.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(FileUtilTest, UnwritableDirectoryIsNotFound) {
  auto s = WriteStringToFile("x", "/nonexistent_dir/file.bin");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(FileUtilTest, AtomicWriteRoundTripsAndLeavesNoTempFile) {
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_file_util_atomic.bin");
  std::string content = "snapshot\0bytes";
  content += '\xFE';
  ASSERT_TRUE(WriteStringToFileAtomic(content, path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, content);
  // The crash-window staging file must not survive a successful write.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  std::remove(path.c_str());
}

TEST(FileUtilTest, AtomicWriteReplacesExistingFileWholesale) {
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_file_util_atomic_replace.bin");
  ASSERT_TRUE(WriteStringToFile("old content, longer than new", path).ok());
  ASSERT_TRUE(WriteStringToFileAtomic("new", path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  // Rename semantics: the old bytes are gone entirely, never a mixed
  // prefix/suffix as in-place truncating writes can leave on a crash.
  EXPECT_EQ(*read, "new");
  std::remove(path.c_str());
}

TEST(FileUtilTest, AtomicWriteRecoversFromStaleTempFile) {
  const ScopedTempDir tmp;
  const std::string path = tmp.File("dehealth_file_util_atomic_stale.bin");
  // Simulate a crash mid-write from an earlier process: a stale .tmp left
  // behind must not block (or corrupt) the next atomic write.
  ASSERT_TRUE(WriteStringToFile("half-written garb", path + ".tmp").ok());
  ASSERT_TRUE(WriteStringToFileAtomic("fresh", path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "fresh");
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  std::remove(path.c_str());
}

TEST(FileUtilTest, AtomicWriteToUnwritableDirectoryIsNotFound) {
  auto s = WriteStringToFileAtomic("x", "/nonexistent_dir/file.bin");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("cannot open for writing"), std::string::npos);
}

}  // namespace
}  // namespace dehealth
