#ifndef DEHEALTH_TESTS_TESTING_SCOPED_TEMP_DIR_H_
#define DEHEALTH_TESTS_TESTING_SCOPED_TEMP_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace dehealth {

/// A fresh, uniquely named scratch directory under $TMPDIR (default /tmp),
/// made with mkdtemp and removed recursively on destruction. gtest cases
/// run as separate ctest processes under `ctest -j`, so fixed paths shared
/// by sibling tests race; a per-instance directory never does.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string pattern = (tmpdir != nullptr && *tmpdir != '\0')
                              ? std::string(tmpdir)
                              : std::string("/tmp");
    pattern += "/dehealth_test_XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr)
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
    path_ = pattern;
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /// Path of `name` inside the directory (not created).
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace dehealth

#endif  // DEHEALTH_TESTS_TESTING_SCOPED_TEMP_DIR_H_
