#ifndef ODBGC_TESTS_GOLDEN_UTIL_H_
#define ODBGC_TESTS_GOLDEN_UTIL_H_

// Test helper: compares an output string against a committed file in
// tests/golden/. Run a test with ODBGC_UPDATE_GOLDEN=1 in the
// environment to rewrite its golden after an intentional behavior
// change, and commit the diff.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/file.h"

#ifndef ODBGC_GOLDEN_DIR
#error "ODBGC_GOLDEN_DIR must be defined by the build"
#endif

namespace odbgc {

inline std::string GoldenPath(const std::string& name) {
  return std::string(ODBGC_GOLDEN_DIR) + "/" + name;
}

inline void CheckAgainstGolden(const std::string& name,
                               const std::string& output) {
  const std::string path = GoldenPath(name);
  if (std::getenv("ODBGC_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteWholeFile(path, output + "\n")) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::string golden;
  ASSERT_TRUE(ReadWholeFile(path, &golden))
      << "missing golden file " << path
      << " (run with ODBGC_UPDATE_GOLDEN=1 to create it)";
  // The committed file ends with a trailing newline.
  ASSERT_FALSE(golden.empty());
  if (golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(output, golden)
      << "output diverged from the committed golden " << path;
}

}  // namespace odbgc

#endif  // ODBGC_TESTS_GOLDEN_UTIL_H_
