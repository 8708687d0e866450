#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/file.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace odbgc {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversSmallRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBelow(8)];
  }
  for (int c : counts) {
    // Each bucket should get ~10000; allow 10% slack.
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBool(0.25)) ++heads;
  }
  EXPECT_NEAR(heads / 20000.0, 0.25, 0.02);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble() * 100.0;
    all.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(3.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(SummarizeTest, MinMeanMax) {
  MinMeanMax m = Summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.max, 3.0);
  MinMeanMax empty = Summarize({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(ExponentialMeanTest, FirstSampleInitializes) {
  ExponentialMean m(0.7);
  EXPECT_FALSE(m.has_value());
  m.Add(10.0);
  EXPECT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m.value(), 10.0);
}

TEST(ExponentialMeanTest, BlendsWithHistoryWeight) {
  ExponentialMean m(0.7);
  m.Add(10.0);
  m.Add(20.0);
  // 0.7 * 10 + 0.3 * 20 = 13
  EXPECT_DOUBLE_EQ(m.value(), 13.0);
}

TEST(ExponentialMeanTest, ZeroHistoryTracksLastSample) {
  ExponentialMean m(0.0);
  m.Add(5.0);
  m.Add(42.0);
  EXPECT_DOUBLE_EQ(m.value(), 42.0);
}

TEST(ExponentialMeanTest, FullHistoryFreezes) {
  ExponentialMean m(1.0);
  m.Add(5.0);
  m.Add(100.0);
  EXPECT_DOUBLE_EQ(m.value(), 5.0);
}

TEST(ExponentialMeanTest, ResetClears) {
  ExponentialMean m(0.5);
  m.Add(5.0);
  m.Reset();
  EXPECT_FALSE(m.has_value());
  m.Add(7.0);
  EXPECT_DOUBLE_EQ(m.value(), 7.0);
}

TEST(TablePrinterTest, AlignsColumnsAndPrintsAllRows) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TablePrinterTest, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(uint64_t{42}), "42");
  EXPECT_EQ(TablePrinter::Fmt(int64_t{-7}), "-7");
}

TEST(WholeFileTest, ReadsBackWhatWasWrittenAndFailsOnDirectories) {
  std::string bytes(100000, '\0');  // more than one 64 KiB read
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 31 + i / 256);
  }
  const std::string path = ::testing::TempDir() + "odbgc_whole_file";
  ASSERT_TRUE(WriteWholeFile(path, bytes));
  std::string out = "stale";
  EXPECT_TRUE(ReadWholeFile(path, &out));
  EXPECT_EQ(out, bytes);
  std::remove(path.c_str());

  // A missing path fails to open; a directory opens for reading but
  // fails to read, which only the ferror check catches.
  EXPECT_FALSE(ReadWholeFile(path, &out));
  EXPECT_FALSE(ReadWholeFile(::testing::TempDir(), &out));
  EXPECT_FALSE(WriteWholeFile(::testing::TempDir(), bytes));
}

TEST(CheckTest, PassingChecksAreSilentAndEvaluateOnce) {
  int evals = 0;
  ODBGC_CHECK(++evals == 1);
  ODBGC_CHECK_MSG(++evals == 2, "never printed");
  ODBGC_CHECK_FMT(++evals == 3, "never printed %d", evals);
  EXPECT_EQ(evals, 3);
}

TEST(CheckDeathTest, CheckPrintsFileLineAndCondition) {
  EXPECT_DEATH(ODBGC_CHECK(1 + 1 == 3),
               "ODBGC_CHECK failed at .*util_test\\.cc:[0-9]+: 1 \\+ 1 == 3");
}

TEST(CheckDeathTest, CheckMsgAppendsContext) {
  EXPECT_DEATH(
      ODBGC_CHECK_MSG(false, "the heap is on fire"),
      "ODBGC_CHECK failed at .*util_test\\.cc:[0-9]+: false "
      "\\(the heap is on fire\\)");
}

TEST(CheckDeathTest, CheckFmtFormatsValuesComputedAtFailureTime) {
  int used = 96;
  int cap = 64;
  EXPECT_DEATH(
      ODBGC_CHECK_FMT(used <= cap, "used=%d exceeds cap=%d", used, cap),
      "ODBGC_CHECK failed at .*util_test\\.cc:[0-9]+: used <= cap "
      "\\(used=96 exceeds cap=64\\)");
}

}  // namespace
}  // namespace odbgc
