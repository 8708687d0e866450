#include "storage/mark_bitmap.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace odbgc {
namespace {

TEST(MarkBitmapTest, ResetClearsAndSizes) {
  MarkBitmap bm;
  bm.Reset(130);
  EXPECT_EQ(bm.size(), 130u);
  EXPECT_EQ(bm.word_count(), 3u);  // ceil(130 / 64)
  for (size_t i = 0; i < 130; ++i) EXPECT_FALSE(bm.Test(i)) << i;
  EXPECT_EQ(bm.CountSet(), 0u);
}

TEST(MarkBitmapTest, SetTestRoundTripAtWordBoundaries) {
  MarkBitmap bm;
  bm.Reset(256);
  // Every boundary-adjacent index: first/last bit of each word.
  const std::vector<size_t> edges = {0, 1, 62, 63, 64, 65, 126, 127, 128,
                                     191, 192, 254, 255};
  for (size_t i : edges) bm.Set(i);
  for (size_t i = 0; i < 256; ++i) {
    const bool expect =
        std::find(edges.begin(), edges.end(), i) != edges.end();
    EXPECT_EQ(bm.Test(i), expect) << i;
    EXPECT_EQ(bm[i], expect) << i;
  }
  EXPECT_EQ(bm.CountSet(), edges.size());
}

TEST(MarkBitmapTest, TestAndSetReportsFirstVisitOnly) {
  MarkBitmap bm;
  bm.Reset(100);
  EXPECT_TRUE(bm.TestAndSet(63));
  EXPECT_FALSE(bm.TestAndSet(63));
  EXPECT_TRUE(bm.TestAndSet(64));
  EXPECT_FALSE(bm.TestAndSet(64));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_FALSE(bm.Test(62));
  EXPECT_FALSE(bm.Test(65));
}

TEST(MarkBitmapTest, ResetRetainsNoStaleBitsAcrossSizes) {
  MarkBitmap bm;
  bm.Reset(200);
  for (size_t i = 0; i < 200; i += 3) bm.Set(i);
  // Shrink, then grow past the old size: every bit must come back clear,
  // including bits in retained high-water words.
  bm.Reset(64);
  for (size_t i = 0; i < 64; ++i) EXPECT_FALSE(bm.Test(i)) << i;
  bm.Set(10);
  bm.Reset(200);
  for (size_t i = 0; i < 200; ++i) EXPECT_FALSE(bm.Test(i)) << i;
}

TEST(MarkBitmapTest, GrowToKeepsSetBitsClearsNewWordsNeverShrinks) {
  MarkBitmap bm;
  bm.GrowTo(70);
  EXPECT_EQ(bm.size(), 70u);
  EXPECT_EQ(bm.word_count(), 2u);
  for (size_t i = 0; i < 70; ++i) EXPECT_FALSE(bm.Test(i)) << i;
  bm.Set(0);
  bm.Set(63);
  bm.Set(69);
  // Growing inside the last word, then by whole words, keeps every set
  // bit and brings only clear bits into range.
  bm.GrowTo(100);
  bm.GrowTo(300);
  EXPECT_EQ(bm.size(), 300u);
  EXPECT_EQ(bm.word_count(), 5u);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(bm.Test(i), i == 0 || i == 63 || i == 69) << i;
  }
  // A smaller request is a no-op.
  bm.GrowTo(10);
  EXPECT_EQ(bm.size(), 300u);
  EXPECT_TRUE(bm.Test(69));
  EXPECT_EQ(bm.CountSet(), 3u);
}

TEST(MarkBitmapTest, GrowToAfterAShrinkingResetBringsNoStaleBits) {
  MarkBitmap bm;
  bm.Reset(256);
  for (size_t i = 0; i < 256; ++i) bm.Set(i);
  bm.Reset(64);  // words 1-3 keep their storage and their old bits
  bm.Set(5);
  bm.GrowTo(256);
  for (size_t i = 0; i < 256; ++i) EXPECT_EQ(bm.Test(i), i == 5) << i;
}

TEST(MarkBitmapTest, TestAndClearAtWordBoundaries) {
  MarkBitmap bm;
  bm.GrowTo(256);
  const std::vector<size_t> edges = {0, 1, 62, 63, 64, 65, 127, 128,
                                     191, 192, 254, 255};
  for (size_t i : edges) bm.Set(i);
  for (size_t i = 0; i < 256; ++i) {
    const bool was_set =
        std::find(edges.begin(), edges.end(), i) != edges.end();
    EXPECT_EQ(bm.TestAndClear(i), was_set) << i;
    // The bit is clear afterwards, and a second call reports nothing.
    EXPECT_FALSE(bm.Test(i)) << i;
    EXPECT_FALSE(bm.TestAndClear(i)) << i;
  }
  // Clearing one bit leaves its word neighbours set.
  bm.Set(63);
  bm.Set(64);
  bm.Set(65);
  EXPECT_TRUE(bm.TestAndClear(64));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(65));
  EXPECT_EQ(bm.CountSet(), 2u);
}

// ctz-driven iteration must agree with the naive per-bit loop on random
// word patterns, including all-clear and all-set words.
TEST(MarkBitmapTest, ForEachSetMatchesNaiveLoop) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const size_t bits = 1 + rng.NextBelow(400);
    MarkBitmap bm;
    bm.Reset(bits);
    std::vector<bool> naive(bits, false);
    const size_t sets = rng.NextBelow(bits + 1);
    for (size_t k = 0; k < sets; ++k) {
      const size_t i = rng.NextBelow(bits);
      bm.Set(i);
      naive[i] = true;
    }
    // Force the all-set-word case sometimes.
    if (round % 5 == 0 && bits > 64) {
      for (size_t i = 64; i < 128 && i < bits; ++i) {
        bm.Set(i);
        naive[i] = true;
      }
    }
    std::vector<size_t> expected;
    for (size_t i = 0; i < bits; ++i) {
      if (naive[i]) expected.push_back(i);
    }
    std::vector<size_t> got;
    bm.ForEachSet([&](size_t i) { got.push_back(i); });
    EXPECT_EQ(got, expected) << "bits=" << bits << " round=" << round;

    std::vector<size_t> expected_clear;
    for (size_t i = 0; i < bits; ++i) {
      if (!naive[i]) expected_clear.push_back(i);
    }
    std::vector<size_t> got_clear;
    bm.ForEachClearBelow(bits, [&](size_t i) { got_clear.push_back(i); });
    EXPECT_EQ(got_clear, expected_clear) << "bits=" << bits;
  }
}

TEST(MarkBitmapTest, ForEachClearBelowRespectsLimit) {
  MarkBitmap bm;
  bm.Reset(128);
  bm.Set(3);
  std::vector<size_t> got;
  bm.ForEachClearBelow(70, [&](size_t i) { got.push_back(i); });
  ASSERT_EQ(got.size(), 69u);  // 70 indices minus the one set bit
  EXPECT_EQ(got.front(), 0u);
  EXPECT_EQ(got.back(), 69u);
  EXPECT_EQ(std::find(got.begin(), got.end(), 3u), got.end());
}

// CountSet (popcount) must equal the iteration count for random fills —
// the collector relies on this agreement for survivor accounting.
TEST(MarkBitmapTest, CountSetMatchesPopulation) {
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    const size_t bits = 65 + rng.NextBelow(1000);
    MarkBitmap bm;
    bm.Reset(bits);
    uint64_t expected = 0;
    for (size_t i = 0; i < bits; ++i) {
      if (rng.NextBool(0.37)) {
        if (bm.TestAndSet(i)) ++expected;
      }
    }
    EXPECT_EQ(bm.CountSet(), expected);
    uint64_t iterated = 0;
    bm.ForEachSet([&](size_t) { ++iterated; });
    EXPECT_EQ(iterated, expected);
  }
}

// The trailing partial word must not leak out-of-range indices from
// either iterator.
TEST(MarkBitmapTest, PartialTrailingWordStaysInRange) {
  MarkBitmap bm;
  bm.Reset(67);
  for (size_t i = 0; i < 67; ++i) bm.Set(i);
  size_t max_seen = 0, count = 0;
  bm.ForEachSet([&](size_t i) {
    max_seen = i;
    ++count;
  });
  EXPECT_EQ(count, 67u);
  EXPECT_EQ(max_seen, 66u);
  bm.ForEachClearBelow(67, [&](size_t i) {
    FAIL() << "no clear bit expected below 67, got " << i;
  });
}

}  // namespace
}  // namespace odbgc
