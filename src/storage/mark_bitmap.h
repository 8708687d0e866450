#ifndef ODBGC_STORAGE_MARK_BITMAP_H_
#define ODBGC_STORAGE_MARK_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace odbgc {

// Dense bitmap over object ids, one bit per id, packed into 64-bit
// words. At one bit per object the whole state of an OO7 Small' database
// fits in L1, and the word layout admits SIMD-style scans: popcount for
// accounting, ctz-driven iteration that skips clear runs a word (64 ids)
// at a time.
//
// Users: the collector's planner (gc/collector.h), which keeps one
// bitmap of its partition's unvisited live objects and leaves it all
// clear after every plan, so it only ever grows (GrowTo) and never
// needs a clearing pass; and whole-database reachability scans
// (storage/reachability.h), which Reset a fresh result bitmap per scan.
class MarkBitmap {
 public:
  MarkBitmap() = default;

  // Sizes the bitmap to cover bit indices [0, bits) and clears every bit.
  // Word storage is retained across Resets, so a repeated Reset costs one
  // memset of bits/8 bytes and no allocator traffic once the high-water
  // mark is reached.
  void Reset(size_t bits);

  // Covers at least bit indices [0, bits): words that come into range
  // start clear, words already in range keep their bits, and the bitmap
  // never shrinks. A user that clears every bit it sets pays nothing per
  // call beyond the growth itself.
  void GrowTo(size_t bits);

  // Number of bit indices covered (operator[] below this is valid).
  size_t size() const { return bits_; }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  bool operator[](size_t i) const { return Test(i); }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  // Sets bit i; true iff it was clear (the caller owns first-visit work).
  bool TestAndSet(size_t i) {
    uint64_t& w = words_[i >> 6];
    const uint64_t mask = uint64_t{1} << (i & 63);
    if (w & mask) return false;
    w |= mask;
    return true;
  }

  // Clears bit i; true iff it was set (the caller owns the one visit).
  bool TestAndClear(size_t i) {
    uint64_t& w = words_[i >> 6];
    const uint64_t mask = uint64_t{1} << (i & 63);
    if (!(w & mask)) return false;
    w &= ~mask;
    return true;
  }

  // Popcount over the whole bitmap.
  uint64_t CountSet() const;

  // Calls f(i) for every set bit in ascending order: ctz finds the next
  // set bit and `w &= w - 1` strips it, so wholly clear words cost one
  // load + compare for 64 ids.
  template <typename F>
  void ForEachSet(F&& f) const {
    const size_t words = (bits_ + 63) / 64;
    for (size_t wi = 0; wi < words; ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const size_t i = (wi << 6) +
                         static_cast<size_t>(std::countr_zero(w));
        if (i >= bits_) return;
        f(i);
        w &= w - 1;
      }
    }
  }

  // Calls f(i) for every *clear* bit below `limit` (<= size()) in
  // ascending order; wholly set words are skipped the same way. This is
  // the unreachable-object scan: invert, then ctz-iterate.
  template <typename F>
  void ForEachClearBelow(size_t limit, F&& f) const {
    const size_t words = (limit + 63) / 64;
    for (size_t wi = 0; wi < words; ++wi) {
      uint64_t w = ~words_[wi];
      while (w != 0) {
        const size_t i = (wi << 6) +
                         static_cast<size_t>(std::countr_zero(w));
        if (i >= limit) return;
        f(i);
        w &= w - 1;
      }
    }
  }

  // Raw word access for tests and word-granular consumers.
  const uint64_t* words() const { return words_.data(); }
  size_t word_count() const { return (bits_ + 63) / 64; }

 private:
  std::vector<uint64_t> words_;
  size_t bits_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_MARK_BITMAP_H_
