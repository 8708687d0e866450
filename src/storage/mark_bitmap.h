#ifndef ODBGC_STORAGE_MARK_BITMAP_H_
#define ODBGC_STORAGE_MARK_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace odbgc {

// Dense mark bitmap over object ids, one bit per id, packed into 64-bit
// words. This replaces the epoch-stamped dense mark array: at one bit per
// object the whole mark state of an OO7 Small' database fits in L1, a
// Reset is a short memset instead of an epoch bump, and the word layout
// admits SIMD-style scans — popcount for survivor accounting, ctz-driven
// iteration that skips clear runs a word (64 ids) at a time.
//
// Users: the collector's per-partition marking (gc/collector.h, one
// scratch bitmap per collector), and whole-database reachability scans
// (storage/reachability.h), whose result bitmap exposes the same
// operator[] the old vector<bool> did.
class MarkBitmap {
 public:
  MarkBitmap() = default;

  // Sizes the bitmap to cover bit indices [0, bits) and clears every bit.
  // Word storage is retained across Resets, so a per-collection Reset
  // costs one memset of bits/8 bytes and no allocator traffic once the
  // high-water mark is reached.
  void Reset(size_t bits);

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
