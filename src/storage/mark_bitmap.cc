#include "storage/mark_bitmap.h"

#include <algorithm>

namespace odbgc {

void MarkBitmap::Reset(size_t bits) {
  bits_ = bits;
  const size_t words = (bits + 63) / 64;
  if (words > words_.size()) {
    words_.assign(words, 0);
  } else if (words > 0) {
    std::memset(words_.data(), 0, words * sizeof(uint64_t));
  }
}

void MarkBitmap::GrowTo(size_t bits) {
  if (bits <= bits_) return;
  const size_t old_words = word_count();
  bits_ = bits;
  const size_t words = word_count();
  if (words > words_.size()) words_.resize(words, 0);
  // A shrinking Reset leaves stale bits in the words past its range.
  std::fill(words_.begin() + static_cast<std::ptrdiff_t>(old_words),
            words_.begin() + static_cast<std::ptrdiff_t>(words), 0);
}

uint64_t MarkBitmap::CountSet() const {
  uint64_t n = 0;
  const size_t words = word_count();
  for (size_t wi = 0; wi < words; ++wi) {
    n += static_cast<uint64_t>(std::popcount(words_[wi]));
  }
  return n;
}

}  // namespace odbgc
