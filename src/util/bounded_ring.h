#ifndef ODBGC_UTIL_BOUNDED_RING_H_
#define ODBGC_UTIL_BOUNDED_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/fields.h"

namespace odbgc {

// Keeps the newest `capacity` items pushed and counts the ones it sheds,
// so a long run degrades to a suffix rather than failing. The decision
// ledger and the time-series sampler each hold one.
//
// A checkpoint carries the running total and the items oldest-first, so
// a restore into a ring of any capacity keeps the newest items, and
// dropped() still counts every item the saved ring had shed.
template <class T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Push(T item) {
    Place(std::move(item));
    ++total_;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return items_.size(); }
  // Items ever pushed, the dropped ones included.
  uint64_t total() const { return total_; }
  uint64_t dropped() const { return total_ - items_.size(); }

  // Items oldest-first.
  std::vector<T> Items() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) out.push_back(Oldest(i));
    return out;
  }

  void SaveState(SnapshotWriter& w) const {
    w.U64(total_);
    w.U64(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) SaveField(w, Oldest(i));
  }
  void RestoreState(SnapshotReader& r) {
    const uint64_t total = r.U64();
    std::vector<T> items;
    LoadField(r, items);
    if (total < items.size()) {
      r.MarkMalformed("ring total below its item count");
      return;
    }
    items_.clear();
    head_ = 0;
    for (T& item : items) Place(std::move(item));
    total_ = total;
  }

 private:
  // The i-th item, counting from the oldest.
  const T& Oldest(size_t i) const {
    return items_[(head_ + i) % items_.size()];
  }
  // Appends `item`, overwriting the oldest once the ring is full.
  void Place(T item) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
    } else {
      items_[head_] = std::move(item);
      head_ = (head_ + 1) % capacity_;
    }
  }

  size_t capacity_;
  std::vector<T> items_;
  size_t head_ = 0;  // index of the oldest item once the ring is full
  uint64_t total_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_BOUNDED_RING_H_
