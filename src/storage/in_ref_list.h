#ifndef ODBGC_STORAGE_IN_REF_LIST_H_
#define ODBGC_STORAGE_IN_REF_LIST_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "storage/types.h"

namespace odbgc {

// One reverse-index entry: a slot of object `src` references the owning
// object. Kept as a single packed array per object (rather than the
// historical parallel in_refs / in_ref_slots vectors) so the collector's
// remembered-set walk reads one contiguous stream. `backref_pos` is the
// source slot's absolute position in the slot arenas (the source's
// slot_begin + slot): storing the resolved arena position instead of the
// relative slot index lets DetachInRef patch a swap-erased entry's
// back-pointer without loading the source's header (one random cache
// miss per pointer overwrite on the WriteRef hot path).
struct InRef {
  ObjectId src = kNullObject;
  uint32_t backref_pos = 0;  // index into the slot arena

  friend bool operator==(const InRef&, const InRef&) = default;
};

// One object's in-ref list: a vector of InRef that keeps its first two
// entries inline, in the 24 bytes a std::vector header takes, and moves
// to the heap only past two. Most objects have one or two referencing
// slots, so most lists never allocate. Entries keep std::vector's order:
// push_back appends, pop_back drops the last entry, erase and insert
// shift the tail, and a spill to the heap or a move back inline keeps
// every index, so a swap-erase leaves the order a std::vector would.
// Pointers into the list are invalidated by any growth, as for a vector.
class InRefList {
 public:
  static constexpr uint32_t kInline = 2;

  InRefList() = default;
  InRefList(InRefList&& other) noexcept { TakeFrom(other); }
  InRefList& operator=(InRefList&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      TakeFrom(other);
    }
    return *this;
  }
  InRefList(const InRefList&) = delete;
  InRefList& operator=(const InRefList&) = delete;
  ~InRefList() { FreeHeap(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  bool is_inline() const { return capacity_ == kInline; }

  InRef* data() { return is_inline() ? inline_ : heap(); }
  const InRef* data() const { return is_inline() ? inline_ : heap(); }
  InRef* begin() { return data(); }
  InRef* end() { return data() + size_; }
  const InRef* begin() const { return data(); }
  const InRef* end() const { return data() + size_; }
  InRef& operator[](size_t i) { return data()[i]; }
  const InRef& operator[](size_t i) const { return data()[i]; }

  void push_back(const InRef& entry) {
    if (size_ == capacity_) Grow(2 * capacity_);
    data()[size_++] = entry;
  }
  void pop_back() { --size_; }
  // Keeps the heap block, as std::vector::clear keeps its capacity.
  void clear() { size_ = 0; }
  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  // Frees the heap block when the entries fit inline again; otherwise
  // keeps it (a non-binding request, as for std::vector).
  void shrink_to_fit();
  // Shift the tail like std::vector's; return the position of the entry
  // after the erased one and of the inserted one.
  InRef* erase(InRef* pos);
  InRef* insert(InRef* pos, const InRef& entry);

 private:
  // The heap pointer lives in the inline entries' bytes once spilled;
  // InRef is trivially copyable, so memcpy moves it in and out.
  InRef* heap() const {
    InRef* p;
    std::memcpy(&p, inline_, sizeof(p));
    return p;
  }
  void set_heap(InRef* p) {
    std::memcpy(static_cast<void*>(inline_), &p, sizeof(p));
  }
  // Moves the entries to a heap block of `capacity` > size() entries.
  void Grow(size_t capacity);
  void FreeHeap() {
    if (!is_inline()) std::allocator<InRef>().deallocate(heap(), capacity_);
  }
  void TakeFrom(InRefList& other) {
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.size_ = 0;
    other.capacity_ = kInline;
  }

  alignas(InRef*) InRef inline_[kInline];
  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;
};

static_assert(sizeof(InRefList) == sizeof(std::vector<InRef>));

}  // namespace odbgc

#endif  // ODBGC_STORAGE_IN_REF_LIST_H_
