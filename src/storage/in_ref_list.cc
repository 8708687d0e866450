#include "storage/in_ref_list.h"

#include "util/check.h"

namespace odbgc {

void InRefList::Grow(size_t capacity) {
  ODBGC_CHECK(capacity > size_ && capacity <= UINT32_MAX);
  InRef* block = std::allocator<InRef>().allocate(capacity);
  std::memcpy(block, data(), size_ * sizeof(InRef));
  FreeHeap();
  set_heap(block);
  capacity_ = static_cast<uint32_t>(capacity);
}

void InRefList::shrink_to_fit() {
  if (is_inline() || size_ > kInline) return;
  InRef* block = heap();
  const uint32_t capacity = capacity_;
  std::memcpy(inline_, block, size_ * sizeof(InRef));
  capacity_ = kInline;
  std::allocator<InRef>().deallocate(block, capacity);
}

InRef* InRefList::erase(InRef* pos) {
  std::memmove(pos, pos + 1, (end() - pos - 1) * sizeof(InRef));
  --size_;
  return pos;
}

InRef* InRefList::insert(InRef* pos, const InRef& entry) {
  const size_t index = pos - begin();
  const InRef copy = entry;  // may alias an entry that growth moves
  if (size_ == capacity_) Grow(2 * capacity_);
  pos = begin() + index;
  std::memmove(pos + 1, pos, (size_ - index) * sizeof(InRef));
  *pos = copy;
  ++size_;
  return pos;
}

}  // namespace odbgc
