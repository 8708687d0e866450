#include "util/snapshot.h"

#include <cstring>

namespace odbgc {

void SnapshotWriter::U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

void SnapshotWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void SnapshotWriter::Str(const std::string& s) {
  U64(s.size());
  out_.append(s);
}

void SnapshotWriter::Tag(const char (&fourcc)[5]) {
  out_.append(fourcc, 4);
}

void SnapshotReader::Fail(const std::string& why) {
  if (!ok_) return;
  ok_ = false;
  error_ = why + " at offset " + std::to_string(pos_);
}

bool SnapshotReader::Need(size_t n) {
  if (!ok_) return false;
  if (size_ - pos_ < n) {
    Fail("truncated snapshot (need " + std::to_string(n) + " bytes)");
    return false;
  }
  return true;
}

uint8_t SnapshotReader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

uint32_t SnapshotReader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

uint64_t SnapshotReader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double SnapshotReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::Str() {
  uint64_t n = U64();
  // Length is bounded by the bytes actually present: a corrupt count can
  // never trigger a multi-gigabyte allocation.
  if (!ok_ || n > size_ - pos_) {
    Fail("string length exceeds snapshot");
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return s;
}

void SnapshotReader::Tag(const char (&fourcc)[5]) {
  if (!Need(4)) return;
  if (std::memcmp(data_ + pos_, fourcc, 4) != 0) {
    Fail(std::string("section tag mismatch (want ") + fourcc + ")");
    return;
  }
  pos_ += 4;
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace odbgc
