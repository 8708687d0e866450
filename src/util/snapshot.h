#ifndef ODBGC_UTIL_SNAPSHOT_H_
#define ODBGC_UTIL_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace odbgc {

// Binary snapshot serialization for checkpoint/restore.
//
// The format is a flat little-endian byte stream with no self-description
// beyond optional fourcc section tags; reader and writer must agree on the
// field order (the checkpoint file header carries a format version for
// that). Doubles are stored as their IEEE-754 bit pattern so restored
// state is bit-exact — a requirement for the byte-identical-resume
// recovery oracle.
//
// SnapshotReader never throws and never reads out of bounds: after any
// malformed input it latches !ok() and every subsequent read returns a
// zero value. Callers check ok() once at the end.

class SnapshotWriter {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);  // bit pattern, not decimal round-trip
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s);
  // Section tag, e.g. Tag("STOR"); purely a corruption tripwire.
  void Tag(const char (&fourcc)[5]);

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class SnapshotReader {
 public:
  SnapshotReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit SnapshotReader(const std::string& buf)
      : SnapshotReader(buf.data(), buf.size()) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();
  // Fails (latches !ok()) unless the next four bytes match.
  void Tag(const char (&fourcc)[5]);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  // Caller-detected inconsistency (e.g. snapshot state for a component
  // the current configuration does not instantiate): latches !ok().
  void MarkMalformed(const std::string& why) { Fail(why); }
  // All bytes consumed and no error.
  bool AtEnd() const { return ok_ && pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  void Fail(const std::string& why);
  bool Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// IEEE CRC-32 (reflected polynomial 0xEDB88320), chainable via `seed`.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace odbgc

#endif  // ODBGC_UTIL_SNAPSHOT_H_
