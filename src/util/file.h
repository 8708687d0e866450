#ifndef ODBGC_UTIL_FILE_H_
#define ODBGC_UTIL_FILE_H_

#include <cstdio>
#include <string>

namespace odbgc {

// Replaces *out with the bytes of the file at `path`. False if the file
// cannot be opened or a read fails; a directory opens but fails to read.
inline bool ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// Replaces the file at `path` with `bytes`. False if the file cannot be
// created or a write, or the flush on close, fails.
inline bool WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace odbgc

#endif  // ODBGC_UTIL_FILE_H_
