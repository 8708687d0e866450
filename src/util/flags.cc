#include "util/flags.h"

#include <cerrno>
#include <cstdlib>

namespace odbgc {

bool Flags::Parse(int argc, char** argv, Flags* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out->positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      *error = "bare '--' is not a valid flag";
      return false;
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      out->values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      // Bare `--key` is a boolean. (No `--key value` form: it is
      // ambiguous with positional arguments.)
      out->values_[body] = "true";
    }
  }
  return true;
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  read_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  read_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const int64_t value = std::strtoll(text, &end, 10);
  if (end != text && *end == '\0' && errno != ERANGE) return value;
  malformed_.insert(key);
  return default_value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  read_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end != text && *end == '\0' && errno != ERANGE) return value;
  malformed_.insert(key);
  return default_value;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  read_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  malformed_.insert(key);
  return default_value;
}

std::vector<std::string> Flags::UnusedKeys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) unused.push_back(key);
  }
  return unused;
}

}  // namespace odbgc
