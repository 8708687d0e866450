#ifndef ODBGC_UTIL_FLAGS_H_
#define ODBGC_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace odbgc {

// Minimal command-line flag parser for the CLI tools:
// `--key=value`; bare `--key` is a boolean true; anything without a
// leading `--` is a positional argument.
class Flags {
 public:
  // Returns false (with a message in *error) on malformed input.
  static bool Parse(int argc, char** argv, Flags* out, std::string* error);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  // A value that does not parse in full (`abc`, `1e3` as an integer, a
  // boolean other than true/1/yes/on or false/0/no/off) yields
  // `default_value` and is recorded in MalformedKeys().
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Keys that were provided but never read — catches typos in tools.
  std::vector<std::string> UnusedKeys() const;
  // Keys read as numbers or booleans whose value did not parse in full.
  const std::set<std::string>& MalformedKeys() const { return malformed_; }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  mutable std::set<std::string> malformed_;
  std::vector<std::string> positional_;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_FLAGS_H_
