// Minimal argument parsing shared by the gretel_* command-line tools.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace gretel::tools {

// Itemized config validation for the tool CLIs: every nonsensical knob of
// every config passed (a zero tick, a negative cap, a sub-tick checkpoint
// cadence, ...) prints as one line and the tool refuses to run, instead of
// arming the pipeline with values the math cannot mean anything for.  Each
// config type supplies `std::vector<std::string> validate() const`.
template <class... Configs>
bool check_config(const char* tool, const Configs&... configs) {
  std::vector<std::string> errors;
  for (const auto& list : {configs.validate()...})
    errors.insert(errors.end(), list.begin(), list.end());
  if (errors.empty()) return true;
  std::fprintf(stderr, "%s: invalid configuration (%zu problems):\n", tool,
               errors.size());
  for (const auto& e : errors) std::fprintf(stderr, "  - %s\n", e.c_str());
  return false;
}

// Strict number parsing: the whole string must be one number of type T,
// so "250ms", "" and "12abc" are rejected instead of read as a prefix, and
// an unsigned T rejects "-1" instead of wrapping it to the type's maximum.
template <class T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size())
    return std::nullopt;
  return v;
}

class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  // "--name value" style option; nullopt when absent.
  std::optional<std::string> get(const char* name) const {
    for (int i = 1; i + 1 < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return std::string(argv_[i + 1]);
    }
    return std::nullopt;
  }

  bool has_flag(const char* name) const {
    for (int i = 1; i < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return true;
    }
    return false;
  }

  // Numeric getters: `fallback` when the flag is absent; a value that is
  // not exactly one number of the requested kind prints the flag name and
  // exits 2.
  double get_double(const char* name, double fallback) const {
    return number(name, fallback, "a number");
  }

  long get_int(const char* name, long fallback) const {
    return number(name, fallback, "an integer");
  }

  std::uint64_t get_uint(const char* name, std::uint64_t fallback) const {
    return number(name, fallback, "a non-negative integer");
  }

 private:
  template <class T>
  T number(const char* name, T fallback, const char* expected) const {
    const auto v = get(name);
    if (!v) return fallback;
    if (const auto parsed = parse_number<T>(*v)) return *parsed;
    std::fprintf(stderr, "error: %s expects %s, got '%s'\n", name, expected,
                 v->c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
};

}  // namespace gretel::tools
