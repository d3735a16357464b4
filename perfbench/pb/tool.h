// Subcommands of pb_tool, the benchmark's native half (run.py drives it).
#pragma once

#include <cstdint>
#include <ctime>
#include <map>
#include <string>

namespace pb {

/// --key value pairs; a missing key throws std::invalid_argument.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string get(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::uint64_t get_u64(const std::string& key) const;
  double get_double(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// CLOCK_MONOTONIC in nanoseconds: the clock of every span and window edge.
inline std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

int run_setup(const Args& args);
int run_load(const Args& args);
int run_trace(const Args& args);

}  // namespace pb
