// pb_tool — native half of the serving benchmark.
//
//   pb_tool setup --dir D --threads T
//   pb_tool load  --dir D --port P --workload W --seed S --seconds N
//                 --daemon-pid PID [--spans FILE --span-cap N]
//   pb_tool trace --dir D --workload W --seed S --lanes L --batch B
//                 --spans FILE
//
// Each prints one JSON object on stdout; run.py turns them into metrics.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "tool.h"

namespace pb {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + key + "'");
    }
    kv_[key.substr(2)] = argv[++i];
  }
}

std::string Args::get(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::uint64_t Args::get_u64(const std::string& key) const {
  return std::stoull(get(key));
}

double Args::get_double(const std::string& key) const {
  return std::stod(get(key));
}

}  // namespace pb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pb_tool {setup|load|trace} --key value...\n");
    return 2;
  }
  try {
    const pb::Args args(argc, argv, 2);
    const std::string cmd = argv[1];
    if (cmd == "setup") return pb::run_setup(args);
    if (cmd == "load") return pb::run_load(args);
    if (cmd == "trace") return pb::run_trace(args);
    std::fprintf(stderr, "pb_tool: unknown subcommand '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_tool: %s\n", e.what());
    return 1;
  }
}
