// `pb_tool setup`: generate the graph, build the index through
// vicinity::Index, save it as VCNIDX05, and time each step separately.
#include <cstdio>
#include <string>

#include "core/oracle.h"
#include "core/serialize.h"
#include "graph/io.h"
#include "tool.h"
#include "util/timer.h"
#include "vicinity_index.h"
#include "workload.h"

namespace pb {

int run_setup(const Args& args) {
  const std::string dir = args.get("dir");
  const auto threads = static_cast<unsigned>(args.get_u64("threads"));

  vicinity::util::Timer t;
  vicinity::graph::Graph g = make_graph();
  vicinity::graph::save_binary_file(g, dir + "/graph.bin");
  const double gen_s = t.elapsed_seconds();

  t.reset();
  vicinity::Index built = vicinity::Index::build(g, index_options(threads));
  const double build_s = t.elapsed_seconds();

  const std::string index_path = dir + "/index.vci";
  t.reset();
  built.save(index_path);
  const double save_s = t.elapsed_seconds();
  const auto* oracle = built.undirected();
  const std::size_t landmarks =
      oracle != nullptr ? oracle->build_stats().num_landmarks : 0;
  // Measured on the built index: an mmap-opened one counts only the bytes
  // it copied to the heap, not the mapped arenas it serves from.
  const vicinity::core::OracleMemoryStats mem = built.memory_stats();

  // The daemon serves the saved file through an mmap open; time the same
  // open here.
  t.reset();
  vicinity::Index served = vicinity::Index::open(index_path, g);
  const double open_ms = t.elapsed_ms();
  const vicinity::core::IndexFileInfo info =
      vicinity::core::inspect_index_file(index_path);

  std::printf(
      "{\"gen_s\": %.6f, \"build_s\": %.6f, \"save_s\": %.6f, "
      "\"open_ms\": %.6f, \"nodes\": %u, \"edges\": %llu, "
      "\"index_bytes\": %llu, \"vicinity_entries\": %llu, "
      "\"landmarks\": %zu, \"format_version\": %d, \"mappable\": %s}\n",
      gen_s, build_s, save_s, open_ms, g.num_nodes(),
      static_cast<unsigned long long>(g.num_edges()),
      static_cast<unsigned long long>(mem.bytes),
      static_cast<unsigned long long>(mem.vicinity_entries), landmarks,
      info.version, info.mappable ? "true" : "false");
  return 0;
}

}  // namespace pb
