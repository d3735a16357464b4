// `pb_tool trace`: the traced in-process replay. It replays the workload's
// seeded request stream through the library's public layers and records a
// span around every call into one of them:
//
//   chunk             one daemon-sized batch of query units (root)
//     engine.run_batch  QueryEngine::run_batch on the chunk, `lanes` lanes
//     oracle.distance   AnyOracle::distance per unit, one QueryContext;
//                       attr = resolution bucket (see bucket())
//     algo.bidir_bfs    algo::bidirectional_bfs_distance for each unit the
//                       oracle answered by its exact fallback
//   engine.apply_update QueryEngine::apply_update over the mixed-rw update
//                       cycle (root; attr = affected vicinities)
//
// Spans go to --spans as text; run.py derives the per-layer metrics and
// self times from them. Cache counters come from a cached engine replaying
// the same stream (with its updates, on mixed-rw).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "algo/bidirectional_bfs.h"
#include "core/query_engine.h"
#include "graph/io.h"
#include "tool.h"
#include "vicinity_index.h"
#include "workload.h"

namespace pb {

namespace {

using vicinity::core::Query;
using vicinity::core::QueryMethod;
using vicinity::net::Op;

constexpr std::size_t kUnits = 20000;

/// 0 landmark, 1 in-vicinity, 2 intersection, 3 fallback, 4 other.
int bucket(QueryMethod m) {
  switch (m) {
    case QueryMethod::kSourceIsLandmark:
    case QueryMethod::kTargetIsLandmark:
      return 0;
    case QueryMethod::kIdenticalNodes:  // s lies in its own vicinity
    case QueryMethod::kTargetInSourceVicinity:
    case QueryMethod::kSourceInTargetVicinity:
      return 1;
    case QueryMethod::kVicinityIntersection:
      return 2;
    case QueryMethod::kFallbackExact:
    case QueryMethod::kFallbackEstimate:
      return 3;
    default:
      return 4;
  }
}

class SpanLog {
 public:
  std::uint64_t open() { return next_++; }
  void close(std::uint64_t id, std::uint64_t parent, const char* name,
             std::uint64_t start, std::uint64_t end, long attr) {
    lines_.push_back(std::to_string(id) + " " + std::to_string(parent) + " " +
                     name + " " + std::to_string(start) + " " +
                     std::to_string(end) + " " + std::to_string(attr));
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "id parent name start_ns end_ns attr\n";
    for (const std::string& l : lines_) out << l << '\n';
  }

 private:
  std::uint64_t next_ = 1;
  std::vector<std::string> lines_;
};

/// The stream's query units in order: DISTANCE and PATH give one unit,
/// DISTANCES one per target. Update positions are kept as unit offsets.
struct Units {
  std::vector<Query> queries;
  std::vector<std::pair<std::size_t, std::uint32_t>> updates;  ///< (at, idx)
};

Units units_of(const Stream& s, std::size_t limit) {
  Units u;
  for (const Request& r : s.requests) {
    if (u.queries.size() >= limit) break;
    switch (r.op) {
      case Op::kDistances:
        for (std::size_t k = 0; k < kFanTargets; ++k) {
          u.queries.push_back({r.s, s.fan[r.fan + k]});
        }
        break;
      case Op::kApplyUpdate:
        u.updates.emplace_back(u.queries.size(), r.update);
        break;
      default:
        u.queries.push_back({r.s, r.t});
    }
  }
  return u;
}

}  // namespace

int run_trace(const Args& args) {
  const std::string dir = args.get("dir");
  const WorkloadSpec& spec = workload_spec(args.get("workload"));
  const std::uint64_t seed = args.get_u64("seed");
  const auto lanes = static_cast<unsigned>(args.get_u64("lanes"));
  const std::size_t batch = std::max<std::size_t>(1, args.get_u64("batch"));

  vicinity::graph::Graph g =
      vicinity::graph::load_binary_file(dir + "/graph.bin");
  vicinity::Index index = vicinity::Index::open(dir + "/index.vci", g);
  const Stream stream = make_stream(spec.kind, g, seed);
  const Units units = units_of(stream, kUnits);
  SpanLog spans;

  // Oracle, algo and engine layers on the base graph.
  vicinity::core::QueryEngine engine = index.engine(lanes);
  std::vector<vicinity::core::QueryResult> results(batch);
  engine.run_batch(std::span<const Query>(units.queries.data(),
                                          std::min(batch, units.queries.size())),
                   std::span(results.data(),
                             std::min(batch, units.queries.size())));
  vicinity::core::QueryContext ctx;
  vicinity::algo::BidirBfsScratch scratch;
  std::uint64_t hash_lookups = 0, mismatches = 0;
  for (std::size_t first = 0; first < units.queries.size(); first += batch) {
    const std::size_t n = std::min(batch, units.queries.size() - first);
    const std::span<const Query> chunk(units.queries.data() + first, n);
    const std::uint64_t root = spans.open();
    const std::uint64_t t_root = now_ns();

    const std::uint64_t b = spans.open();
    const std::uint64_t tb = now_ns();
    engine.run_batch(chunk, std::span(results.data(), n));
    spans.close(b, root, "engine.run_batch", tb, now_ns(), static_cast<long>(n));

    for (std::size_t i = 0; i < n; ++i) {
      const Query q = chunk[i];
      const std::uint64_t id = spans.open();
      const std::uint64_t t0 = now_ns();
      const auto r = index.oracle().distance(q.s, q.t, ctx);
      const std::uint64_t t1 = now_ns();
      spans.close(id, root, "oracle.distance", t0, t1, bucket(r.method));
      hash_lookups += r.hash_lookups;
      if (r.dist != results[i].dist) ++mismatches;
      if (r.method == QueryMethod::kFallbackExact) {
        const std::uint64_t fid = spans.open();
        const std::uint64_t f0 = now_ns();
        const auto fb =
            vicinity::algo::bidirectional_bfs_distance(g, scratch, q.s, q.t);
        spans.close(fid, root, "algo.bidir_bfs", f0, now_ns(), 0);
        if (fb.dist != r.dist) ++mismatches;
      }
    }
    spans.close(root, 0, "chunk", t_root, now_ns(), static_cast<long>(n));
  }

  // Dynamic layer: the mixed-rw update cycle, each insert followed by its
  // removal, so the graph ends where it started.
  std::uint64_t full_rebuilds = 0, boundary_patches = 0;
  for (const auto& u : update_cycle(g)) {
    const std::uint64_t id = spans.open();
    const std::uint64_t t0 = now_ns();
    const auto st = engine.apply_update(g, u);
    spans.close(id, 0, "engine.apply_update", t0, now_ns(),
                static_cast<long>(st.affected_vicinities));
    full_rebuilds += st.full_rebuild ? 1 : 0;
    boundary_patches += st.boundary_patches;
  }

  // Cache layer: a cached engine replaying the stream, updates included.
  vicinity::core::QueryEngineOptions copts;
  copts.threads = lanes;
  copts.enable_cache = true;
  copts.cache.capacity_bytes = std::size_t{spec.cache_mb == 0 ? 16 : spec.cache_mb}
                               << 20;
  vicinity::core::QueryEngine cached = index.engine(copts);
  std::vector<Query> warm;
  for (const auto& [s, t] : stream.hot) warm.push_back({s, t});
  for (std::size_t first = 0; first < warm.size(); first += 4096) {
    const std::size_t n = std::min<std::size_t>(4096, warm.size() - first);
    cached.run_batch(std::span<const Query>(warm.data() + first, n));
  }
  cached.result_cache()->reset_counters();
  std::size_t next_update = 0, applied = 0;
  auto apply_due = [&](std::size_t upto) {
    while (next_update < units.updates.size() &&
           units.updates[next_update].first <= upto) {
      cached.apply_update(g, stream.updates[units.updates[next_update].second]);
      ++next_update;
      ++applied;
    }
  };
  for (std::size_t first = 0; first < units.queries.size(); first += batch) {
    apply_due(first);
    const std::size_t n = std::min(batch, units.queries.size() - first);
    cached.run_batch(std::span<const Query>(units.queries.data() + first, n),
                     std::span(results.data(), n));
  }
  const auto cc = cached.result_cache()->counters();
  if (applied % 2 != 0) {
    cached.apply_update(g, stream.updates[units.updates[next_update - 1].second + 1]);
  }

  spans.write(args.get("spans"));
  std::printf(
      "{\"units\": %zu, \"batch\": %zu, \"lanes\": %u, \"hash_lookups\": %llu, "
      "\"mismatches\": %llu, \"full_rebuilds\": %llu, "
      "\"boundary_patches\": %llu, \"cache_hits\": %llu, "
      "\"cache_misses\": %llu, \"cache_stale_misses\": %llu, "
      "\"cache_evictions\": %llu, \"cache_updates\": %zu}\n",
      units.queries.size(), batch, lanes,
      static_cast<unsigned long long>(hash_lookups),
      static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(full_rebuilds),
      static_cast<unsigned long long>(boundary_patches),
      static_cast<unsigned long long>(cc.hits),
      static_cast<unsigned long long>(cc.misses),
      static_cast<unsigned long long>(cc.stale_misses),
      static_cast<unsigned long long>(cc.evictions), applied);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace pb
