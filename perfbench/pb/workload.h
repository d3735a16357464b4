// The benchmark's fixed graph and index, and its seeded request streams.
//
// Every workload serves the same index: RMAT scale 16 (largest connected
// component, fixed generator seed), alpha = 16, exact bidirectional-BFS
// fallback, fixed landmark seed. At that size most uniform queries resolve
// by vicinity intersection, so the paper's path dominates engine time
// instead of the fallback. Only the request stream depends on the
// workload seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic.h"
#include "core/options.h"
#include "graph/graph.h"
#include "net/protocol.h"
#include "util/types.h"

namespace pb {

using vicinity::Distance;
using vicinity::NodeId;

inline constexpr unsigned kRmatScale = 16;
inline constexpr std::uint64_t kEdgesPerNode = 8;
inline constexpr std::uint64_t kGraphSeed = 20120801;
inline constexpr std::uint64_t kLandmarkSeed = 1009;
/// mixed-rw's updates are a fixed cycle, like the graph, not drawn per seed.
/// Single updates on this index cost from 1 ms to seconds (removing one
/// inserted edge in this seed's longer sequence re-repairs 7,744
/// vicinities), so a per-seed draw, or a sequence longer than a window,
/// would make a run measure which updates it reached rather than the code.
/// A short cycle puts several whole cycles in every window.
inline constexpr std::uint64_t kUpdateSeed = 4099;
inline constexpr std::size_t kUpdateCycle = 8;
inline constexpr double kAlpha = 16.0;

inline constexpr std::size_t kHotPairs = 131072;
inline constexpr double kZipfTheta = 0.99;
inline constexpr std::size_t kFanTargets = 32;
/// One APPLY_UPDATE per this many query requests on mixed-rw.
inline constexpr std::size_t kUpdateEvery = 2000;
/// Requests pre-encoded per run; the closed loop wraps around the stream.
inline constexpr std::size_t kStreamLength = std::size_t{1} << 20;

enum class Workload { kUniform, kHotCached, kMixedRw };

struct WorkloadSpec {
  Workload kind;
  const char* name;
  unsigned inflight;     ///< closed-loop requests kept in flight
  unsigned cache_mb;     ///< vicinityd --cache-mb (0 = no cache)
};

/// Throws std::invalid_argument on an unknown name.
const WorkloadSpec& workload_spec(const std::string& name);

/// The benchmark graph: RMAT(kRmatScale) reduced to its largest component.
vicinity::graph::Graph make_graph();

/// Index options: alpha = kAlpha, exact BFS fallback, kLandmarkSeed.
vicinity::core::OracleOptions index_options(unsigned build_threads);

struct Request {
  vicinity::net::Op op = vicinity::net::Op::kDistance;
  NodeId s = 0;
  NodeId t = 0;                 ///< kDistance / kPath target
  std::uint32_t fan = 0;        ///< kDistances: index into Stream::fan
  std::uint32_t update = 0;     ///< kApplyUpdate: index into Stream::updates
};

/// A seeded request stream, pre-encoded before any timing starts. Frame i
/// carries request id i, so a reply maps straight back to its request.
struct Stream {
  std::vector<Request> requests;
  std::vector<NodeId> fan;      ///< kFanTargets targets per kDistances
  std::vector<vicinity::core::GraphUpdate> updates;  ///< in stream order
  std::vector<std::pair<NodeId, NodeId>> hot;        ///< hot population
  std::vector<std::uint8_t> frames;
  std::vector<std::size_t> offsets;  ///< frames of request i: [o[i], o[i+1])

  std::size_t size() const { return requests.size(); }
};

/// uniform: DISTANCE over uniform random pairs. hot-cached: DISTANCE drawn
/// Zipf(kZipfTheta) over kHotPairs seeded pairs. mixed-rw: over the same
/// hot population, 85% DISTANCE, 10% DISTANCES (hot source, kFanTargets
/// uniform targets), 5% PATH, plus one APPLY_UPDATE per kUpdateEvery
/// queries, going round update_cycle().
Stream make_stream(Workload w, const vicinity::graph::Graph& g,
                   std::uint64_t seed, std::size_t length = kStreamLength);

/// The mixed-rw update cycle: kUpdateCycle / 2 seeded non-edges
/// (kUpdateSeed), each inserted and then removed. The traced run replays
/// it on every workload.
std::vector<vicinity::core::GraphUpdate> update_cycle(
    const vicinity::graph::Graph& g);

/// DISTANCE frames touching every hot pair once (the untimed cache warm),
/// with request ids starting at `first_id`.
std::vector<std::uint8_t> encode_warm_frames(const Stream& s,
                                             std::uint64_t first_id);

}  // namespace pb
