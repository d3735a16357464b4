// Reply checker: an independent breadth-first search over the benchmark's
// own copy of the graph, replayed to the epoch stamped on each reply.
// Nothing here calls the library's search or oracle code.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dynamic.h"
#include "graph/graph.h"
#include "net/protocol.h"
#include "util/types.h"

namespace pb {

using vicinity::Distance;
using vicinity::NodeId;

/// Undirected, unweighted adjacency copied out of a graph, plus an overlay
/// of inserted and removed edges.
class ReferenceGraph {
 public:
  explicit ReferenceGraph(const vicinity::graph::Graph& g);
  /// From an edge list (self-tests).
  ReferenceGraph(NodeId n, std::span<const std::pair<NodeId, NodeId>> edges);

  NodeId num_nodes() const { return n_; }
  void apply(const vicinity::core::GraphUpdate& u);
  bool has_edge(NodeId u, NodeId v) const;
  /// Hop distances from s (kInfDistance when unreachable).
  std::vector<Distance> bfs(NodeId s) const;

 private:
  static std::uint64_t key(NodeId u, NodeId v);

  NodeId n_ = 0;
  std::vector<std::uint64_t> offsets_;
  std::vector<NodeId> targets_;
  std::set<std::uint64_t> removed_;
  std::unordered_map<NodeId, std::vector<NodeId>> added_;
};

/// One sampled reply and what the generator knew when it sent it.
struct Sample {
  vicinity::net::Op op = vicinity::net::Op::kDistance;
  NodeId s = 0;
  NodeId t = 0;
  std::vector<NodeId> targets;  ///< kDistances
  /// Updates acknowledged before the request was sent: the reply's epoch
  /// may not be older. Updates sent before the reply arrived: it may not
  /// be newer.
  std::uint64_t min_epoch = 0;
  std::uint64_t max_epoch = 0;
  std::uint64_t epoch = 0;  ///< stamped on the reply
  std::vector<vicinity::net::DistanceRecord> records;
  std::vector<NodeId> path;  ///< kPath
};

/// Empty when the reply is right for the graph `g` (the graph at the
/// reply's epoch), else what is wrong.
std::string check_sample(const ReferenceGraph& g, const Sample& s);

struct CheckSummary {
  std::size_t checked = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< the first few
};

/// Checks every sample against `base` advanced by the first `epoch`
/// entries of `sent_updates` (the updates in the order they were sent).
CheckSummary check_samples(
    const ReferenceGraph& base,
    std::span<const vicinity::core::GraphUpdate> sent_updates,
    std::vector<Sample> samples);

}  // namespace pb
