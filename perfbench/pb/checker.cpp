#include "checker.h"

#include <algorithm>
#include <map>

namespace pb {

namespace {

using vicinity::kInfDistance;
using vicinity::net::DistanceRecord;
using vicinity::net::Op;

std::string dist_str(Distance d) {
  return d == kInfDistance ? std::string("inf") : std::to_string(d);
}

std::string check_record(const DistanceRecord& r, Distance want,
                         NodeId s, NodeId t) {
  if (!r.exact) {
    return "inexact answer for (" + std::to_string(s) + "," +
           std::to_string(t) + ")";
  }
  if (r.dist != want) {
    return "distance (" + std::to_string(s) + "," + std::to_string(t) +
           ") = " + dist_str(r.dist) + ", expected " + dist_str(want);
  }
  return {};
}

}  // namespace

std::uint64_t ReferenceGraph::key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (std::uint64_t{u} << 32) | v;
}

ReferenceGraph::ReferenceGraph(const vicinity::graph::Graph& g)
    : n_(g.num_nodes()) {
  offsets_.reserve(std::size_t{n_} + 1);
  offsets_.push_back(0);
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : g.neighbors(u)) targets_.push_back(v);
    offsets_.push_back(targets_.size());
  }
}

ReferenceGraph::ReferenceGraph(
    NodeId n, std::span<const std::pair<NodeId, NodeId>> edges)
    : n_(n) {
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [u, v] : edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  offsets_.push_back(0);
  for (const auto& a : adj) {
    targets_.insert(targets_.end(), a.begin(), a.end());
    offsets_.push_back(targets_.size());
  }
}

void ReferenceGraph::apply(const vicinity::core::GraphUpdate& up) {
  const std::uint64_t k = key(up.u, up.v);
  if (up.kind == vicinity::core::UpdateKind::kInsert) {
    if (has_edge(up.u, up.v)) return;
    if (removed_.erase(k) == 0) {
      added_[up.u].push_back(up.v);
      added_[up.v].push_back(up.u);
    }
    return;
  }
  if (!has_edge(up.u, up.v)) return;
  auto drop = [this](NodeId a, NodeId b) {
    auto it = added_.find(a);
    if (it == added_.end()) return false;
    auto& vec = it->second;
    auto pos = std::find(vec.begin(), vec.end(), b);
    if (pos == vec.end()) return false;
    vec.erase(pos);
    return true;
  };
  if (drop(up.u, up.v)) {
    drop(up.v, up.u);
  } else {
    removed_.insert(k);
  }
}

bool ReferenceGraph::has_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) return false;
  if (auto it = added_.find(u); it != added_.end() &&
      std::find(it->second.begin(), it->second.end(), v) != it->second.end()) {
    return true;
  }
  if (removed_.count(key(u, v)) != 0) return false;
  return std::find(targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]),
                   targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]),
                   v) != targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
}

std::vector<Distance> ReferenceGraph::bfs(NodeId s) const {
  std::vector<Distance> dist(n_, kInfDistance);
  if (s >= n_) return dist;
  std::vector<NodeId> queue;
  queue.reserve(n_);
  dist[s] = 0;
  queue.push_back(s);
  auto visit = [&](NodeId u, NodeId v) {
    if (dist[v] == kInfDistance) {
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  };
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (std::uint64_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const NodeId v = targets_[i];
      if (!removed_.empty() && removed_.count(key(u, v)) != 0) continue;
      visit(u, v);
    }
    if (auto it = added_.find(u); it != added_.end()) {
      for (const NodeId v : it->second) visit(u, v);
    }
  }
  return dist;
}

std::string check_sample(const ReferenceGraph& g, const Sample& s) {
  if (s.epoch < s.min_epoch) {
    return "stale epoch " + std::to_string(s.epoch) + " (an update to epoch " +
           std::to_string(s.min_epoch) + " was acknowledged before sending)";
  }
  if (s.epoch > s.max_epoch) {
    return "epoch " + std::to_string(s.epoch) + " from the future (only " +
           std::to_string(s.max_epoch) + " updates sent)";
  }
  const std::vector<Distance> dist = g.bfs(s.s);
  switch (s.op) {
    case Op::kDistance:
      if (s.records.size() != 1) return "DISTANCE reply without one record";
      return check_record(s.records[0], dist[s.t], s.s, s.t);
    case Op::kDistances:
      if (s.records.size() != s.targets.size()) {
        return "DISTANCES reply has " + std::to_string(s.records.size()) +
               " records for " + std::to_string(s.targets.size()) + " targets";
      }
      for (std::size_t i = 0; i < s.targets.size(); ++i) {
        std::string e = check_record(s.records[i], dist[s.targets[i]], s.s,
                                     s.targets[i]);
        if (!e.empty()) return "DISTANCES target " + std::to_string(i) + ": " + e;
      }
      return {};
    case Op::kPath: {
      if (s.records.size() != 1) return "PATH reply without one record";
      std::string e = check_record(s.records[0], dist[s.t], s.s, s.t);
      if (!e.empty()) return "PATH " + e;
      if (s.path.empty() || s.path.front() != s.s || s.path.back() != s.t) {
        return "PATH does not run from s to t";
      }
      if (s.path.size() - 1 != s.records[0].dist) {
        return "PATH has " + std::to_string(s.path.size() - 1) +
               " hops but dist " + dist_str(s.records[0].dist);
      }
      for (std::size_t i = 0; i + 1 < s.path.size(); ++i) {
        if (!g.has_edge(s.path[i], s.path[i + 1])) {
          return "PATH step " + std::to_string(s.path[i]) + "-" +
                 std::to_string(s.path[i + 1]) + " is not an edge";
        }
      }
      return {};
    }
    default:
      return "unexpected op in sample";
  }
}

CheckSummary check_samples(
    const ReferenceGraph& base,
    std::span<const vicinity::core::GraphUpdate> sent_updates,
    std::vector<Sample> samples) {
  CheckSummary out;
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.epoch < b.epoch;
                   });
  ReferenceGraph g = base;
  std::uint64_t at = 0;
  for (const Sample& s : samples) {
    std::string err;
    if (s.epoch > sent_updates.size()) {
      err = check_sample(g, s);  // fails its epoch bound
      if (err.empty()) err = "epoch beyond the updates sent";
    } else {
      while (at < s.epoch) g.apply(sent_updates[at++]);
      err = check_sample(g, s);
    }
    ++out.checked;
    if (!err.empty()) {
      ++out.failed;
      if (out.errors.size() < 5) out.errors.push_back(err);
    }
  }
  return out;
}

}  // namespace pb
