#include "workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gen/rmat.h"
#include "graph/components.h"
#include "util/rng.h"

namespace pb {

namespace {

using vicinity::core::GraphUpdate;
using vicinity::net::Op;

constexpr WorkloadSpec kSpecs[] = {
    {Workload::kUniform, "uniform", 64, 0},
    {Workload::kHotCached, "hot-cached", 256, 16},
    {Workload::kMixedRw, "mixed-rw", 64, 16},
};

/// Independent stream per purpose, so the pairs drawn do not shift when
/// the query mix changes.
vicinity::util::Rng rng_for(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed + purpose * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return vicinity::util::Rng(z ^ (z >> 31));
}

/// Zipf(theta) over ranks [0, n): precomputed CDF + binary search.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t sample(vicinity::util::Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

NodeId uniform_node(vicinity::util::Rng& rng, NodeId n) {
  return static_cast<NodeId>(rng.next_below(n));
}

void encode(Op op, std::uint64_t id, const std::vector<std::uint8_t>& payload,
            std::vector<std::uint8_t>& out) {
  vicinity::net::FrameHeader h;
  h.op = op;
  h.request_id = id;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  vicinity::net::encode_frame(h, payload, out);
}

void encode_request(const Stream& s, std::size_t i,
                    std::vector<std::uint8_t>& out) {
  const Request& r = s.requests[i];
  std::vector<std::uint8_t> payload;
  vicinity::net::FrameWriter w(payload);
  switch (r.op) {
    case Op::kDistance:
    case Op::kPath:
      w.u32(r.s);
      w.u32(r.t);
      break;
    case Op::kDistances:
      w.u32(r.s);
      w.u32(static_cast<std::uint32_t>(kFanTargets));
      for (std::size_t k = 0; k < kFanTargets; ++k) w.u32(s.fan[r.fan + k]);
      break;
    case Op::kApplyUpdate: {
      const GraphUpdate& u = s.updates[r.update];
      w.u8(u.kind == vicinity::core::UpdateKind::kInsert ? 0 : 1);
      w.u8(0);
      w.u8(0);
      w.u8(0);
      w.u32(u.u);
      w.u32(u.v);
      w.u32(u.kind == vicinity::core::UpdateKind::kInsert ? u.weight : 0);
      break;
    }
    default:
      throw std::logic_error("perfbench: unexpected op in stream");
  }
  encode(r.op, i, payload, out);
}

}  // namespace

const WorkloadSpec& workload_spec(const std::string& name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

vicinity::graph::Graph make_graph() {
  vicinity::util::Rng rng(kGraphSeed);
  vicinity::gen::RmatParams params;
  auto raw = vicinity::gen::rmat(kRmatScale,
                                 kEdgesPerNode * (std::uint64_t{1} << kRmatScale),
                                 params, rng);
  return vicinity::graph::largest_component(raw).graph;
}

vicinity::core::OracleOptions index_options(unsigned build_threads) {
  vicinity::core::OracleOptions o;
  o.alpha = kAlpha;
  o.fallback = vicinity::core::Fallback::kBidirectionalBfs;
  o.seed = kLandmarkSeed;
  o.build_threads = build_threads;
  return o;
}

std::vector<GraphUpdate> update_cycle(const vicinity::graph::Graph& g) {
  vicinity::util::Rng rng(kUpdateSeed);
  std::vector<GraphUpdate> out;
  const NodeId n = g.num_nodes();
  while (out.size() < kUpdateCycle) {
    const NodeId u = uniform_node(rng, n);
    const NodeId v = uniform_node(rng, n);
    if (u == v || g.has_edge(u, v)) continue;
    out.push_back(GraphUpdate::insert(u, v));
    out.push_back(GraphUpdate::remove(u, v));
  }
  return out;
}

Stream make_stream(Workload w, const vicinity::graph::Graph& g,
                   std::uint64_t seed, std::size_t length) {
  Stream s;
  const NodeId n = g.num_nodes();
  auto pairs = rng_for(seed, 1);
  auto mix = rng_for(seed, 2);

  if (w != Workload::kUniform) {
    s.hot.reserve(kHotPairs);
    while (s.hot.size() < kHotPairs) {
      const NodeId a = uniform_node(pairs, n);
      const NodeId b = uniform_node(pairs, n);
      if (a != b) s.hot.emplace_back(a, b);
    }
    std::sort(s.hot.begin(), s.hot.end());
    s.hot.erase(std::unique(s.hot.begin(), s.hot.end()), s.hot.end());
    // Zipf ranks must not follow the sort order (which favours low ids).
    for (std::size_t i = s.hot.size(); i > 1; --i) {
      std::swap(s.hot[i - 1], s.hot[pairs.next_below(i)]);
    }
  }
  const Zipf zipf(s.hot.empty() ? 1 : s.hot.size(), kZipfTheta);

  std::size_t queries = 0;
  s.requests.reserve(length);
  while (s.requests.size() < length) {
    Request r;
    if (w == Workload::kUniform) {
      r.s = uniform_node(pairs, n);
      r.t = uniform_node(pairs, n);
    } else {
      const auto& hp = s.hot[zipf.sample(pairs)];
      r.s = hp.first;
      r.t = hp.second;
    }
    if (w == Workload::kMixedRw) {
      if (queries > 0 && queries % kUpdateEvery == 0 &&
          (s.updates.size() + 1) * kUpdateEvery <= queries) {
        Request u;
        u.op = Op::kApplyUpdate;
        u.update = static_cast<std::uint32_t>(s.updates.size());
        s.updates.push_back({});  // filled below
        s.requests.push_back(u);
        continue;
      }
      const double p = mix.next_double();
      if (p < 0.10) {
        r.op = Op::kDistances;
        r.fan = static_cast<std::uint32_t>(s.fan.size());
        for (std::size_t k = 0; k < kFanTargets; ++k) {
          s.fan.push_back(uniform_node(mix, n));
        }
      } else if (p < 0.15) {
        r.op = Op::kPath;
      }
    }
    s.requests.push_back(r);
    ++queries;
  }
  if (!s.updates.empty()) {
    // An even count keeps every insert paired with its removal, so the
    // graph is back at its base state whenever the closed loop wraps.
    if (s.updates.size() % 2 != 0) {
      for (auto it = s.requests.rbegin(); it != s.requests.rend(); ++it) {
        if (it->op == Op::kApplyUpdate) {
          *it = Request{};
          it->s = s.hot[0].first;
          it->t = s.hot[0].second;
          break;
        }
      }
      s.updates.pop_back();
    }
    const std::vector<GraphUpdate> cycle = update_cycle(g);
    for (std::size_t i = 0; i < s.updates.size(); ++i) {
      s.updates[i] = cycle[i % cycle.size()];
    }
  }

  s.offsets.reserve(s.requests.size() + 1);
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    s.offsets.push_back(s.frames.size());
    encode_request(s, i, s.frames);
  }
  s.offsets.push_back(s.frames.size());
  return s;
}

std::vector<std::uint8_t> encode_warm_frames(const Stream& s,
                                             std::uint64_t first_id) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < s.hot.size(); ++i) {
    std::vector<std::uint8_t> payload;
    vicinity::net::FrameWriter w(payload);
    w.u32(s.hot[i].first);
    w.u32(s.hot[i].second);
    encode(Op::kDistance, first_id + i, payload, out);
  }
  return out;
}

}  // namespace pb
