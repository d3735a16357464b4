// Self-test of the reply checker on a hand-made graph: it must accept right
// replies and reject a wrong distance, a stale-epoch answer, a DISTANCES
// reply with one wrong target, and a path that uses a non-edge.
//
//   pb_selftest    (exit 0 when every case holds)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checker.h"

namespace {

using pb::NodeId;
using pb::Sample;
using vicinity::core::GraphUpdate;
using vicinity::net::DistanceRecord;
using vicinity::net::Op;

int failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

DistanceRecord rec(vicinity::Distance d) {
  DistanceRecord r;
  r.dist = d;
  r.exact = true;
  return r;
}

Sample distance(NodeId s, NodeId t, vicinity::Distance d,
                std::uint64_t epoch = 0) {
  Sample x;
  x.op = Op::kDistance;
  x.s = s;
  x.t = t;
  x.records = {rec(d)};
  x.epoch = epoch;
  x.max_epoch = epoch;
  return x;
}

}  // namespace

int main() {
  // Path 0-1-2-3-4 plus a chord 1-3.
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}};
  const pb::ReferenceGraph base(5, edges);

  expect(pb::check_sample(base, distance(0, 4, 3)).empty(),
         "right distance accepted");
  expect(!pb::check_sample(base, distance(0, 4, 4)).empty(),
         "wrong distance rejected");
  Sample inexact = distance(0, 4, 3);
  inexact.records[0].exact = false;
  expect(!pb::check_sample(base, inexact).empty(), "inexact answer rejected");

  // Epoch 1 inserts 0-4; epoch 2 removes it again.
  const std::vector<GraphUpdate> updates = {GraphUpdate::insert(0, 4),
                                            GraphUpdate::remove(0, 4)};
  {
    auto s = pb::check_samples(base, updates,
                               {distance(0, 4, 1, 1), distance(0, 4, 3, 2),
                                distance(0, 4, 3, 0)});
    expect(s.checked == 3 && s.failed == 0,
           "answers right at their own epochs accepted");
  }
  {
    // Right for epoch 0, stamped with epoch 1: stale content.
    auto s = pb::check_samples(base, updates, {distance(0, 4, 3, 1)});
    expect(s.failed == 1, "epoch-0 answer stamped epoch 1 rejected");
  }
  {
    // An update to epoch 1 was acknowledged before the request was sent,
    // yet the reply is stamped epoch 0.
    Sample stale = distance(0, 4, 3, 0);
    stale.min_epoch = 1;
    stale.max_epoch = 1;
    expect(!pb::check_sample(base, stale).empty(), "stale epoch rejected");
    auto s = pb::check_samples(base, updates, {stale});
    expect(s.failed == 1, "stale epoch rejected by check_samples");
  }
  {
    Sample future = distance(0, 4, 1, 1);
    future.max_epoch = 0;
    expect(!pb::check_sample(base, future).empty(), "future epoch rejected");
  }

  Sample fan;
  fan.op = Op::kDistances;
  fan.s = 0;
  fan.targets = {2, 3, 4};
  fan.records = {rec(2), rec(2), rec(3)};
  expect(pb::check_sample(base, fan).empty(), "right DISTANCES accepted");
  fan.records[1] = rec(3);
  expect(!pb::check_sample(base, fan).empty(),
         "DISTANCES with one wrong target rejected");

  Sample path;
  path.op = Op::kPath;
  path.s = 0;
  path.t = 4;
  path.records = {rec(3)};
  path.path = {0, 1, 3, 4};
  expect(pb::check_sample(base, path).empty(), "real shortest path accepted");
  path.path = {0, 2, 3, 4};  // 0-2 is not an edge
  expect(!pb::check_sample(base, path).empty(), "non-edge path rejected");
  path.path = {0, 1, 2, 3, 4};  // real edges, but 4 hops for dist 3
  expect(!pb::check_sample(base, path).empty(), "path longer than dist rejected");
  path.path = {0, 1, 3};
  expect(!pb::check_sample(base, path).empty(), "path not ending at t rejected");

  pb::ReferenceGraph g = base;
  g.apply(GraphUpdate::remove(1, 3));
  expect(!g.has_edge(3, 1) && g.bfs(0)[4] == 4, "removal replayed");
  g.apply(GraphUpdate::insert(1, 3));
  expect(g.has_edge(3, 1) && g.bfs(0)[4] == 3, "re-insert replayed");

  if (failures == 0) std::printf("pb_selftest: all checker cases pass\n");
  return failures == 0 ? 0 : 1;
}
