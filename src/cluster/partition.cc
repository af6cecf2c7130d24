#include "cluster/partition.h"

#include <algorithm>
#include <numeric>

#include "common/strings.h"

namespace kcore {

const char* PartitionStrategyName(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kContiguous:
      return "contiguous";
    case PartitionStrategy::kDegreeBalanced:
      return "degree";
    case PartitionStrategy::kEdgeCut:
      return "edgecut";
  }
  return "unknown";
}

bool ParsePartitionStrategy(const std::string& token,
                            PartitionStrategy* out) {
  for (PartitionStrategy strategy : AllPartitionStrategies()) {
    if (token == PartitionStrategyName(strategy)) {
      *out = strategy;
      return true;
    }
  }
  return false;
}

const std::vector<PartitionStrategy>& AllPartitionStrategies() {
  static const std::vector<PartitionStrategy> kAll = {
      PartitionStrategy::kContiguous, PartitionStrategy::kDegreeBalanced,
      PartitionStrategy::kEdgeCut};
  return kAll;
}

double ClusterPartition::BalanceRatio() const {
  uint64_t total = 0;
  uint64_t max_mass = 0;
  for (const NodePartition& node : nodes) {
    total += node.edge_mass;
    max_mass = std::max(max_mass, node.edge_mass);
  }
  if (total == 0 || num_nodes == 0) return 0.0;
  const double share = static_cast<double>(total) / num_nodes;
  return static_cast<double>(max_mass) / share;
}

namespace {

/// Rebuilds owned lists, mirrors, edge mass and cut counts from the owner
/// map — shared by every strategy and by RepartitionOntoSurvivors.
void FinalizeFromOwner(const CsrGraph& graph, ClusterPartition* partition) {
  const VertexId n = graph.NumVertices();
  partition->nodes.assign(partition->num_nodes, NodePartition());
  partition->total_cut_edges = 0;
  for (VertexId v = 0; v < n; ++v) {
    partition->nodes[partition->owner[v]].owned.push_back(v);
  }
  // Mirror sets: per node, the deduplicated foreign endpoints of its owned
  // adjacency. A scratch stamp array keeps this O(V + E) total.
  std::vector<uint32_t> stamp(n, UINT32_MAX);
  for (uint32_t node = 0; node < partition->num_nodes; ++node) {
    NodePartition& share = partition->nodes[node];
    for (VertexId v : share.owned) {
      share.edge_mass += graph.Degree(v);
      for (VertexId u : graph.Neighbors(v)) {
        if (partition->owner[u] == node) continue;
        ++share.cut_edges;
        if (stamp[u] != node) {
          stamp[u] = node;
          share.mirrors.push_back(u);
        }
      }
    }
    std::sort(share.mirrors.begin(), share.mirrors.end());
    partition->total_cut_edges += share.cut_edges;
  }
}

void BuildContiguous(const CsrGraph& graph, ClusterPartition* partition) {
  const VertexId n = graph.NumVertices();
  const uint32_t num_nodes = partition->num_nodes;
  const VertexId chunk = (n + num_nodes - 1) / num_nodes;
  for (VertexId v = 0; v < n; ++v) {
    partition->owner[v] =
        chunk == 0 ? 0 : std::min<uint32_t>(v / chunk, num_nodes - 1);
  }
}

void BuildDegreeBalanced(const CsrGraph& graph, ClusterPartition* partition) {
  const VertexId n = graph.NumVertices();
  const uint32_t num_nodes = partition->num_nodes;
  const double share =
      static_cast<double>(graph.NumDirectedEdges()) / num_nodes;
  // Sweep the ID range, closing a node's range once the running mass passes
  // its cumulative share: node i's mass stays under share + max_degree.
  uint64_t mass = 0;
  uint32_t node = 0;
  for (VertexId v = 0; v < n; ++v) {
    while (node + 1 < num_nodes &&
           static_cast<double>(mass) >= share * (node + 1)) {
      ++node;
    }
    partition->owner[v] = node;
    mass += graph.Degree(v);
  }
}

void BuildEdgeCut(const CsrGraph& graph, ClusterPartition* partition) {
  const VertexId n = graph.NumVertices();
  const uint32_t num_nodes = partition->num_nodes;
  // Hubs first: placing high-degree vertices early gives their tails a
  // strong co-location signal (the streaming-partition ordering trick).
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const uint32_t da = graph.Degree(a);
    const uint32_t db = graph.Degree(b);
    return da != db ? da > db : a < b;
  });

  const double share =
      std::max(1.0, static_cast<double>(graph.NumDirectedEdges()) / num_nodes);
  const double capacity =
      kEdgeCutCapacityFactor * share + graph.MaxDegree();
  std::vector<uint64_t> load(num_nodes, 0);
  std::vector<double> affinity(num_nodes, 0.0);
  std::fill(partition->owner.begin(), partition->owner.end(), UINT32_MAX);
  for (VertexId v : order) {
    std::fill(affinity.begin(), affinity.end(), 0.0);
    for (VertexId u : graph.Neighbors(v)) {
      if (partition->owner[u] != UINT32_MAX) {
        affinity[partition->owner[u]] += 1.0;
      }
    }
    // LDG score: placed-neighbor count discounted by the node's fill level;
    // nodes at capacity are out. Ties (including the no-placed-neighbors
    // cold start) go to the least-loaded node, then the lowest index —
    // fully deterministic.
    int best = -1;
    double best_score = -1.0;
    for (uint32_t node = 0; node < num_nodes; ++node) {
      const double fill = static_cast<double>(load[node]) / capacity;
      if (fill >= 1.0) continue;
      const double score = affinity[node] * (1.0 - fill);
      if (best < 0 || score > best_score ||
          (score == best_score && load[node] < load[best])) {
        best = static_cast<int>(node);
        best_score = score;
      }
    }
    if (best < 0) {
      // Everyone at capacity (degenerate graphs): fall back to least loaded.
      best = 0;
      for (uint32_t node = 1; node < num_nodes; ++node) {
        if (load[node] < load[best]) best = static_cast<int>(node);
      }
    }
    partition->owner[v] = static_cast<uint32_t>(best);
    load[best] += std::max<uint32_t>(1, graph.Degree(v));
  }
}

}  // namespace

StatusOr<ClusterPartition> BuildPartition(const CsrGraph& graph,
                                          PartitionStrategy strategy,
                                          uint32_t num_nodes) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  ClusterPartition partition;
  partition.strategy = strategy;
  partition.num_nodes = num_nodes;
  partition.owner.assign(graph.NumVertices(), 0);
  switch (strategy) {
    case PartitionStrategy::kContiguous:
      BuildContiguous(graph, &partition);
      break;
    case PartitionStrategy::kDegreeBalanced:
      BuildDegreeBalanced(graph, &partition);
      break;
    case PartitionStrategy::kEdgeCut:
      BuildEdgeCut(graph, &partition);
      break;
  }
  FinalizeFromOwner(graph, &partition);
  return partition;
}

Status RepartitionOntoSurvivors(const CsrGraph& graph,
                                const std::vector<uint8_t>& dead,
                                ClusterPartition* partition) {
  if (dead.size() != partition->num_nodes) {
    return Status::FailedPrecondition("dead mask mis-sized for partition");
  }
  bool any_survivor = false;
  for (uint32_t node = 0; node < partition->num_nodes; ++node) {
    any_survivor = any_survivor || dead[node] == 0;
  }
  if (!any_survivor) {
    return Status::FailedPrecondition("no surviving node to repartition onto");
  }
  // Each dead node's whole share moves to the currently lightest survivor —
  // a share-granular merge (like the multi-GPU adjacent-range merge) so the
  // survivor rebuilds one partition, not a vertex-by-vertex scatter.
  std::vector<uint64_t> load(partition->num_nodes, 0);
  for (uint32_t node = 0; node < partition->num_nodes; ++node) {
    if (dead[node] == 0) load[node] = partition->nodes[node].edge_mass;
  }
  for (uint32_t node = 0; node < partition->num_nodes; ++node) {
    if (dead[node] == 0 || partition->nodes[node].owned.empty()) continue;
    int target = -1;
    for (uint32_t cand = 0; cand < partition->num_nodes; ++cand) {
      if (dead[cand] != 0) continue;
      if (target < 0 || load[cand] < load[target]) {
        target = static_cast<int>(cand);
      }
    }
    for (VertexId v : partition->nodes[node].owned) {
      partition->owner[v] = static_cast<uint32_t>(target);
    }
    load[target] += partition->nodes[node].edge_mass;
  }
  FinalizeFromOwner(graph, partition);
  return Status::OK();
}

bool ValidatePartition(const CsrGraph& graph,
                       const ClusterPartition& partition, std::string* why) {
  const auto fail = [&](std::string message) {
    if (why != nullptr) *why = std::move(message);
    return false;
  };
  const VertexId n = graph.NumVertices();
  if (partition.num_nodes == 0) return fail("num_nodes == 0");
  if (partition.owner.size() != n) return fail("owner map mis-sized");
  if (partition.nodes.size() != partition.num_nodes) {
    return fail("nodes vector mis-sized");
  }
  // Disjoint cover: every vertex appears in exactly the owned list its
  // owner entry names, and the owned lists are sorted. stamp[u] == node
  // marks u as a foreign endpoint of node's owned adjacency (the expected
  // mirror set), as in FinalizeFromOwner — O(V + E) over all nodes.
  uint64_t covered = 0;
  uint64_t total_cut = 0;
  std::vector<uint32_t> stamp(n, UINT32_MAX);
  for (uint32_t node = 0; node < partition.num_nodes; ++node) {
    const NodePartition& share = partition.nodes[node];
    if (!std::is_sorted(share.owned.begin(), share.owned.end())) {
      return fail(StrFormat("node %u: owned list not sorted", node));
    }
    uint64_t mass = 0;
    uint64_t cut = 0;
    size_t adjacent = 0;
    for (size_t i = 0; i < share.owned.size(); ++i) {
      const VertexId v = share.owned[i];
      if (v >= n) return fail(StrFormat("node %u owns out-of-range %u", node, v));
      if (i > 0 && share.owned[i - 1] == v) {
        return fail(StrFormat("node %u owns %u twice", node, v));
      }
      if (partition.owner[v] != node) {
        return fail(StrFormat("owner[%u]=%u but node %u lists it", v,
                              partition.owner[v], node));
      }
      mass += graph.Degree(v);
      for (VertexId u : graph.Neighbors(v)) {
        if (partition.owner[u] == node) continue;
        ++cut;
        if (stamp[u] != node) {
          stamp[u] = node;
          ++adjacent;
        }
      }
    }
    covered += share.owned.size();
    if (mass != share.edge_mass) {
      return fail(StrFormat("node %u edge_mass mismatch", node));
    }
    if (cut != share.cut_edges) {
      return fail(StrFormat("node %u cut_edges mismatch", node));
    }
    total_cut += cut;
    // Mirrors: sorted, unique, foreign-owned, and exactly the set of
    // foreign endpoints of the owned adjacency.
    if (!std::is_sorted(share.mirrors.begin(), share.mirrors.end())) {
      return fail(StrFormat("node %u: mirror list not sorted", node));
    }
    if (adjacent != share.mirrors.size()) {
      return fail(StrFormat("node %u: %zu mirrors listed, %zu adjacent", node,
                            share.mirrors.size(), adjacent));
    }
    for (size_t i = 0; i < share.mirrors.size(); ++i) {
      const VertexId m = share.mirrors[i];
      if (m >= n) return fail(StrFormat("node %u mirror out of range", node));
      if (i > 0 && share.mirrors[i - 1] == m) {
        return fail(StrFormat("node %u mirrors %u twice", node, m));
      }
      if (partition.owner[m] == node) {
        return fail(
            StrFormat("node %u mirrors its own vertex %u (no valid foreign "
                      "master)",
                      node, m));
      }
      if (stamp[m] != node) {
        return fail(StrFormat("node %u mirrors non-adjacent %u", node, m));
      }
    }
  }
  if (covered != n) {
    return fail(StrFormat("owned lists cover %llu of %u vertices",
                          static_cast<unsigned long long>(covered), n));
  }
  if (total_cut != partition.total_cut_edges) {
    return fail("total_cut_edges mismatch");
  }
  return true;
}

}  // namespace kcore
