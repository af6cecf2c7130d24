// Partition-invariant property suite (DESIGN.md §14): every strategy at
// every node count must produce a disjoint cover of V with valid
// mirror/master references and stay inside its own balance bound, on every
// graph in the test suite. These invariants are what the cluster engine's
// correctness rests on, so they are tested directly, not only through the
// end-to-end coreness checks in cluster_test.cc.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/partition.h"
#include "test_graphs.h"

namespace kcore {
namespace {

using testing::FullSuite;
using testing::NamedGraph;

constexpr uint32_t kNodeCounts[] = {1, 2, 3, 5, 8};

struct ParamName {
  template <typename T>
  std::string operator()(const ::testing::TestParamInfo<T>& info) const {
    return std::string(PartitionStrategyName(std::get<0>(info.param))) + "_" +
           std::to_string(std::get<1>(info.param)) + "nodes";
  }
};

class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<PartitionStrategy, uint32_t>> {
 protected:
  PartitionStrategy strategy() const { return std::get<0>(GetParam()); }
  uint32_t num_nodes() const { return std::get<1>(GetParam()); }
};

TEST_P(PartitionPropertyTest, DisjointCoverWithValidMirrors) {
  for (const NamedGraph& g : FullSuite()) {
    auto partition = BuildPartition(g.graph, strategy(), num_nodes());
    ASSERT_TRUE(partition.ok()) << g.name;
    std::string why;
    EXPECT_TRUE(ValidatePartition(g.graph, *partition, &why))
        << g.name << ": " << why;

    // Belt and braces beyond ValidatePartition: the owner map itself is a
    // total function into [0, num_nodes).
    ASSERT_EQ(partition->owner.size(), g.graph.NumVertices()) << g.name;
    uint64_t owned_total = 0;
    for (const NodePartition& node : partition->nodes) {
      owned_total += node.owned.size();
    }
    EXPECT_EQ(owned_total, g.graph.NumVertices()) << g.name;
    for (uint32_t owner : partition->owner) {
      ASSERT_LT(owner, num_nodes()) << g.name;
    }
    // Every mirror's master is a different node that really owns it.
    for (uint32_t node = 0; node < num_nodes(); ++node) {
      for (VertexId m : partition->nodes[node].mirrors) {
        const uint32_t master = partition->owner[m];
        ASSERT_NE(master, node) << g.name;
        const auto& owned = partition->nodes[master].owned;
        EXPECT_TRUE(std::binary_search(owned.begin(), owned.end(), m))
            << g.name << ": mirror " << m << " not in master's owned list";
      }
    }
  }
}

TEST_P(PartitionPropertyTest, EdgeMassWithinStrategyBound) {
  for (const NamedGraph& g : FullSuite()) {
    auto partition = BuildPartition(g.graph, strategy(), num_nodes());
    ASSERT_TRUE(partition.ok()) << g.name;
    const double share =
        static_cast<double>(g.graph.NumDirectedEdges()) / num_nodes();
    const double max_degree = g.graph.MaxDegree();
    for (uint32_t node = 0; node < num_nodes(); ++node) {
      const double mass =
          static_cast<double>(partition->nodes[node].edge_mass);
      switch (strategy()) {
        case PartitionStrategy::kContiguous: {
          // Contiguous balances vertex count, not mass: every node owns at
          // most ceil(V / N) vertices.
          const uint64_t chunk =
              (g.graph.NumVertices() + num_nodes() - 1) / num_nodes();
          EXPECT_LE(partition->nodes[node].owned.size(), chunk) << g.name;
          break;
        }
        case PartitionStrategy::kDegreeBalanced:
          // The sweep closes a range within one vertex of its cumulative
          // share, so no node exceeds share + max_degree.
          EXPECT_LE(mass, share + max_degree)
              << g.name << " node " << node;
          break;
        case PartitionStrategy::kEdgeCut:
          // The greedy placement is hard-capped at
          // kEdgeCutCapacityFactor * share (+ one whole adjacency, since a
          // vertex's mass lands atomically; +1 for the degree-0 load floor).
          EXPECT_LE(mass, kEdgeCutCapacityFactor * std::max(1.0, share) +
                              2.0 * max_degree + 1.0)
              << g.name << " node " << node;
          break;
      }
    }
  }
}

TEST_P(PartitionPropertyTest, DeterministicAcrossRebuilds) {
  for (const NamedGraph& g : FullSuite()) {
    auto first = BuildPartition(g.graph, strategy(), num_nodes());
    auto second = BuildPartition(g.graph, strategy(), num_nodes());
    ASSERT_TRUE(first.ok() && second.ok()) << g.name;
    EXPECT_EQ(first->owner, second->owner) << g.name;
    EXPECT_EQ(first->total_cut_edges, second->total_cut_edges) << g.name;
    for (uint32_t node = 0; node < num_nodes(); ++node) {
      EXPECT_EQ(first->nodes[node].owned, second->nodes[node].owned)
          << g.name;
      EXPECT_EQ(first->nodes[node].mirrors, second->nodes[node].mirrors)
          << g.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PartitionPropertyTest,
    ::testing::Combine(::testing::ValuesIn(AllPartitionStrategies()),
                       ::testing::ValuesIn(kNodeCounts)),
    ParamName());

TEST(PartitionTest, ZeroNodesRejected) {
  EXPECT_TRUE(BuildPartition(testing::CliqueGraph(4).graph,
                             PartitionStrategy::kContiguous, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST(PartitionTest, MoreNodesThanVertices) {
  const auto g = testing::CliqueGraph(3);
  for (PartitionStrategy strategy : AllPartitionStrategies()) {
    auto partition = BuildPartition(g.graph, strategy, 16);
    ASSERT_TRUE(partition.ok());
    std::string why;
    EXPECT_TRUE(ValidatePartition(g.graph, *partition, &why)) << why;
  }
}

TEST(PartitionTest, EmptyGraph) {
  const CsrGraph empty = BuildUndirectedGraphWithVertexCount({}, 0);
  for (PartitionStrategy strategy : AllPartitionStrategies()) {
    auto partition = BuildPartition(empty, strategy, 3);
    ASSERT_TRUE(partition.ok());
    std::string why;
    EXPECT_TRUE(ValidatePartition(empty, *partition, &why)) << why;
    EXPECT_EQ(partition->total_cut_edges, 0u);
  }
}

TEST(PartitionTest, NameParseRoundTrip) {
  for (PartitionStrategy strategy : AllPartitionStrategies()) {
    PartitionStrategy parsed;
    ASSERT_TRUE(ParsePartitionStrategy(PartitionStrategyName(strategy),
                                       &parsed));
    EXPECT_EQ(parsed, strategy);
  }
  PartitionStrategy untouched = PartitionStrategy::kEdgeCut;
  EXPECT_FALSE(ParsePartitionStrategy("metis", &untouched));
  EXPECT_EQ(untouched, PartitionStrategy::kEdgeCut);
  EXPECT_FALSE(ParsePartitionStrategy("", &untouched));
}

TEST(PartitionTest, EdgeCutBeatsContiguousOnCommunityGraph) {
  // Two unequal cliques joined by one edge: greedy placement fills one node
  // with the heavy clique until capacity pressure pushes the light clique to
  // the other (cut = the 2 directed bridge edges), while the contiguous
  // chunk boundary lands inside the heavy clique. The cliques must be
  // unequal: with 8+8 the bridge's affinity drags the second hub onto the
  // first node before capacity bites, and the contiguous midpoint happens
  // to fall exactly on the clique boundary.
  const auto g = testing::TwoCliquesGraph(5, 8);
  auto contiguous =
      BuildPartition(g.graph, PartitionStrategy::kContiguous, 2);
  auto edgecut = BuildPartition(g.graph, PartitionStrategy::kEdgeCut, 2);
  ASSERT_TRUE(contiguous.ok() && edgecut.ok());
  EXPECT_LE(edgecut->total_cut_edges, contiguous->total_cut_edges);
  EXPECT_EQ(edgecut->total_cut_edges, 2u);
}

TEST(PartitionTest, DegreeBalancedEvensOutSkewedMass) {
  // A hub graph under a contiguous split piles the hub adjacency onto the
  // first node; the degree-balanced sweep must land near 1.0.
  const auto g = testing::FullSuite().back().graph;  // hub
  auto contiguous =
      BuildPartition(g, PartitionStrategy::kContiguous, 4);
  auto balanced =
      BuildPartition(g, PartitionStrategy::kDegreeBalanced, 4);
  ASSERT_TRUE(contiguous.ok() && balanced.ok());
  EXPECT_LT(balanced->BalanceRatio(), contiguous->BalanceRatio());
  const double share = static_cast<double>(g.NumDirectedEdges()) / 4;
  EXPECT_LE(balanced->BalanceRatio(), (share + g.MaxDegree()) / share);
}

// ------------------------------------------------ Node-loss repartition ---

TEST(PartitionTest, RepartitionMovesDeadShareToSurvivors) {
  for (PartitionStrategy strategy : AllPartitionStrategies()) {
    for (const NamedGraph& g : FullSuite()) {
      auto partition = BuildPartition(g.graph, strategy, 4);
      ASSERT_TRUE(partition.ok()) << g.name;
      const std::vector<uint8_t> dead = {0, 1, 0, 1};
      ASSERT_TRUE(
          RepartitionOntoSurvivors(g.graph, dead, &*partition).ok())
          << g.name;
      std::string why;
      EXPECT_TRUE(ValidatePartition(g.graph, *partition, &why))
          << g.name << ": " << why;
      EXPECT_TRUE(partition->nodes[1].owned.empty()) << g.name;
      EXPECT_TRUE(partition->nodes[3].owned.empty()) << g.name;
    }
  }
}

TEST(PartitionTest, RepartitionWithoutSurvivorsFails) {
  const auto g = testing::CliqueGraph(6);
  auto partition =
      BuildPartition(g.graph, PartitionStrategy::kContiguous, 2);
  ASSERT_TRUE(partition.ok());
  EXPECT_TRUE(RepartitionOntoSurvivors(g.graph, {1, 1}, &*partition)
                  .IsFailedPrecondition());
  EXPECT_TRUE(RepartitionOntoSurvivors(g.graph, {0}, &*partition)
                  .IsFailedPrecondition());
}

TEST(PartitionTest, ValidateCatchesCorruptedOwnerMap) {
  const auto g = testing::CliqueGraph(6);
  auto partition =
      BuildPartition(g.graph, PartitionStrategy::kContiguous, 2);
  ASSERT_TRUE(partition.ok());
  partition->owner[0] = 1;  // owned list no longer agrees
  std::string why;
  EXPECT_FALSE(ValidatePartition(g.graph, *partition, &why));
  EXPECT_FALSE(why.empty());
}

// The mirror check. Path 0-..-7 split contiguously over 3 nodes: node 1
// owns {3, 4, 5} and mirrors exactly {2, 6}.
ClusterPartition PathThreeWay(const CsrGraph& graph) {
  auto partition = BuildPartition(graph, PartitionStrategy::kContiguous, 3);
  EXPECT_TRUE(partition.ok());
  ClusterPartition out = *std::move(partition);
  EXPECT_EQ(out.nodes[1].mirrors, (std::vector<VertexId>{2, 6}));
  std::string why;
  EXPECT_TRUE(ValidatePartition(graph, out, &why)) << why;
  return out;
}

TEST(PartitionTest, ValidateCatchesDroppedMirror) {
  const auto g = testing::PathGraph(8);
  ClusterPartition partition = PathThreeWay(g.graph);
  partition.nodes[1].mirrors = {2};
  std::string why;
  EXPECT_FALSE(ValidatePartition(g.graph, partition, &why));
  EXPECT_EQ(why, "node 1: 1 mirrors listed, 2 adjacent");
}

TEST(PartitionTest, ValidateCatchesExtraNonAdjacentMirror) {
  const auto g = testing::PathGraph(8);
  ClusterPartition partition = PathThreeWay(g.graph);
  std::string why;
  // Vertex 0 is foreign to node 1 but not adjacent to anything it owns:
  // appended, the count is off; swapped in, the set is.
  partition.nodes[1].mirrors = {0, 2, 6};
  EXPECT_FALSE(ValidatePartition(g.graph, partition, &why));
  EXPECT_EQ(why, "node 1: 3 mirrors listed, 2 adjacent");
  partition.nodes[1].mirrors = {0, 6};
  EXPECT_FALSE(ValidatePartition(g.graph, partition, &why));
  EXPECT_EQ(why, "node 1 mirrors non-adjacent 0");
}

TEST(PartitionTest, ValidateCatchesDuplicatedMirror) {
  const auto g = testing::PathGraph(8);
  ClusterPartition partition = PathThreeWay(g.graph);
  std::string why;
  partition.nodes[1].mirrors = {2, 2, 6};
  EXPECT_FALSE(ValidatePartition(g.graph, partition, &why));
  EXPECT_EQ(why, "node 1: 3 mirrors listed, 2 adjacent");
  partition.nodes[1].mirrors = {2, 2};
  EXPECT_FALSE(ValidatePartition(g.graph, partition, &why));
  EXPECT_EQ(why, "node 1 mirrors 2 twice");
}

}  // namespace
}  // namespace kcore
