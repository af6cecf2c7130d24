// End-to-end tests for the simulated multi-node engine (DESIGN.md §14):
// cluster coreness must be bit-identical to the BZ oracle for every
// partition strategy, node count and per-node device count; the buffered
// network layer must aggregate exactly as specified; faults mid-round must
// recover (or degrade) without ever yielding a wrong answer.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_peel.h"
#include "cluster/network.h"
#include "cluster/partition.h"
#include "common/thread_pool.h"
#include "core/delta_buffer.h"
#include "cpu/naive_ref.h"
#include "perf/trace.h"
#include "serve/engine.h"
#include "test_graphs.h"

namespace kcore {
namespace {

using testing::FullSuite;
using testing::NamedGraph;

struct ShapeName {
  template <typename T>
  std::string operator()(const ::testing::TestParamInfo<T>& info) const {
    return std::string(PartitionStrategyName(std::get<1>(info.param))) + "_" +
           std::to_string(std::get<0>(info.param)) + "nodes";
  }
};

class ClusterShapeTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, PartitionStrategy>> {
 protected:
  uint32_t num_nodes() const { return std::get<0>(GetParam()); }
  PartitionStrategy strategy() const { return std::get<1>(GetParam()); }
};

TEST_P(ClusterShapeTest, MatchesOracleOnFullSuite) {
  for (uint32_t devices : {1u, 2u}) {
    ClusterOptions options;
    options.num_nodes = num_nodes();
    options.devices_per_node = devices;
    options.partition = strategy();
    for (const NamedGraph& g : FullSuite()) {
      const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
      auto result = RunClusterPeel(g.graph, options);
      ASSERT_TRUE(result.ok())
          << g.name << ": " << result.status().ToString();
      EXPECT_EQ(result->core, oracle)
          << g.name << " nodes=" << num_nodes() << " devices=" << devices
          << " partition=" << PartitionStrategyName(strategy());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusterShapeTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                       ::testing::ValuesIn(AllPartitionStrategies())),
    ShapeName());

TEST(ClusterTest, SimcheckCleanOnFullSuite) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.node_device.check_mode = true;
  for (const NamedGraph& g : FullSuite()) {
    const std::vector<uint32_t> oracle = RunNaiveReference(g.graph).core;
    auto result = RunClusterPeel(g.graph, options);
    ASSERT_TRUE(result.ok()) << g.name << ": " << result.status().ToString();
    EXPECT_EQ(result->core, oracle) << g.name;
  }
}

TEST(ClusterTest, EmptyGraph) {
  const CsrGraph empty = BuildUndirectedGraphWithVertexCount({}, 0);
  auto result = RunClusterPeel(empty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->core.empty());
}

TEST(ClusterTest, ZeroNodesRejected) {
  ClusterOptions options;
  options.num_nodes = 0;
  EXPECT_TRUE(RunClusterPeel(testing::CliqueGraph(4).graph, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ClusterTest, ZeroDevicesRejected) {
  ClusterOptions options;
  options.devices_per_node = 0;
  EXPECT_TRUE(RunClusterPeel(testing::CliqueGraph(4).graph, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ClusterTest, SingleNodeHasNoTraffic) {
  ClusterOptions options;
  options.num_nodes = 1;
  options.devices_per_node = 2;
  auto result = RunClusterPeel(testing::RandomSuite()[0].graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.comm_bytes, 0u);
  EXPECT_EQ(result->metrics.comm_messages, 0u);
  EXPECT_EQ(result->metrics.comm_ms, 0.0);
}

TEST(ClusterTest, BorderPropagationNeedsExtraSubRounds) {
  // A path spanning every node: the k=1 shell peels strictly through node
  // borders, so sub-rounds must exceed rounds (the multi-GPU observation
  // lifted to the cluster barrier).
  const auto g = testing::PathGraph(64);
  ClusterOptions options;
  options.num_nodes = 4;
  auto result = RunClusterPeel(g.graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->core, g.expected_core);
  EXPECT_GT(result->metrics.iterations, result->metrics.rounds);
  EXPECT_GT(result->metrics.comm_bytes, 0u);
}

TEST(ClusterTest, CancelledBeforeStart) {
  CancelToken token;
  token.Cancel();
  CancelContext cancel;
  cancel.token = &token;
  ClusterOptions options;
  options.cancel = &cancel;
  auto result = RunClusterPeel(testing::CliqueGraph(8).graph, options);
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

// ------------------------------------------------------- Network layer ----

constexpr VertexId kNetVertices = 16;

std::vector<DeltaBuffer> Inboxes(uint32_t num_nodes) {
  return std::vector<DeltaBuffer>(num_nodes, DeltaBuffer(kNetVertices));
}

TEST(ClusterNetworkTest, AggregatesSameVertexInPlace) {
  ClusterNetwork network(2, kNetVertices, NetworkOptions());
  network.Buffer(0, 1, /*v=*/7, 1);
  network.Buffer(0, 1, /*v=*/7, 2);
  network.Buffer(0, 1, /*v=*/9, 1);
  EXPECT_EQ(network.PendingEntries(), 2u);

  std::vector<DeltaBuffer> inboxes = Inboxes(2);
  EXPECT_GT(network.Flush(&inboxes), 0.0);
  EXPECT_EQ(inboxes[1].size(), 2u);
  EXPECT_EQ(inboxes[1].count(7), 3u);
  EXPECT_EQ(inboxes[1].count(9), 1u);
  EXPECT_TRUE(inboxes[0].empty());
  EXPECT_EQ(network.PendingEntries(), 0u);
}

TEST(ClusterNetworkTest, FlushesExactlyOncePerLink) {
  ClusterNetwork network(3, kNetVertices, NetworkOptions());
  // Many buffered deltas on two links; one flush must emit exactly one
  // message per busy link and nothing on idle links.
  for (VertexId v = 0; v < 10; ++v) network.Buffer(0, 1, v, 1);
  for (VertexId v = 0; v < 4; ++v) network.Buffer(2, 0, v, 1);
  std::vector<DeltaBuffer> inboxes = Inboxes(3);
  network.Flush(&inboxes);
  EXPECT_EQ(network.LinkFlushCount(0, 1), 1u);
  EXPECT_EQ(network.LinkFlushCount(2, 0), 1u);
  EXPECT_EQ(network.LinkFlushCount(0, 2), 0u);
  EXPECT_EQ(network.LinkFlushCount(1, 0), 0u);
  EXPECT_EQ(network.stats().messages, 2u);
  EXPECT_EQ(network.stats().flushes, 1u);

  // An empty flush costs nothing and does not count.
  EXPECT_EQ(network.Flush(&inboxes), 0.0);
  EXPECT_EQ(network.stats().flushes, 1u);
  EXPECT_EQ(network.LinkFlushCount(0, 1), 1u);
}

TEST(ClusterNetworkTest, ModeledCostMatchesHandComputation) {
  NetworkOptions options;
  options.link_latency_us = 2.0;
  options.link_bandwidth_gbps = 1.0;  // 1 byte per modeled ns
  ClusterNetwork network(2, kNetVertices, options);
  for (VertexId v = 0; v < 3; ++v) network.Buffer(0, 1, v, 1);
  std::vector<DeltaBuffer> inboxes = Inboxes(2);
  const double ns = network.Flush(&inboxes);
  // One message: 64-byte header + 3 entries x 8 bytes = 88 bytes at
  // 1 byte/ns, plus 2 us latency.
  EXPECT_DOUBLE_EQ(ns, 88.0 + 2000.0);
  EXPECT_EQ(network.stats().bytes_on_wire, 88u);
  EXPECT_EQ(network.stats().entries, 3u);
  EXPECT_EQ(network.MessageBytes(3), 88u);
}

TEST(ClusterNetworkTest, SlowestSenderGatesTheBarrier) {
  NetworkOptions options;
  options.link_latency_us = 0.0;
  options.link_bandwidth_gbps = 1.0;
  ClusterNetwork network(3, kNetVertices, options);
  // Node 0 sends on two links (its NIC serializes: costs add); node 1 sends
  // one message in parallel with node 0.
  network.Buffer(0, 1, 1, 1);
  network.Buffer(0, 2, 2, 1);
  network.Buffer(1, 2, 3, 1);
  std::vector<DeltaBuffer> inboxes = Inboxes(3);
  const double ns = network.Flush(&inboxes);
  EXPECT_DOUBLE_EQ(ns, 2.0 * (64.0 + 8.0));
}

TEST(ClusterTest, BytesOnWireGoldenOnFourVertexPath) {
  // Path 0-1-2-3 under a contiguous 2-node split ({0,1} | {2,3}). The only
  // border traffic is in round k=1, sub-round 1: node 0 peels 0 then 1 and
  // buffers one decrement for foreign 2; node 1 peels 3 then 2 and buffers
  // one decrement for foreign 1. One flush, two links, one entry each:
  // 2 x (64 + 8) = 144 bytes.
  const auto g = testing::PathGraph(4);
  ClusterOptions options;
  options.num_nodes = 2;
  options.partition = PartitionStrategy::kContiguous;
  auto result = RunClusterPeel(g.graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->core, g.expected_core);
  EXPECT_EQ(result->metrics.comm_bytes, 144u);
  EXPECT_EQ(result->metrics.comm_messages, 2u);
}

TEST(ClusterTest, ModeledCommDeterministicAcrossRuns) {
  // A 1-thread pool is one worker plus the calling thread, so the lanes
  // still run on two host threads; two runs must agree bit-for-bit on
  // every modeled number all the same.
  ThreadPool pool(1);
  ClusterOptions options;
  options.num_nodes = 4;
  options.partition = PartitionStrategy::kEdgeCut;
  options.pool = &pool;
  const auto g = testing::RandomSuite()[2].graph;  // ba
  auto first = RunClusterPeel(g, options);
  auto second = RunClusterPeel(g, options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->core, second->core);
  EXPECT_EQ(first->metrics.comm_ms, second->metrics.comm_ms);
  EXPECT_EQ(first->metrics.modeled_ms, second->metrics.modeled_ms);
  EXPECT_EQ(first->metrics.comm_bytes, second->metrics.comm_bytes);
  EXPECT_EQ(first->metrics.comm_messages, second->metrics.comm_messages);
  EXPECT_EQ(first->metrics.iterations, second->metrics.iterations);
}

TEST(ClusterTest, CommCostScalesWithNetworkKnobs) {
  const auto g = testing::RandomSuite()[0].graph;
  ClusterOptions fast;
  fast.num_nodes = 3;
  ClusterOptions slow = fast;
  slow.network.link_latency_us *= 100.0;
  slow.network.link_bandwidth_gbps /= 100.0;
  auto fast_result = RunClusterPeel(g, fast);
  auto slow_result = RunClusterPeel(g, slow);
  ASSERT_TRUE(fast_result.ok() && slow_result.ok());
  // Pure model: the answer and the traffic are identical, only time moves.
  EXPECT_EQ(fast_result->core, slow_result->core);
  EXPECT_EQ(fast_result->metrics.comm_bytes, slow_result->metrics.comm_bytes);
  EXPECT_GT(slow_result->metrics.comm_ms, fast_result->metrics.comm_ms);
}

// ----------------------------------------------------- Comm overlap -------

TEST(ClusterTest, OverlapIsBitIdenticalAndNoSlower) {
  for (const NamedGraph& g : FullSuite()) {
    ClusterOptions on;
    on.num_nodes = 3;
    on.overlap = true;
    ClusterOptions off = on;
    off.overlap = false;
    auto with = RunClusterPeel(g.graph, on);
    auto without = RunClusterPeel(g.graph, off);
    ASSERT_TRUE(with.ok() && without.ok()) << g.name;
    EXPECT_EQ(with->core, without->core) << g.name;
    EXPECT_EQ(with->metrics.comm_bytes, without->metrics.comm_bytes)
        << g.name;
    EXPECT_EQ(with->metrics.iterations, without->metrics.iterations)
        << g.name;
    // Overlap hides exchange time behind the next sub-round's compute; it
    // can only help the modeled clock.
    EXPECT_LE(with->metrics.modeled_ms, without->metrics.modeled_ms)
        << g.name;
  }
}

// ------------------------------------------------------ Fault matrix ------

TEST(ClusterFaultTest, NodeLossRepartitionsOntoSurvivors) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  ClusterOptions options;
  options.num_nodes = 4;
  options.node_fault_specs = {"", "device_lost@launch=4", "", ""};
  auto result = RunClusterPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_GE(result->metrics.devices_lost, 1u);
  EXPECT_GE(result->metrics.levels_reexecuted, 1u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(ClusterFaultTest, SequentialNodeLossesKeepRepartitioning) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  ClusterOptions options;
  options.num_nodes = 4;
  options.node_fault_specs = {"device_lost@launch=9",
                              "device_lost@launch=3", "", ""};
  auto result = RunClusterPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_GE(result->metrics.devices_lost, 2u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(ClusterFaultTest, LosingOneDeviceKillsTheWholeNode) {
  // Node granularity: with M=2 the fault plan lands on both devices of node
  // 1, but even a single device loss retires the node as a unit and its
  // whole share moves to a survivor.
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  ClusterOptions options;
  options.num_nodes = 2;
  options.devices_per_node = 2;
  options.node_fault_specs = {"", "device_lost@launch=3"};
  auto result = RunClusterPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_GE(result->metrics.devices_lost, 1u);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(ClusterFaultTest, AllNodesLostFallsBackToCpu) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  ClusterOptions options;
  options.num_nodes = 2;
  options.node_fault_specs = {"device_lost@launch=2",
                              "device_lost@launch=2"};
  auto result = RunClusterPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_TRUE(result->metrics.degraded);
  EXPECT_GE(result->metrics.cpu_fallback_levels, 1u);
}

TEST(ClusterFaultTest, MidRoundFaultMatrixNeverYieldsWrongCoreness) {
  // The fault x shape matrix of the differential suite's fault leg, driven
  // directly: transient launch failures and node losses injected mid-round
  // must either recover exactly or degrade to the exact CPU answer.
  const auto g = testing::RandomSuite()[4].graph;  // planted core
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  const char* kSpecs[] = {"launch_fail@3", "launch_fail@7",
                          "device_lost@launch=2", "device_lost@launch=11"};
  for (const char* spec : kSpecs) {
    for (uint32_t nodes : {2u, 3u}) {
      ClusterOptions options;
      options.num_nodes = nodes;
      options.node_fault_specs.assign(nodes, "");
      options.node_fault_specs[nodes - 1] = spec;
      auto result = RunClusterPeel(g, options);
      ASSERT_TRUE(result.ok())
          << spec << " nodes=" << nodes << ": "
          << result.status().ToString();
      EXPECT_EQ(result->core, oracle) << spec << " nodes=" << nodes;
    }
  }
}

TEST(ClusterFaultTest, TransientLaunchFailuresAreRetried) {
  const auto g = testing::RandomSuite()[0].graph;
  const std::vector<uint32_t> oracle = RunNaiveReference(g).core;
  ClusterOptions options;
  options.num_nodes = 3;
  options.node_fault_specs = {"launch_fail@4"};
  auto result = RunClusterPeel(g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, oracle);
  EXPECT_FALSE(result->metrics.degraded);
}

TEST(ClusterFaultTest, FallbackDisabledSurfacesTotalLoss) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.resilience.cpu_fallback = false;
  options.node_fault_specs = {"device_lost@launch=1",
                              "device_lost@launch=1"};
  auto result = RunClusterPeel(testing::RandomSuite()[0].graph, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeviceLost()) << result.status().ToString();
}

TEST(ClusterFaultTest, NoFaultPlanTakesNoCheckpoints) {
  ClusterOptions options;
  options.num_nodes = 3;
  auto result = RunClusterPeel(testing::CliqueGraph(10).graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.checkpoints_taken, 0u);
  EXPECT_EQ(result->metrics.devices_lost, 0u);
  EXPECT_FALSE(result->metrics.degraded);
}

// --------------------------------------------------- Engine integration ---

TEST(ClusterEngineTest, MakeEngineRoutesToCluster) {
  EngineConfig config;
  config.cluster.num_nodes = 3;
  config.cluster.partition = PartitionStrategy::kEdgeCut;
  auto engine = MakeEngine(EngineKind::kCluster, config);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->kind(), EngineKind::kCluster);
  EXPECT_STREQ(engine->name(), "cluster");
  EXPECT_TRUE(engine->uses_device());

  const auto g = testing::RandomSuite()[0].graph;
  auto result = engine->Decompose(g, EngineRunContext{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->core, RunNaiveReference(g).core);
  EXPECT_TRUE(engine->HealthCheck(EngineRunContext{}).ok());
}

TEST(ClusterEngineTest, TraceCarriesPerNodeAndCommSpans) {
  Trace trace;
  ClusterOptions options;
  options.num_nodes = 2;
  options.trace = &trace;
  const auto g = testing::RandomSuite()[0].graph;
  auto result = RunClusterPeel(g, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.comm_ms, 0.0);
  // Comm spans live on the master timeline; per-node compute spans on the
  // per-device pids add further kernel time on top of them.
  const double comm_ns = trace.TotalDurNs(kTraceCatKernel, "border_exchange");
  EXPECT_GT(comm_ns, 0.0);
  EXPECT_GT(trace.TotalDurNs(kTraceCatKernel), comm_ns);
}

}  // namespace
}  // namespace kcore
