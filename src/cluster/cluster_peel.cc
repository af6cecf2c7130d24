#include "cluster/cluster_peel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "core/delta_buffer.h"
#include "core/resilience.h"
#include "cpu/pkc.h"
#include "perf/cost_model.h"
#include "perf/modeled_clock.h"

namespace kcore {

namespace {

/// One device of one node: a contiguous slice of the node's owned-vertex
/// list, its CSR resident in its own device memory, and its outgoing delta
/// buffer.
struct NodeDevice {
  /// Slice [slice_begin, slice_end) of the owning node's `owned` list.
  size_t slice_begin = 0;
  size_t slice_end = 0;
  std::unique_ptr<sim::Device> device;
  sim::DeviceArray<EdgeIndex> d_offsets;  // slice CSR offsets, rebased
  sim::DeviceArray<VertexId> d_neighbors;  // global endpoint IDs
  sim::DeviceArray<uint32_t> d_deg;        // owned slice only
  sim::DeviceArray<VertexId> d_buffer;     // local frontier buffer
  /// Decrements for vertices this device does not hold, drained by the
  /// master per sub-round: those of the same node (another device) apply
  /// at intra-node (no network) cost, foreign-node ones go into the
  /// ClusterNetwork (where per-link aggregation across this node's devices
  /// happens).
  DeltaBuffer deltas;
  PerfCounters counters;  // per-sub-round, merged by master
  /// Per-slice active-vertex compaction (same policy as the multi-GPU
  /// workers): positions into the node's owned list.
  std::vector<size_t> active;
  bool use_active = false;
  uint64_t local_removed = 0;
};

/// One cluster node: its partition share split among its devices.
struct Node {
  std::vector<NodeDevice> devices;
  /// Owned-list slice chunk: device d covers [d*chunk, min((d+1)*chunk, sz)).
  size_t chunk = 0;
  bool alive = true;
};

/// Round-boundary checkpoint (see multi_gpu_peel.cc): the verified degree
/// snapshot, claim flags, and cumulative removed count.
struct RoundCheckpoint {
  std::vector<uint32_t> deg;
  std::vector<uint8_t> claimed;
  uint64_t removed = 0;
};

}  // namespace

StatusOr<DecomposeResult> RunClusterPeel(const CsrGraph& graph,
                                         const ClusterOptions& options) {
  if (options.num_nodes == 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  if (options.devices_per_node == 0) {
    return Status::InvalidArgument("devices_per_node must be positive");
  }
  WallTimer timer;
  const VertexId n = graph.NumVertices();
  const uint32_t num_nodes = options.num_nodes;
  const uint32_t devices_per_node = options.devices_per_node;
  const uint32_t num_lanes = num_nodes * devices_per_node;
  DecomposeResult result;
  ModeledClock clock(GpuNativeCostModel());
  ClusterNetwork network(num_nodes, n, options.network);
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : DefaultThreadPool();

  KCORE_ASSIGN_OR_RETURN(
      ClusterPartition partition,
      BuildPartition(graph, options.partition, num_nodes));
  if (std::string why; !ValidatePartition(graph, partition, &why)) {
    return Status::Internal(
        StrFormat("%s partition failed its invariants: %s",
                  PartitionStrategyName(options.partition), why.c_str()));
  }

  // simprof: the master assembles the cluster timeline (nodes peel through
  // host pointers); device alloc/copy traces merge in at the end. Comm
  // spans live on the master's "network" thread and may overlap the next
  // sub-round's compute spans — that is the overlap, drawn.
  const bool tracing = options.trace != nullptr;
  Trace trace;
  const auto now_ns = [&] { return clock.ms() * 1e6; };
  if (tracing) {
    trace.SetProcessName(0, "master");
    trace.SetThreadName(0, kTraceTidKernels, "network");
    trace.SetThreadName(0, kTraceTidRanges, "rounds");
  }

  // Sub-round imbalance accumulators (Metrics.loop_imbalance): slowest vs
  // mean alive-lane modeled ns.
  double subround_max_ns = 0.0;
  double subround_mean_ns = 0.0;
  const auto finish_loop_imbalance = [&]() {
    result.metrics.loop_imbalance =
        subround_mean_ns > 0.0 ? subround_max_ns / subround_mean_ns : 0.0;
  };

  // --- Vertex location maps, rebuilt after any repartition. ---
  // owner is partition.owner; slot_of[v] = position of v in its owner's
  // owned list (device index and slice offset both derive from it).
  std::vector<size_t> slot_of(n, 0);
  std::vector<Node> nodes(num_nodes);
  const auto rebuild_location_maps = [&] {
    for (uint32_t node = 0; node < num_nodes; ++node) {
      const std::vector<VertexId>& owned = partition.nodes[node].owned;
      for (size_t i = 0; i < owned.size(); ++i) slot_of[owned[i]] = i;
      nodes[node].chunk =
          (owned.size() + devices_per_node - 1) / devices_per_node;
    }
  };
  const auto device_index_for_slot = [&](uint32_t node, size_t slot) {
    const size_t chunk = nodes[node].chunk;
    return chunk == 0 ? 0u
                      : static_cast<uint32_t>(std::min<size_t>(
                            slot / chunk, devices_per_node - 1));
  };

  // --- Create the devices (partitions are built below, from the
  // checkpoint, so post-loss rebuilds reuse the same path). ---
  for (uint32_t node = 0; node < num_nodes; ++node) {
    nodes[node].devices.resize(devices_per_node);
    for (uint32_t d = 0; d < devices_per_node; ++d) {
      sim::DeviceOptions device_options = options.node_device;
      if (node < options.node_fault_specs.size() &&
          !options.node_fault_specs[node].empty()) {
        device_options.fault_spec = options.node_fault_specs[node];
      }
      if (tracing) {
        device_options.profile = true;
        device_options.profile_pid = 1 + node * devices_per_node + d;
        device_options.profile_name = StrFormat("node%u.dev%u", node, d);
      }
      nodes[node].devices[d].device =
          std::make_unique<sim::Device>(device_options);
      nodes[node].devices[d].deltas = DeltaBuffer(n);
    }
  }
  bool any_faults = false;
  for (const Node& node : nodes) {
    for (const NodeDevice& dev : node.devices) {
      any_faults = any_faults || dev.device->fault_injection_enabled();
    }
  }
  const bool resilient = options.resilience.enabled && any_faults;

  const auto flush_trace = [&] {
    if (!tracing) return;
    for (const Node& node : nodes) {
      for (const NodeDevice& dev : node.devices) {
        if (sim::SimProfiler* prof = dev.device->profiler()) {
          trace.Append(prof->trace());
        }
      }
    }
    *options.trace = std::move(trace);
  };

  // Bounded retry for transient (Unavailable) copy failures.
  const auto with_retry = [&](auto&& op) -> Status {
    Status st = op();
    if (!resilient) return st;
    for (uint32_t attempt = 0;
         st.IsUnavailable() && attempt < options.resilience.max_op_retries;
         ++attempt) {
      ++result.metrics.retries;
      st = op();
    }
    return st;
  };

  RoundCheckpoint ckpt;
  ckpt.deg = graph.DegreeArray();
  ckpt.claimed.assign(n, 0);
  ckpt.removed = 0;

  // (Re)builds one device's slice of `node`'s share from the host graph and
  // the checkpoint — initial load and post-repartition rebuilds alike.
  const auto build_device = [&](uint32_t node_idx, uint32_t d) -> Status {
    Node& node = nodes[node_idx];
    NodeDevice& dev = node.devices[d];
    const std::vector<VertexId>& owned = partition.nodes[node_idx].owned;
    dev.slice_begin = std::min(owned.size(), d * node.chunk);
    dev.slice_end = std::min(owned.size(), (d + 1) * node.chunk);
    if (d + 1 == devices_per_node) dev.slice_end = owned.size();
    dev.use_active = false;
    dev.active.clear();
    dev.deltas.Clear();
    const size_t local_n = dev.slice_end - dev.slice_begin;

    std::vector<EdgeIndex> offsets(local_n + 1, 0);
    for (size_t i = 0; i < local_n; ++i) {
      offsets[i + 1] = offsets[i] + graph.Degree(owned[dev.slice_begin + i]);
    }
    std::vector<VertexId> neighbors;
    neighbors.reserve(offsets[local_n]);
    std::vector<uint32_t> deg(std::max<size_t>(1, local_n), 0);
    uint64_t removed_in_slice = 0;
    for (size_t i = 0; i < local_n; ++i) {
      const VertexId v = owned[dev.slice_begin + i];
      const auto nbrs = graph.Neighbors(v);
      neighbors.insert(neighbors.end(), nbrs.begin(), nbrs.end());
      deg[i] = ckpt.deg[v];
      if (ckpt.claimed[v] != 0) ++removed_in_slice;
    }

    dev.d_offsets.Reset();
    dev.d_neighbors.Reset();
    dev.d_deg.Reset();
    dev.d_buffer.Reset();
    // All four arrays are fully overwritten before any read.
    KCORE_ASSIGN_OR_RETURN(dev.d_offsets,
                           dev.device->AllocUninit<EdgeIndex>(
                               offsets.size(), "node_offsets"));
    KCORE_ASSIGN_OR_RETURN(
        dev.d_neighbors,
        dev.device->AllocUninit<VertexId>(std::max<size_t>(1, neighbors.size()),
                                          "node_neighbors"));
    KCORE_ASSIGN_OR_RETURN(
        dev.d_deg, dev.device->AllocUninit<uint32_t>(deg.size(), "node_deg"));
    KCORE_ASSIGN_OR_RETURN(
        dev.d_buffer,
        dev.device->AllocUninit<VertexId>(std::max<size_t>(1024, local_n),
                                          "node_buffer"));
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return dev.d_offsets.CopyFromHost(offsets); }));
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return dev.d_neighbors.CopyFromHost(neighbors); }));
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return dev.d_deg.CopyFromHost(deg); }));
    // Only the degree slice is checkpoint-restorable, so it alone is
    // eligible for injected bitflips.
    dev.device->MarkCorruptible(dev.d_deg, "node_deg");
    dev.local_removed = removed_in_slice;
    return Status::OK();
  };
  const auto build_node = [&](uint32_t node_idx) -> Status {
    for (uint32_t d = 0; d < devices_per_node; ++d) {
      KCORE_RETURN_IF_ERROR(build_device(node_idx, d));
    }
    return Status::OK();
  };

  // Finishes on CPU PKC from the checkpoint once no usable cluster remains.
  const auto cpu_finish = [&](uint32_t start_k) -> DecomposeResult {
    WallTimer recovery;
    if (tracing) {
      trace.AddInstant(StrFormat("cpu_fallback k=%u", start_k),
                       kTraceCatRecovery, 0, kTraceTidRanges, now_ns());
    }
    result.metrics.degraded = true;
    DecomposeResult cpu = ResumePkc(graph, std::move(ckpt.deg), start_k);
    result.core = std::move(cpu.core);
    result.metrics.cpu_fallback_levels = cpu.metrics.rounds;
    result.metrics.rounds += cpu.metrics.rounds;
    result.metrics.counters += cpu.metrics.counters;
    result.metrics.modeled_ms = clock.ms() + cpu.metrics.modeled_ms;
    uint64_t max_peak = 0;
    for (const Node& node : nodes) {
      for (const NodeDevice& dev : node.devices) {
        max_peak = std::max(max_peak, dev.device->peak_bytes());
      }
    }
    result.metrics.peak_device_bytes = max_peak;
    result.metrics.comm_ms = network.stats().comm_ns / 1e6;
    result.metrics.comm_bytes = network.stats().bytes_on_wire;
    result.metrics.comm_messages = network.stats().messages;
    result.metrics.recovery_ms += recovery.ElapsedMillis();
    finish_loop_imbalance();
    result.metrics.wall_ms = timer.ElapsedMillis();
    flush_trace();
    return result;
  };

  // Repartitions every unhandled dead node's share onto the lightest
  // survivor (cluster/partition.h) and rebuilds the survivors from the
  // checkpoint. A survivor that fails its rebuild is declared dead itself
  // and the pass restarts; each pass shrinks the cluster, so this
  // terminates. DeviceLost once nobody survives.
  std::vector<uint8_t> death_counted(num_nodes, 0);
  const auto handle_deaths = [&]() -> Status {
    bool pending = false;
    for (uint32_t node = 0; node < num_nodes; ++node) {
      if (!nodes[node].alive && death_counted[node] == 0) {
        death_counted[node] = 1;
        pending = true;
        ++result.metrics.devices_lost;
        if (tracing) {
          trace.AddInstant(StrFormat("node_lost node%u", node),
                           kTraceCatRecovery, 0, kTraceTidRanges, now_ns());
        }
      }
    }
    if (!pending) return Status::OK();
    while (true) {
      std::vector<uint8_t> dead(num_nodes, 0);
      bool any_alive = false;
      for (uint32_t node = 0; node < num_nodes; ++node) {
        dead[node] = nodes[node].alive ? 0 : 1;
        any_alive = any_alive || nodes[node].alive;
        if (!nodes[node].alive) {
          for (NodeDevice& dev : nodes[node].devices) {
            dev.d_offsets.Reset();
            dev.d_neighbors.Reset();
            dev.d_deg.Reset();
            dev.d_buffer.Reset();
            dev.active.clear();
            dev.use_active = false;
            dev.deltas.Clear();
          }
        }
      }
      if (!any_alive) return Status::DeviceLost("all cluster nodes lost");
      KCORE_RETURN_IF_ERROR(
          RepartitionOntoSurvivors(graph, dead, &partition));
      rebuild_location_maps();
      bool again = false;
      for (uint32_t node = 0; node < num_nodes; ++node) {
        if (!nodes[node].alive) continue;
        Status built = build_node(node);
        if (!built.ok()) {
          nodes[node].alive = false;
          again = true;
          break;
        }
      }
      if (!again) {
        if (tracing) {
          trace.AddInstant("repartition_onto_survivors", kTraceCatRecovery, 0,
                           kTraceTidRanges, now_ns());
        }
        return Status::OK();
      }
    }
  };

  // --- Initial partition load. A node that cannot even load starts out
  // dead and its share is repartitioned like a mid-run loss. ---
  rebuild_location_maps();
  for (uint32_t node = 0; node < num_nodes; ++node) {
    Status built = build_node(node);
    if (!built.ok()) {
      if (resilient && (built.IsOutOfMemory() || built.IsUnavailable() ||
                        built.IsDeviceLost())) {
        nodes[node].alive = false;
        continue;
      }
      return built;
    }
  }
  if (Status cluster = handle_deaths(); !cluster.ok()) {
    if (resilient && options.resilience.cpu_fallback) return cpu_finish(0);
    return cluster;
  }

  // --- Live peeling state (checkpointed at every round boundary). ---
  std::vector<uint8_t> claimed(n, 0);
  std::atomic<uint64_t> removed{0};

  auto deg_of = [&](VertexId v) -> uint32_t& {
    const uint32_t node = partition.owner[v];
    const size_t slot = slot_of[v];
    NodeDevice& dev = nodes[node].devices[device_index_for_slot(node, slot)];
    return dev.d_deg.data()[slot - dev.slice_begin];
  };

  // Restores every survivor to the checkpoint.
  const auto rollback_alive = [&]() -> Status {
    std::copy(ckpt.claimed.begin(), ckpt.claimed.end(), claimed.begin());
    removed.store(ckpt.removed, std::memory_order_relaxed);
    for (uint32_t node_idx = 0; node_idx < num_nodes; ++node_idx) {
      Node& node = nodes[node_idx];
      if (!node.alive) continue;
      const std::vector<VertexId>& owned = partition.nodes[node_idx].owned;
      for (NodeDevice& dev : node.devices) {
        dev.use_active = false;
        dev.active.clear();
        dev.deltas.Clear();
        const size_t local_n = dev.slice_end - dev.slice_begin;
        std::vector<uint32_t> deg(std::max<size_t>(1, local_n), 0);
        uint64_t removed_in_slice = 0;
        for (size_t i = 0; i < local_n; ++i) {
          const VertexId v = owned[dev.slice_begin + i];
          deg[i] = ckpt.deg[v];
          if (ckpt.claimed[v] != 0) ++removed_in_slice;
        }
        dev.local_removed = removed_in_slice;
        if (local_n == 0) continue;
        Status st = with_retry([&] {
          return dev.d_deg.CopyFromHost(
              std::span<const uint32_t>(deg).first(local_n));
        });
        if (st.IsDeviceLost()) node.alive = false;
        KCORE_RETURN_IF_ERROR(st);
      }
    }
    return Status::OK();
  };

  // Gathers every device's degree slice into `out` for validation.
  const auto gather_deg = [&](std::vector<uint32_t>& out) -> Status {
    out.resize(n);
    for (uint32_t node_idx = 0; node_idx < num_nodes; ++node_idx) {
      Node& node = nodes[node_idx];
      if (!node.alive) continue;
      const std::vector<VertexId>& owned = partition.nodes[node_idx].owned;
      for (NodeDevice& dev : node.devices) {
        const size_t local_n = dev.slice_end - dev.slice_begin;
        if (local_n == 0) continue;
        std::vector<uint32_t> deg(local_n, 0);
        Status st = with_retry(
            [&] { return dev.d_deg.CopyToHost(std::span<uint32_t>(deg)); });
        if (st.IsDeviceLost()) node.alive = false;
        KCORE_RETURN_IF_ERROR(st);
        for (size_t i = 0; i < local_n; ++i) {
          out[owned[dev.slice_begin + i]] = deg[i];
        }
      }
    }
    return Status::OK();
  };

  uint32_t k = 0;
  const uint32_t k_limit = graph.MaxDegree() + 2;
  std::vector<uint32_t> post_deg;
  std::vector<DeltaBuffer> inboxes(num_nodes, DeltaBuffer(n));
  // Comm/compute overlap: exchange time not yet charged to the clock,
  // hidden behind the next sub-round's compute (ClusterOptions::overlap).
  double pending_comm_ns = 0.0;
  const auto drain_pending_comm = [&] {
    clock.AddOverheadNs(pending_comm_ns);
    pending_comm_ns = 0.0;
  };

  // One round k to its border fixpoint, ending (resilient mode) with the
  // gathered-state validation against the checkpoint.
  const auto run_round = [&]() -> Status {
    uint64_t subrounds = 0;
    // Corruption can manufacture endless border traffic; a clean round
    // never needs more sub-rounds than vertices.
    const uint64_t subround_limit = static_cast<uint64_t>(n) + 2;
    while (true) {
      ++result.metrics.iterations;
      if (++subrounds > subround_limit) {
        return Status::Corruption(StrFormat(
            "round k=%u: no fixpoint after %llu sub-rounds — suspected "
            "degree corruption",
            k, static_cast<unsigned long long>(subrounds - 1)));
      }
      std::atomic<uint64_t> removed_this_subround{0};
      std::atomic<bool> death{false};

      // --- Each device peels its slice (parallel lanes; a lane only
      // touches its owned deg entries and its private delta buffers). ---
      pool.RunLanes(num_lanes, [&](uint32_t lane) {
        const uint32_t node_idx = lane / devices_per_node;
        const uint32_t d = lane % devices_per_node;
        Node& node = nodes[node_idx];
        if (!node.alive) return;
        NodeDevice& dev = node.devices[d];
        if (resilient) {
          // Liveness probe at sub-round granularity — the launch-domain
          // fault point for nodes that peel through host pointers. Any
          // device loss takes the whole node down (node-granular recovery).
          const Status health = dev.device->HealthCheck("subround");
          if (health.IsDeviceLost()) {
            node.alive = false;
            death.store(true, std::memory_order_relaxed);
            return;
          }
        }
        const std::vector<VertexId>& owned = partition.nodes[node_idx].owned;
        PerfCounters& c = dev.counters;
        const EdgeIndex* offsets = dev.d_offsets.data();
        const VertexId* neighbors = dev.d_neighbors.data();
        uint32_t* deg = dev.d_deg.data();
        VertexId* buffer = dev.d_buffer.data();
        const size_t local_n = dev.slice_end - dev.slice_begin;

        // Per-slice active compaction (multi-GPU policy: rebuild the dense
        // survivor list at every halving).
        const uint64_t remaining = local_n - dev.local_removed;
        const uint64_t sweep_len =
            dev.use_active ? dev.active.size() : local_n;
        if (static_cast<double>(remaining) < 0.5 * sweep_len) {
          std::vector<size_t> next;
          next.reserve(remaining);
          const auto keep = [&](size_t slot) {
            ++c.global_reads;
            if (claimed[owned[slot]] == 0) next.push_back(slot);
          };
          if (dev.use_active) {
            for (size_t slot : dev.active) keep(slot);
          } else {
            for (size_t slot = dev.slice_begin; slot < dev.slice_end; ++slot) {
              keep(slot);
            }
          }
          c.global_writes += next.size();
          ++c.compactions;
          dev.active = std::move(next);
          dev.use_active = true;
        }

        // Scan the slice (or its compacted active list) for unclaimed
        // degree-k vertices.
        uint64_t head = 0;
        uint64_t tail = 0;
        auto scan_slot = [&](size_t slot) {
          ++c.vertices_scanned;
          ++c.global_reads;
          const VertexId v = owned[slot];
          if (claimed[v] == 0 && deg[slot - dev.slice_begin] == k) {
            claimed[v] = 1;
            buffer[tail++] = static_cast<VertexId>(slot);
            ++c.buffer_appends;
          }
        };
        if (dev.use_active) {
          c.scan_vertices_skipped += local_n - dev.active.size();
          for (size_t slot : dev.active) scan_slot(slot);
        } else {
          for (size_t slot = dev.slice_begin; slot < dev.slice_end; ++slot) {
            scan_slot(slot);
          }
        }
        // Local cascade. Intra-slice decrements apply directly; same-node
        // other-device and foreign-node ones buffer for the master.
        uint64_t processed = 0;
        while (head < tail) {
          const size_t slot = buffer[head++];
          ++processed;
          const size_t local = slot - dev.slice_begin;
          ++c.loop_bin_warp;
          for (EdgeIndex e = offsets[local]; e < offsets[local + 1]; ++e) {
            const VertexId u = neighbors[e];
            ++c.edges_traversed;
            ++c.global_reads;
            const uint32_t u_node = partition.owner[u];
            if (u_node == node_idx) {
              const size_t u_slot = slot_of[u];
              if (u_slot >= dev.slice_begin && u_slot < dev.slice_end) {
                uint32_t& du = deg[u_slot - dev.slice_begin];
                if (du > k) {
                  --du;
                  ++c.global_atomics;
                  if (du == k && claimed[u] == 0) {
                    claimed[u] = 1;
                    buffer[tail++] = static_cast<VertexId>(u_slot);
                    ++c.buffer_appends;
                  }
                }
              } else {
                dev.deltas.Add(u);
                ++c.global_atomics;
              }
            } else {
              // Border edge: buffer the decrement for the network.
              dev.deltas.Add(u);
              ++c.messages;
            }
          }
        }
        dev.local_removed += tail;
        if (processed != 0) {
          removed_this_subround.fetch_add(processed,
                                          std::memory_order_relaxed);
        }
      });

      // Modeled time: the slowest device lane gates the sub-round; the
      // previous sub-round's exchange hides behind it when overlap is on.
      uint32_t alive_lanes = 0;
      {
        const double subround_start_ns = now_ns();
        std::vector<PerfCounters> lane_counters;
        lane_counters.reserve(num_lanes);
        double max_ns = 0.0;
        double sum_ns = 0.0;
        for (uint32_t node_idx = 0; node_idx < num_nodes; ++node_idx) {
          Node& node = nodes[node_idx];
          for (uint32_t d = 0; d < devices_per_node; ++d) {
            NodeDevice& dev = node.devices[d];
            if (node.alive) {
              ++alive_lanes;
              const double ns = clock.cost().UnitTimeNs(dev.counters);
              max_ns = std::max(max_ns, ns);
              sum_ns += ns;
              if (tracing) {
                trace.AddComplete(
                    StrFormat("subround k=%u", k), kTraceCatKernel,
                    1 + node_idx * devices_per_node + d, kTraceTidKernels,
                    subround_start_ns, ns,
                    {{"subround",
                      StrFormat("%llu", static_cast<unsigned long long>(
                                            subrounds))}});
              }
            }
            lane_counters.push_back(dev.counters);
            result.metrics.counters += dev.counters;
            dev.counters = PerfCounters();
          }
        }
        if (alive_lanes > 0) {
          subround_max_ns += max_ns;
          subround_mean_ns += sum_ns / alive_lanes;
        }
        clock.AddParallelPhase(lane_counters);
        clock.AddOverheadNs(2 * clock.cost().kernel_launch_ns);
        result.metrics.counters.kernel_launches += 2 * alive_lanes;
        // The un-hidden remainder of the in-flight exchange (0 when the
        // compute phase covered it; everything when overlap is off —
        // pending is only ever nonzero with overlap on).
        pending_comm_ns = std::max(0.0, pending_comm_ns - max_ns);
        drain_pending_comm();
      }
      if (death.load(std::memory_order_relaxed)) {
        return Status::DeviceLost("cluster node lost mid-round");
      }

      // Clamp at k: decrements past the k-shell boundary are exactly the
      // ones the single-GPU kernel rolls back. Each vertex clamps on its
      // own, so the drain order cannot move the result.
      const auto apply = [&](VertexId u, uint32_t count) -> uint32_t {
        uint32_t& du = deg_of(u);
        if (du <= k) return 0;
        const uint32_t applied = std::min(count, du - k);
        du -= applied;
        return applied;
      };

      // --- Master: drain every device's buffer. Intra-node deltas (same
      // node, other device) apply at intra-node cost, no network traffic;
      // foreign-node ones go into the network, where per-link aggregation
      // across a node's devices happens. All intra-node deltas land before
      // any border delta. ---
      uint64_t intra_applied = 0;
      uint64_t intra_entries = 0;
      for (uint32_t node_idx = 0; node_idx < num_nodes; ++node_idx) {
        for (NodeDevice& dev : nodes[node_idx].devices) {
          dev.deltas.Drain([&](VertexId u, uint32_t count) {
            const uint32_t u_node = partition.owner[u];
            if (u_node == node_idx) {
              ++intra_entries;
              intra_applied += apply(u, count);
            } else {
              network.Buffer(node_idx, u_node, u, count);
            }
          });
        }
      }
      if (intra_entries > 0) {
        clock.AddOverheadNs(clock.cost().kernel_launch_ns +
                            static_cast<double>(intra_entries) * 8.0);
      }

      // --- Master: flush — one aggregated message per busy link per
      // sub-round — and apply the delivered deltas at their masters. ---
      const double exchange_start_ns = now_ns();
      const double comm_ns = network.Flush(&inboxes);
      uint64_t border_applied = 0;
      uint64_t border_entries = 0;
      for (DeltaBuffer& inbox : inboxes) {
        border_entries += inbox.size();
        inbox.Drain([&](VertexId u, uint32_t count) {
          border_applied += apply(u, count);
        });
      }
      if (border_entries > 0) {
        // Deserialize-and-apply at the receiving masters.
        clock.AddOverheadNs(clock.cost().kernel_launch_ns +
                            static_cast<double>(border_entries) * 8.0);
      }
      if (comm_ns > 0.0) {
        if (tracing) {
          trace.AddComplete(
              "border_exchange", kTraceCatKernel, 0, kTraceTidKernels,
              exchange_start_ns, comm_ns,
              {{"entries",
                StrFormat("%llu",
                          static_cast<unsigned long long>(border_entries))},
               {"applied",
                StrFormat("%llu",
                          static_cast<unsigned long long>(border_applied))},
               {"overlap", options.overlap ? "1" : "0"}});
        }
        if (options.overlap) {
          pending_comm_ns += comm_ns;
        } else {
          clock.AddOverheadNs(comm_ns);
        }
      }

      removed.fetch_add(removed_this_subround.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      if (removed_this_subround.load(std::memory_order_relaxed) == 0 &&
          intra_applied == 0 && border_applied == 0) {
        break;  // fixpoint for this k
      }
    }
    // Nothing left to hide the tail exchange behind: charge it at the
    // round boundary (the barrier every node waits on anyway).
    drain_pending_comm();

    if (resilient) {
      KCORE_RETURN_IF_ERROR(gather_deg(post_deg));
      WallTimer validate;
      std::string why;
      const bool valid =
          ValidatePeelRound(graph, ckpt.deg, post_deg, k,
                            removed.load(std::memory_order_relaxed), &why);
      result.metrics.recovery_ms += validate.ElapsedMillis();
      if (!valid) return Status::Corruption(why);
    }
    return Status::OK();
  };

  // Repartition away any dead nodes, then roll every survivor back to the
  // checkpoint; a death during the restore loops back. Each iteration
  // shrinks the cluster, so this terminates.
  const auto recover_cluster = [&]() -> Status {
    while (true) {
      KCORE_RETURN_IF_ERROR(handle_deaths());
      Status restored = rollback_alive();
      if (restored.ok()) return Status::OK();
      if (!restored.IsDeviceLost()) return restored;
    }
  };

  uint32_t level_retries = 0;
  while (removed.load(std::memory_order_relaxed) < n) {
    // Round-boundary lifecycle check: between k-levels every node is
    // quiescent, so stopping here releases all partitions within one round.
    if (options.cancel != nullptr) {
      if (Status live = options.cancel->Check("cluster round boundary");
          !live.ok()) {
        if (tracing) {
          trace.AddInstant(
              StrFormat("%s k=%u",
                        live.IsCancelled() ? "cancelled" : "deadline_exceeded",
                        k),
              kTraceCatRecovery, 0, kTraceTidRanges, now_ns());
          flush_trace();
        }
        return live;
      }
    }
    const double round_start_ns = now_ns();
    Status round = run_round();
    if (tracing) {
      trace.AddComplete(StrFormat("round k=%u", k), kTraceCatRange, 0,
                        kTraceTidRanges, round_start_ns,
                        now_ns() - round_start_ns);
    }
    if (round.ok()) {
      if (resilient) {
        std::swap(ckpt.deg, post_deg);
        std::copy(claimed.begin(), claimed.end(), ckpt.claimed.begin());
        ckpt.removed = removed.load(std::memory_order_relaxed);
        ++result.metrics.checkpoints_taken;
        if (tracing) {
          trace.AddInstant(StrFormat("checkpoint k=%u", k), kTraceCatRecovery,
                           0, kTraceTidRanges, now_ns());
        }
      }
      ++k;
      ++result.metrics.rounds;
      level_retries = 0;
      if (k > k_limit) {
        return Status::Internal("cluster peeling failed to converge");
      }
      continue;
    }
    if (!resilient) return round;

    Status cause = round;
    pending_comm_ns = 0.0;  // the interrupted round's exchange is void
    const bool death_cause = cause.IsDeviceLost();
    if (death_cause || level_retries < options.resilience.max_level_retries) {
      WallTimer recovery;
      if (!death_cause) ++level_retries;
      ++result.metrics.levels_reexecuted;
      Status recovered = recover_cluster();
      result.metrics.recovery_ms += recovery.ElapsedMillis();
      if (recovered.ok()) continue;
      cause = recovered;
    }
    if (!options.resilience.cpu_fallback) return cause;
    return cpu_finish(k);
  }

  // Gather core numbers. In resilient mode every round was validated, so
  // the checkpoint IS the final state.
  if (resilient) {
    result.core = std::move(ckpt.deg);
  } else {
    result.core.assign(n, 0);
    for (uint32_t node_idx = 0; node_idx < num_nodes; ++node_idx) {
      const std::vector<VertexId>& owned = partition.nodes[node_idx].owned;
      for (NodeDevice& dev : nodes[node_idx].devices) {
        for (size_t slot = dev.slice_begin; slot < dev.slice_end; ++slot) {
          result.core[owned[slot]] = dev.d_deg.data()[slot - dev.slice_begin];
        }
      }
    }
  }
  uint64_t max_peak = 0;
  for (Node& node : nodes) {
    for (NodeDevice& dev : node.devices) {
      max_peak = std::max(max_peak, dev.device->peak_bytes());
      // Host-pointer peeling: simcheck observes allocation lifetimes and
      // host copies — a leak or an uninitialized CopyToHost fails the run.
      if (node.alive) {
        KCORE_RETURN_IF_ERROR(dev.device->CheckStatus());
      }
    }
  }
  result.metrics.peak_device_bytes = max_peak;
  result.metrics.comm_ms = network.stats().comm_ns / 1e6;
  result.metrics.comm_bytes = network.stats().bytes_on_wire;
  result.metrics.comm_messages = network.stats().messages;
  finish_loop_imbalance();
  result.metrics.wall_ms = timer.ElapsedMillis();
  result.metrics.modeled_ms = clock.ms();
  flush_trace();
  return result;
}

}  // namespace kcore
