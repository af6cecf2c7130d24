#ifndef KCORE_CLUSTER_NETWORK_H_
#define KCORE_CLUSTER_NETWORK_H_

#include <cstdint>
#include <vector>

#include "core/delta_buffer.h"
#include "graph/csr_graph.h"

namespace kcore {

/// The modeled interconnect between cluster nodes (DESIGN.md §14 "network
/// cost model"). Pure model: latency and bandwidth only move the modeled
/// clock; delivery itself is immediate and loss-free, so results never
/// depend on these knobs.
struct NetworkOptions {
  /// Per-message wire latency in modeled microseconds (one charge per
  /// flushed link message — aggregation means one message per link per
  /// flush, which is exactly what buys the batching win).
  double link_latency_us = 5.0;
  /// Per-link bandwidth in modeled GB/s (1 GB/s = 1 byte/ns). A node's
  /// outgoing messages serialize on its NIC; receives are parallel.
  double link_bandwidth_gbps = 10.0;
  /// Serialized size of one aggregated delta entry: (vertex id, decrement
  /// count) = 4 + 4 bytes.
  uint32_t bytes_per_entry = 8;
  /// Fixed framing overhead per link message (headers, routing).
  uint32_t message_header_bytes = 64;
};

/// Cumulative traffic accounting, exposed through Metrics and the cluster
/// bench's bytes-on-wire column.
struct NetworkStats {
  uint64_t bytes_on_wire = 0;  ///< Serialized bytes of every flushed message.
  uint64_t messages = 0;       ///< Link messages flushed (1 per busy link).
  uint64_t entries = 0;        ///< Aggregated (vertex, count) entries sent.
  uint64_t flushes = 0;        ///< Flush calls that moved any traffic.
  double comm_ns = 0.0;        ///< Total modeled exchange time.
};

/// Buffered, aggregating delta exchange between nodes. Producers buffer
/// per-vertex decrement counts against a destination node; a Flush drains
/// every busy link as ONE aggregated message, charges the cost model, and
/// delivers the deltas to per-destination inboxes. The aggregation is the
/// point: a sub-round's many border decrements to the same master collapse
/// into one entry, and all entries for one link into one message.
///
/// Storage is one dense DeltaBuffer per source node (num_nodes x V words,
/// not one per link): a vertex has exactly one master, so all of a
/// source's deltas for `v` travel on the same link, and the link of each
/// aggregated entry is recorded when the entry is first touched.
class ClusterNetwork {
 public:
  /// Vertex IDs passed to Buffer must be < num_vertices.
  ClusterNetwork(uint32_t num_nodes, VertexId num_vertices,
                 const NetworkOptions& options);

  uint32_t num_nodes() const { return num_nodes_; }

  /// Buffers `count` (> 0) decrements for vertex `v` on the src -> dst
  /// link. Same-link entries for the same vertex aggregate in place; `dst`
  /// must be the same for every delta of `v` from `src` until the next
  /// Flush (it is `v`'s master). NOT thread-safe — drain per-producer
  /// buffers into it from one thread.
  void Buffer(uint32_t src, uint32_t dst, VertexId v, uint32_t count);

  /// Drains every busy link into inboxes[dst] (aggregated counts merged by
  /// addition), charges the cost model, and returns the modeled exchange
  /// time in ns: max over nodes of the serialized send time of that node's
  /// outgoing messages, plus one link latency (all messages are in flight
  /// together; the slowest sender gates the barrier). A flush with nothing
  /// pending costs 0 and does not count as a flush. `inboxes` must hold
  /// num_nodes buffers sized for the network's vertex count.
  double Flush(std::vector<DeltaBuffer>* inboxes);

  /// Buffered entries not yet flushed (test hook).
  uint64_t PendingEntries() const;

  /// How many flushed messages the src -> dst link has carried — the test
  /// hook behind "aggregation flushes exactly once per round per link".
  uint64_t LinkFlushCount(uint32_t src, uint32_t dst) const;

  const NetworkStats& stats() const { return stats_; }
  const NetworkOptions& options() const { return options_; }

  /// Serialized size of one link message carrying `entries` deltas.
  uint64_t MessageBytes(uint64_t entries) const {
    return options_.message_header_bytes +
           entries * static_cast<uint64_t>(options_.bytes_per_entry);
  }

 private:
  size_t LinkIndex(uint32_t src, uint32_t dst) const {
    return static_cast<size_t>(src) * num_nodes_ + dst;
  }

  /// One source node's pending deltas: dst[i] is the link (destination
  /// node) of deltas.touched()[i].
  struct Outgoing {
    DeltaBuffer deltas;
    std::vector<uint32_t> dst;
  };

  uint32_t num_nodes_;
  NetworkOptions options_;
  std::vector<Outgoing> outgoing_;  // per source node
  std::vector<uint64_t> link_entries_;  // Flush scratch, per destination
  std::vector<uint64_t> link_flushes_;
  NetworkStats stats_;
};

}  // namespace kcore

#endif  // KCORE_CLUSTER_NETWORK_H_
