#include "cluster/network.h"

#include <algorithm>

namespace kcore {

ClusterNetwork::ClusterNetwork(uint32_t num_nodes, VertexId num_vertices,
                               const NetworkOptions& options)
    : num_nodes_(num_nodes),
      options_(options),
      outgoing_(num_nodes, Outgoing{DeltaBuffer(num_vertices), {}}),
      link_entries_(num_nodes, 0),
      link_flushes_(static_cast<size_t>(num_nodes) * num_nodes, 0) {}

void ClusterNetwork::Buffer(uint32_t src, uint32_t dst, VertexId v,
                            uint32_t count) {
  Outgoing& out = outgoing_[src];
  if (out.deltas.Add(v, count)) out.dst.push_back(dst);
}

double ClusterNetwork::Flush(std::vector<DeltaBuffer>* inboxes) {
  // bytes/ns at 1 GB/s == 1 byte/ns.
  const double bytes_per_ns = options_.link_bandwidth_gbps;
  double max_send_ns = 0.0;
  bool any = false;
  for (uint32_t src = 0; src < num_nodes_; ++src) {
    Outgoing& out = outgoing_[src];
    if (out.deltas.empty()) continue;
    any = true;
    std::fill(link_entries_.begin(), link_entries_.end(), 0);
    for (uint32_t dst : out.dst) ++link_entries_[dst];
    // Links in destination order, so the send time sums exactly as a
    // per-link walk would.
    double send_ns = 0.0;
    for (uint32_t dst = 0; dst < num_nodes_; ++dst) {
      const uint64_t entries = link_entries_[dst];
      if (entries == 0) continue;
      const uint64_t bytes = MessageBytes(entries);
      send_ns += bytes_per_ns > 0.0
                     ? static_cast<double>(bytes) / bytes_per_ns
                     : 0.0;
      ++link_flushes_[LinkIndex(src, dst)];
      ++stats_.messages;
      stats_.entries += entries;
      stats_.bytes_on_wire += bytes;
    }
    size_t entry = 0;
    out.deltas.Drain([&](VertexId v, uint32_t count) {
      (*inboxes)[out.dst[entry++]].Add(v, count);
    });
    out.dst.clear();
    max_send_ns = std::max(max_send_ns, send_ns);
  }
  if (!any) return 0.0;
  ++stats_.flushes;
  const double exchange_ns = max_send_ns + options_.link_latency_us * 1000.0;
  stats_.comm_ns += exchange_ns;
  return exchange_ns;
}

uint64_t ClusterNetwork::PendingEntries() const {
  uint64_t pending = 0;
  for (const Outgoing& out : outgoing_) pending += out.deltas.size();
  return pending;
}

uint64_t ClusterNetwork::LinkFlushCount(uint32_t src, uint32_t dst) const {
  return link_flushes_[LinkIndex(src, dst)];
}

}  // namespace kcore
