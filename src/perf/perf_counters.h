#ifndef KCORE_PERF_PERF_COUNTERS_H_
#define KCORE_PERF_PERF_COUNTERS_H_

#include <cstdint>

namespace kcore {

/// Dynamic operation counts accumulated while an algorithm executes. Every
/// field counts operations that really happened (instructions retired by the
/// simulated kernels or by the CPU baselines) — the performance model turns
/// these into modeled time, but the counts themselves are measurements.
struct PerfCounters {
  /// Lane-level compute/compare operations (degree checks, neighbor
  /// examinations, h-index loop steps).
  uint64_t lane_ops = 0;
  /// Global (device) memory reads/writes, counted per lane access.
  uint64_t global_reads = 0;
  uint64_t global_writes = 0;
  /// Atomic read-modify-writes on global memory (deg[] updates, gpu_count).
  uint64_t global_atomics = 0;
  /// Shared-memory accesses and atomics (block-local s/e counters, B buffer).
  uint64_t shared_ops = 0;
  uint64_t shared_atomics = 0;
  /// Block-level barriers executed (__syncthreads), per block.
  uint64_t barriers = 0;
  /// Prefix-sum / ballot steps executed by compaction variants.
  uint64_t scan_steps = 0;
  /// Kernel grid launches issued by the host loop.
  uint64_t kernel_launches = 0;
  /// Algorithm-level meters (reported in EXPERIMENTS.md, not charged twice):
  uint64_t edges_traversed = 0;    ///< Adjacency entries examined.
  uint64_t vertices_scanned = 0;   ///< Degree-array entries scanned.
  uint64_t buffer_appends = 0;     ///< k-shell vertices enqueued.
  uint64_t compactions = 0;        ///< Active-list rebuilds (CompactKernel).
  /// Scan-phase work avoided by active-vertex compaction: per scan launch,
  /// the number of already-peeled vertices the sweep no longer visits.
  uint64_t scan_vertices_skipped = 0;
  uint64_t hindex_evals = 0;       ///< h-index operator applications (MPM).
  uint64_t messages = 0;           ///< Vertex-centric messages (systems).
  uint64_t vector_op_calls = 0;    ///< Vector-primitive launches (VETGA).
  /// Loop-phase expansion bins: frontier vertices expanded at thread, warp,
  /// and block granularity (uncharged meters, like edges_traversed — the
  /// charged work is counted by the fields above as it happens).
  uint64_t loop_bin_thread = 0;
  uint64_t loop_bin_warp = 0;
  uint64_t loop_bin_block = 0;

  PerfCounters& operator+=(const PerfCounters& other) {
    lane_ops += other.lane_ops;
    global_reads += other.global_reads;
    global_writes += other.global_writes;
    global_atomics += other.global_atomics;
    shared_ops += other.shared_ops;
    shared_atomics += other.shared_atomics;
    barriers += other.barriers;
    scan_steps += other.scan_steps;
    kernel_launches += other.kernel_launches;
    edges_traversed += other.edges_traversed;
    vertices_scanned += other.vertices_scanned;
    buffer_appends += other.buffer_appends;
    compactions += other.compactions;
    scan_vertices_skipped += other.scan_vertices_skipped;
    hindex_evals += other.hindex_evals;
    messages += other.messages;
    vector_op_calls += other.vector_op_calls;
    loop_bin_thread += other.loop_bin_thread;
    loop_bin_warp += other.loop_bin_warp;
    loop_bin_block += other.loop_bin_block;
    return *this;
  }

  bool operator==(const PerfCounters&) const = default;
};

}  // namespace kcore

#endif  // KCORE_PERF_PERF_COUNTERS_H_
