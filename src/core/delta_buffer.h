#ifndef KCORE_CORE_DELTA_BUFFER_H_
#define KCORE_CORE_DELTA_BUFFER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace kcore {

/// Per-vertex decrement counts buffered between sub-rounds of the
/// multi-GPU and cluster peels (DESIGN.md §14): a dense count array indexed
/// by vertex plus the list of vertices whose count is nonzero, in the order
/// they were first touched — the `p_trim[]` + dirty-set pattern of
/// Gluon-style BSP k-core, with no hashing on the hot path.
///
/// Invariant: every count is zero except those of `touched()`. Drain() and
/// Clear() walk the touched list, so they cost O(touched), not O(V), and
/// leave every count at zero — a buffer abandoned mid-sub-round must be
/// cleared before the next sub-round. Not thread-safe: one producer (lane)
/// per buffer.
class DeltaBuffer {
 public:
  DeltaBuffer() = default;
  explicit DeltaBuffer(VertexId num_vertices) : counts_(num_vertices, 0) {}

  /// Adds `count` (> 0) decrements for `v`; returns true when `v` was not
  /// touched since the last drain (it is then appended to `touched()`).
  bool Add(VertexId v, uint32_t count = 1) {
    uint32_t& slot = counts_[v];
    const bool first = slot == 0;
    if (first) touched_.push_back(v);
    slot += count;
    return first;
  }

  /// Distinct vertices holding a delta (the aggregated entry count).
  size_t size() const { return touched_.size(); }
  bool empty() const { return touched_.empty(); }
  uint32_t count(VertexId v) const { return counts_[v]; }
  std::span<const VertexId> touched() const { return touched_; }

  /// Calls fn(v, count) once per touched vertex in first-touch order, then
  /// leaves every count zero and the touched list empty.
  template <typename Fn>
  void Drain(Fn&& fn) {
    for (VertexId v : touched_) {
      const uint32_t count = counts_[v];
      counts_[v] = 0;
      fn(v, count);
    }
    touched_.clear();
  }

  /// Discards every pending delta (rollback, repartition, a lost device).
  void Clear() {
    for (VertexId v : touched_) counts_[v] = 0;
    touched_.clear();
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<VertexId> touched_;
};

}  // namespace kcore

#endif  // KCORE_CORE_DELTA_BUFFER_H_
