#ifndef KCORE_CUSIM_BLOCK_H_
#define KCORE_CUSIM_BLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "cusim/simcheck.h"
#include "cusim/warp.h"
#include "perf/perf_counters.h"

namespace kcore::sim {

/// A block's shared-memory arena: uninitialized host storage, recycled
/// through one spare per host thread. A launch constructs a block per grid
/// slot, so zero-filling or allocating the full per-block budget each time
/// would cost the host in proportion to launches x blocks x budget, not to
/// the work the kernel does. Nothing may read arena bytes that SharedAlloc
/// did not hand out (and zero): simcheck's memcheck bounds every shared
/// access to shared_used().
class SharedArena {
 public:
  explicit SharedArena(size_t bytes) : size_(bytes) {
    Spare& spare = ThreadSpare();
    if (spare.bytes != nullptr && spare.capacity >= bytes) {
      bytes_ = std::move(spare.bytes);
      capacity_ = spare.capacity;
    } else {
      bytes_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
      capacity_ = bytes;
    }
  }

  /// Hands the storage back as this thread's spare (keeping the larger).
  ~SharedArena() {
    Spare& spare = ThreadSpare();
    if (spare.bytes == nullptr || spare.capacity < capacity_) {
      spare.bytes = std::move(bytes_);
      spare.capacity = capacity_;
    }
  }

  SharedArena(const SharedArena&) = delete;
  SharedArena& operator=(const SharedArena&) = delete;

  std::byte* data() { return bytes_.get(); }
  const std::byte* data() const { return bytes_.get(); }
  /// The block's budget (the storage may be larger when recycled).
  size_t size() const { return size_; }

 private:
  struct Spare {
    std::unique_ptr<std::byte[]> bytes;
    size_t capacity = 0;
  };
  static Spare& ThreadSpare() {
    thread_local Spare spare;
    return spare;
  }

  std::unique_ptr<std::byte[]> bytes_;
  size_t capacity_ = 0;
  size_t size_;
};

/// One thread block of a simulated kernel launch.
///
/// Execution semantics: a block runs on one host OS thread. Its warps
/// execute sequentially inside each barrier interval (a legal SIMT
/// schedule); `Sync()` marks `__syncthreads()` boundaries, which under warp
/// serialization are ordering no-ops but are counted for the cost model.
/// The blocks of one launch are claimed in block order by the launching
/// thread and, once the launch has run past ThreadPool::kHelperGate (or from
/// the start, when a recent launch ran for ThreadPool::kLongBatch), by pool
/// workers too. A short launch therefore runs its blocks one after another
/// on the launching thread (a legal schedule: CUDA promises no block
/// order), while a launch that fans out runs its blocks on different host
/// threads concurrently, so its cross-block interactions through device
/// memory (atomics on deg[], gpu_count, ...) are real races, exactly the
/// ones the paper's redundancy-avoidance logic (Alg. 3 lines 20-24) must
/// survive. Kernels must be correct under both.
///
/// `Checked` selects the simcheck instrumentation at compile time:
/// BlockCtxT<false> (alias BlockCtx) carries plain PerfCounters and runs the
/// exact uninstrumented code path; BlockCtxT<true> (alias CheckedBlockCtx)
/// carries CheckedPerfCounters, tracks the executing warp and barrier
/// interval for synccheck, and routes every atomics.h accessor through the
/// SimChecker. Device::Launch instantiates the kernel against both and
/// dispatches at launch time, so kernels must accept the block generically
/// (`[&](auto& block)`).
template <bool Checked>
class BlockCtxT {
 public:
  using Counters =
      std::conditional_t<Checked, CheckedPerfCounters, PerfCounters>;

  BlockCtxT(uint32_t block_id, uint32_t num_blocks, uint32_t block_dim,
            uint32_t shared_mem_bytes)
      : block_id_(block_id),
        num_blocks_(num_blocks),
        block_dim_(block_dim),
        shared_(shared_mem_bytes) {
    KCORE_CHECK_EQ(block_dim % kWarpSize, 0u);
  }

  BlockCtxT(const BlockCtxT&) = delete;
  BlockCtxT& operator=(const BlockCtxT&) = delete;

  uint32_t block_id() const { return block_id_; }
  uint32_t num_blocks() const { return num_blocks_; }
  uint32_t block_dim() const { return block_dim_; }
  uint32_t num_warps() const { return block_dim_ / kWarpSize; }
  /// Total threads across the launch (NUM_THREADS in the paper's §III).
  uint64_t grid_threads() const {
    return static_cast<uint64_t>(num_blocks_) * block_dim_;
  }

  /// The block's counters. For the checked instantiation this is a
  /// CheckedPerfCounters — thread it through kernel helpers as `auto&` (an
  /// explicit `PerfCounters&` binding would silently skip checking).
  Counters& counters() { return counters_; }

  /// Wires the checker into counters(); called by Device::Launch before the
  /// kernel runs (checked instantiation only).
  void InstallChecker(SimChecker* checker)
    requires Checked
  {
    counters_.checker = checker;
    counters_.block = this;
  }

  /// Allocates `count` zero-initialized Ts from this block's shared memory
  /// (the only zeroing the arena gets; see SharedArena).
  /// Exceeding the per-block shared-memory budget is a configuration bug
  /// (CUDA would fail the launch), hence fatal.
  template <typename T>
  T* SharedAlloc(size_t count) {
    const size_t align = alignof(T) < 8 ? 8 : alignof(T);
    size_t offset = (shared_used_ + align - 1) / align * align;
    // Guard count*sizeof(T) against wrap-around before using the product:
    // an overflowing request must fail, not slip past the budget check.
    KCORE_CHECK(offset <= shared_.size());
    KCORE_CHECK(count <= (shared_.size() - offset) / sizeof(T));
    const size_t bytes = count * sizeof(T);
    shared_used_ = offset + bytes;
    std::memset(shared_.data() + offset, 0, bytes);
    counters_.shared_ops += count;
    return reinterpret_cast<T*>(shared_.data() + offset);
  }

  /// Bytes of shared memory currently allocated in this block.
  size_t shared_used() const { return shared_used_; }

  /// Base of the block's shared-memory arena (simcheck bounds checks).
  const std::byte* shared_data() const { return shared_.data(); }

  /// Per-block shared-memory shadow cells, lazily sized by simcheck. Unused
  /// (and never allocated) when checking is off.
  std::vector<uint64_t>& shared_shadow() { return shared_shadow_; }

  /// Runs fn(warp) for every warp of the block, in warp-ID order.
  template <typename Fn>
  void ForEachWarp(Fn&& fn) {
    const uint32_t warps = num_warps();
    for (uint32_t w = 0; w < warps; ++w) {
      WarpCtx warp(w, warps, &counters_);
      if constexpr (Checked) current_warp_ = w;
      fn(warp);
    }
    if constexpr (Checked) current_warp_ = 0;
  }

  /// Runs fn(thread_in_block) for every thread of the block, in order.
  /// Mirrors per-thread kernel code like the scan kernel (Alg. 2).
  template <typename Fn>
  void ForEachThread(Fn&& fn) {
    if constexpr (Checked) {
      // Warp-outer / thread-inner so the warp tracking synccheck relies on
      // costs one store per 32 threads, not one per thread.
      for (uint32_t base = 0; base < block_dim_; base += kWarpSize) {
        current_warp_ = base / kWarpSize;
        const uint32_t end = std::min(block_dim_, base + kWarpSize);
        for (uint32_t t = base; t < end; ++t) fn(t);
      }
      current_warp_ = 0;
    } else {
      for (uint32_t t = 0; t < block_dim_; ++t) fn(t);
    }
    counters_.lane_ops += block_dim_;
  }

  /// __syncthreads(): counted block barrier. Also advances the barrier
  /// interval that synccheck tags shared-memory accesses with.
  void Sync() {
    ++counters_.barriers;
    if constexpr (Checked) ++sync_interval_;
  }

  /// Warp currently executing (tracked by the checked instantiation only).
  uint32_t current_warp() const { return current_warp_; }
  /// Barrier interval: incremented by every Sync() when checked.
  uint32_t sync_interval() const { return sync_interval_; }

 private:
  uint32_t block_id_;
  uint32_t num_blocks_;
  uint32_t block_dim_;
  SharedArena shared_;
  size_t shared_used_ = 0;
  uint32_t current_warp_ = 0;
  uint32_t sync_interval_ = 0;
  std::vector<uint64_t> shared_shadow_;
  Counters counters_;
};

/// The uninstrumented block type — what kernels see on every unchecked
/// launch, and the type to construct directly in block-level unit tests.
using BlockCtx = BlockCtxT<false>;

}  // namespace kcore::sim

#endif  // KCORE_CUSIM_BLOCK_H_
