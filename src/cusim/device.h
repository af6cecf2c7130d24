#ifndef KCORE_CUSIM_DEVICE_H_
#define KCORE_CUSIM_DEVICE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "cusim/annotations.h"
#include "cusim/block.h"
#include "cusim/fault_injection.h"
#include "cusim/simcheck.h"
#include "cusim/simprof.h"
#include "perf/cost_model.h"
#include "perf/perf_counters.h"

namespace kcore::sim {

class Device;

/// An owning handle to a device-memory allocation (cudaMalloc analogue).
/// Freeing returns the bytes to the device's accounting. Move-only.
template <typename T>
class DeviceArray {
 public:
  DeviceArray() = default;
  ~DeviceArray() { Reset(); }

  DeviceArray(const DeviceArray&) = delete;
  DeviceArray& operator=(const DeviceArray&) = delete;

  DeviceArray(DeviceArray&& other) noexcept { *this = std::move(other); }
  DeviceArray& operator=(DeviceArray&& other) noexcept {
    if (this != &other) {
      Reset();
      device_ = other.device_;
      device_alive_ = std::move(other.device_alive_);
      data_ = std::move(other.data_);
      size_ = other.size_;
      other.device_ = nullptr;
      other.device_alive_.reset();
      other.size_ = 0;
    }
    return *this;
  }

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<T> span() { return {data_.get(), size_}; }
  std::span<const T> span() const { return {data_.get(), size_}; }

  /// cudaMemcpy host->device. `host.size()` must not exceed size(). Fails
  /// with Unavailable (transient, retryable) or DeviceLost when the device's
  /// fault plan says so; no byte moves on failure.
  [[nodiscard]] KCORE_HOST_ONLY Status CopyFromHost(std::span<const T> host);
  /// cudaMemcpy device->host. `host.size()` must not exceed size(). Failure
  /// semantics as CopyFromHost.
  [[nodiscard]] KCORE_HOST_ONLY Status CopyToHost(std::span<T> host) const;

  /// Frees the allocation (cudaFree analogue). Safe to call repeatedly, and
  /// safe after the owning Device is gone (the accounting update is skipped;
  /// the Device already reported the allocation as leaked).
  void Reset();

 private:
  friend class Device;
  DeviceArray(Device* device, std::weak_ptr<const void> device_alive,
              std::unique_ptr<T[]> data, size_t size)
      : device_(device),
        device_alive_(std::move(device_alive)),
        data_(std::move(data)),
        size_(size) {}

  Device* device_ = nullptr;
  std::weak_ptr<const void> device_alive_;
  std::unique_ptr<T[]> data_;
  size_t size_ = 0;
};

/// Configuration of the simulated GPU.
struct DeviceOptions {
  /// Capacity of global memory; allocations beyond it fail with OutOfMemory
  /// (how the paper's Table III/V "OOM" rows arise). The benchmark default
  /// scales the P100's 16 GB by the dataset scale factor.
  uint64_t global_mem_bytes = 512ull << 20;
  /// Streaming multiprocessors; blocks beyond this count run in waves.
  uint32_t num_sms = 108;
  /// Per-block shared-memory budget (P100-class: 48-64 KB usable).
  uint32_t shared_mem_per_block = 56u << 10;
  /// Modeled PCIe host<->device bandwidth, bytes/second.
  double pcie_bytes_per_sec = 12.0e9;
  /// Cost model converting counted kernel work into modeled time.
  CostModel cost = GpuNativeCostModel();
  /// Host threads executing simulated blocks; nullptr = process default.
  ThreadPool* pool = nullptr;
  /// Enables simcheck (memcheck/initcheck/racecheck/synccheck); see
  /// simcheck.h. Also switched on by the environment variable
  /// KCORE_SIMCHECK=1. Zero-cost when off: kernels run the uninstrumented
  /// BlockCtxT<false> instantiation and no shadow memory exists.
  bool check_mode = false;
  /// Fault plan for this device (see fault_injection.h for the grammar);
  /// "" = no injected faults. The environment variable KCORE_FAULTS supplies
  /// a plan when this is empty. A malformed spec surfaces as InvalidArgument
  /// from the first device operation (the constructor cannot return Status).
  std::string fault_spec;
  /// Enables simprof (the Nsight-Systems analogue; see simprof.h): kernel
  /// spans, alloc/free/copy events, and driver NVTX ranges accumulate in an
  /// in-memory Trace exported via Device::WriteTrace. Also switched on by a
  /// non-empty KCORE_TRACE environment variable (KCORE_TRACE=0 stays off).
  /// Zero-cost when off: no profiler object exists and every hook is a null
  /// check on the host path — modeled time is bit-identical either way.
  bool profile = false;
  /// Trace process id (and its label) for this device's events; multi-device
  /// drivers hand each worker a distinct pid. "" derives "gpu<pid>".
  uint32_t profile_pid = 0;
  std::string profile_name;
  /// Per-block lane sub-spans under each kernel span (ProfilerOptions).
  bool profile_block_spans = true;
};

/// The simulated GPU: device-memory accounting with a peak watermark
/// (Table V), a kernel launcher that executes blocks over a host thread pool
/// (ThreadPool::ParallelFor), and a modeled clock fed by the cost model.
///
/// Thread compatibility: Alloc/Launch/clock methods must be called from the
/// host (driving) thread only, mirroring a single CUDA stream.
class Device {
 public:
  explicit Device(DeviceOptions options = {}) : options_(std::move(options)) {
    if (options_.check_mode || EnvCheckEnabled()) {
      checker_ = std::make_shared<SimChecker>();
    }
    if (options_.profile || EnvTraceEnabled()) {
      ProfilerOptions prof_options;
      prof_options.pid = options_.profile_pid;
      prof_options.process_name = options_.profile_name;
      prof_options.block_spans = options_.profile_block_spans;
      prof_options.num_sms = options_.num_sms;
      profiler_ = std::make_unique<SimProfiler>(prof_options, &modeled_ns_,
                                                &transfer_ns_);
    }
    std::string spec =
        options_.fault_spec.empty() ? EnvFaultSpec() : options_.fault_spec;
    if (!spec.empty()) {
      StatusOr<FaultPlan> plan = ParseFaultSpec(spec);
      if (!plan.ok()) {
        fault_error_ = plan.status();
      } else if (!plan->empty()) {
        faults_ = std::make_unique<FaultInjector>(*std::move(plan));
      }
    }
  }
  ~Device() {
    if (checker_ != nullptr) checker_->OnDeviceDestroyed();
  }

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceOptions& options() const { return options_; }

  /// Allocates `count` zero-initialized elements of device memory. `label`
  /// names the allocation in simcheck reports.
  template <typename U>
  [[nodiscard]] KCORE_HOST_ONLY StatusOr<DeviceArray<U>> Alloc(
      size_t count, const char* label = "") {
    KCORE_RETURN_IF_ERROR(OnAllocAttempt<U>(label, count));
    KCORE_RETURN_IF_ERROR(Reserve<U>(count));
    auto data = std::make_unique<U[]>(count);
    if (checker_ != nullptr) {
      checker_->RegisterAlloc(data.get(), count * sizeof(U),
                              /*zero_initialized=*/true, label);
    }
    if (profiler_ != nullptr) {
      profiler_->OnAlloc(label, count * sizeof(U), current_bytes_,
                         peak_bytes_);
    }
    return DeviceArray<U>(this, alive_, std::move(data), count);
  }

  /// Allocates `count` *uninitialized* elements (cudaMalloc semantics: the
  /// contents are garbage). For buffers the kernels fully overwrite before
  /// reading — skipping the O(bytes) zeroing memset of Alloc.
  template <typename U>
  [[nodiscard]] KCORE_HOST_ONLY StatusOr<DeviceArray<U>> AllocUninit(
      size_t count, const char* label = "") {
    static_assert(std::is_trivially_default_constructible_v<U>,
                  "AllocUninit requires a trivially constructible type");
    KCORE_RETURN_IF_ERROR(OnAllocAttempt<U>(label, count));
    KCORE_RETURN_IF_ERROR(Reserve<U>(count));
    auto data = std::make_unique_for_overwrite<U[]>(count);
    if (checker_ != nullptr) {
      checker_->RegisterAlloc(data.get(), count * sizeof(U),
                              /*zero_initialized=*/false, label);
    }
    if (profiler_ != nullptr) {
      profiler_->OnAlloc(label, count * sizeof(U), current_bytes_,
                         peak_bytes_);
    }
    return DeviceArray<U>(this, alive_, std::move(data), count);
  }

  /// Launches `kernel` over `num_blocks` blocks of `block_dim` threads.
  /// `kernel` is invoked once per block as kernel(block); blocks start on
  /// the calling thread and spread over the pool's workers once the launch
  /// outlasts ThreadPool::kHelperGate, or at once after a long launch (see
  /// BlockCtxT). A block's counters and price do not depend on which host
  /// thread ran it. The kernel must accept the block generically
  /// (`[&](auto& block)`): it is instantiated against both BlockCtxT<false>
  /// and BlockCtxT<true>, and the checked variant is selected here only
  /// when simcheck is enabled — so an unchecked launch executes code with
  /// zero instructions of instrumentation.
  ///
  /// Fails with Unavailable (transient launch rejection — retrying is a new
  /// attempt) or DeviceLost when a fault plan says so; a failed launch is
  /// fail-stop: no block runs, no counter advances, no bitflip applies.
  template <typename Kernel>
  [[nodiscard]] KCORE_HOST_ONLY Status Launch(uint32_t num_blocks,
                                              uint32_t block_dim,
                                              Kernel&& kernel) {
    return Launch(num_blocks, block_dim, "kernel",
                  std::forward<Kernel>(kernel));
  }

  /// As above; `label` names the kernel in simcheck reports.
  template <typename Kernel>
  [[nodiscard]] KCORE_HOST_ONLY Status Launch(uint32_t num_blocks,
                                              uint32_t block_dim,
                                              const char* label,
                Kernel&& kernel) {
    KCORE_CHECK_GT(num_blocks, 0u);
    KCORE_RETURN_IF_ERROR(fault_error_);
    if (faults_ != nullptr) KCORE_RETURN_IF_ERROR(faults_->OnLaunch(label));
    const double launch_start_ns = modeled_ns_;
    if (checker_ != nullptr) {
      checker_->BeginLaunch(label);
      LaunchGrid<true>(num_blocks, block_dim, kernel);
    } else {
      LaunchGrid<false>(num_blocks, block_dim, kernel);
    }
    if (profiler_ != nullptr) {
      // The span is the exact modeled advance of this launch (overhead +
      // body), so summed kernel spans reproduce the clock's phase totals.
      profiler_->OnLaunch(label, num_blocks, block_dim, launch_start_ns,
                          modeled_ns_, options_.cost.kernel_launch_ns,
                          last_launch_stats_.block_ns);
    }
    // Bitflips model ECC double-bit errors surfacing after a kernel
    // completes; they corrupt state but never the launch that ran.
    if (faults_ != nullptr) faults_->ApplyBitflips(corruptible_);
    return Status::OK();
  }

  /// True when a fault plan is attached (DeviceOptions::fault_spec or
  /// KCORE_FAULTS) or the spec failed to parse. Drivers use this to decide
  /// whether checkpoint validation is worth paying for.
  bool fault_injection_enabled() const {
    return faults_ != nullptr || !fault_error_.ok();
  }

  /// The injector behind fault_injection_enabled(); nullptr without a plan.
  /// Exposes the deterministic event log for tests and recovery summaries.
  const FaultInjector* faults() const { return faults_.get(); }

  /// Registers `arr` as eligible for injected bitflips (modeled ECC
  /// double-bit errors). Drivers opt in exactly the state they can validate
  /// and roll back; unregistered allocations are modeled as ECC-protected
  /// static data. No-op without a fault plan; deregistration happens
  /// automatically when the array is freed.
  template <typename U>
  KCORE_HOST_ONLY void MarkCorruptible(DeviceArray<U>& arr,
                                       const char* label) {
    if (faults_ == nullptr || arr.empty()) return;
    corruptible_.push_back({arr.data(), arr.size() * sizeof(U), label});
  }

  /// Liveness probe for multi-device drivers whose workers touch device
  /// memory directly between kernel launches: advances the launch fault
  /// domain (so device_lost@launch=N schedules fire at sub-round
  /// granularity) and reports the latched lost state. Unavailable from a
  /// probe is transient noise; DeviceLost is terminal.
  [[nodiscard]] KCORE_HOST_ONLY Status HealthCheck(
      const char* label = "health_check") {
    KCORE_RETURN_IF_ERROR(fault_error_);
    if (faults_ == nullptr) return Status::OK();
    Status probe = faults_->OnLaunch(label);
    if (probe.ok()) faults_->ApplyBitflips(corruptible_);
    return probe;
  }

 private:
  template <bool Checked, typename Kernel>
  void LaunchGrid(uint32_t num_blocks, uint32_t block_dim, Kernel& kernel) {
    // Per-block counter staging reuses one scratch vector across launches:
    // the host loop issues two launches per peeling round, so a fresh
    // allocation here is measurable wall-clock overhead on deep peels.
    std::vector<PerfCounters>& per_block = launch_scratch_;
    per_block.assign(num_blocks, PerfCounters());
    ThreadPool& workers = pool();
    workers.ParallelFor(num_blocks, [&](uint64_t b) {
      BlockCtxT<Checked> block(static_cast<uint32_t>(b), num_blocks,
                               block_dim, options_.shared_mem_per_block);
      if constexpr (Checked) block.InstallChecker(checker_.get());
      kernel(block);
      // Checked blocks carry CheckedPerfCounters; assigning through the
      // PerfCounters slot slices off the checker wiring, which must not
      // outlive the block anyway.
      per_block[b] = block.counters();
    });

    std::vector<double>& block_ns = last_launch_stats_.block_ns;
    block_ns.resize(num_blocks);
    double max_block_ns = 0.0;
    double sum_block_ns = 0.0;
    PerfCounters launch_total;
    for (uint32_t b = 0; b < num_blocks; ++b) {
      block_ns[b] = options_.cost.UnitTimeNs(per_block[b]);
      max_block_ns = std::max(max_block_ns, block_ns[b]);
      sum_block_ns += block_ns[b];
      launch_total += per_block[b];
    }
    // Blocks beyond the SM count execute in waves; the kernel cannot finish
    // before its slowest block nor faster than the work spread over all SMs.
    const double body_ns =
        std::max(max_block_ns, sum_block_ns / options_.num_sms);
    last_launch_stats_.max_block_ns = max_block_ns;
    last_launch_stats_.mean_block_ns = sum_block_ns / num_blocks;
    modeled_ns_ += options_.cost.kernel_launch_ns + body_ns;
    launch_total.kernel_launches = 1;
    totals_ += launch_total;
  }

 public:
  /// Current and peak global-memory usage (Table V's metric).
  uint64_t current_bytes() const { return current_bytes_; }
  uint64_t peak_bytes() const { return peak_bytes_; }

  /// Modeled kernel-execution time accumulated so far.
  double modeled_ms() const { return modeled_ns_ / 1e6; }

  /// Per-launch block-time spread of the most recent Launch(): the slowest
  /// block's modeled ns and the mean over all blocks of the grid. Drivers
  /// read this right after a launch to measure load imbalance (the max/mean
  /// ratio) without re-deriving per-block costs.
  struct LaunchStats {
    double max_block_ns = 0.0;
    double mean_block_ns = 0.0;
    /// Every block's modeled ns, indexed by block id — lets a driver weight
    /// the spread by what it knows about per-block work assignment (e.g.
    /// exclude blocks whose frontier buffer was empty at launch).
    std::vector<double> block_ns;
  };
  const LaunchStats& last_launch_stats() const { return last_launch_stats_; }
  /// Modeled host<->device transfer time (reported separately, as the paper
  /// separates loading from computation).
  double transfer_ms() const { return transfer_ns_ / 1e6; }
  /// Aggregated operation counters over all launches.
  const PerfCounters& totals() const { return totals_; }

  /// Resets the clock and counters (not the memory watermark).
  KCORE_HOST_ONLY void ResetClock() {
    modeled_ns_ = 0.0;
    transfer_ns_ = 0.0;
    totals_ = PerfCounters();
  }

  /// The simcheck verdict so far: OK when checking is off or no violation
  /// was detected, FailedPrecondition with the report otherwise. Checked
  /// runners call this before returning their result.
  [[nodiscard]] KCORE_HOST_ONLY Status CheckStatus() const {
    return checker_ != nullptr ? checker_->report().ToStatus() : Status::OK();
  }

  /// The checker (nullptr when checking is off). Shared so tests can keep
  /// the report alive past the Device (leak checking).
  std::shared_ptr<SimChecker> checker() const { return checker_; }

  /// The profiler (nullptr when profiling is off — DeviceOptions::profile /
  /// KCORE_TRACE). Drivers pass it to ProfRange and use the flow hooks; the
  /// null case costs one pointer test.
  SimProfiler* profiler() const { return profiler_.get(); }

  /// Exports the profiler's trace as chrome://tracing JSON (load in
  /// Perfetto). FailedPrecondition when profiling is off.
  [[nodiscard]] KCORE_HOST_ONLY Status WriteTrace(const std::string& path) const {
    if (profiler_ == nullptr) {
      return Status::FailedPrecondition(
          "no trace recorded: enable DeviceOptions::profile or KCORE_TRACE");
    }
    return profiler_->trace().WriteChromeTrace(path);
  }

 private:
  template <typename U>
  friend class DeviceArray;

  static std::string StrFormatBytes(uint64_t bytes);
  static bool EnvCheckEnabled();
  static bool EnvTraceEnabled();
  static std::string EnvFaultSpec();

  /// Fault gate for Alloc/AllocUninit, consulted before any byte reserves.
  template <typename U>
  Status OnAllocAttempt(const char* label, size_t count) {
    KCORE_RETURN_IF_ERROR(fault_error_);
    if (faults_ == nullptr) return Status::OK();
    return faults_->OnAlloc(label,
                            static_cast<uint64_t>(count) * sizeof(U));
  }

  /// Fault gate for the DeviceArray copy paths, consulted before any byte
  /// moves.
  Status OnCopy(uint64_t bytes) {
    KCORE_RETURN_IF_ERROR(fault_error_);
    if (faults_ == nullptr) return Status::OK();
    return faults_->OnCopy(bytes);
  }

  /// Accounts `count * sizeof(U)` bytes against global memory, rejecting
  /// requests whose byte size overflows uint64_t (which would otherwise wrap
  /// past the global_mem_bytes check and "succeed").
  template <typename U>
  Status Reserve(size_t count) {
    if (count > std::numeric_limits<uint64_t>::max() / sizeof(U)) {
      return Status::OutOfMemory("allocation size overflows uint64_t");
    }
    const uint64_t bytes = static_cast<uint64_t>(count) * sizeof(U);
    if (bytes > options_.global_mem_bytes - current_bytes_) {
      return Status::OutOfMemory(StrFormatBytes(bytes));
    }
    current_bytes_ += bytes;
    peak_bytes_ = std::max(peak_bytes_, current_bytes_);
    return Status::OK();
  }

  ThreadPool& pool() {
    return options_.pool != nullptr ? *options_.pool : DefaultThreadPool();
  }

  void Release(uint64_t bytes) {
    KCORE_CHECK_GE(current_bytes_, bytes);
    current_bytes_ -= bytes;
  }

  /// cudaFree analogue, called by DeviceArray::Reset.
  void OnFree(const void* ptr, uint64_t bytes) {
    Release(bytes);
    if (profiler_ != nullptr) profiler_->OnFree(bytes, current_bytes_);
    if (checker_ != nullptr) checker_->UnregisterAlloc(ptr);
    if (!corruptible_.empty()) {
      std::erase_if(corruptible_,
                    [ptr](const CorruptibleRange& r) { return r.ptr == ptr; });
    }
  }

  void NotifyHostWrite(const void* ptr, uint64_t bytes) {
    if (checker_ != nullptr) checker_->OnHostWrite(ptr, bytes);
  }

  void NotifyHostRead(const void* ptr, uint64_t bytes) {
    if (checker_ != nullptr) checker_->OnHostRead(ptr, bytes);
  }

  void ChargeTransfer(uint64_t bytes, bool to_device) {
    const double start_ns = transfer_ns_;
    transfer_ns_ += static_cast<double>(bytes) /
                    options_.pcie_bytes_per_sec * 1e9;
    if (profiler_ != nullptr) {
      profiler_->OnCopy(to_device, bytes, start_ns, transfer_ns_ - start_ns);
    }
  }

  DeviceOptions options_;
  uint64_t current_bytes_ = 0;
  uint64_t peak_bytes_ = 0;
  double modeled_ns_ = 0.0;
  double transfer_ns_ = 0.0;
  LaunchStats last_launch_stats_;
  PerfCounters totals_;
  std::vector<PerfCounters> launch_scratch_;
  std::shared_ptr<SimChecker> checker_;
  std::unique_ptr<SimProfiler> profiler_;
  std::unique_ptr<FaultInjector> faults_;
  /// Parse failure of the fault spec, surfaced from the first device op.
  Status fault_error_ = Status::OK();
  /// Live allocations registered via MarkCorruptible.
  std::vector<CorruptibleRange> corruptible_;
  /// Expiry sentinel handed to DeviceArrays: lets an array outliving its
  /// Device skip the accounting callback instead of dereferencing a corpse.
  std::shared_ptr<const void> alive_ = std::make_shared<int>(0);
};

template <typename T>
Status DeviceArray<T>::CopyFromHost(std::span<const T> host) {
  KCORE_CHECK_LE(host.size(), size_);
  KCORE_RETURN_IF_ERROR(device_->OnCopy(host.size() * sizeof(T)));
  std::copy(host.begin(), host.end(), data_.get());
  device_->NotifyHostWrite(data_.get(), host.size() * sizeof(T));
  device_->ChargeTransfer(host.size() * sizeof(T), /*to_device=*/true);
  return Status::OK();
}

template <typename T>
Status DeviceArray<T>::CopyToHost(std::span<T> host) const {
  KCORE_CHECK_LE(host.size(), size_);
  KCORE_RETURN_IF_ERROR(device_->OnCopy(host.size() * sizeof(T)));
  device_->NotifyHostRead(data_.get(), host.size() * sizeof(T));
  std::copy(data_.get(), data_.get() + host.size(), host.begin());
  device_->ChargeTransfer(host.size() * sizeof(T), /*to_device=*/false);
  return Status::OK();
}

template <typename T>
void DeviceArray<T>::Reset() {
  if (device_ != nullptr) {
    // The sentinel expires with the Device; an array outliving its Device
    // (a leak the checker has already reported) must not call back into it.
    if (!device_alive_.expired()) {
      device_->OnFree(data_.get(), size_ * sizeof(T));
    }
    device_ = nullptr;
  }
  device_alive_.reset();
  data_.reset();
  size_ = 0;
}

}  // namespace kcore::sim

#endif  // KCORE_CUSIM_DEVICE_H_
