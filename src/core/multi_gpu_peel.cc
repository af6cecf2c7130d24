#include "core/multi_gpu_peel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/delta_buffer.h"
#include "core/resilience.h"
#include "cpu/pkc.h"
#include "graph/renumber.h"
#include "cusim/atomics.h"
#include "perf/cost_model.h"
#include "perf/modeled_clock.h"

namespace kcore {

namespace {

/// One worker GPU: owns a contiguous vertex range, its CSR slice resident
/// in its own device memory, and a buffer of outgoing border updates.
struct Worker {
  VertexId begin = 0;
  VertexId end = 0;  // exclusive
  std::unique_ptr<sim::Device> device;
  sim::DeviceArray<EdgeIndex> d_offsets;  // slice offsets, rebased
  sim::DeviceArray<VertexId> d_neighbors;
  sim::DeviceArray<uint32_t> d_deg;       // owned vertices only
  sim::DeviceArray<VertexId> d_buffer;    // local frontier buffer
  /// Outgoing decrement counts for foreign vertices, drained per sub-round.
  DeltaBuffer border_updates;
  PerfCounters counters;                  // per-sub-round, merged by master
  /// Per-partition active-vertex compaction state: once built, `active`
  /// holds this worker's still-unpeeled vertices and the scan sweeps it
  /// instead of [begin, end).
  std::vector<VertexId> active;
  bool use_active = false;
  uint64_t local_removed = 0;
  /// Health: false once the worker's device is permanently lost. Its range
  /// is then resharded onto an adjacent survivor.
  bool alive = true;
};

/// The round-boundary checkpoint shared by every worker: the verified
/// degree snapshot, the claim flags, and the cumulative removed count.
/// Restoring it (plus rebuilding any resharded partitions from it) puts the
/// whole fleet back at the start of round k.
struct RoundCheckpoint {
  std::vector<uint32_t> deg;
  std::vector<uint8_t> claimed;
  uint64_t removed = 0;
};

}  // namespace

StatusOr<DecomposeResult> RunMultiGpuPeel(const CsrGraph& graph,
                                          const MultiGpuOptions& options) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.renumber) {
    // Degree-ordered renumbering wrap (see GpuPeelOptions::renumber): the
    // fleet peels the relabeled CSR — whose contiguous shards are
    // degree-homogeneous — and the core numbers are permuted back at the
    // end. Remap cost lands in wall_ms only.
    WallTimer total;
    const Renumbering rn = DegreeOrderRenumber(graph);
    MultiGpuOptions inner_options = options;
    inner_options.renumber = false;
    KCORE_ASSIGN_OR_RETURN(DecomposeResult result,
                           RunMultiGpuPeel(rn.graph, inner_options));
    result.core = rn.ToOriginal(result.core);
    result.metrics.wall_ms = total.ElapsedMillis();
    return result;
  }
  if (options.active_compaction && (options.compaction_threshold < 0.0 ||
                                    options.compaction_threshold > 1.0)) {
    return Status::InvalidArgument(
        "compaction_threshold must be a fraction in [0, 1]");
  }
  if (options.expand_strategy == ExpandStrategy::kAuto &&
      options.block_expand_threshold < 32) {
    return Status::InvalidArgument(
        "block_expand_threshold must be >= 32 (the warp bin starts there)");
  }
  WallTimer timer;
  const VertexId n = graph.NumVertices();
  const uint32_t num_workers = options.num_workers;
  const VertexId chunk = (n + num_workers - 1) / num_workers;
  DecomposeResult result;
  ModeledClock clock(GpuNativeCostModel());

  // simprof: the master assembles the fleet timeline itself because the
  // workers peel through host pointers (no Device::Launch to hook). Worker
  // devices still profile their alloc/copy activity under their own pid;
  // those traces are merged in at the end.
  const bool tracing = options.trace != nullptr;
  Trace trace;
  const auto now_ns = [&] { return clock.ms() * 1e6; };
  if (tracing) {
    trace.SetProcessName(0, "master");
    trace.SetThreadName(0, kTraceTidKernels, "border exchange");
    trace.SetThreadName(0, kTraceTidRanges, "rounds");
  }

  // Sub-round imbalance accumulators: slowest vs mean alive-worker modeled
  // ns per sub-round; the time-weighted ratio is Metrics.loop_imbalance
  // (workers run scan + cascade fused, so this covers the whole sub-round).
  double subround_max_ns = 0.0;
  double subround_mean_ns = 0.0;
  const auto finish_loop_imbalance = [&]() {
    result.metrics.loop_imbalance =
        subround_mean_ns > 0.0 ? subround_max_ns / subround_mean_ns : 0.0;
  };

  // Chunk index -> worker index. Identity at first; resharding after a
  // device loss redirects the dead worker's chunks to its successor (ranges
  // stay contiguous because a range is always merged into an adjacent
  // survivor).
  std::vector<uint32_t> owner_map(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) owner_map[w] = w;
  auto owner_of = [&](VertexId v) -> uint32_t {
    return chunk == 0
               ? 0
               : owner_map[std::min<uint32_t>(v / chunk, num_workers - 1)];
  };

  // --- Create the worker devices (arrays are built below, from the
  // checkpoint, so partition rebuilds after a device loss reuse the same
  // path). ---
  std::vector<Worker> workers(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    sim::DeviceOptions device_options = options.worker_device;
    if (w < options.worker_fault_specs.size() &&
        !options.worker_fault_specs[w].empty()) {
      device_options.fault_spec = options.worker_fault_specs[w];
    }
    if (tracing) {
      device_options.profile = true;
      device_options.profile_pid = w + 1;
      device_options.profile_name = StrFormat("worker%u", w);
    }
    workers[w].device = std::make_unique<sim::Device>(device_options);
    workers[w].border_updates = DeltaBuffer(n);
  }
  bool any_faults = false;
  for (const Worker& worker : workers) {
    any_faults = any_faults || worker.device->fault_injection_enabled();
  }
  const bool resilient = options.resilience.enabled && any_faults;

  // Hands the merged fleet timeline to the caller; called on every exit
  // path that produces a result.
  const auto flush_trace = [&] {
    if (!tracing) return;
    for (const Worker& worker : workers) {
      if (sim::SimProfiler* prof = worker.device->profiler()) {
        trace.Append(prof->trace());
      }
    }
    *options.trace = std::move(trace);
  };

  // Bounded retry for transient (Unavailable) copy failures; fail-stop, so
  // re-issuing is safe.
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

  // (Re)builds a worker's device-resident partition for [begin, end) from
  // the host graph and the checkpoint — used for the initial load and for
  // resharding a dead worker's range onto a survivor.
  const auto build_worker = [&](Worker& worker, VertexId begin,
                                VertexId end) -> Status {
    worker.begin = begin;
    worker.end = end;
    worker.use_active = false;
    worker.active.clear();
    worker.border_updates.Clear();
    const VertexId local_n = end - begin;

    std::vector<EdgeIndex> offsets(static_cast<size_t>(local_n) + 1, 0);
    for (VertexId v = 0; v < local_n; ++v) {
      offsets[v + 1] = offsets[v] + graph.Degree(begin + v);
    }
    std::vector<VertexId> neighbors;
    neighbors.reserve(offsets[local_n]);
    for (VertexId v = 0; v < local_n; ++v) {
      const auto nbrs = graph.Neighbors(begin + v);
      neighbors.insert(neighbors.end(), nbrs.begin(), nbrs.end());
    }
    std::vector<uint32_t> deg(std::max<VertexId>(1, local_n), 0);
    uint64_t removed_in_range = 0;
    for (VertexId v = 0; v < local_n; ++v) {
      deg[v] = ckpt.deg[begin + v];
      if (ckpt.claimed[begin + v] != 0) ++removed_in_range;
    }

    // Free any previous partition first so a reshard doesn't double-count
    // against the device's memory budget.
    worker.d_offsets.Reset();
    worker.d_neighbors.Reset();
    worker.d_deg.Reset();
    worker.d_buffer.Reset();

    // All four arrays are fully overwritten (host copies / buffer appends)
    // before any read — the uninitialized-alloc path skips the zeroing.
    KCORE_ASSIGN_OR_RETURN(worker.d_offsets,
                           worker.device->AllocUninit<EdgeIndex>(
                               offsets.size(), "worker_offsets"));
    KCORE_ASSIGN_OR_RETURN(
        worker.d_neighbors,
        worker.device->AllocUninit<VertexId>(
            std::max<size_t>(1, neighbors.size()), "worker_neighbors"));
    KCORE_ASSIGN_OR_RETURN(worker.d_deg,
                           worker.device->AllocUninit<uint32_t>(deg.size(),
                                                                "worker_deg"));
    KCORE_ASSIGN_OR_RETURN(
        worker.d_buffer,
        worker.device->AllocUninit<VertexId>(std::max<VertexId>(1024, local_n),
                                             "worker_buffer"));
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return worker.d_offsets.CopyFromHost(offsets); }));
    KCORE_RETURN_IF_ERROR(with_retry(
        [&] { return worker.d_neighbors.CopyFromHost(neighbors); }));
    KCORE_RETURN_IF_ERROR(
        with_retry([&] { return worker.d_deg.CopyFromHost(deg); }));
    // The degree slice is the one array the checkpoint protocol can
    // validate and restore, so it alone is eligible for injected bitflips.
    worker.device->MarkCorruptible(worker.d_deg, "worker_deg");
    worker.local_removed = removed_in_range;
    return Status::OK();
  };

  // Finishes on CPU PKC from the checkpoint once no usable fleet remains.
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
    for (const Worker& worker : workers) {
      max_peak = std::max(max_peak, worker.device->peak_bytes());
    }
    result.metrics.peak_device_bytes = max_peak;
    result.metrics.recovery_ms += recovery.ElapsedMillis();
    finish_loop_imbalance();
    result.metrics.wall_ms = timer.ElapsedMillis();
    flush_trace();
    return result;
  };

  // Reshards every unhandled dead worker's range onto the nearest alive
  // neighbor (by worker index; ranges are contiguous in index order, so the
  // nearest survivor is range-adjacent after earlier merges). A successor
  // that fails its rebuild — lost, out of memory for the doubled partition,
  // or transiently unreachable past the retry budget — is declared dead
  // itself and the scan restarts; each pass shrinks the fleet, so this
  // terminates. DeviceLost is returned once nobody survives.
  std::vector<uint8_t> death_counted(num_workers, 0);
  std::vector<uint8_t> resharded(num_workers, 0);
  const auto handle_deaths = [&]() -> Status {
    bool again = true;
    while (again) {
      again = false;
      for (uint32_t w = 0; w < num_workers; ++w) {
        if (!workers[w].alive && death_counted[w] == 0) {
          death_counted[w] = 1;
          ++result.metrics.devices_lost;
          if (tracing) {
            trace.AddInstant(StrFormat("device_lost worker%u", w),
                             kTraceCatRecovery, 0, kTraceTidRanges, now_ns());
          }
        }
      }
      for (uint32_t w = 0; w < num_workers; ++w) {
        Worker& dead = workers[w];
        if (dead.alive || resharded[w] != 0) continue;
        dead.d_offsets.Reset();
        dead.d_neighbors.Reset();
        dead.d_deg.Reset();
        dead.d_buffer.Reset();
        dead.active.clear();
        dead.use_active = false;
        dead.border_updates.Clear();
        if (dead.begin == dead.end) {
          resharded[w] = 1;
          continue;
        }
        int succ = -1;
        for (int i = static_cast<int>(w) - 1; i >= 0; --i) {
          if (workers[i].alive) {
            succ = i;
            break;
          }
        }
        if (succ < 0) {
          for (uint32_t i = w + 1; i < num_workers; ++i) {
            if (workers[i].alive) {
              succ = static_cast<int>(i);
              break;
            }
          }
        }
        if (succ < 0) return Status::DeviceLost("all worker devices lost");
        Worker& successor = workers[succ];
        const VertexId merged_begin = std::min(successor.begin, dead.begin);
        const VertexId merged_end = std::max(successor.end, dead.end);
        Status built = build_worker(successor, merged_begin, merged_end);
        if (!built.ok()) {
          successor.alive = false;
          again = true;
          break;
        }
        resharded[w] = 1;
        if (tracing) {
          trace.AddInstant(
              StrFormat("reshard worker%u -> worker%d", w, succ),
              kTraceCatRecovery, 0, kTraceTidRanges, now_ns());
        }
        if (chunk > 0 && merged_end > merged_begin) {
          for (uint32_t c = merged_begin / chunk;
               c <= (merged_end - 1) / chunk; ++c) {
            owner_map[std::min<uint32_t>(c, num_workers - 1)] =
                static_cast<uint32_t>(succ);
          }
        }
      }
    }
    return Status::OK();
  };

  // --- Initial partition load. A worker that cannot even load (injected
  // cudaMalloc OOM, lost before the first copy) starts out dead and its
  // range is resharded like a mid-run loss. ---
  for (uint32_t w = 0; w < num_workers; ++w) {
    const VertexId begin = std::min<VertexId>(w * chunk, n);
    const VertexId end = std::min<VertexId>(begin + chunk, n);
    Status built = build_worker(workers[w], begin, end);
    if (!built.ok()) {
      if (resilient && (built.IsOutOfMemory() || built.IsUnavailable() ||
                        built.IsDeviceLost())) {
        workers[w].alive = false;
        continue;
      }
      return built;
    }
  }
  if (Status fleet = handle_deaths(); !fleet.ok()) {
    if (resilient && options.resilience.cpu_fallback) return cpu_finish(0);
    return fleet;
  }

  // --- Live peeling state (checkpointed at every round boundary). ---
  std::vector<uint8_t> claimed(n, 0);
  std::atomic<uint64_t> removed{0};
  ThreadPool& pool = DefaultThreadPool();

  auto deg_of = [&](VertexId v) -> uint32_t& {
    Worker& worker = workers[owner_of(v)];
    return worker.d_deg.data()[v - worker.begin];
  };

  // Restores every survivor to the checkpoint: claim flags, removed count,
  // degree slices, and invalidated active lists. A worker lost during the
  // restore surfaces as DeviceLost for the caller to reshard first.
  const auto rollback_alive = [&]() -> Status {
    std::copy(ckpt.claimed.begin(), ckpt.claimed.end(), claimed.begin());
    removed.store(ckpt.removed, std::memory_order_relaxed);
    for (Worker& worker : workers) {
      if (!worker.alive) continue;
      const VertexId local_n = worker.end - worker.begin;
      worker.use_active = false;
      worker.active.clear();
      worker.border_updates.Clear();
      uint64_t removed_in_range = 0;
      for (VertexId v = worker.begin; v < worker.end; ++v) {
        if (ckpt.claimed[v] != 0) ++removed_in_range;
      }
      worker.local_removed = removed_in_range;
      if (local_n == 0) continue;
      Status st = with_retry([&] {
        return worker.d_deg.CopyFromHost(
            std::span<const uint32_t>(ckpt.deg).subspan(worker.begin,
                                                        local_n));
      });
      if (st.IsDeviceLost()) worker.alive = false;
      KCORE_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  };

  // Gathers the fleet's degree slices into `out` for validation.
  const auto gather_deg = [&](std::vector<uint32_t>& out) -> Status {
    out.resize(n);
    for (Worker& worker : workers) {
      if (!worker.alive) continue;
      const VertexId local_n = worker.end - worker.begin;
      if (local_n == 0) continue;
      Status st = with_retry([&] {
        return worker.d_deg.CopyToHost(
            std::span<uint32_t>(out).subspan(worker.begin, local_n));
      });
      if (st.IsDeviceLost()) worker.alive = false;
      KCORE_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  };

  uint32_t k = 0;
  const uint32_t k_limit = graph.MaxDegree() + 2;
  std::vector<uint32_t> post_deg;

  // One round k to its border fixpoint, ending (resilient mode) with the
  // gathered-state validation against the checkpoint.
  const auto run_round = [&]() -> Status {
    uint64_t subrounds = 0;
    // Corruption can manufacture endless border traffic (a flipped degree
    // re-arms decrements); a clean round never needs more sub-rounds than
    // vertices, so past that we declare the round corrupt and roll back.
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

      // --- Each worker peels its own range (parallel; workers only touch
      // their owned deg entries and private border buffers). ---
      pool.RunLanes(num_workers, [&](uint32_t w) {
        Worker& worker = workers[w];
        if (!worker.alive) return;
        if (resilient) {
          // Liveness probe at sub-round granularity: the launch-domain
          // fault point for workers that peel through host pointers. A
          // transient probe failure is noise; DeviceLost is terminal.
          const Status health = worker.device->HealthCheck("subround");
          if (health.IsDeviceLost()) {
            worker.alive = false;
            death.store(true, std::memory_order_relaxed);
            return;
          }
        }
        PerfCounters& c = worker.counters;
        const EdgeIndex* offsets = worker.d_offsets.data();
        const VertexId* neighbors = worker.d_neighbors.data();
        uint32_t* deg = worker.d_deg.data();
        VertexId* buffer = worker.d_buffer.data();

        // Per-partition compaction: once this worker's survivors drop below
        // the threshold fraction of its current sweep domain, rebuild the
        // dense active list from the unclaimed vertices (claimed[] is
        // owner-private, so this races with nobody).
        const uint64_t local_n = worker.end - worker.begin;
        if (options.active_compaction) {
          const uint64_t remaining = local_n - worker.local_removed;
          const uint64_t sweep_len =
              worker.use_active ? worker.active.size() : local_n;
          if (static_cast<double>(remaining) <
              options.compaction_threshold * static_cast<double>(sweep_len)) {
            std::vector<VertexId> next;
            next.reserve(remaining);
            if (worker.use_active) {
              for (VertexId v : worker.active) {
                ++c.global_reads;
                if (claimed[v] == 0) next.push_back(v);
              }
            } else {
              for (VertexId v = worker.begin; v < worker.end; ++v) {
                ++c.global_reads;
                if (claimed[v] == 0) next.push_back(v);
              }
            }
            c.global_writes += next.size();
            ++c.compactions;
            worker.active = std::move(next);
            worker.use_active = true;
          }
        }

        // Scan the owned range (or the compacted active list) for unclaimed
        // degree-k vertices.
        uint64_t head = 0;
        uint64_t tail = 0;
        auto scan_vertex = [&](VertexId v) {
          ++c.vertices_scanned;
          ++c.global_reads;
          if (claimed[v] == 0 && deg[v - worker.begin] == k) {
            claimed[v] = 1;
            buffer[tail++] = v;
            ++c.buffer_appends;
          }
        };
        if (worker.use_active) {
          c.scan_vertices_skipped += local_n - worker.active.size();
          for (VertexId v : worker.active) scan_vertex(v);
        } else {
          for (VertexId v = worker.begin; v < worker.end; ++v) scan_vertex(v);
        }
        // Local cascade (the worker's loop phase).
        uint64_t processed = 0;
        while (head < tail) {
          const VertexId v = buffer[head++];
          ++processed;
          const VertexId local = v - worker.begin;
          // Expansion-bin attribution (uncharged meters; see MultiGpuOptions).
          switch (options.expand_strategy) {
            case ExpandStrategy::kThread:
              ++c.loop_bin_thread;
              break;
            case ExpandStrategy::kWarp:
              ++c.loop_bin_warp;
              break;
            case ExpandStrategy::kBlock:
              ++c.loop_bin_block;
              break;
            case ExpandStrategy::kAuto: {
              const uint64_t len = offsets[local + 1] - offsets[local];
              if (len < 32) {
                ++c.loop_bin_thread;
              } else if (len < options.block_expand_threshold) {
                ++c.loop_bin_warp;
              } else {
                ++c.loop_bin_block;
              }
              break;
            }
          }
          for (EdgeIndex e = offsets[local]; e < offsets[local + 1]; ++e) {
            const VertexId u = neighbors[e];
            ++c.edges_traversed;
            ++c.global_reads;
            if (owner_of(u) == w) {
              uint32_t& du = deg[u - worker.begin];
              if (du > k) {
                --du;
                ++c.global_atomics;
                if (du == k && claimed[u] == 0) {
                  claimed[u] = 1;
                  buffer[tail++] = u;
                  ++c.buffer_appends;
                }
              }
            } else {
              // Border edge: buffer the decrement for the master.
              worker.border_updates.Add(u);
              ++c.messages;
            }
          }
        }
        worker.local_removed += tail;
        if (processed != 0) {
          removed_this_subround.fetch_add(processed,
                                          std::memory_order_relaxed);
        }
      });

      // Modeled time: slowest worker gates the sub-round.
      uint32_t alive_count = 0;
      {
        const double subround_start_ns = now_ns();
        std::vector<PerfCounters> lane_counters;
        lane_counters.reserve(num_workers);
        double max_ns = 0.0;
        double sum_ns = 0.0;
        for (Worker& worker : workers) {
          if (worker.alive) {
            ++alive_count;
            const double ns = clock.cost().UnitTimeNs(worker.counters);
            max_ns = std::max(max_ns, ns);
            sum_ns += ns;
            if (tracing) {
              // One span per alive worker on its own pid, laid on the
              // master's clock: all workers start the sub-round together and
              // each runs for its own modeled time (the barrier waits for
              // the longest span — the fleet's imbalance picture).
              const auto w =
                  static_cast<uint32_t>(&worker - workers.data());
              trace.AddComplete(
                  StrFormat("subround k=%u", k), kTraceCatKernel, w + 1,
                  kTraceTidKernels, subround_start_ns, ns,
                  {{"subround",
                    StrFormat("%llu",
                              static_cast<unsigned long long>(subrounds))}});
            }
          }
          lane_counters.push_back(worker.counters);
          result.metrics.counters += worker.counters;
          worker.counters = PerfCounters();
        }
        if (alive_count > 0) {
          subround_max_ns += max_ns;
          subround_mean_ns += sum_ns / alive_count;
        }
        clock.AddParallelPhase(lane_counters);
        // Two kernels per worker sub-round (scan + loop), plus the border
        // exchange (PCIe transfer of the update lists to the master).
        clock.AddOverheadNs(2 * clock.cost().kernel_launch_ns);
        result.metrics.counters.kernel_launches += 2 * alive_count;
      }
      if (death.load(std::memory_order_relaxed)) {
        return Status::DeviceLost("worker device lost mid-round");
      }

      // --- Master: aggregate border updates and apply to owners. ---
      uint64_t border_applied = 0;
      uint64_t border_entries = 0;
      for (Worker& worker : workers) {
        border_entries += worker.border_updates.size();
        worker.border_updates.Drain([&](VertexId u, uint32_t count) {
          uint32_t& du = deg_of(u);
          if (du > k) {
            // Clamp at k: decrements past the k-shell boundary are exactly
            // the ones the single-GPU kernel rolls back (Alg. 3 line 24).
            const uint32_t applied = std::min(count, du - k);
            du -= applied;
            border_applied += applied;
          }
        });
      }
      // Transfer + apply cost at the master.
      const double exchange_start_ns = now_ns();
      clock.AddOverheadNs(clock.cost().kernel_launch_ns +
                          static_cast<double>(border_entries) * 8.0);
      if (tracing) {
        trace.AddComplete(
            "border_exchange", kTraceCatKernel, 0, kTraceTidKernels,
            exchange_start_ns, now_ns() - exchange_start_ns,
            {{"entries",
              StrFormat("%llu",
                        static_cast<unsigned long long>(border_entries))},
             {"applied",
              StrFormat("%llu",
                        static_cast<unsigned long long>(border_applied))}});
      }

      removed.fetch_add(removed_this_subround.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      if (removed_this_subround.load(std::memory_order_relaxed) == 0 &&
          border_applied == 0) {
        break;  // fixpoint for this k
      }
    }

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

  // Reshard any dead workers, then roll every survivor back to the
  // checkpoint; a death during the restore loops back to resharding. Each
  // iteration shrinks the fleet, so this terminates.
  const auto recover_fleet = [&]() -> Status {
    while (true) {
      KCORE_RETURN_IF_ERROR(handle_deaths());
      Status restored = rollback_alive();
      if (restored.ok()) return Status::OK();
      if (!restored.IsDeviceLost()) return restored;
    }
  };

  uint32_t level_retries = 0;
  while (removed.load(std::memory_order_relaxed) < n) {
    // Round-boundary lifecycle check (common/cancellation.h): between
    // k-levels every worker is quiescent (the fleet's natural barrier), so
    // stopping here releases all partitions within one round. The merged
    // trace is still handed to the caller so the cancellation marker is
    // visible on the timeline.
    if (options.cancel != nullptr) {
      if (Status live = options.cancel->Check("multi_gpu round boundary");
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
        // The validated post-round state becomes the new checkpoint.
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
        return Status::Internal("multi-GPU peeling failed to converge");
      }
      continue;
    }
    if (!resilient) return round;

    Status cause = round;
    // Device losses are recovered unconditionally (bounded by the fleet
    // size); corruption and transient-budget failures consume the level
    // retry budget.
    const bool death_cause = cause.IsDeviceLost();
    if (death_cause || level_retries < options.resilience.max_level_retries) {
      WallTimer recovery;
      if (!death_cause) ++level_retries;
      ++result.metrics.levels_reexecuted;
      Status recovered = recover_fleet();
      result.metrics.recovery_ms += recovery.ElapsedMillis();
      if (recovered.ok()) continue;
      cause = recovered;
    }
    if (!options.resilience.cpu_fallback) return cause;
    return cpu_finish(k);
  }

  // Gather core numbers (deg has converged per owner). In resilient mode
  // every round was validated, so the checkpoint IS the final state.
  if (resilient) {
    result.core = std::move(ckpt.deg);
  } else {
    result.core.assign(n, 0);
    for (const Worker& worker : workers) {
      for (VertexId v = worker.begin; v < worker.end; ++v) {
        result.core[v] = worker.d_deg.data()[v - worker.begin];
      }
    }
  }
  uint64_t max_peak = 0;
  for (const Worker& worker : workers) {
    max_peak = std::max(max_peak, worker.device->peak_bytes());
    // The workers peel through raw host pointers (no Launch), so simcheck
    // observes only allocation lifetimes and host copies here — still worth
    // surfacing: a leak or an uninitialized CopyToHost fails the run.
    if (worker.alive) {
      KCORE_RETURN_IF_ERROR(worker.device->CheckStatus());
    }
  }
  result.metrics.peak_device_bytes = max_peak;
  finish_loop_imbalance();
  result.metrics.wall_ms = timer.ElapsedMillis();
  result.metrics.modeled_ms = clock.ms();
  flush_trace();
  return result;
}

}  // namespace kcore
