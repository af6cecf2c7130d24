#ifndef KCORE_COMMON_THREAD_POOL_H_
#define KCORE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace kcore {

/// A persistent pool of worker threads executing indexed task batches.
///
/// The pool exists so that simulated GPU thread blocks and CPU-parallel
/// baselines run on real OS threads (true concurrency and real data races on
/// atomics) without paying thread spawn cost per kernel launch.
///
/// The thread that calls ParallelFor or RunLanes always runs tasks too, so a
/// ThreadPool(n) executes a batch on up to n + 1 host threads: ThreadPool(1)
/// is one worker plus the caller, not a single-threaded pool.
class ThreadPool {
 public:
  /// How long a ParallelFor batch runs on the calling thread alone before
  /// workers are asked to help. Waking a sleeping worker costs the caller a
  /// futex call and the worker several µs before it claims anything, so a
  /// batch shorter than this finishes sooner and cheaper inline. Sized by a
  /// sweep over 10/20/40/100 µs (DESIGN.md §10 "Host cost of a launch"):
  /// longer gates keep cutting CPU on small graphs, but from 40 µs on they
  /// delay the fan-out of the launches that need the whole pool and cost
  /// wall time on multi-million-edge graphs; 10 µs gives back a third of
  /// the CPU saving.
  static constexpr std::chrono::microseconds kHelperGate{20};

  /// A ParallelFor batch that ran this long makes the next two batches wake
  /// every worker as soon as they are published, without waiting for the
  /// gate. For a batch this long the gate would cut little CPU and cost up
  /// to a tenth of its wall time; shorter batches keep the gate (DESIGN.md
  /// §10 has the sweep).
  static constexpr std::chrono::microseconds kLongBatch = 10 * kHelperGate;

  /// Creates `num_threads` workers; 0 picks max(2, hardware_concurrency) so
  /// that even single-core hosts exercise preemptive interleaving.
  explicit ThreadPool(uint32_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Runs fn(i) for i in [0, count), distributing indices dynamically over
  /// the calling thread and the workers. Blocks until all complete.
  /// `fn` must be safe to invoke concurrently from multiple threads.
  ///
  /// Scheduling: the calling thread starts the batch alone and claims
  /// indices in order. Once the batch has run for kHelperGate with indices
  /// still unclaimed, it wakes every worker. A batch that finishes inside
  /// the gate therefore never leaves the calling thread. When one of the
  /// two batches before it ran for kLongBatch, a batch wakes every worker
  /// when it is published instead. That also keeps a long first task from
  /// holding the workers asleep: the caller cannot look at the clock while
  /// it runs a task.
  ///
  /// Exception safety: if fn throws, the remaining unclaimed indices are
  /// skipped, already-running invocations finish, and the FIRST exception is
  /// rethrown here on the calling thread once the batch has fully drained.
  /// The pool stays usable afterwards (no wedged batch, no terminated
  /// worker) — the serving loop leans on this to survive a throwing task.
  void ParallelFor(uint64_t count, const std::function<void(uint64_t)>& fn);

  /// Runs fn(lane) once for each lane in [0, lanes). Every worker is woken
  /// when the batch is published and lanes are claimed dynamically by the
  /// workers and the calling thread; lanes may exceed the physical thread
  /// count, extras are multiplexed. Used by algorithms with a fixed logical
  /// thread count (e.g. PKC with T logical threads), whose lanes stand for
  /// threads or devices and so fan out without a gate.
  void RunLanes(uint32_t lanes, const std::function<void(uint32_t)>& fn);

  /// Tasks that workers, not the calling thread, ran over the pool's
  /// lifetime; complete for every batch that has returned.
  uint64_t worker_tasks() const {
    return worker_tasks_.load(std::memory_order_relaxed);
  }

  /// Batches that woke the workers, at publish or at the gate, over the
  /// pool's lifetime.
  uint64_t woken_batches() const {
    return woken_batches_.load(std::memory_order_relaxed);
  }

 private:
  /// One batch. Kept in a shared_ptr so a straggling worker that wakes after
  /// completion still touches valid memory; it can only observe
  /// `next >= count` and exits without calling `fn`.
  struct Batch {
    uint64_t count = 0;
    const std::function<void(uint64_t)>* fn = nullptr;
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> by_workers{0};  // tasks run by workers
    /// First exception thrown by fn, rethrown on the ParallelFor caller.
    /// Guarded by the pool's mu_.
    std::exception_ptr error;
  };

  /// What the calling thread tracks to apply the helper gate.
  struct Gate {
    std::chrono::steady_clock::time_point start;
    bool timing = true;  // no worker has been woken yet
  };

  /// Publishes `batch`, waking every worker at once if `wake_all` (for a
  /// ParallelFor, if a recent batch ran long), runs it on the calling
  /// thread, waits for it to drain and rethrows its first error.
  void Run(const std::shared_ptr<Batch>& batch, bool wake_all, Gate* gate);
  void WorkerLoop();
  /// Claims and runs indices of `batch` until none are left; `gate` is set
  /// only on the calling thread of a ParallelFor.
  void HelpRun(Batch& batch, Gate* gate, bool on_worker);
  /// Asks every worker to join the current batch. A batch wakes its
  /// workers at most once: at publish or when the gate fires.
  void WakeWorkers();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Batch> current_;  // guarded by mu_
  /// Workers asked to join current_ that have not yet taken the request;
  /// reset when current_ is.
  uint32_t wake_requests_ = 0;  // guarded by mu_
  /// Whether each of the last two ParallelFor batches ran for kLongBatch
  /// (bit 0 the latest); guarded by mu_. Two, because launches alternate (a
  /// peeling round is a scan launch, then a loop launch), so the batch
  /// after next is the same kernel. The memory is the pool's, so devices
  /// that share a pool share it: a launch of another device in between
  /// costs at most one early wake or one batch that waits for the gate.
  uint8_t recent_long_ = 0;
  bool shutdown_ = false;  // guarded by mu_
  std::atomic<uint64_t> worker_tasks_{0};
  std::atomic<uint64_t> woken_batches_{0};
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

/// Process-wide default pool (lazily created, intentionally leaked so worker
/// threads never outlive the pool object).
ThreadPool& DefaultThreadPool();

}  // namespace kcore

#endif  // KCORE_COMMON_THREAD_POOL_H_
