#include "common/thread_pool.h"

#include "common/check.h"

namespace kcore {

ThreadPool::ThreadPool(uint32_t num_threads) {
  if (num_threads == 0) {
    const uint32_t hw = std::thread::hardware_concurrency();
    num_threads = hw < 2 ? 2 : hw;
  }
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WakeWorkers() {
  woken_batches_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    wake_requests_ = num_threads();
  }
  work_cv_.notify_all();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // A request outlives a notify that found every worker busy: the next
    // worker to come back here takes it.
    work_cv_.wait(lock, [&] { return shutdown_ || wake_requests_ > 0; });
    if (shutdown_) return;
    --wake_requests_;
    // Requests exist only while a batch is current (both reset together).
    std::shared_ptr<Batch> batch = current_;
    lock.unlock();
    HelpRun(*batch, nullptr, /*on_worker=*/true);
    batch.reset();
    lock.lock();
  }
}

void ThreadPool::HelpRun(Batch& batch, Gate* gate, bool on_worker) {
  while (true) {
    const uint64_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.count) break;
    if (gate != nullptr && gate->timing && index + 1 < batch.count &&
        std::chrono::steady_clock::now() - gate->start > kHelperGate) {
      gate->timing = false;
      WakeWorkers();
    }
    uint64_t accounted = 1;  // this index, plus any bulk-skipped below
    try {
      (*batch.fn)(index);
    } catch (...) {
      // Record the first exception (for the ParallelFor caller to rethrow)
      // and abort the batch: claim every unclaimed index in one step so no
      // further task body runs. Indices claimed by other threads are
      // accounted by those threads as they finish, so `done` still reaches
      // `count` and nobody hangs — a thrown task must never wedge the pool
      // (the batch would stay current_ and the next ParallelFor would
      // CHECK-fail) or escape into a worker thread (std::terminate).
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (batch.error == nullptr) batch.error = std::current_exception();
      }
      uint64_t unclaimed = batch.next.load(std::memory_order_relaxed);
      while (unclaimed < batch.count &&
             !batch.next.compare_exchange_weak(unclaimed, batch.count,
                                               std::memory_order_relaxed)) {
      }
      if (unclaimed < batch.count) accounted += batch.count - unclaimed;
    }
    // Counted before `done`, so the caller sees it once the batch drains.
    if (on_worker) batch.by_workers.fetch_add(1, std::memory_order_relaxed);
    if (batch.done.fetch_add(accounted, std::memory_order_acq_rel) +
            accounted ==
        batch.count) {
      // Notify while holding the lock so a waiter that has checked the
      // predicate but not yet blocked cannot miss the wakeup.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::Run(const std::shared_ptr<Batch>& batch, bool wake_all,
                     Gate* gate) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    KCORE_CHECK(current_ == nullptr);
    current_ = batch;
    if (gate != nullptr) wake_all = recent_long_ != 0;
  }
  if (wake_all) WakeWorkers();
  if (gate != nullptr) {
    gate->timing = !wake_all;
    gate->start = std::chrono::steady_clock::now();
  }
  HelpRun(*batch, gate, /*on_worker=*/false);
  // One clock read when the caller runs out of indices.
  const bool ran_long =
      gate != nullptr &&
      std::chrono::steady_clock::now() - gate->start >= kLongBatch;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->count;
    });
    current_.reset();
    worker_tasks_.fetch_add(batch->by_workers.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    wake_requests_ = 0;
    if (gate != nullptr) {
      recent_long_ =
          static_cast<uint8_t>(((recent_long_ << 1) | (ran_long ? 1 : 0)) & 3);
    }
    error = batch->error;
  }
  // Rethrow the first task exception only after the batch fully drained and
  // current_ is cleared: the pool is reusable from the catch block.
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(uint64_t count,
                             const std::function<void(uint64_t)>& fn) {
  if (count == 0) return;
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->fn = &fn;
  Gate gate;
  Run(batch, /*wake_all=*/false, &gate);
}

void ThreadPool::RunLanes(uint32_t lanes,
                          const std::function<void(uint32_t)>& fn) {
  if (lanes == 0) return;
  const std::function<void(uint64_t)> task = [&fn](uint64_t i) {
    fn(static_cast<uint32_t>(i));
  };
  auto batch = std::make_shared<Batch>();
  batch->count = lanes;
  batch->fn = &task;
  Run(batch, /*wake_all=*/true, nullptr);
}

ThreadPool& DefaultThreadPool() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace kcore
