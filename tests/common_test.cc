#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace kcore {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::CapacityExceeded("buffer full");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCapacityExceeded());
  EXPECT_EQ(s.message(), "buffer full");
  EXPECT_EQ(s.ToString(), "CapacityExceeded: buffer full");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 14; ++code) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(code)),
                 "Unknown");
  }
}

TEST(StatusTest, ServingLifecycleCodes) {
  const Status cancelled = Status::Cancelled("caller gave up");
  EXPECT_TRUE(cancelled.IsCancelled());
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.ToString(), "Cancelled: caller gave up");

  const Status expired = Status::DeadlineExceeded("budget spent");
  EXPECT_TRUE(expired.IsDeadlineExceeded());
  EXPECT_FALSE(expired.IsCancelled());

  const Status shed = Status::ResourceExhausted("queue full");
  EXPECT_TRUE(shed.IsResourceExhausted());
  EXPECT_EQ(shed.ToString(), "ResourceExhausted: queue full");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = [] { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    KCORE_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::IOError("disk");
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsIOError());
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto maybe = [](bool ok) -> StatusOr<int> {
    if (!ok) return Status::InvalidArgument("no");
    return 7;
  };
  auto wrapper = [&](bool ok) -> StatusOr<int> {
    KCORE_ASSIGN_OR_RETURN(int x, maybe(ok));
    return x + 1;
  };
  EXPECT_EQ(*wrapper(true), 8);
  EXPECT_TRUE(wrapper(false).status().IsInvalidArgument());
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(1000000000ull), "1,000,000,000");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.0 GB");
}

TEST(StringsTest, SplitNonEmpty) {
  const auto fields = SplitNonEmpty("a  b\tc ", " \t");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
  EXPECT_TRUE(SplitNonEmpty("", " ").empty());
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

// ---------------------------------------------------------------- Random --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(77);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformReal();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(31);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.UniformRange(-2, 2);
    ASSERT_GE(x, -2);
    ASSERT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](uint64_t) { FAIL(); });
}

TEST(ThreadPoolTest, RunLanesWithMoreLanesThanThreads) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  pool.RunLanes(64, [&](uint32_t lane) {
    sum.fetch_add(lane, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 64u * 63 / 2);
}

TEST(ThreadPoolTest, ManyConsecutiveBatches) {
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(17, [&](uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200u * 17);
}

TEST(ThreadPoolTest, ConcurrentIncrementIsAtomic) {
  ThreadPool pool(4);
  uint32_t value = 0;
  pool.ParallelFor(10000, [&](uint64_t) {
    std::atomic_ref<uint32_t>(value).fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(value, 10000u);
}

/// Runs one ParallelFor of `count` tasks, each calling `body(i)`, and
/// returns the host thread that ran each index.
std::vector<std::thread::id> RunRecordingThreads(
    ThreadPool& pool, uint64_t count,
    const std::function<void(uint64_t)>& body) {
  std::vector<std::thread::id> ran_on(count);
  pool.ParallelFor(count, [&](uint64_t i) {
    body(i);
    ran_on[i] = std::this_thread::get_id();
  });
  return ran_on;
}

TEST(ThreadPoolTest, ShortBatchesRunOnCallingThreadAlone) {
  // A worker joins a ParallelFor only once the batch has run kHelperGate, or
  // at publish when one of the two batches before it ran for kLongBatch. So
  // a batch that finished inside the gate, after two that ran less than
  // kLongBatch, woke no worker and ran every index on the caller. Timing
  // each batch here from outside covers the pool's own readings; a
  // preemption only drops batches from the check.
  ThreadPool pool(4);
  int not_long_streak = 2;  // a fresh pool has no batch that ran long
  int checked = 0;
  int woke = 0;
  int fanned_out = 0;
  for (int round = 0; round < 2000 && checked < 200; ++round) {
    const uint64_t woken_before = pool.woken_batches();
    const auto start = std::chrono::steady_clock::now();
    const auto ran_on = RunRecordingThreads(pool, 8, [](uint64_t) {});
    const auto took = std::chrono::steady_clock::now() - start;
    if (took < ThreadPool::kHelperGate && not_long_streak >= 2) {
      ++checked;
      woke += pool.woken_batches() != woken_before;
      fanned_out += !std::all_of(ran_on.begin(), ran_on.end(), [](auto id) {
        return id == std::this_thread::get_id();
      });
    }
    not_long_streak = took < ThreadPool::kLongBatch ? not_long_streak + 1 : 0;
  }
  EXPECT_GT(checked, 0);
  EXPECT_EQ(woke, 0) << "of " << checked << " checked batches";
  EXPECT_EQ(fanned_out, 0) << "of " << checked << " checked batches";
}

TEST(ThreadPoolTest, LongBatchFansOutToWorkers) {
  ThreadPool pool(4);
  const auto ran_on = RunRecordingThreads(pool, 16, [](uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_GE(std::set<std::thread::id>(ran_on.begin(), ran_on.end()).size(),
            2u);
  const uint64_t on_caller = static_cast<uint64_t>(std::count(
      ran_on.begin(), ran_on.end(), std::this_thread::get_id()));
  EXPECT_EQ(pool.worker_tasks(), ran_on.size() - on_caller);
  EXPECT_EQ(pool.woken_batches(), 1u);  // at the gate: no batch before it
}

TEST(ThreadPoolTest, LongFirstTaskAfterLongBatchStillFansOut) {
  // The caller reads the clock only between tasks, so a long first task
  // would keep every worker asleep. After a batch that ran for kLongBatch
  // (4 ms of tasks on 3 threads), the next batch wakes the workers when
  // published: whichever thread runs index 0 waits there until index 1 has
  // started, so index 1 must run on another thread.
  ThreadPool pool(2);
  RunRecordingThreads(pool, 4, [](uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::mutex mu;
  std::condition_variable cv;
  bool second_started = false;
  const auto ran_on = RunRecordingThreads(pool, 2, [&](uint64_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 1) {
      second_started = true;
      cv.notify_all();
    } else {
      // Bounded, so a regression fails the assertion instead of hanging.
      cv.wait_for(lock, std::chrono::seconds(10),
                  [&] { return second_started; });
    }
  });
  EXPECT_NE(ran_on[1], ran_on[0]);
}

TEST(ThreadPoolTest, DefaultPoolIsSingleton) {
  EXPECT_EQ(&DefaultThreadPool(), &DefaultThreadPool());
  EXPECT_GE(DefaultThreadPool().num_threads(), 2u);
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskExceptionOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](uint64_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("task 37 died");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterTaskException) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(
        pool.ParallelFor(200, [](uint64_t) { throw std::logic_error("boom"); }),
        std::logic_error);
    std::atomic<uint64_t> hits{0};
    pool.ParallelFor(200, [&](uint64_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(hits.load(), 200u);
  }
}

TEST(ThreadPoolTest, FirstExceptionWinsAndBatchStillDrains) {
  ThreadPool pool(4);
  std::atomic<uint64_t> ran{0};
  bool caught = false;
  try {
    pool.ParallelFor(1000, [&](uint64_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("every task throws");
    });
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
  // Some tasks may have been skipped after the first throw, but the batch
  // drained: ParallelFor returned, and the pool accepts new work.
  EXPECT_GE(ran.load(), 1u);
  std::atomic<uint64_t> after{0};
  pool.ParallelFor(64, [&](uint64_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 64u);
}

TEST(ThreadPoolTest, DestructorRightAfterParallelForIsSafe) {
  // Shutdown-while-recently-worked: a straggler worker must not touch a
  // dead batch. Construct/run/destroy in a tight loop to shake races out.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    std::atomic<uint64_t> hits{0};
    pool.ParallelFor(8, [&](uint64_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(hits.load(), 8u);
    // pool destroyed immediately here
  }
}

TEST(ThreadPoolTest, DestructionWithExceptionInLastBatchIsSafe) {
  for (int round = 0; round < 25; ++round) {
    ThreadPool pool(3);
    EXPECT_THROW(
        pool.ParallelFor(16, [](uint64_t) { throw std::runtime_error("x"); }),
        std::runtime_error);
    // pool destroyed with the failed batch as its last act
  }
}

// ---------------------------------------------------------- Cancellation --

TEST(CancellationTest, TokenStartsLiveAndLatches) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTest, DefaultDeadlineNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_millis()));
}

TEST(CancellationTest, ZeroDeadlineIsAlreadyExpired) {
  const Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_millis(), 0.0);
}

TEST(CancellationTest, FutureDeadlineReportsRemaining) {
  const Deadline d = Deadline::AfterMillis(60000);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 1000.0);
  EXPECT_LE(d.remaining_millis(), 60000.0);
}

TEST(CancellationTest, ContextCheckReportsWhere) {
  CancelContext ctx;
  EXPECT_TRUE(ctx.Check("round 3").ok());

  ctx.deadline = Deadline::AfterMillis(0);
  const Status expired = ctx.Check("round 3");
  EXPECT_TRUE(expired.IsDeadlineExceeded());
  EXPECT_NE(expired.message().find("round 3"), std::string::npos);
}

TEST(CancellationTest, TokenWinsOverExpiredDeadline) {
  CancelToken token;
  token.Cancel();
  CancelContext ctx;
  ctx.token = &token;
  ctx.deadline = Deadline::AfterMillis(0);
  // Both fired; the explicit caller action is reported, not the timeout.
  EXPECT_TRUE(ctx.Check("boundary").IsCancelled());
}

}  // namespace
}  // namespace kcore
