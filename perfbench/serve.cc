// serve_read and serve_update: open loops into KcoreServer (gpu engine, no
// injected faults). A single generator thread submits requests at their due
// times; one collector thread per request class waits on that class's
// answers in submission order (each class is dispatched FIFO), stamps the
// answer time and checks the answer. A saturation phase with a bounded
// in-flight window measures max_rps first; untraced runs end with one
// closed loop per request class, which prices each class in CPU time.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "core/gpu_peel.h"
#include "core/incremental_core.h"
#include "cpu/bz.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kcore::EdgeUpdate;
using kcore::Status;
using kcore::VertexId;

enum class Kind : uint8_t { kCoreOf, kTopK, kSingleK, kFull, kUpdate };
enum class Class : uint8_t { kPoint, kHeavy, kUpdate };
constexpr int kNumClasses = 3;
constexpr const char* kKindNames[] = {"core_of", "top_k", "single_k", "full",
                                      "update"};

Class ClassOf(Kind kind) {
  switch (kind) {
    case Kind::kCoreOf:
    case Kind::kTopK:
      return Class::kPoint;
    case Kind::kUpdate:
      return Class::kUpdate;
    default:
      return Class::kHeavy;
  }
}

/// A workload's declared request mix and offered load. Within a class the
/// cheaper type is kept well above half, so each class median sits inside
/// one mode (core_of vs the ten times dearer top-k; single-k, whose cost
/// grows with k, vs the dearer full decomposition). perfbench/layer_map.json
/// declares the same shares.
///
/// The open loop's rate is fixed, so a seed fixes the work offered per
/// second. It keeps the runner about 10% busy: far below half, where point
/// queries would split evenly between "answered at once" and "queued", and
/// low enough that slow requests (several mean service times apart) do not
/// queue behind each other.
struct Mix {
  double heavy_share = 0.0;   // of all requests
  double update_share = 0.0;  // of all requests
  double topk_share = 0.0;    // of point requests
  double full_share = 0.0;    // of heavy requests
  double rate_per_s = 0.0;    // open-loop arrivals
  uint32_t topk_limit = 10;
  uint32_t batch_edges = 0;   // updates per batch
};

Mix MixFor(bool updates) {
  Mix mix;
  mix.topk_share = 0.10;
  if (updates) {
    mix.update_share = 0.05;
    mix.rate_per_s = 400.0;
    // 4 updates per batch: most batches stay localized, a few (about 6%)
    // flood the equal-coreness region and take the full re-peel.
    mix.batch_edges = 4;
  } else {
    mix.heavy_share = 0.10;
    mix.full_share = 0.25;
    mix.rate_per_s = 300.0;
  }
  return mix;
}

struct Planned {
  Kind kind = Kind::kCoreOf;
  uint32_t arg = 0;  // vertex, top-k limit or k
};

/// Which requests a planner hands out: the workload's mix, or only one of
/// its two classes.
enum class Draw : uint8_t { kMix, kSlowOnly, kPointOnly };

/// Draws request types and arguments from the mix; deterministic per seed.
/// Every period-th request is the slow class (heavy, or an update batch) and
/// the rest are point queries; within a class, every n-th request is the
/// dearer type (full, top-k). So every share is exact, and a run's cost does
/// not follow how many dear requests a seed happened to draw. The arguments
/// are drawn at random.
class Planner {
 public:
  Planner(const Mix& mix, uint64_t seed, uint32_t num_vertices, uint32_t k_max,
          Draw draw = Draw::kMix)
      : mix_(mix),
        rng_(seed),
        num_vertices_(num_vertices),
        k_max_(k_max),
        draw_(draw),
        period_(PeriodOf(mix.heavy_share + mix.update_share)),
        full_period_(PeriodOf(mix.full_share)),
        topk_period_(PeriodOf(mix.topk_share)) {}

  Planned Next() {
    const bool slow = draw_ == Draw::kSlowOnly ||
                      (draw_ == Draw::kMix && ++count_ % period_ == 0);
    if (slow) {
      if (mix_.update_share > 0) return {Kind::kUpdate, 0};
      if (full_period_ != 0 && ++slow_count_ % full_period_ == 0) {
        return {Kind::kFull, 0};
      }
      const int64_t k = rng_.UniformRange(1, std::max(1u, k_max_));
      return {Kind::kSingleK, static_cast<uint32_t>(k)};
    }
    if (topk_period_ != 0 && ++point_count_ % topk_period_ == 0) {
      return {Kind::kTopK, mix_.topk_limit};
    }
    const uint64_t v = rng_.UniformInt(num_vertices_);
    return {Kind::kCoreOf, static_cast<uint32_t>(v)};
  }

 private:
  /// Every how many requests a type of share `share` comes; 0 for never.
  static uint64_t PeriodOf(double share) {
    return share > 0 ? static_cast<uint64_t>(std::lround(1.0 / share)) : 0;
  }

  Mix mix_;
  kcore::Rng rng_;
  uint32_t num_vertices_;
  uint32_t k_max_;
  Draw draw_;
  uint64_t period_;
  uint64_t full_period_;
  uint64_t topk_period_;
  uint64_t count_ = 0;
  uint64_t slow_count_ = 0;
  uint64_t point_count_ = 0;
};

/// The benchmark's own copy of the evolving edge set.
class EdgeMirror {
 public:
  explicit EdgeMirror(const kcore::CsrGraph& graph)
      : num_vertices_(graph.NumVertices()) {
    for (VertexId u = 0; u < graph.NumVertices(); ++u) {
      for (VertexId v : graph.Neighbors(u)) {
        if (u < v) Insert(u, v);
      }
    }
  }

  bool Has(VertexId u, VertexId v) const {
    return index_.count(Key(u, v)) != 0;
  }
  void Insert(VertexId u, VertexId v) {
    index_[Key(u, v)] = edges_.size();
    edges_.emplace_back(std::min(u, v), std::max(u, v));
  }
  void Remove(VertexId u, VertexId v) {
    const auto it = index_.find(Key(u, v));
    const size_t slot = it->second;
    index_.erase(it);
    if (slot + 1 != edges_.size()) {
      edges_[slot] = edges_.back();
      index_[Key(edges_[slot].first, edges_[slot].second)] = slot;
    }
    edges_.pop_back();
  }
  void Apply(const std::vector<EdgeUpdate>& batch) {
    for (const EdgeUpdate& e : batch) {
      if (e.kind == EdgeUpdate::Kind::kInsert) {
        Insert(e.u, e.v);
      } else {
        Remove(e.u, e.v);
      }
    }
  }
  kcore::CsrGraph ToCsr() const {
    kcore::EdgeList list;
    list.reserve(edges_.size());
    for (const auto& [u, v] : edges_) list.push_back({u, v});
    return kcore::BuildUndirectedGraphWithVertexCount(list, num_vertices_);
  }
  const std::vector<std::pair<VertexId, VertexId>>& edges() const {
    return edges_;
  }
  VertexId num_vertices() const { return num_vertices_; }

 private:
  static uint64_t Key(VertexId u, VertexId v) {
    return (static_cast<uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
  }
  VertexId num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::unordered_map<uint64_t, size_t> index_;
};

/// Generates update batches valid against the mirror, in order. Deletes take
/// a uniformly random present edge; inserts join an endpoint of a random
/// present edge (degree-proportional) to a uniform vertex. Every batch handed
/// out is kept, in submission order, for the post-run checks.
class UpdateStream {
 public:
  UpdateStream(const kcore::CsrGraph& graph, uint64_t seed,
               uint32_t batch_edges)
      : mirror_(graph), rng_(seed), batch_edges_(batch_edges) {}

  std::vector<EdgeUpdate> Next() {
    std::vector<EdgeUpdate> batch;
    const auto& edges = mirror_.edges();
    while (batch.size() < batch_edges_) {
      if (rng_.Bernoulli(0.5) && !edges.empty()) {
        const auto [u, v] = edges[rng_.UniformInt(edges.size())];
        mirror_.Remove(u, v);
        batch.push_back(EdgeUpdate::Remove(u, v));
        continue;
      }
      const auto& [a, b] = edges[rng_.UniformInt(edges.size())];
      const VertexId u = rng_.Bernoulli(0.5) ? a : b;
      const auto v =
          static_cast<VertexId>(rng_.UniformInt(mirror_.num_vertices()));
      if (u == v || mirror_.Has(u, v)) continue;
      mirror_.Insert(u, v);
      batch.push_back(EdgeUpdate::Insert(u, v));
    }
    batches_.push_back(batch);
    return batch;
  }

  /// The batch that undoes the last one: its updates reversed and inverted.
  std::vector<EdgeUpdate> Undo() {
    std::vector<EdgeUpdate> undo;
    const std::vector<EdgeUpdate>& last = batches_.back();
    for (auto it = last.rbegin(); it != last.rend(); ++it) {
      undo.push_back(it->kind == EdgeUpdate::Kind::kInsert
                         ? EdgeUpdate::Remove(it->u, it->v)
                         : EdgeUpdate::Insert(it->u, it->v));
    }
    mirror_.Apply(undo);
    batches_.push_back(undo);
    return undo;
  }

  /// Starts a fresh sequence from `graph` (the mirror rebuilt, so the edge
  /// order and hence the batches depend on the seed alone).
  void Restart(const kcore::CsrGraph& graph, uint64_t seed) {
    mirror_ = EdgeMirror(graph);
    rng_ = kcore::Rng(seed);
  }

  const std::vector<std::vector<EdgeUpdate>>& batches() const {
    return batches_;
  }

 private:
  EdgeMirror mirror_;
  kcore::Rng rng_;
  uint32_t batch_edges_;
  std::vector<std::vector<EdgeUpdate>> batches_;
};

enum Phase : int {
  kSaturation = 0,
  kUntraced = 1,
  kTraced = 2,
  kSlowLoop = 3,   // closed loop of heavy requests or update batches
  kPointLoop = 4,  // closed loop of point queries
  kNumPhases = 5,
};

/// What the benchmark keeps of one request and its answer.
struct Record {
  uint64_t id = 0;  // submission order; the op id of its spans
  Kind kind = Kind::kCoreOf;
  uint32_t arg = 0;
  int phase = kUntraced;
  uint64_t batch = 0;  // update: index in the stream
  Clock::time_point due;
  Clock::time_point submitted;
  Clock::time_point answered;
  // Process CPU at submission and at the answer; their difference is the
  // request's CPU cost when it was alone in flight (the slow closed loop).
  double cpu_submitted_ms = 0.0;
  double cpu_answered_ms = 0.0;
  bool status_ok = false;
  bool verified = false;  // answer checked and correct (or left for later)
  kcore::ServeMetrics metrics;
  uint32_t core_of = 0;
  std::vector<std::pair<VertexId, uint32_t>> top;
  double single_k_modeled_ms = 0.0;
  double single_k_wall_ms = 0.0;
  // Device timeline of a traced heavy request.
  double scan_ns = 0.0, loop_ns = 0.0, compact_ns = 0.0, copy_ns = 0.0;
  double kernel_spans = 0.0, scan_spans = 0.0;
  uint64_t peak_device_bytes = 0;

  double latency_ms() const { return MsBetween(due, answered); }
};

struct InFlight {
  Record record;
  std::future<kcore::ServeResponse> future;
  std::unique_ptr<kcore::Trace> trace;
  bool windowed = false;
};

/// State the collectors share with the generator and the post-run checks.
struct Shared {
  const std::vector<uint32_t>* oracle = nullptr;  // epoch-0 coreness
  std::vector<std::pair<VertexId, uint32_t>> oracle_top;
  bool updates = false;
  std::counting_semaphore<1 << 16> window{0};
  std::atomic<int64_t> in_flight{0};

  // Update collector: the snapshot after the latest committed batch, the
  // changed entries of every batch, and full snapshots of sampled batches.
  std::vector<uint32_t> snapshot;
  uint64_t last_epoch = 0;
  std::vector<std::vector<std::pair<VertexId, uint32_t>>> diffs;
  std::map<uint64_t, std::vector<uint32_t>> sampled_snapshots;
  // Device timelines of the first traced heavy requests, by record id.
  // Only the heavy collector writes them.
  std::vector<std::pair<uint64_t, std::unique_ptr<kcore::Trace>>> kept_traces;
};

/// The vertices of highest core number, ties by ascending id: the answer
/// KcoreServer gives to a top-k request.
std::vector<std::pair<VertexId, uint32_t>> TopK(
    const std::vector<uint32_t>& core, uint32_t limit) {
  std::vector<std::pair<VertexId, uint32_t>> top;
  top.reserve(core.size());
  for (VertexId v = 0; v < core.size(); ++v) top.emplace_back(v, core[v]);
  const size_t n = std::min<size_t>(limit, top.size());
  std::partial_sort(top.begin(), top.begin() + n, top.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  top.resize(n);
  return top;
}

/// The k-core's vertices in ascending id order.
std::vector<uint32_t> KCoreVertices(const std::vector<uint32_t>& core,
                                    uint32_t k) {
  std::vector<uint32_t> members;
  for (uint32_t v = 0; v < core.size(); ++v) {
    if (core[v] >= k) members.push_back(v);
  }
  return members;
}

constexpr uint64_t kSnapshotSampleEvery = 64;

bool SampledBatch(uint64_t batch) {
  return batch % kSnapshotSampleEvery == kSnapshotSampleEvery - 1;
}

void SummarizeDeviceTrace(const kcore::Trace& trace, Record* record) {
  for (const kcore::TraceEvent& event : trace.events()) {
    if (event.phase == 'X' && event.cat == kcore::kTraceCatKernel) {
      record->kernel_spans += 1;
      if (event.name == "scan" || event.name == "fused_scan") {
        record->scan_ns += event.dur_ns;
        record->scan_spans += 1;
      } else if (event.name == "loop") {
        record->loop_ns += event.dur_ns;
      } else if (event.name == "compact") {
        record->compact_ns += event.dur_ns;
      }
    } else if (event.phase == 'X' && event.cat == kcore::kTraceCatCopy) {
      record->copy_ns += event.dur_ns;
    } else if (event.phase == 'i' && event.cat == kcore::kTraceCatMemory) {
      for (const auto& [key, value] : event.args) {
        if (key == "peak_bytes") {
          record->peak_device_bytes =
              std::max<uint64_t>(record->peak_device_bytes, std::stoull(value));
        }
      }
    }
  }
}

/// Checks an answer that needs no epoch context and keeps what later checks
/// need. Runs on the collector thread of the request's class.
void Absorb(Shared& shared, kcore::ServeResponse& response, Record* record) {
  record->status_ok = response.status.ok();
  record->metrics = response.metrics;
  if (!record->status_ok) return;
  const std::vector<uint32_t>& oracle = *shared.oracle;
  switch (record->kind) {
    case Kind::kCoreOf:
      record->core_of = response.core_of;
      record->verified = shared.updates ||
                         (record->arg < oracle.size() &&
                          response.core_of == oracle[record->arg]);
      break;
    case Kind::kTopK:
      // A copy, not a move: the server reserves room for every vertex.
      record->top.assign(response.top.begin(), response.top.end());
      record->verified = shared.updates || record->top == shared.oracle_top;
      break;
    case Kind::kSingleK:
      record->single_k_modeled_ms = response.single_k.metrics.modeled_ms;
      record->single_k_wall_ms = response.single_k.metrics.wall_ms;
      record->verified = response.single_k.k == record->arg &&
                         response.single_k.vertices ==
                             KCoreVertices(oracle, record->arg);
      break;
    case Kind::kFull:
      record->verified = response.core == oracle;
      break;
    case Kind::kUpdate: {
      // Batches commit in submission order: epoch 1 is the set-up batch.
      bool ok = response.update_epoch == shared.last_epoch + 1 &&
                response.update_epoch == record->batch + 2 &&
                response.core.size() == shared.snapshot.size();
      std::vector<std::pair<VertexId, uint32_t>> diff;
      std::vector<uint8_t> changed(shared.snapshot.size(), 0);
      for (VertexId v : response.update_changed) {
        if (!ok || v >= changed.size()) {
          ok = false;
          break;
        }
        changed[v] = 1;
        diff.emplace_back(v, response.core[v]);
      }
      for (VertexId v = 0; ok && v < shared.snapshot.size(); ++v) {
        ok = (response.core[v] != shared.snapshot[v]) == (changed[v] != 0);
      }
      if (ok) {
        shared.snapshot = response.core;
        shared.last_epoch = response.update_epoch;
        if (shared.diffs.size() <= record->batch) {
          shared.diffs.resize(record->batch + 1);
        }
        shared.diffs[record->batch] = std::move(diff);
        if (SampledBatch(record->batch)) {
          shared.sampled_snapshots[record->batch] = response.core;
        }
      }
      record->verified = ok;
      break;
    }
  }
}

/// One thread per request class: waits on answers in submission order.
class Collector {
 public:
  explicit Collector(Shared* shared)
      : shared_(shared), thread_([this] { Loop(); }) {}
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(InFlight in_flight) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(in_flight));
    }
    cv_.notify_one();
  }

  /// Joins after every pushed request is answered.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<Record>& records() { return records_; }

 private:
  void Loop() {
    while (true) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      kcore::ServeResponse response = item.future.get();
      item.record.answered = Clock::now();
      item.record.cpu_answered_ms = ProcessCpuMs();
      Absorb(*shared_, response, &item.record);
      if (item.trace != nullptr) {
        SummarizeDeviceTrace(*item.trace, &item.record);
        if (shared_->kept_traces.size() < 32) {
          shared_->kept_traces.emplace_back(item.record.id,
                                            std::move(item.trace));
        }
      }
      records_.push_back(std::move(item.record));
      shared_->in_flight.fetch_sub(1);
      if (item.windowed) shared_->window.release();
    }
  }

  Shared* shared_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<InFlight> queue_;
  bool done_ = false;
  std::vector<Record> records_;
  std::thread thread_;  // last: starts after the members it uses exist
};

/// Drives one server through the phases of a run.
class Traffic {
 public:
  Traffic(kcore::KcoreServer* server, Shared* shared, UpdateStream* stream)
      : server_(server), shared_(shared), stream_(stream) {
    for (auto& c : collectors_) c = std::make_unique<Collector>(shared);
  }

  /// Submits as fast as a window of `window` requests in flight allows, for
  /// `seconds`, then waits for the stragglers. Returns requests per second.
  /// Update batches here come in do/undo pairs and the phase ends on an
  /// undo, so the serving graph leaves it as it entered. With a window of 1
  /// this is a closed loop.
  double Saturate(Planner& planner, double seconds, int64_t window,
                  int phase) {
    shared_->window.release(window);
    const Clock::time_point begin = Clock::now();
    uint64_t submitted = 0;
    while (true) {
      const bool more = MsBetween(begin, Clock::now()) < seconds * 1e3;
      if (!more && !undo_next_) break;
      const Planned planned = more ? planner.Next() : Planned{Kind::kUpdate, 0};
      shared_->window.acquire();
      Submit(planned, phase, Clock::now(), true, false);
      ++submitted;
    }
    Drain();
    for (int64_t i = 0; i < window; ++i) shared_->window.acquire();
    return static_cast<double>(submitted) /
           (MsBetween(begin, Clock::now()) / 1e3);
  }

  /// Evenly spaced arrivals at `rate_per_s` for `seconds`; each
  /// request is submitted at its due time (or as soon as the generator
  /// catches up). With the planner's fixed slots, heavy requests never queue
  /// behind each other, and a point query waits at most for the residual of
  /// one heavy request: latencies follow service times rather than the
  /// bursts of a random arrival process, which keeps them steady from run to
  /// run.
  void OpenLoop(Planner& planner, double rate_per_s, double seconds,
                int phase, bool traced) {
    // Wake at the due time rather than up to the default 50 us later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const Clock::time_point begin = Clock::now() + std::chrono::milliseconds(2);
    for (uint64_t i = 0;; ++i) {
      const double offset_s = static_cast<double>(i) / rate_per_s;
      if (offset_s >= seconds) break;
      const Clock::time_point due =
          begin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s));
      std::this_thread::sleep_until(due);
      Submit(planner.Next(), phase, due, false, traced);
    }
    Drain();
  }

  void Drain() {
    while (shared_->in_flight.load() > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Joins the collectors and hands back every record.
  std::vector<Record> Finish() {
    std::vector<Record> all;
    for (auto& c : collectors_) {
      c->Finish();
      for (Record& r : c->records()) all.push_back(std::move(r));
    }
    return all;
  }

  int64_t backlog_max(int phase) const { return backlog_max_[phase]; }

 private:
  void Submit(Planned planned, int phase, Clock::time_point due,
              bool windowed, bool traced) {
    kcore::ServeRequest request;
    InFlight in_flight;
    in_flight.windowed = windowed;
    Record& record = in_flight.record;
    record.id = next_id_++;
    record.kind = planned.kind;
    record.arg = planned.arg;
    record.phase = phase;
    record.due = due;
    switch (planned.kind) {
      case Kind::kCoreOf:
        request.type = kcore::RequestType::kCoreOf;
        request.v = planned.arg;
        break;
      case Kind::kTopK:
        request.type = kcore::RequestType::kTopK;
        request.limit = planned.arg;
        break;
      case Kind::kSingleK:
        request.type = kcore::RequestType::kSingleK;
        request.k = planned.arg;
        break;
      case Kind::kFull:
        request.type = kcore::RequestType::kFullDecompose;
        break;
      case Kind::kUpdate:
        request.type = kcore::RequestType::kApplyUpdates;
        record.batch = stream_->batches().size();
        if (windowed) {
          request.updates = undo_next_ ? stream_->Undo() : stream_->Next();
          undo_next_ = !undo_next_;
        } else {
          request.updates = stream_->Next();
        }
        break;
    }
    if (traced && ClassOf(planned.kind) == Class::kHeavy) {
      in_flight.trace = std::make_unique<kcore::Trace>();
      request.trace = in_flight.trace.get();
    }
    const int64_t backlog = shared_->in_flight.fetch_add(1) + 1;
    backlog_max_[phase] = std::max(backlog_max_[phase], backlog);
    record.submitted = Clock::now();
    record.cpu_submitted_ms = ProcessCpuMs();
    in_flight.future = server_->Submit(std::move(request));
    collectors_[static_cast<int>(ClassOf(planned.kind))]->Push(
        std::move(in_flight));
  }

  kcore::KcoreServer* server_;
  Shared* shared_;
  UpdateStream* stream_;
  uint64_t next_id_ = 0;
  bool undo_next_ = false;
  int64_t backlog_max_[kNumPhases] = {};
  std::unique_ptr<Collector> collectors_[kNumClasses];
};

kcore::ServerOptions MakeServerOptions() {
  kcore::ServerOptions options;
  options.engine = kcore::EngineKind::kGpu;
  // Only read when a request asks for a device timeline (traced runs).
  options.engine_config.device.profile_block_spans = false;
  return options;
}

/// Checks point answers of serve_update against the snapshot of the epoch
/// they were dispatched in, and sampled snapshots plus the final one
/// against BZ on the benchmark's mirror. Returns the number of failures.
uint64_t CheckUpdateRun(const Shared& shared, const kcore::CsrGraph& initial,
                        const UpdateStream& stream,
                        std::vector<Record>& records) {
  uint64_t failures = 0;
  std::vector<Record*> order;
  for (Record& r : records) {
    if (r.status_ok && (ClassOf(r.kind) == Class::kPoint ||
                        r.kind == Kind::kUpdate)) {
      order.push_back(&r);
    }
  }
  std::sort(order.begin(), order.end(), [](const Record* a, const Record* b) {
    return a->metrics.run_order < b->metrics.run_order;
  });
  std::vector<uint32_t> snapshot = *shared.oracle;
  std::vector<std::pair<VertexId, uint32_t>> top = shared.oracle_top;
  bool top_stale = false;
  for (Record* r : order) {
    if (r->kind == Kind::kUpdate) {
      if (!r->verified || r->batch >= shared.diffs.size()) continue;
      for (const auto& [v, c] : shared.diffs[r->batch]) snapshot[v] = c;
      top_stale = true;
      continue;
    }
    if (r->kind == Kind::kCoreOf) {
      r->verified = r->arg < snapshot.size() && r->core_of == snapshot[r->arg];
    } else {
      if (top_stale) {
        top = TopK(snapshot, r->arg);
        top_stale = false;
      }
      r->verified = r->top == top;
    }
    failures += r->verified ? 0 : 1;
  }

  // Replay the stream on a fresh mirror; BZ at sampled batches and the last.
  EdgeMirror mirror(initial);
  const uint64_t used = shared.diffs.size();
  for (uint64_t b = 0; b < used; ++b) {
    mirror.Apply(stream.batches()[b]);
    const bool last = b + 1 == used;
    if (!SampledBatch(b) && !last) continue;
    const std::vector<uint32_t>* served = nullptr;
    auto it = shared.sampled_snapshots.find(b);
    if (it != shared.sampled_snapshots.end()) served = &it->second;
    if (last) served = &shared.snapshot;
    if (served == nullptr || kcore::RunBz(mirror.ToCsr()).core != *served) {
      ++failures;
    }
  }
  return failures;
}

/// serve_update's batches replayed on a benchmark-owned incremental engine
/// (the server's engine state is private), for UpdateResult counts and the
/// modeled device time per batch.
struct Replay {
  std::vector<double> apply_ms;
  std::vector<double> modeled_ms;
  std::vector<double> transfer_ms;
  std::vector<double> launches;
  uint64_t peak_device_bytes = 0;
  double affected = 0, affected_edge_share = 0, changed = 0, full = 0,
         compacted = 0, waves = 0;
  bool matches = false;
};

kcore::StatusOr<Replay> ReplayBatches(
    const kcore::CsrGraph& start_graph, const std::vector<uint32_t>& start_core,
    const std::vector<std::vector<EdgeUpdate>>& batches, uint64_t first,
    uint64_t end, const std::vector<uint32_t>* expected_final,
    SpanRecorder* spans, uint64_t* next_op) {
  Replay replay;
  KCORE_ASSIGN_OR_RETURN(
      auto engine, kcore::IncrementalCoreEngine::Create(
                       start_graph, kcore::IncrementalOptions{},
                       kcore::sim::DeviceOptions{}, &start_core));
  const double directed = 2.0 * static_cast<double>(engine->NumEdges());
  for (uint64_t b = first; b < end; ++b) {
    const Clock::time_point begin = Clock::now();
    KCORE_ASSIGN_OR_RETURN(kcore::UpdateResult result,
                           engine->ApplyUpdates(batches[b]));
    const Clock::time_point done = Clock::now();
    if (spans != nullptr) {
      const uint64_t op = (*next_op)++;
      const auto root = static_cast<int64_t>(
          spans->Add(op, "replay batch", "op", begin, done));
      spans->Add(op, "apply_updates", "core", begin, done, root);
    }
    replay.apply_ms.push_back(MsBetween(begin, done));
    replay.modeled_ms.push_back(result.metrics.modeled_ms);
    if (const kcore::sim::Device* device = engine->device()) {
      replay.transfer_ms.push_back(device->transfer_ms());
      replay.launches.push_back(
          static_cast<double>(device->totals().kernel_launches));
      replay.peak_device_bytes =
          std::max(replay.peak_device_bytes, device->peak_bytes());
    }
    replay.affected += static_cast<double>(result.affected);
    replay.affected_edge_share +=
        static_cast<double>(result.affected_edges) / directed;
    replay.changed += static_cast<double>(result.changed.size());
    replay.full += result.full_repeel ? 1 : 0;
    replay.compacted += result.compacted ? 1 : 0;
    replay.waves += static_cast<double>(result.refine_waves);
  }
  replay.matches =
      expected_final == nullptr || engine->core() == *expected_final;
  return replay;
}

std::vector<double> Latencies(const std::vector<Record>& records, int phase,
                              bool (*select)(Kind)) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (r.phase == phase && r.status_ok && select(r.kind)) {
      out.push_back(r.latency_ms());
    }
  }
  return out;
}

bool IsPoint(Kind kind) { return ClassOf(kind) == Class::kPoint; }
bool IsHeavy(Kind kind) { return ClassOf(kind) == Class::kHeavy; }
bool IsUpdate(Kind kind) { return kind == Kind::kUpdate; }

}  // namespace

Status DescribeMix(const std::string& workload, uint64_t seed, uint64_t count) {
  if (workload != "serve_read" && workload != "serve_update") {
    return Status::InvalidArgument("no request mix for workload " + workload);
  }
  const Mix mix = MixFor(workload == "serve_update");
  Planner planner(mix, seed, SpecFor(false).vertices, 40);
  uint64_t counts[5] = {0, 0, 0, 0, 0};
  for (uint64_t i = 0; i < count; ++i) {
    ++counts[static_cast<int>(planner.Next().kind)];
  }
  std::printf("{");
  for (int i = 0; i < 5; ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ", kKindNames[i],
                static_cast<unsigned long long>(counts[i]));
  }
  std::printf("}\n");
  return Status::OK();
}

Status RunServe(const Args& args, bool updates, Report* report) {
  KCORE_ASSIGN_OR_RETURN(Inputs inputs, MakeInputs(args, updates ? 3 : 2));
  const Mix mix = MixFor(updates);

  // One set-up: graph file -> CSR, server construction, the cold cache fill
  // (the first point query runs a full decomposition) and, for
  // serve_update, the incremental state seeded by a net-empty batch. Half
  // of the kSetupReps set-ups run before the measurement (the last one is
  // kept) and half after it, so the median spans the run.
  SetupTimes setup;
  std::vector<uint32_t> oracle;
  const auto set_up =
      [&](LoadedGraph* loaded,
          std::unique_ptr<kcore::KcoreServer>* server) -> Status {
    server->reset();
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuMs();
    KCORE_ASSIGN_OR_RETURN(*loaded, LoadGraphFile(inputs.path));
    const kcore::CsrGraph& g = loaded->built.graph;
    *server = std::make_unique<kcore::KcoreServer>(g, MakeServerOptions());
    kcore::ServeRequest warm;
    warm.type = kcore::RequestType::kCoreOf;
    kcore::ServeResponse cold = (*server)->Submit(std::move(warm)).get();
    kcore::ServeResponse seeded;
    if (updates) {
      VertexId partner = 1;
      const auto adjacent = g.Neighbors(0);
      while (std::find(adjacent.begin(), adjacent.end(), partner) !=
             adjacent.end()) {
        ++partner;
      }
      kcore::ServeRequest seed;
      seed.type = kcore::RequestType::kApplyUpdates;
      seed.updates = {EdgeUpdate::Insert(0, partner),
                      EdgeUpdate::Remove(0, partner)};
      seeded = (*server)->Submit(std::move(seed)).get();
    }
    setup.Add(start, cpu_start);
    if (oracle.empty()) {
      KCORE_ASSIGN_OR_RETURN(oracle, DenseOracle(inputs, loaded->built));
    }
    report->Op(cold.status.ok() && !cold.metrics.degraded,
               !cold.status.ok() || cold.core_of == oracle[0]);
    if (updates) {
      report->Op(seeded.status.ok() && !seeded.metrics.degraded,
                 !seeded.status.ok() ||
                     (seeded.update_epoch == 1 && seeded.core == oracle));
    }
    return Status::OK();
  };
  LoadedGraph loaded;
  std::unique_ptr<kcore::KcoreServer> server;
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    KCORE_RETURN_IF_ERROR(set_up(&loaded, &server));
  }
  const kcore::CsrGraph& graph = loaded.built.graph;
  // Taken here, before the benchmark's own per-request records grow with
  // the number of requests the host managed to send. Set-up's cold cache
  // fill has run a full decomposition on a fresh device by now.
  const double peak_rss_mb = PeakRssMb();
  const double bz_ms = SerialBzMs(graph);
  std::printf("%s\n", RunContextJson(args, inputs, bz_ms).c_str());

  Shared shared;
  shared.oracle = &oracle;
  shared.oracle_top = TopK(oracle, mix.topk_limit);
  shared.updates = updates;
  shared.snapshot = oracle;
  shared.last_epoch = updates ? 1 : 0;
  std::unique_ptr<UpdateStream> stream;
  if (updates) {
    stream = std::make_unique<UpdateStream>(graph, args.seed * 31 + 7,
                                            mix.batch_edges);
  }
  const uint64_t seed = args.seed * 1000003;
  Planner saturation_plan(mix, seed + 1, graph.NumVertices(), inputs.k_max);
  Planner open_plan(mix, seed + 2, graph.NumVertices(), inputs.k_max);

  // The run: saturation for a tenth of it, then the open loop. Untraced runs
  // give the open loop 60% of the run and end with the slow and point
  // closed loops (a fifth and a tenth); traced runs split the other nine
  // tenths between an untraced and a traced open loop (PlanPhases).
  const kcore::ServerStats stats_before = server->stats();
  Traffic traffic(server.get(), &shared, stream.get());
  constexpr int64_t kWindow = 32;
  ProbeHostSpeed();
  const double max_rps = traffic.Saturate(saturation_plan, 0.1 * args.seconds,
                                          kWindow, kSaturation);
  // The open loop's batches depend on the seed alone: saturation left the
  // graph as set-up built it, and the stream starts over from there.
  uint64_t open_first_batch = 0;
  if (updates) {
    stream->Restart(graph, args.seed * 31 + 8);
    open_first_batch = stream->batches().size();
  }

  const PhasePlan phases =
      PlanPhases(args, (args.trace ? 0.9 : 0.6) * args.seconds);
  const Clock::time_point untraced_begin = Clock::now();
  const double open_cpu_begin = ProcessCpuMs();
  traffic.OpenLoop(open_plan, mix.rate_per_s, phases.untraced_s, kUntraced,
                   false);
  const double open_cpu_ms = ProcessCpuMs() - open_cpu_begin;
  const Clock::time_point traced_begin = Clock::now();
  double point_cpu_ms = 0.0;
  if (args.trace) {
    traffic.OpenLoop(open_plan, mix.rate_per_s, phases.traced_s, kTraced, true);
  } else {
    Planner slow_plan(mix, seed + 3, graph.NumVertices(), inputs.k_max,
                      Draw::kSlowOnly);
    Planner point_plan(mix, seed + 4, graph.NumVertices(), inputs.k_max,
                       Draw::kPointOnly);
    traffic.Saturate(slow_plan, 0.2 * args.seconds, 1, kSlowLoop);
    const double point_cpu_begin = ProcessCpuMs();
    traffic.Saturate(point_plan, 0.1 * args.seconds, kWindow, kPointLoop);
    point_cpu_ms = ProcessCpuMs() - point_cpu_begin;
  }
  const Clock::time_point traced_end = Clock::now();
  ProbeHostSpeed();
  std::vector<Record> records = traffic.Finish();
  const kcore::ServerStats stats = server->stats();

  // Verify: inline checks for serve_read; epoch-aware checks for
  // serve_update.
  uint64_t late_failures = 0;
  if (updates) late_failures = CheckUpdateRun(shared, graph, *stream, records);
  // A degraded answer is exact but came from the CPU fallback, so it did
  // not measure the GPU path: it counts as failed, not as incorrect.
  for (const Record& r : records) {
    report->Op(r.status_ok && !r.metrics.degraded, !r.status_ok || r.verified);
  }
  if (late_failures > 0) report->correct = false;

  SpanRecorder spans(untraced_begin);
  uint64_t next_op = records.size() + 1;
  kcore::StatusOr<Replay> replay = Replay{};
  if (updates) {
    // Untraced runs replay a fixed prefix of the open loop's batches for
    // modeled_ms (a whole replay would add seconds to every run); traced
    // runs replay them all for the layer table.
    constexpr uint64_t kModeledBatches = 64;
    const uint64_t end =
        args.trace ? shared.diffs.size()
                   : std::min<uint64_t>(shared.diffs.size(),
                                        open_first_batch + kModeledBatches);
    replay = ReplayBatches(graph, oracle, stream->batches(), open_first_batch,
                           end, args.trace ? &shared.snapshot : nullptr,
                           args.trace ? &spans : nullptr, &next_op);
    if (!replay.ok()) return replay.status();
    if (!replay->matches) report->correct = false;
  }

  if (!args.trace) {
    EndToEnd e2e;
    e2e.ops_per_s = max_rps;
    const auto open_requests = static_cast<double>(
        std::count_if(records.begin(), records.end(),
                      [](const Record& r) { return r.phase == kUntraced; }));
    e2e.cpu_ms_per_op = open_cpu_ms / open_requests;
    std::vector<double> slow_cpu_ms;
    for (const Record& r : records) {
      if (r.phase == kSlowLoop) {
        slow_cpu_ms.push_back(r.cpu_answered_ms - r.cpu_submitted_ms);
      }
      e2e.light_ops += r.phase == kPointLoop ? 1 : 0;
    }
    e2e.heavy_cpu_ms = Quantile(slow_cpu_ms, 0.5);
    e2e.heavy_ops = slow_cpu_ms.size();
    e2e.light_cpu_ms = point_cpu_ms / static_cast<double>(e2e.light_ops);
    e2e.light_ms = Latencies(records, kUntraced, IsPoint);
    e2e.heavy_ms =
        Latencies(records, kUntraced, updates ? IsUpdate : IsHeavy);
    if (updates) {
      // The median batch: about a quarter of batches take the full re-peel,
      // and a mean would follow how many of those a seed happened to draw.
      e2e.modeled_ms = Quantile(replay->modeled_ms, 0.5);
    } else {
      // Per heavy request at the declared single-k/full shares. Single-k
      // answers carry their modeled time; a full decomposition's is taken
      // from one replay on a benchmark-owned device (same graph, the
      // server engine's default options).
      kcore::sim::Device device;
      kcore::GpuPeelDecomposer decomposer(&device, kcore::GpuPeelOptions{});
      KCORE_ASSIGN_OR_RETURN(kcore::DecomposeResult full,
                             decomposer.Decompose(graph));
      std::vector<double> single_k;
      for (const Record& r : records) {
        if (r.phase == kUntraced && r.status_ok && r.kind == Kind::kSingleK) {
          single_k.push_back(r.single_k_modeled_ms);
        }
      }
      e2e.modeled_ms = (1.0 - mix.full_share) * Mean(single_k) +
                       mix.full_share * full.metrics.modeled_ms;
    }
    e2e.peak_rss_mb = peak_rss_mb;
    for (int rep = kSetupReps / 2; rep < kSetupReps; ++rep) {
      LoadedGraph spare_graph;
      std::unique_ptr<kcore::KcoreServer> spare_server;
      KCORE_RETURN_IF_ERROR(set_up(&spare_graph, &spare_server));
    }
    e2e.setup = setup;
    e2e.answered_frac =
        static_cast<double>(report->attempted - report->failed) /
        static_cast<double>(report->attempted);
    return EmitEndToEnd(e2e, report);
  }

  // Layer table from the traced phase.
  LayerTable layers;
  layers.Set("graph.parse_ms", loaded.parse_ms);
  layers.Set("graph.build_ms", loaded.build_ms);
  layers.Set("graph.parse_mb_per_s", static_cast<double>(inputs.file_bytes) /
                                         1e6 / (loaded.parse_ms / 1e3));
  layers.Set("graph.edges", static_cast<double>(graph.NumUndirectedEdges()));

  std::vector<double> queue[kNumClasses], run[kNumClasses], late, unattributed;
  std::vector<double> sk_modeled, sk_wall, scan, loop, compact, rounds, copy,
      kernels;
  double busy_ms = 0.0;
  uint64_t points = 0, hits = 0, peak = 0;
  for (const Record& r : records) {
    if (r.phase != kTraced || !r.status_ok) continue;
    const int cls = static_cast<int>(ClassOf(r.kind));
    const double queue_ms = r.metrics.queue_ms;
    const double run_ms = r.metrics.run_ms;
    queue[cls].push_back(queue_ms);
    run[cls].push_back(run_ms);
    busy_ms += run_ms;
    const double late_ms = MsBetween(r.due, r.submitted);
    late.push_back(late_ms);
    unattributed.push_back(r.latency_ms() - late_ms - queue_ms - run_ms);
    if (cls == static_cast<int>(Class::kPoint)) {
      ++points;
      hits += r.metrics.cache_hit ? 1 : 0;
    }
    if (r.kind == Kind::kSingleK) {
      sk_modeled.push_back(r.single_k_modeled_ms);
      sk_wall.push_back(r.single_k_wall_ms);
    }
    if (cls == static_cast<int>(Class::kHeavy)) {
      copy.push_back(r.copy_ns / 1e6);
      kernels.push_back(r.kernel_spans);
      peak = std::max(peak, r.peak_device_bytes);
    }
    if (r.kind == Kind::kFull) {
      scan.push_back(r.scan_ns / 1e6);
      loop.push_back(r.loop_ns / 1e6);
      compact.push_back(r.compact_ns / 1e6);
      rounds.push_back(r.scan_spans);
    }
    // Spans: due -> answered, split into generator lag, queue and run.
    const auto root = static_cast<int64_t>(spans.Add(
        r.id, kKindNames[static_cast<int>(r.kind)], "op", r.due, r.answered));
    spans.Add(r.id, "generator_lag", "bench", r.due, r.submitted, root);
    spans.AddMs(r.id, "queue", "serve", r.submitted, 0.0, queue_ms, root);
    spans.AddMs(r.id, "run", "serve", r.submitted, queue_ms, queue_ms + run_ms,
                root);
  }
  for (const auto& [id, trace] : shared.kept_traces) {
    spans.AttachDevice(id, *trace);
  }
  const char* class_names[kNumClasses] = {"point", "heavy", "update"};
  for (int c = 0; c < kNumClasses; ++c) {
    layers.Set(std::string("serve.") + class_names[c] + "_queue_ms_p99",
               Quantile(queue[c], 0.99));
    layers.Set(std::string("serve.") + class_names[c] + "_run_ms_p50",
               Quantile(run[c], 0.5));
  }
  layers.Set("serve.runner_busy_frac",
             busy_ms / MsBetween(traced_begin, traced_end));
  layers.Set("serve.cache_hit_ratio",
             points == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(points));
  layers.Set("serve.backlog_max",
             static_cast<double>(traffic.backlog_max(kTraced)));
  const auto delta = [&](uint64_t kcore::ServerStats::*field) {
    return static_cast<double>(stats.*field - stats_before.*field);
  };
  layers.Set("serve.shed", delta(&kcore::ServerStats::shed));
  layers.Set("serve.degraded", delta(&kcore::ServerStats::degraded));
  layers.Set("serve.engine_failures", delta(&kcore::ServerStats::gpu_failures));
  layers.Set("serve.breaker_trips", delta(&kcore::ServerStats::breaker_trips));
  if (updates) {
    const double n = static_cast<double>(replay->apply_ms.size());
    layers.Set("core.incremental.apply_ms_p50",
               Quantile(replay->apply_ms, 0.5));
    layers.Set("core.incremental.apply_ms_p90",
               Quantile(replay->apply_ms, 0.9));
    layers.Set("core.incremental.affected_mean", replay->affected / n);
    layers.Set("core.incremental.affected_edge_share",
               replay->affected_edge_share / n);
    layers.Set("core.incremental.changed_per_affected",
               replay->affected > 0 ? replay->changed / replay->affected : 0.0);
    layers.Set("core.incremental.full_repeel_frac", replay->full / n);
    layers.Set("core.incremental.compactions", replay->compacted);
    layers.Set("core.incremental.refine_waves_mean", replay->waves / n);
    layers.Set("cusim.modeled_transfer_ms", Mean(replay->transfer_ms));
    layers.Set("cusim.kernel_launches", Mean(replay->launches));
    layers.Set("cusim.peak_device_mb",
               static_cast<double>(replay->peak_device_bytes) / (1 << 20));
  } else {
    layers.Set("core.single_k.modeled_ms", Mean(sk_modeled));
    layers.Set("core.single_k.wall_ms", Quantile(sk_wall, 0.5));
    layers.Set("core.modeled_scan_ms", Mean(scan));
    layers.Set("core.modeled_loop_ms", Mean(loop));
    layers.Set("core.modeled_compact_ms", Mean(compact));
    layers.Set("core.rounds", Mean(rounds));
    layers.Set("cusim.modeled_transfer_ms", Mean(copy));
    layers.Set("cusim.kernel_launches", Mean(kernels));
    layers.Set("cusim.peak_device_mb", static_cast<double>(peak) / (1 << 20));
  }
  layers.Set("cpu.bz_ms", bz_ms);
  layers.Set("bench.late_ms_p99", Quantile(late, 0.99));
  bool (*traced_class)(Kind) = updates ? IsUpdate : IsHeavy;
  layers.Set("bench.trace_overhead",
             Quantile(Latencies(records, kTraced, traced_class), 0.5) /
                 Quantile(Latencies(records, kUntraced, traced_class), 0.5));
  layers.Set("bench.unattributed_ms", Mean(unattributed));
  KCORE_RETURN_IF_ERROR(layers.Emit(report));
  return spans.Write(args.work_dir + "/trace_" + args.workload + "_" +
                         std::to_string(args.seed) + ".json",
                     RunContextJson(args, inputs, bz_ms));
}

}  // namespace perfbench
