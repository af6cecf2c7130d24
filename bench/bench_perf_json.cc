// Machine-readable perf harness: runs the GPU peeling engine over the paper
// roster and writes BENCH_gpu_peel.json so the perf trajectory (modeled_ms /
// wall_ms / operation counters) can be tracked across PRs by diffing the
// committed file. Each dataset is run with active-vertex compaction off and
// on; the harness fails if the two disagree on core numbers.
//
// A second "expand" section runs the ExpandRoster skew datasets under every
// loop-phase expansion strategy (DESIGN.md §8); the harness fails if any
// strategy's core numbers diverge from expand=warp's.
//
// A third "trace_phases" section re-runs each roster dataset once with
// simprof enabled and reports the phase breakdown derived from the trace's
// kernel spans (the cross-check that the timeline and the Metrics phase
// accumulators agree); the harness fails if any phase diverges from that
// run's own Metrics by more than 1%. The tracked compaction_on/off numbers
// above always come from unprofiled runs.
//
// A fourth "single_k" section benchmarks the direct single-k miners
// (DESIGN.md §10) against the only alternative the engine had before:
// fully decomposing and filtering at k. Both the GPU pipeline and the CPU
// Xiang cascade must reproduce the filtered membership exactly.
//
// A fifth "renumber" section runs the skew rosters with degree-ordered
// renumbering off and on and reports loop_imbalance + modeled_ms; cores
// must be bit-identical either way.
//
// A sixth "fusion" section runs each roster dataset with the fused
// scan->compact sweep off and on and reports the kernel-launch reduction;
// again the cores must match.
//
// A seventh "incremental" section is a drift guard, not a tracker: it
// re-measures the incremental-maintenance sweep cells and fails the run if
// any committed BENCH_incremental.json cell ($KCORE_BENCH_INCREMENTAL_JSON,
// else ./BENCH_incremental.json) drifts by more than 15%; absent committed
// file = loud skip. BENCH_incremental.json itself is written by
// bench_incremental, never by this harness. Every guard runs and prints its
// verdict before a failing one fails the run (exit 1, nothing written).
//
// An eighth "cluster" section is the same kind of check-only drift guard
// over the committed BENCH_cluster.json ($KCORE_BENCH_CLUSTER_JSON, else
// ./BENCH_cluster.json): every committed (dataset, nodes, partition) cell's
// modeled_ms is re-measured with RunClusterPeel and must stay within 15%.
// BENCH_cluster.json itself is written by bench_cluster, never by this
// harness.
//
// Output path: argv[1] if given, else $KCORE_BENCH_JSON_PATH, else
// ./BENCH_gpu_peel.json. Respects KCORE_BENCH_MAX_EDGES.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_support.h"
#include "cluster/cluster_peel.h"
#include "cluster/partition.h"
#include "common/strings.h"
#include "core/gpu_peel.h"
#include "cpu/xiang.h"
#include "perf/trace.h"

namespace {

using namespace kcore;
using namespace kcore::bench;

std::string U64(uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}

/// One run's metrics as a JSON object (modeled time first — the tracked
/// number; wall_ms is the host's simulation time and is machine-noisy).
std::string MetricsJson(const Metrics& m) {
  const PerfCounters& c = m.counters;
  std::string json = "{";
  json += StrFormat("\"modeled_ms\": %.4f, ", m.modeled_ms);
  json += StrFormat("\"scan_ms\": %.4f, ", m.scan_ms);
  json += StrFormat("\"loop_ms\": %.4f, ", m.loop_ms);
  json += StrFormat("\"compact_ms\": %.4f, ", m.compact_ms);
  json += StrFormat("\"wall_ms\": %.2f, ", m.wall_ms);
  json += "\"peak_device_bytes\": " + U64(m.peak_device_bytes) + ", ";
  json += StrFormat("\"rounds\": %u, ", m.rounds);
  json += StrFormat("\"loop_imbalance\": %.3f, ", m.loop_imbalance);
  json += "\"counters\": {";
  json += "\"loop_bin_thread\": " + U64(c.loop_bin_thread) + ", ";
  json += "\"loop_bin_warp\": " + U64(c.loop_bin_warp) + ", ";
  json += "\"loop_bin_block\": " + U64(c.loop_bin_block) + ", ";
  json += "\"kernel_launches\": " + U64(c.kernel_launches) + ", ";
  json += "\"vertices_scanned\": " + U64(c.vertices_scanned) + ", ";
  json += "\"scan_vertices_skipped\": " + U64(c.scan_vertices_skipped) + ", ";
  json += "\"compactions\": " + U64(c.compactions) + ", ";
  json += "\"edges_traversed\": " + U64(c.edges_traversed) + ", ";
  json += "\"buffer_appends\": " + U64(c.buffer_appends) + ", ";
  json += "\"global_reads\": " + U64(c.global_reads) + ", ";
  json += "\"global_writes\": " + U64(c.global_writes) + ", ";
  json += "\"global_atomics\": " + U64(c.global_atomics) + ", ";
  json += "\"shared_ops\": " + U64(c.shared_ops) + ", ";
  json += "\"shared_atomics\": " + U64(c.shared_atomics) + ", ";
  json += "\"barriers\": " + U64(c.barriers);
  json += "}}";
  return json;
}

/// The whole file at `path`, or "" when it cannot be read.
std::string ReadFileOrEmpty(const std::string& path) {
  std::string text;
  if (std::FILE* in = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      text.append(buf, got);
    }
    std::fclose(in);
  }
  return text;
}

/// Parses the number after the first `key` in text[from, until) into *out.
bool FindNumber(const std::string& text, size_t from, const char* key,
                size_t until, double* out) {
  const size_t at = text.find(key, from);
  if (at == std::string::npos || at >= until) return false;
  *out = std::strtod(text.c_str() + at + std::strlen(key), nullptr);
  return true;
}

/// Relative disagreement between a trace-derived phase total and the engine's
/// own Metrics accumulator, tolerant of both being ~0.
bool PhaseMismatch(double trace_ms, double metrics_ms) {
  const double scale = std::max(std::abs(metrics_ms), 1e-6);
  return std::abs(trace_ms - metrics_ms) > 0.01 * scale;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_gpu_peel.json";
  if (argc > 1) {
    path = argv[1];
  } else if (const char* env = std::getenv("KCORE_BENCH_JSON_PATH")) {
    path = env;
  }
  const uint64_t max_edges = MaxEdgesFromEnv();

  std::string json = "{\n  \"bench\": \"gpu_peel\",\n";
  json += "  \"device\": \"scaled_p100\",\n  \"variant\": \"Ours\",\n";
  json += "  \"datasets\": [\n";

  bool first = true;
  for (const DatasetSpec& spec : PaperRoster()) {
    auto graph = LoadOrGenerateDataset(spec, DefaultCacheDir());
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    if (max_edges != 0 && graph->NumUndirectedEdges() > max_edges) continue;

    GpuPeelOptions on = GpuPeelOptions::Ours();
    on.buffer_capacity = ScaledBufferCapacity(*graph);
    auto on_result = RunGpuPeel(*graph, on, ScaledP100Options());
    auto off_result =
        RunGpuPeel(*graph, on.WithoutCompaction(), ScaledP100Options());
    if (!on_result.ok() || !off_result.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   (!on_result.ok() ? on_result : off_result)
                       .status()
                       .ToString()
                       .c_str());
      return 1;
    }
    if (on_result->core != off_result->core) {
      std::fprintf(stderr, "%s: compaction on/off core numbers diverge\n",
                   spec.name.c_str());
      return 1;
    }

    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"" + spec.name + "\", ";
    json += "\"vertices\": " + U64(graph->NumVertices()) + ", ";
    json += "\"edges\": " + U64(graph->NumUndirectedEdges()) + ", ";
    json += StrFormat("\"kmax\": %u,\n", on_result->MaxCore());
    json += "     \"compaction_off\": " + MetricsJson(off_result->metrics) +
            ",\n";
    json += "     \"compaction_on\": " + MetricsJson(on_result->metrics);
    json += "}";
  }
  json += "\n  ],\n  \"expand\": [\n";

  static const ExpandStrategy kStrategies[] = {
      ExpandStrategy::kWarp, ExpandStrategy::kAuto, ExpandStrategy::kThread,
      ExpandStrategy::kBlock};
  first = true;
  for (const DatasetSpec& spec : ExpandRoster()) {
    auto graph = LoadOrGenerateDataset(spec, DefaultCacheDir());
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    if (max_edges != 0 && graph->NumUndirectedEdges() > max_edges) continue;

    GpuPeelOptions base = GpuPeelOptions::Ours();
    base.buffer_capacity = ScaledBufferCapacity(*graph);

    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"" + spec.name + "\", ";
    json += "\"vertices\": " + U64(graph->NumVertices()) + ", ";
    json += "\"edges\": " + U64(graph->NumUndirectedEdges()) + ", ";

    std::vector<uint32_t> warp_core;
    bool first_strategy = true;
    for (ExpandStrategy strategy : kStrategies) {
      auto result =
          RunGpuPeel(*graph, base.WithExpand(strategy), ScaledP100Options());
      if (!result.ok()) {
        std::fprintf(stderr, "%s expand=%s: %s\n", spec.name.c_str(),
                     ExpandStrategyName(strategy),
                     result.status().ToString().c_str());
        return 1;
      }
      if (strategy == ExpandStrategy::kWarp) {
        warp_core = result->core;
        json += StrFormat("\"kmax\": %u,\n", result->MaxCore());
      } else if (result->core != warp_core) {
        std::fprintf(stderr, "%s: expand=%s core numbers diverge from warp\n",
                     spec.name.c_str(), ExpandStrategyName(strategy));
        return 1;
      }
      if (!first_strategy) json += ",\n";
      first_strategy = false;
      json += StrFormat("     \"expand_%s\": ", ExpandStrategyName(strategy)) +
              MetricsJson(result->metrics);
    }
    json += "}";
  }
  json += "\n  ],\n  \"trace_phases\": [\n";

  first = true;
  for (const DatasetSpec& spec : PaperRoster()) {
    auto graph = LoadOrGenerateDataset(spec, DefaultCacheDir());
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    if (max_edges != 0 && graph->NumUndirectedEdges() > max_edges) continue;

    GpuPeelOptions options = GpuPeelOptions::Ours();
    options.buffer_capacity = ScaledBufferCapacity(*graph);
    sim::DeviceOptions device_options = ScaledP100Options();
    device_options.profile = true;
    sim::Device device(device_options);
    GpuPeelDecomposer decomposer(&device, options);
    auto result = decomposer.Decompose(*graph);
    if (!result.ok()) {
      std::fprintf(stderr, "%s (profiled): %s\n", spec.name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    const Trace& trace = device.profiler()->trace();
    const double scan_ms = trace.TotalDurNs(kTraceCatKernel, "scan") / 1e6;
    const double loop_ms = trace.TotalDurNs(kTraceCatKernel, "loop") / 1e6;
    const double compact_ms =
        trace.TotalDurNs(kTraceCatKernel, "compact") / 1e6;
    const Metrics& m = result->metrics;
    if (PhaseMismatch(scan_ms, m.scan_ms) ||
        PhaseMismatch(loop_ms, m.loop_ms) ||
        PhaseMismatch(compact_ms, m.compact_ms)) {
      std::fprintf(stderr,
                   "%s: trace phase totals diverge from Metrics "
                   "(scan %.4f vs %.4f, loop %.4f vs %.4f, "
                   "compact %.4f vs %.4f ms)\n",
                   spec.name.c_str(), scan_ms, m.scan_ms, loop_ms, m.loop_ms,
                   compact_ms, m.compact_ms);
      return 1;
    }

    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"" + spec.name + "\", ";
    json += "\"trace_events\": " + U64(trace.num_events()) + ", ";
    json += StrFormat("\"scan_ms\": %.4f, ", scan_ms);
    json += StrFormat("\"loop_ms\": %.4f, ", loop_ms);
    json += StrFormat("\"compact_ms\": %.4f, ", compact_ms);
    json += StrFormat("\"modeled_ms\": %.4f", m.modeled_ms);
    json += "}";
  }
  json += "\n  ],\n  \"single_k\": [\n";

  first = true;
  for (const DatasetSpec& spec : PaperRoster()) {
    auto graph = LoadOrGenerateDataset(spec, DefaultCacheDir());
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    if (max_edges != 0 && graph->NumUndirectedEdges() > max_edges) continue;

    GpuPeelOptions options = GpuPeelOptions::Ours();
    options.buffer_capacity = ScaledBufferCapacity(*graph);
    auto full = RunGpuPeel(*graph, options, ScaledP100Options());
    if (!full.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   full.status().ToString().c_str());
      return 1;
    }
    // Query the mid-shell: high enough that most of the graph is pruned,
    // low enough that the core is non-trivial on every roster graph.
    const uint32_t k = std::max<uint32_t>(2, (full->MaxCore() + 1) / 2);
    std::vector<uint8_t> filtered(full->core.size(), 0);
    uint64_t core_size = 0;
    for (size_t v = 0; v < full->core.size(); ++v) {
      filtered[v] = full->core[v] >= k;
      core_size += filtered[v];
    }

    auto direct = RunGpuSingleKCore(*graph, k, options, ScaledP100Options());
    if (!direct.ok()) {
      std::fprintf(stderr, "%s single-k: %s\n", spec.name.c_str(),
                   direct.status().ToString().c_str());
      return 1;
    }
    const SingleKCoreResult cpu = XiangSingleKCore(*graph, k);
    if (direct->in_core != filtered || cpu.in_core != filtered) {
      std::fprintf(stderr,
                   "%s: single-k membership diverges from full-peel filter "
                   "at k=%u\n",
                   spec.name.c_str(), k);
      return 1;
    }

    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"" + spec.name + "\", ";
    json += StrFormat("\"k\": %u, ", k);
    json += StrFormat("\"kmax\": %u, ", full->MaxCore());
    json += "\"core_size\": " + U64(core_size) + ", ";
    json += StrFormat("\"speedup_vs_full_peel\": %.2f,\n",
                      full->metrics.modeled_ms /
                          std::max(direct->metrics.modeled_ms, 1e-9));
    json += "     \"full_peel_filter\": " + MetricsJson(full->metrics) +
            ",\n";
    json += "     \"gpu_direct\": " + MetricsJson(direct->metrics) + ",\n";
    json += "     \"cpu_xiang\": " + MetricsJson(cpu.metrics);
    json += "}";
  }
  json += "\n  ],\n  \"renumber\": [\n";

  first = true;
  for (const DatasetSpec& spec : ExpandRoster()) {
    auto graph = LoadOrGenerateDataset(spec, DefaultCacheDir());
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    if (max_edges != 0 && graph->NumUndirectedEdges() > max_edges) continue;

    GpuPeelOptions off_options = GpuPeelOptions::Ours();
    off_options.buffer_capacity = ScaledBufferCapacity(*graph);
    auto off = RunGpuPeel(*graph, off_options, ScaledP100Options());
    auto on =
        RunGpuPeel(*graph, off_options.WithRenumber(), ScaledP100Options());
    if (!off.ok() || !on.ok()) {
      std::fprintf(stderr, "%s renumber: %s\n", spec.name.c_str(),
                   (!off.ok() ? off : on).status().ToString().c_str());
      return 1;
    }
    if (on->core != off->core) {
      std::fprintf(stderr, "%s: renumber on/off core numbers diverge\n",
                   spec.name.c_str());
      return 1;
    }

    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"" + spec.name + "\", ";
    json += StrFormat("\"kmax\": %u,\n", on->MaxCore());
    json += "     \"renumber_off\": " + MetricsJson(off->metrics) + ",\n";
    json += "     \"renumber_on\": " + MetricsJson(on->metrics);
    json += "}";
  }
  json += "\n  ],\n  \"fusion\": [\n";

  first = true;
  for (const DatasetSpec& spec : PaperRoster()) {
    auto graph = LoadOrGenerateDataset(spec, DefaultCacheDir());
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    if (max_edges != 0 && graph->NumUndirectedEdges() > max_edges) continue;

    GpuPeelOptions unfused = GpuPeelOptions::Ours();
    unfused.buffer_capacity = ScaledBufferCapacity(*graph);
    auto off = RunGpuPeel(*graph, unfused, ScaledP100Options());
    auto on = RunGpuPeel(*graph, unfused.WithFusion(), ScaledP100Options());
    if (!off.ok() || !on.ok()) {
      std::fprintf(stderr, "%s fusion: %s\n", spec.name.c_str(),
                   (!off.ok() ? off : on).status().ToString().c_str());
      return 1;
    }
    if (on->core != off->core) {
      std::fprintf(stderr, "%s: fusion on/off core numbers diverge\n",
                   spec.name.c_str());
      return 1;
    }
    const uint64_t before = off->metrics.counters.kernel_launches;
    const uint64_t after = on->metrics.counters.kernel_launches;

    if (!first) json += ",\n";
    first = false;
    json += "    {\"name\": \"" + spec.name + "\", ";
    json += StrFormat("\"kmax\": %u, ", on->MaxCore());
    json += "\"launches_unfused\": " + U64(before) + ", ";
    json += "\"launches_fused\": " + U64(after) + ", ";
    json += StrFormat(
        "\"launch_reduction_pct\": %.1f,\n",
        before == 0 ? 0.0 : 100.0 * (before - after) / double(before));
    json += "     \"fused_off\": " + MetricsJson(off->metrics) + ",\n";
    json += "     \"fused_on\": " + MetricsJson(on->metrics);
    json += "}";
  }
  json += "\n  ],\n  \"incremental\": ";
  // Set by a drift guard that fails; checked once both guards have run.
  bool guard_failed = false;

  // ---- Seventh section: incremental-maintenance drift guard -------------
  // Re-measures the per-cell mean modeled ms of the incremental sweeps and
  // compares them against the committed BENCH_incremental.json
  // ($KCORE_BENCH_INCREMENTAL_JSON, else ./BENCH_incremental.json). The
  // committed file is produced by bench_incremental; this guard fails the
  // run when any committed cell drifts by more than 15% — regenerate
  // BENCH_incremental.json alongside the change that moved it. Skipped
  // loudly (and recorded in the JSON) when the committed file is absent,
  // e.g. when writing to a scratch directory. The sweeps are deterministic
  // (fixed seeds, modeled time), so an in-tolerance rerun is the normal
  // outcome. This section only checks; the tracked peel numbers above are
  // untouched by it.
  {
    std::string inc_path = "BENCH_incremental.json";
    if (const char* env = std::getenv("KCORE_BENCH_INCREMENTAL_JSON")) {
      inc_path = env;
    }
    const std::string committed = ReadFileOrEmpty(inc_path);
    if (committed.empty()) {
      std::fprintf(stderr,
                   "incremental drift guard: %s not found, skipping\n",
                   inc_path.c_str());
      json += "{\"guard\": \"skipped\", \"reason\": \"no committed file\"}";
    } else {
      // Scan the machine-written committed file for
      //   {"name": "<dataset>", ... "sweeps": [{"batch": N,
      //    "mean_batch_ms": M, ...}, ...]}
      // and re-measure every cell whose dataset is in the (possibly
      // capped) roster.
      uint64_t cells_checked = 0;
      double max_drift = 0.0;
      bool drifted = false;
      json += "{\"guard\": \"checked\", \"tolerance\": 0.15, \"cells\": [\n";
      bool first_cell = true;
      for (const DatasetSpec& spec : PaperRoster()) {
        const std::string tag = "{\"name\": \"" + spec.name + "\"";
        const size_t entry = committed.find(tag);
        if (entry == std::string::npos) continue;
        const size_t entry_end = committed.find("]}", entry);
        if (entry_end == std::string::npos) continue;
        double committed_edges = 0.0;
        if (FindNumber(committed, entry, "\"edges\": ", entry_end,
                       &committed_edges) &&
            max_edges != 0 && committed_edges > static_cast<double>(max_edges)) {
          continue;
        }
        auto graph = LoadOrGenerateDataset(spec, DefaultCacheDir());
        if (!graph.ok()) {
          std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                       graph.status().ToString().c_str());
          return 1;
        }
        size_t cursor = committed.find("\"sweeps\"", entry);
        while (cursor != std::string::npos && cursor < entry_end) {
          const size_t cell = committed.find("{\"batch\": ", cursor);
          if (cell == std::string::npos || cell >= entry_end) break;
          double batch = 0.0;
          double committed_ms = 0.0;
          if (!FindNumber(committed, cell, "\"batch\": ", entry_end,
                          &batch) ||
              !FindNumber(committed, cell, "\"mean_batch_ms\": ", entry_end,
                          &committed_ms)) {
            break;
          }
          IncrementalSweepResult sweep;
          const auto batch_size = static_cast<size_t>(batch);
          if (!RunIncrementalSweep(*graph, batch_size, /*full_peel_ms=*/0.0,
                                   500 + batch_size, &sweep)) {
            std::fprintf(stderr, "%s: drift-guard sweep batch=%zu failed\n",
                         spec.name.c_str(), batch_size);
            return 1;
          }
          const double scale = std::max(committed_ms, 1e-6);
          const double drift =
              std::abs(sweep.mean_batch_ms - committed_ms) / scale;
          max_drift = std::max(max_drift, drift);
          ++cells_checked;
          if (drift > 0.15) {
            drifted = true;
            std::fprintf(stderr,
                         "incremental drift: %s batch=%zu committed %.4f ms "
                         "vs measured %.4f ms (%.1f%%)\n",
                         spec.name.c_str(), batch_size, committed_ms,
                         sweep.mean_batch_ms, 100.0 * drift);
          }
          if (!first_cell) json += ",\n";
          first_cell = false;
          json += StrFormat(
              "    {\"name\": \"%s\", \"batch\": %zu, "
              "\"committed_ms\": %.4f, \"measured_ms\": %.4f, "
              "\"drift_pct\": %.1f}",
              spec.name.c_str(), batch_size, committed_ms,
              sweep.mean_batch_ms,
              100.0 * std::abs(sweep.mean_batch_ms - committed_ms) / scale);
          cursor = cell + 1;
        }
      }
      json += StrFormat(
          "\n  ], \"cells_checked\": %llu, \"max_drift_pct\": %.1f}",
          static_cast<unsigned long long>(cells_checked),
          100.0 * max_drift);
      if (drifted) {
        guard_failed = true;
        std::fprintf(stderr,
                     "incremental drift guard failed: regenerate "
                     "BENCH_incremental.json (tolerance 15%%)\n");
      } else {
        std::printf("incremental drift guard: %llu cells within 15%% (max "
                    "drift %.1f%%)\n",
                    static_cast<unsigned long long>(cells_checked),
                    100.0 * max_drift);
      }
    }
  }
  json += ",\n  \"cluster\": ";

  // ---- Eighth section: simulated-cluster drift guard --------------------
  // Re-measures every committed (dataset, nodes, partition) cell of
  // BENCH_cluster.json and fails on > 15% modeled-ms drift. The cluster
  // clock is deterministic, so an in-tolerance rerun is the normal outcome;
  // regenerate BENCH_cluster.json (bench_cluster) alongside any change that
  // moves it. Check-only, like the incremental guard above.
  {
    std::string cluster_path = "BENCH_cluster.json";
    if (const char* env = std::getenv("KCORE_BENCH_CLUSTER_JSON")) {
      cluster_path = env;
    }
    const std::string committed = ReadFileOrEmpty(cluster_path);
    if (committed.empty()) {
      std::fprintf(stderr, "cluster drift guard: %s not found, skipping\n",
                   cluster_path.c_str());
      json += "{\"guard\": \"skipped\", \"reason\": \"no committed file\"}";
    } else {
      uint64_t cells_checked = 0;
      double max_drift = 0.0;
      bool drifted = false;
      json += "{\"guard\": \"checked\", \"tolerance\": 0.15, \"cells\": [\n";
      bool first_cell = true;
      for (const DatasetSpec& spec : ClusterRoster()) {
        const std::string tag = "{\"name\": \"" + spec.name + "\"";
        const size_t entry = committed.find(tag);
        if (entry == std::string::npos) continue;
        const size_t entry_end = committed.find("]}", entry);
        if (entry_end == std::string::npos) continue;
        double committed_edges = 0.0;
        if (FindNumber(committed, entry, "\"edges\": ", entry_end,
                       &committed_edges) &&
            max_edges != 0 &&
            committed_edges > static_cast<double>(max_edges)) {
          continue;
        }
        auto graph = LoadOrGenerateDataset(spec, DefaultCacheDir());
        if (!graph.ok()) {
          std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                       graph.status().ToString().c_str());
          return 1;
        }
        size_t cursor = committed.find("\"cells\"", entry);
        while (cursor != std::string::npos && cursor < entry_end) {
          const size_t cell = committed.find("{\"nodes\": ", cursor);
          if (cell == std::string::npos || cell >= entry_end) break;
          double nodes = 0.0;
          double committed_ms = 0.0;
          const size_t name_at = committed.find("\"partition\": \"", cell);
          if (!FindNumber(committed, cell, "\"nodes\": ", entry_end,
                          &nodes) ||
              !FindNumber(committed, cell, "\"modeled_ms\": ", entry_end,
                          &committed_ms) ||
              name_at == std::string::npos || name_at >= entry_end) {
            break;
          }
          const size_t name_from = name_at + std::strlen("\"partition\": \"");
          const size_t name_to = committed.find('"', name_from);
          const std::string partition_token =
              committed.substr(name_from, name_to - name_from);
          ClusterOptions options;
          options.num_nodes = static_cast<uint32_t>(nodes);
          if (!ParsePartitionStrategy(partition_token, &options.partition)) {
            std::fprintf(stderr,
                         "cluster drift guard: bad partition token \"%s\" "
                         "in %s\n",
                         partition_token.c_str(), cluster_path.c_str());
            return 1;
          }
          auto result = RunClusterPeel(*graph, options);
          if (!result.ok()) {
            std::fprintf(stderr, "%s: drift-guard nodes=%u %s: %s\n",
                         spec.name.c_str(), options.num_nodes,
                         partition_token.c_str(),
                         result.status().ToString().c_str());
            return 1;
          }
          const double measured_ms = result->metrics.modeled_ms;
          const double scale = std::max(committed_ms, 1e-6);
          const double drift = std::abs(measured_ms - committed_ms) / scale;
          max_drift = std::max(max_drift, drift);
          ++cells_checked;
          if (drift > 0.15) {
            drifted = true;
            std::fprintf(stderr,
                         "cluster drift: %s nodes=%u %s committed %.4f ms "
                         "vs measured %.4f ms (%.1f%%)\n",
                         spec.name.c_str(), options.num_nodes,
                         partition_token.c_str(), committed_ms, measured_ms,
                         100.0 * drift);
          }
          if (!first_cell) json += ",\n";
          first_cell = false;
          json += StrFormat(
              "    {\"name\": \"%s\", \"nodes\": %u, \"partition\": \"%s\", "
              "\"committed_ms\": %.4f, \"measured_ms\": %.4f, "
              "\"drift_pct\": %.1f}",
              spec.name.c_str(), options.num_nodes, partition_token.c_str(),
              committed_ms, measured_ms, 100.0 * drift);
          cursor = cell + 1;
        }
      }
      json += StrFormat(
          "\n  ], \"cells_checked\": %llu, \"max_drift_pct\": %.1f}",
          static_cast<unsigned long long>(cells_checked),
          100.0 * max_drift);
      if (drifted) {
        guard_failed = true;
        std::fprintf(stderr,
                     "cluster drift guard failed: regenerate "
                     "BENCH_cluster.json (tolerance 15%%)\n");
      } else {
        std::printf("cluster drift guard: %llu cells within 15%% (max "
                    "drift %.1f%%)\n",
                    static_cast<unsigned long long>(cells_checked),
                    100.0 * max_drift);
      }
    }
  }
  json += "\n}\n";
  if (guard_failed) {
    std::fprintf(stderr, "drift guards failed: %s not written\n",
                 path.c_str());
    return 1;
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
