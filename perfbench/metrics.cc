#include <cstdio>
#include <cstdlib>

#include "cpu/bz.h"
#include "workloads.h"

namespace perfbench {

using kcore::Status;

const std::vector<std::pair<std::string, std::string>>& LayerMetricList() {
  using List = std::vector<std::pair<std::string, std::string>>;
  static const List* list = new List{
      {"graph.parse_ms", "ms"},
      {"graph.build_ms", "ms"},
      {"graph.parse_mb_per_s", "MB/s"},
      {"graph.edges", "count"},
      {"cusim.device_setup_ms", "ms"},
      {"cusim.modeled_transfer_ms", "ms"},
      {"cusim.peak_device_mb", "MB"},
      {"cusim.kernel_launches", "count"},
      {"core.peel_ms", "ms"},
      {"core.modeled_scan_ms", "ms"},
      {"core.modeled_loop_ms", "ms"},
      {"core.modeled_compact_ms", "ms"},
      {"core.rounds", "count"},
      {"core.edges_traversed", "count"},
      {"core.vertices_scanned", "count"},
      {"core.scan_yield", "ratio"},
      {"core.global_atomics", "count"},
      {"core.wall_per_modeled", "ratio"},
      {"core.single_k.modeled_ms", "ms"},
      {"core.single_k.wall_ms", "ms"},
      {"core.incremental.apply_ms_p50", "ms"},
      {"core.incremental.apply_ms_p90", "ms"},
      {"core.incremental.affected_mean", "count"},
      {"core.incremental.affected_edge_share", "ratio"},
      {"core.incremental.changed_per_affected", "ratio"},
      {"core.incremental.full_repeel_frac", "ratio"},
      {"core.incremental.compactions", "count"},
      {"core.incremental.refine_waves_mean", "count"},
      {"core.multigpu.modeled_ms", "ms"},
      {"core.multigpu.rounds", "count"},
      {"cluster.modeled_ms", "ms"},
      {"cluster.comm_modeled_ms", "ms"},
      {"cluster.comm_share", "ratio"},
      {"cluster.comm_bytes", "bytes"},
      {"cluster.comm_messages", "count"},
      {"serve.point_queue_ms_p99", "ms"},
      {"serve.heavy_queue_ms_p99", "ms"},
      {"serve.update_queue_ms_p99", "ms"},
      {"serve.point_run_ms_p50", "ms"},
      {"serve.heavy_run_ms_p50", "ms"},
      {"serve.update_run_ms_p50", "ms"},
      {"serve.runner_busy_frac", "ratio"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.backlog_max", "count"},
      {"serve.shed", "count"},
      {"serve.degraded", "count"},
      {"serve.engine_failures", "count"},
      {"serve.breaker_trips", "count"},
      {"cpu.bz_ms", "ms"},
      {"bench.late_ms_p99", "ms"},
      {"bench.trace_overhead", "ratio"},
      {"bench.unattributed_ms", "ms"},
      {"bench.host_slowdown", "ratio"},
  };
  return *list;
}

Status EmitEndToEnd(const EndToEnd& e2e, Report* report) {
  KCORE_ASSIGN_OR_RETURN(const double slowdown, HostSlowdown());
  const double setup_cpu_ms = Quantile(e2e.setup.cpu_ms, 0.5);
  std::printf(
      "{\"samples\": {\"heavy\": %zu, \"light\": %zu}, \"host_slowdown\": "
      "%.6g, \"cpu_ms\": {\"setup\": %.6g, \"per_op\": %.6g, \"heavy\": "
      "%.6g, \"light\": %.6g}, \"wall\": {\"setup_ms\": %.6g, "
      "\"ops_per_s\": %.6g, \"heavy_ms_p50\": %.6g, \"light_ms_p50\": "
      "%.6g}}\n",
      e2e.heavy_ops, e2e.light_ops, slowdown, setup_cpu_ms,
      e2e.cpu_ms_per_op, e2e.heavy_cpu_ms, e2e.light_cpu_ms,
      Quantile(e2e.setup.wall_ms, 0.5), e2e.ops_per_s,
      Quantile(e2e.heavy_ms, 0.5), Quantile(e2e.light_ms, 0.5));
  report->Add("setup_s", setup_cpu_ms / slowdown / 1e3, "s");
  report->Add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report->Add("answered_frac", e2e.answered_frac, "fraction");
  report->Add("modeled_ms", e2e.modeled_ms, "ms");
  report->Add("cpu_ms_per_op", e2e.cpu_ms_per_op / slowdown, "ref_ms");
  report->Add("heavy_cpu_ms", e2e.heavy_cpu_ms / slowdown, "ref_ms");
  report->Add("light_cpu_ms", e2e.light_cpu_ms / slowdown, "ref_ms");
  return Status::OK();
}

LayerTable::LayerTable() {
  for (const auto& [name, unit] : LayerMetricList()) values_[name] = 0.0;
}

void LayerTable::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  it->second = value;
}

Status LayerTable::Emit(Report* report) {
  KCORE_ASSIGN_OR_RETURN(const double slowdown, HostSlowdown());
  Set("bench.host_slowdown", slowdown);
  for (const auto& [name, unit] : LayerMetricList()) {
    report->Add(name, values_.at(name), unit);
  }
  return Status::OK();
}

double SerialBzMs(const kcore::CsrGraph& graph) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    const kcore::DecomposeResult result = kcore::RunBz(graph);
    ms.push_back(MsBetween(start, Clock::now()));
  }
  return Quantile(ms, 0.5);
}

PhasePlan PlanPhases(const Args& args, double seconds) {
  if (!args.trace) return {seconds, 0.0};
  return {0.4 * seconds, 0.6 * seconds};
}

}  // namespace perfbench
