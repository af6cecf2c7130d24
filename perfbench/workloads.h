// The four workloads and the metric tables they fill.
#ifndef KCORE_PERFBENCH_WORKLOADS_H_
#define KCORE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace perfbench {

/// End-to-end metrics, printed by untraced runs. Every workload fills every
/// one; README.md gives each workload's meaning of "heavy" and "light".
/// Per-op costs are process CPU time, printed scaled by the run's host
/// slowdown (HostSlowdown): on a shared host the wall clock also counts
/// other guests' load, and both clocks follow the host's speed, which moved
/// them from run to run by more than any bound allows. Unscaled CPU times
/// and wall-clock figures are printed on an information line before the
/// result, unbounded (layer_map.json, "dropped").
struct EndToEnd {
  /// setup_s is the median set-up's CPU time, scaled like the per-op costs.
  SetupTimes setup;
  double peak_rss_mb = 0.0;
  double answered_frac = 0.0;
  double modeled_ms = 0.0;
  /// Process CPU over the workload's main loop / ops it completed.
  double cpu_ms_per_op = 0.0;
  /// Process CPU per op of each class (layer_map.json says how each
  /// workload takes it), and the number of ops behind each.
  double heavy_cpu_ms = 0.0;
  double light_cpu_ms = 0.0;
  size_t heavy_ops = 0;
  size_t light_ops = 0;
  // Wall clock, information only.
  double ops_per_s = 0.0;
  std::vector<double> heavy_ms;
  std::vector<double> light_ms;
};
kcore::Status EmitEndToEnd(const EndToEnd& e2e, Report* report);

/// Per-layer metrics, printed by traced runs. Starts with every name at 0;
/// a workload sets the layers its ops cross.
class LayerTable {
 public:
  LayerTable();
  void Set(const std::string& name, double value);
  /// Sets bench.host_slowdown and adds every metric to `report`.
  kcore::Status Emit(Report* report);

 private:
  std::map<std::string, double> values_;
};

/// Set-up is repeated this many times per run, half before the measurement
/// and half after it, and the median reported. Its wall time moved with the
/// host from run to run by up to a fifth, so setup_s is CPU time.
inline constexpr int kSetupReps = 32;

/// Names and units of the per-layer metrics, in print order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricList();

/// Median wall time of three serial BZ runs over `graph` (cpu.bz_ms).
double SerialBzMs(const kcore::CsrGraph& graph);

kcore::Status RunFileDecompose(const Args& args, Report* report);
/// serve_read (`updates` false) and serve_update (`updates` true).
kcore::Status RunServe(const Args& args, bool updates, Report* report);
kcore::Status RunScaleout(const Args& args, Report* report);

/// Prints the request-class counts of `count` generated requests of a serve
/// workload's mix for `seed` (one JSON line), for the mix-share test.
kcore::Status DescribeMix(const std::string& workload, uint64_t seed,
                          uint64_t count);

/// A traced run measures `seconds` in two phases: an untraced one, whose
/// median the traced phase's median is compared against
/// (bench.trace_overhead), and the traced one the layer table comes from.
struct PhasePlan {
  double untraced_s = 0.0;
  double traced_s = 0.0;
};
PhasePlan PlanPhases(const Args& args, double seconds);

}  // namespace perfbench

#endif  // KCORE_PERFBENCH_WORKLOADS_H_
