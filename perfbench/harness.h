// Shared pieces of the repository benchmark: arguments, generated inputs,
// the BZ oracle, timing statistics, the span recorder behind the traced run,
// and the result line every workload prints.
#ifndef KCORE_PERFBENCH_HARNESS_H_
#define KCORE_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"
#include "graph/graph_builder.h"
#include "perf/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// CPU time this process has used so far, over all its threads (user and
/// system), in ms. Time the hypervisor gives to other guests (steal) and
/// time spent waiting for a CPU are not counted.
double ProcessCpuMs();

/// Wall and process CPU time of each set-up of a run.
struct SetupTimes {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;

  /// Records one set-up that began at `start`, when the process had used
  /// `cpu_start` ms of CPU.
  void Add(Clock::time_point start, double cpu_start) {
    wall_ms.push_back(MsBetween(start, Clock::now()));
    cpu_ms.push_back(ProcessCpuMs() - cpu_start);
  }
};

/// Host speed probe. On a shared host a core's speed drifts by 10-20% for
/// minutes at a time with its neighbours' load, and CPU time drifts with
/// it. The workloads call ProbeHostSpeed just before and just after their
/// measurement, while the program is idle; it times a fixed integer loop in
/// the calling thread's CPU time for half a second. The median sample over
/// the run divided by kProbeNominalMs is the run's host slowdown, and the
/// bounded CPU times are divided by it: scaled to a host of the nominal
/// speed. The probe's own CPU time falls outside every measured interval.
void ProbeHostSpeed();
kcore::StatusOr<double> HostSlowdown();
/// A constant near the probe's median on the host the benchmark was built
/// on (4-vCPU Xeon, Sapphire Rapids); it only sets the scale of ref_ms.
inline constexpr double kProbeNominalMs = 2.6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the generated edge-list file and the span trace are written.
  std::string work_dir = ".bench_build/perfbench/work";
  /// Tiny inputs and short phases: the smoke test's size.
  bool tiny = false;
};

/// Generator parameters of the benchmark graph: a Chung–Lu power-law graph
/// with a planted dense core (k_max in the 40s at full size). The full size
/// keeps an op's working set near one core's L2 cache: on a shared host,
/// larger graphs slowed by up to a third whenever neighbours loaded the
/// shared cache and memory.
struct GraphSpec {
  uint32_t vertices = 0;
  uint64_t edges = 0;
  double exponent = 2.5;
  uint32_t core_size = 0;
  double core_density = 0.0;
};
GraphSpec SpecFor(bool tiny);

/// Everything derived from the seed before any timed work: the edge list in
/// its generated ids, the text file the program parses, and the BZ oracle.
struct Inputs {
  GraphSpec spec;
  kcore::EdgeList edges;
  std::string path;
  uint64_t file_bytes = 0;
  /// BZ core number per generated vertex id.
  std::vector<uint32_t> oracle_by_id;
  uint32_t k_max = 0;
};
kcore::StatusOr<Inputs> MakeInputs(const Args& args, uint64_t salt);

/// A graph loaded through the program's public path: LoadEdgeListText then
/// BuildGraph, each timed.
struct LoadedGraph {
  kcore::BuiltGraph built;
  double parse_ms = 0.0;
  double build_ms = 0.0;
};
kcore::StatusOr<LoadedGraph> LoadGraphFile(const std::string& path);

/// The oracle in the dense ids BuildGraph assigned; fails when the built
/// graph's vertex set is not the generated graph's non-isolated vertices.
kcore::StatusOr<std::vector<uint32_t>> DenseOracle(
    const Inputs& inputs, const kcore::BuiltGraph& built);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// One line of the result: a metric's name, value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one op: `answered` false (failed, shed, expired, degraded to
  /// the CPU fallback) counts it as failed; `matches` false (the answer
  /// differs from the oracle) also makes the run incorrect.
  void Op(bool answered, bool matches) {
    ++attempted;
    if (!answered || !matches) ++failed;
    if (!matches) correct = false;
  }
  std::string ToJson() const;
};

/// Machine and build facts printed with every result.
std::string RunContextJson(const Args& args, const Inputs& inputs,
                           double bz_ms);

/// Spans recorded in the benchmark's own code around each layer call. All
/// spans of one op share its id; a span's parent is the op span. Kept in
/// memory and written once at the end as a chrome://tracing file through
/// kcore::Trace. Device timelines (modeled clock) returned by the program
/// are attached under their op as a separate process track.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  /// Records [start, end) and returns its index.
  size_t Add(uint64_t op, std::string name, std::string layer,
             Clock::time_point start, Clock::time_point end,
             int64_t parent = -1);
  /// As Add, with the interval given in ms relative to `base`.
  size_t AddMs(uint64_t op, std::string name, std::string layer,
               Clock::time_point base, double start_ms, double end_ms,
               int64_t parent);
  /// Attaches a device's simprof timeline as a child track of `op`.
  void AttachDevice(uint64_t op, const kcore::Trace& device_trace);

  /// Mean over ops of (op span - its children): time no layer accounts for.
  double MeanUnattributedMs() const;

  kcore::Status Write(const std::string& path,
                      const std::string& context_json) const;

 private:
  /// One span, in ms since `origin_`; `parent` indexes spans_ (-1: an op).
  struct Span {
    uint64_t op;
    std::string name;
    std::string layer;
    double start_ms;
    double end_ms;
    int64_t parent;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  kcore::Trace devices_;
  uint32_t attached_ = 0;
};

/// Prints `report` as the last line of standard output.
void PrintReport(const Report& report);

}  // namespace perfbench

#endif  // KCORE_PERFBENCH_HARNESS_H_
