// file_decompose: the `kcore_cli decompose <file> gpu` path run in-process as
// a closed loop with one client. One op is LoadEdgeListText -> BuildGraph ->
// GPU peel on a fresh benchmark-owned device -> check against the oracle.
#include <algorithm>

#include "core/gpu_peel.h"
#include "cusim/device.h"
#include "graph/graph_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kcore::Status;

/// What one op measured.
struct FileOp {
  bool ok = false;
  double total_ms = 0.0;
  double load_ms = 0.0;  // parse + build: the file -> CSR prefix
  double cpu_ms = 0.0;   // process CPU over the op
  double load_cpu_ms = 0.0;  // process CPU over the file -> CSR prefix
  double parse_ms = 0.0;
  double build_ms = 0.0;
  double device_setup_ms = 0.0;
  double peel_ms = 0.0;
  double modeled_ms = 0.0;  // kernels + transfers on the owned device
  double transfer_ms = 0.0;
  uint64_t edges = 0;
  uint64_t peak_device_bytes = 0;
  kcore::Metrics metrics;
  Clock::time_point start;
  Clock::time_point end;
};

FileOp RunOp(const Inputs& inputs, uint64_t non_isolated, bool traced,
             uint64_t op_id, SpanRecorder* spans) {
  FileOp op;
  const double cpu_start = ProcessCpuMs();
  op.start = Clock::now();
  auto edges = kcore::LoadEdgeListText(inputs.path);
  const Clock::time_point parsed = Clock::now();
  if (!edges.ok()) return op;
  auto built = kcore::BuildGraph(*edges);
  const Clock::time_point built_at = Clock::now();
  const double cpu_built = ProcessCpuMs();
  if (!built.ok()) return op;

  kcore::sim::DeviceOptions device_options;
  device_options.profile = traced;
  device_options.profile_block_spans = false;
  kcore::sim::Device device(device_options);
  const Clock::time_point device_at = Clock::now();
  kcore::GpuPeelDecomposer decomposer(&device, kcore::GpuPeelOptions{});
  auto result = decomposer.Decompose(built->graph);
  const Clock::time_point peeled = Clock::now();

  // Verify: one core number per built vertex, equal to the oracle's number
  // for that vertex's id in the generated graph.
  bool ok = result.ok() && built->graph.NumVertices() == non_isolated &&
            result->core.size() == built->graph.NumVertices();
  for (kcore::VertexId v = 0; ok && v < result->core.size(); ++v) {
    const uint64_t id = built->original_ids[v];
    ok = id < inputs.oracle_by_id.size() &&
         result->core[v] == inputs.oracle_by_id[id];
  }
  op.end = Clock::now();
  op.cpu_ms = ProcessCpuMs() - cpu_start;
  op.load_cpu_ms = cpu_built - cpu_start;

  op.ok = ok;
  op.total_ms = MsBetween(op.start, op.end);
  op.parse_ms = MsBetween(op.start, parsed);
  op.build_ms = MsBetween(parsed, built_at);
  op.load_ms = MsBetween(op.start, built_at);
  op.device_setup_ms = MsBetween(built_at, device_at);
  op.peel_ms = MsBetween(device_at, peeled);
  op.edges = built->graph.NumUndirectedEdges();
  if (result.ok()) {
    op.metrics = result->metrics;
    op.transfer_ms = device.transfer_ms();
    op.modeled_ms = result->metrics.modeled_ms + op.transfer_ms;
    op.peak_device_bytes = device.peak_bytes();
  }
  if (spans != nullptr) {
    const auto root = static_cast<int64_t>(
        spans->Add(op_id, "decompose", "op", op.start, op.end));
    spans->Add(op_id, "parse", "graph", op.start, parsed, root);
    spans->Add(op_id, "build", "graph", parsed, built_at, root);
    spans->Add(op_id, "device_setup", "cusim", built_at, device_at, root);
    spans->Add(op_id, "peel", "core", device_at, peeled, root);
    spans->Add(op_id, "verify", "bench", peeled, op.end, root);
    if (device.profiler() != nullptr) {
      spans->AttachDevice(op_id, device.profiler()->trace());
    }
  }
  return op;
}

/// Runs ops back to back for `seconds`; `gaps_ms` receives the harness time
/// between one op's end and the next op's start, `cpu_ms` the process CPU
/// over the whole loop.
std::vector<FileOp> ClosedLoop(const Inputs& inputs, uint64_t non_isolated,
                               double seconds, bool traced, uint64_t* next_op,
                               SpanRecorder* spans,
                               std::vector<double>* gaps_ms, double* cpu_ms) {
  std::vector<FileOp> ops;
  const double cpu_begin = ProcessCpuMs();
  const Clock::time_point begin = Clock::now();
  do {
    FileOp op = RunOp(inputs, non_isolated, traced, (*next_op)++, spans);
    if (!ops.empty()) gaps_ms->push_back(MsBetween(ops.back().end, op.start));
    ops.push_back(std::move(op));
  } while (MsBetween(begin, Clock::now()) < seconds * 1e3);
  *cpu_ms = ProcessCpuMs() - cpu_begin;
  return ops;
}

std::vector<double> Field(const std::vector<FileOp>& ops,
                          double FileOp::*field) {
  std::vector<double> out;
  for (const FileOp& op : ops) out.push_back(op.*field);
  return out;
}

}  // namespace

Status RunFileDecompose(const Args& args, Report* report) {
  KCORE_ASSIGN_OR_RETURN(Inputs inputs, MakeInputs(args, 1));
  const uint64_t non_isolated = static_cast<uint64_t>(std::count_if(
      inputs.oracle_by_id.begin(), inputs.oracle_by_id.end(),
      [](uint32_t c) { return c > 0; }));

  // One set-up: the graph file loaded and a device ready. Half of the
  // kSetupReps set-ups run before the measurement and half after it.
  SetupTimes setup;
  const auto set_up = [&](LoadedGraph* loaded) -> Status {
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuMs();
    KCORE_ASSIGN_OR_RETURN(*loaded, LoadGraphFile(inputs.path));
    kcore::sim::Device device;
    setup.Add(start, cpu_start);
    return Status::OK();
  };
  LoadedGraph loaded;
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    KCORE_RETURN_IF_ERROR(set_up(&loaded));
  }
  const double bz_ms = SerialBzMs(loaded.built.graph);
  std::printf("%s\n", RunContextJson(args, inputs, bz_ms).c_str());

  const PhasePlan phases = PlanPhases(args, args.seconds);
  uint64_t next_op = 0;
  std::vector<double> gaps_ms;
  double loop_cpu_ms = 0.0;
  ProbeHostSpeed();
  const std::vector<FileOp> untraced = ClosedLoop(
      inputs, non_isolated, phases.untraced_s, false, &next_op, nullptr,
      &gaps_ms, &loop_cpu_ms);
  for (const FileOp& op : untraced) report->Op(op.ok, op.ok);

  if (!args.trace) {
    ProbeHostSpeed();
    EndToEnd e2e;
    e2e.peak_rss_mb = PeakRssMb();
    for (int rep = kSetupReps / 2; rep < kSetupReps; ++rep) {
      KCORE_RETURN_IF_ERROR(set_up(&loaded));
    }
    e2e.setup = setup;
    e2e.modeled_ms = Mean(Field(untraced, &FileOp::modeled_ms));
    e2e.ops_per_s = static_cast<double>(untraced.size()) /
                    (MsBetween(untraced.front().start, untraced.back().end) /
                     1e3);
    e2e.cpu_ms_per_op = loop_cpu_ms / static_cast<double>(untraced.size());
    e2e.heavy_cpu_ms = Quantile(Field(untraced, &FileOp::cpu_ms), 0.5);
    e2e.light_cpu_ms = Quantile(Field(untraced, &FileOp::load_cpu_ms), 0.5);
    e2e.heavy_ops = e2e.light_ops = untraced.size();
    e2e.heavy_ms = Field(untraced, &FileOp::total_ms);
    e2e.light_ms = Field(untraced, &FileOp::load_ms);
    e2e.answered_frac =
        static_cast<double>(report->attempted - report->failed) /
        static_cast<double>(report->attempted);
    return EmitEndToEnd(e2e, report);
  }

  SpanRecorder spans(Clock::now());
  gaps_ms.clear();
  const std::vector<FileOp> traced =
      ClosedLoop(inputs, non_isolated, phases.traced_s, true, &next_op, &spans,
                 &gaps_ms, &loop_cpu_ms);
  ProbeHostSpeed();
  for (const FileOp& op : traced) report->Op(op.ok, op.ok);

  LayerTable layers;
  const double parse_ms = Quantile(Field(traced, &FileOp::parse_ms), 0.5);
  layers.Set("graph.parse_ms", parse_ms);
  layers.Set("graph.build_ms", Quantile(Field(traced, &FileOp::build_ms), 0.5));
  layers.Set("graph.parse_mb_per_s",
             static_cast<double>(inputs.file_bytes) / 1e6 / (parse_ms / 1e3));
  layers.Set("graph.edges", static_cast<double>(traced.back().edges));
  layers.Set("cusim.device_setup_ms",
             Quantile(Field(traced, &FileOp::device_setup_ms), 0.5));
  layers.Set("cusim.modeled_transfer_ms",
             Mean(Field(traced, &FileOp::transfer_ms)));
  uint64_t peak = 0;
  std::vector<double> launches, scan, loop, compact, rounds, edges, scanned,
      atomics, kernel_modeled;
  uint64_t appends = 0, scanned_total = 0;
  for (const FileOp& op : traced) {
    const kcore::Metrics& m = op.metrics;
    peak = std::max(peak, op.peak_device_bytes);
    launches.push_back(static_cast<double>(m.counters.kernel_launches));
    scan.push_back(m.scan_ms);
    loop.push_back(m.loop_ms);
    compact.push_back(m.compact_ms);
    rounds.push_back(m.rounds);
    edges.push_back(static_cast<double>(m.counters.edges_traversed));
    scanned.push_back(static_cast<double>(m.counters.vertices_scanned));
    atomics.push_back(static_cast<double>(m.counters.global_atomics));
    kernel_modeled.push_back(m.modeled_ms);
    appends += m.counters.buffer_appends;
    scanned_total += m.counters.vertices_scanned;
  }
  const double peel_ms = Quantile(Field(traced, &FileOp::peel_ms), 0.5);
  layers.Set("cusim.peak_device_mb", static_cast<double>(peak) / (1 << 20));
  layers.Set("cusim.kernel_launches", Mean(launches));
  layers.Set("core.peel_ms", peel_ms);
  layers.Set("core.modeled_scan_ms", Mean(scan));
  layers.Set("core.modeled_loop_ms", Mean(loop));
  layers.Set("core.modeled_compact_ms", Mean(compact));
  layers.Set("core.rounds", Mean(rounds));
  layers.Set("core.edges_traversed", Mean(edges));
  layers.Set("core.vertices_scanned", Mean(scanned));
  layers.Set("core.scan_yield",
             scanned_total == 0 ? 0.0
                                : static_cast<double>(appends) /
                                      static_cast<double>(scanned_total));
  layers.Set("core.global_atomics", Mean(atomics));
  layers.Set("core.wall_per_modeled", peel_ms / Mean(kernel_modeled));
  layers.Set("cpu.bz_ms", bz_ms);
  layers.Set("bench.late_ms_p99", Quantile(gaps_ms, 0.99));
  layers.Set("bench.trace_overhead",
             Quantile(Field(traced, &FileOp::total_ms), 0.5) /
                 Quantile(Field(untraced, &FileOp::total_ms), 0.5));
  layers.Set("bench.unattributed_ms", spans.MeanUnattributedMs());
  KCORE_RETURN_IF_ERROR(layers.Emit(report));
  return spans.Write(args.work_dir + "/trace_" + args.workload + "_" +
                         std::to_string(args.seed) + ".json",
                     RunContextJson(args, inputs, bz_ms));
}

}  // namespace perfbench
