// scaleout_decompose: a closed loop, one client, over an in-memory CSR built
// at set-up. Ops alternate between the `multigpu` and `cluster` engines, each
// chosen by its CLI token through ParseEngineKind + MakeEngine with default
// configs, and every result is checked against the oracle.
#include <algorithm>
#include <memory>

#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kcore::Status;

constexpr const char* kEngineTokens[2] = {"multigpu", "cluster"};

struct ScaleOp {
  int engine = 0;  // index into kEngineTokens
  bool ok = false;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // process CPU over the op
  Clock::time_point start;
  Clock::time_point end;
  kcore::Metrics metrics;
  double transfer_ns = 0.0;
};

struct Engines {
  std::unique_ptr<kcore::Engine> engine[2];
};

Status MakeEngines(Engines* engines) {
  for (int i = 0; i < 2; ++i) {
    kcore::EngineKind kind;
    if (!kcore::ParseEngineKind(kEngineTokens[i], &kind)) {
      return Status::InvalidArgument(std::string("unknown engine token ") +
                                     kEngineTokens[i]);
    }
    engines->engine[i] = kcore::MakeEngine(kind);
  }
  return Status::OK();
}

ScaleOp RunOp(Engines& engines, int which, const kcore::CsrGraph& graph,
              const std::vector<uint32_t>& oracle, uint64_t op_id,
              SpanRecorder* spans) {
  ScaleOp op;
  op.engine = which;
  kcore::Trace device_trace;
  kcore::EngineRunContext ctx;
  if (spans != nullptr) ctx.trace = &device_trace;
  const double cpu_start = ProcessCpuMs();
  op.start = Clock::now();
  auto result = engines.engine[which]->Decompose(graph, ctx);
  const Clock::time_point decomposed = Clock::now();
  op.ok = result.ok() && result->core == oracle;
  op.end = Clock::now();
  op.cpu_ms = ProcessCpuMs() - cpu_start;
  op.wall_ms = MsBetween(op.start, op.end);
  if (result.ok()) op.metrics = result->metrics;
  if (spans != nullptr) {
    const auto root = static_cast<int64_t>(spans->Add(
        op_id, kEngineTokens[which], "op", op.start, op.end));
    spans->Add(op_id, std::string("decompose ") + kEngineTokens[which],
               which == 0 ? "core" : "cluster", op.start, decomposed, root);
    spans->Add(op_id, "verify", "bench", decomposed, op.end, root);
    spans->AttachDevice(op_id, device_trace);
    op.transfer_ns = device_trace.TotalDurNs(kcore::kTraceCatCopy);
  }
  return op;
}

/// Runs multigpu/cluster pairs back to back for `seconds`; `gaps_ms`
/// receives the harness time between ops, `cpu_ms` the process CPU over the
/// whole loop.
std::vector<ScaleOp> ClosedLoop(Engines& engines, const kcore::CsrGraph& graph,
                                const std::vector<uint32_t>& oracle,
                                double seconds, uint64_t* next_op,
                                SpanRecorder* spans,
                                std::vector<double>* gaps_ms, double* cpu_ms) {
  std::vector<ScaleOp> ops;
  const double cpu_begin = ProcessCpuMs();
  const Clock::time_point begin = Clock::now();
  // Whole multigpu/cluster pairs, so both engines get the same op count.
  do {
    for (int which = 0; which < 2; ++which) {
      ScaleOp op = RunOp(engines, which, graph, oracle, (*next_op)++, spans);
      if (!ops.empty()) gaps_ms->push_back(MsBetween(ops.back().end, op.start));
      ops.push_back(std::move(op));
    }
  } while (MsBetween(begin, Clock::now()) < seconds * 1e3);
  *cpu_ms = ProcessCpuMs() - cpu_begin;
  return ops;
}

/// `field` of the ops that ran engine `which`.
std::vector<double> FieldOf(const std::vector<ScaleOp>& ops, int which,
                            double ScaleOp::*field) {
  std::vector<double> out;
  for (const ScaleOp& op : ops) {
    if (op.engine == which) out.push_back(op.*field);
  }
  return out;
}

}  // namespace

Status RunScaleout(const Args& args, Report* report) {
  KCORE_ASSIGN_OR_RETURN(Inputs inputs, MakeInputs(args, 4));

  // One set-up: graph file -> CSR, and both engines made. Half of the
  // kSetupReps set-ups run before the measurement and half after it.
  SetupTimes setup;
  const auto set_up = [&](LoadedGraph* loaded, Engines* engines) -> Status {
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuMs();
    KCORE_ASSIGN_OR_RETURN(*loaded, LoadGraphFile(inputs.path));
    KCORE_RETURN_IF_ERROR(MakeEngines(engines));
    setup.Add(start, cpu_start);
    return Status::OK();
  };
  LoadedGraph loaded;
  Engines engines;
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    KCORE_RETURN_IF_ERROR(set_up(&loaded, &engines));
  }
  const kcore::CsrGraph& graph = loaded.built.graph;
  KCORE_ASSIGN_OR_RETURN(std::vector<uint32_t> oracle,
                         DenseOracle(inputs, loaded.built));
  const double bz_ms = SerialBzMs(graph);
  std::printf("%s\n", RunContextJson(args, inputs, bz_ms).c_str());

  const PhasePlan phases = PlanPhases(args, args.seconds);
  uint64_t next_op = 0;
  std::vector<double> gaps_ms;
  double loop_cpu_ms = 0.0;
  ProbeHostSpeed();
  const std::vector<ScaleOp> untraced =
      ClosedLoop(engines, graph, oracle, phases.untraced_s, &next_op, nullptr,
                 &gaps_ms, &loop_cpu_ms);
  for (const ScaleOp& op : untraced) report->Op(op.ok, op.ok);

  if (!args.trace) {
    ProbeHostSpeed();
    EndToEnd e2e;
    e2e.peak_rss_mb = PeakRssMb();
    for (int rep = kSetupReps / 2; rep < kSetupReps; ++rep) {
      LoadedGraph spare_graph;
      Engines spare_engines;
      KCORE_RETURN_IF_ERROR(set_up(&spare_graph, &spare_engines));
    }
    e2e.setup = setup;
    std::vector<double> modeled;
    for (const ScaleOp& op : untraced) modeled.push_back(op.metrics.modeled_ms);
    e2e.modeled_ms = Mean(modeled);
    e2e.ops_per_s = static_cast<double>(untraced.size()) /
                    (MsBetween(untraced.front().start, untraced.back().end) /
                     1e3);
    e2e.cpu_ms_per_op = loop_cpu_ms / static_cast<double>(untraced.size());
    e2e.light_cpu_ms =
        Quantile(FieldOf(untraced, 0, &ScaleOp::cpu_ms), 0.5);
    e2e.heavy_cpu_ms =
        Quantile(FieldOf(untraced, 1, &ScaleOp::cpu_ms), 0.5);
    e2e.heavy_ops = e2e.light_ops = untraced.size() / 2;
    e2e.light_ms = FieldOf(untraced, 0, &ScaleOp::wall_ms);
    e2e.heavy_ms = FieldOf(untraced, 1, &ScaleOp::wall_ms);
    e2e.answered_frac =
        static_cast<double>(report->attempted - report->failed) /
        static_cast<double>(report->attempted);
    return EmitEndToEnd(e2e, report);
  }

  SpanRecorder spans(Clock::now());
  gaps_ms.clear();
  const std::vector<ScaleOp> traced =
      ClosedLoop(engines, graph, oracle, phases.traced_s, &next_op, &spans,
                 &gaps_ms, &loop_cpu_ms);
  ProbeHostSpeed();
  for (const ScaleOp& op : traced) report->Op(op.ok, op.ok);

  LayerTable layers;
  layers.Set("graph.parse_ms", loaded.parse_ms);
  layers.Set("graph.build_ms", loaded.build_ms);
  layers.Set("graph.parse_mb_per_s", static_cast<double>(inputs.file_bytes) /
                                         1e6 / (loaded.parse_ms / 1e3));
  layers.Set("graph.edges", static_cast<double>(graph.NumUndirectedEdges()));

  std::vector<double> mg_modeled, mg_rounds, cl_modeled, cl_comm, cl_share,
      cl_bytes, cl_messages, launches, transfer;
  uint64_t peak = 0;
  for (const ScaleOp& op : traced) {
    const kcore::Metrics& m = op.metrics;
    peak = std::max(peak, m.peak_device_bytes);
    launches.push_back(static_cast<double>(m.counters.kernel_launches));
    transfer.push_back(op.transfer_ns / 1e6);
    if (op.engine == 0) {
      mg_modeled.push_back(m.modeled_ms);
      mg_rounds.push_back(m.rounds);
    } else {
      cl_modeled.push_back(m.modeled_ms);
      cl_comm.push_back(m.comm_ms);
      cl_share.push_back(m.modeled_ms > 0 ? m.comm_ms / m.modeled_ms : 0.0);
      cl_bytes.push_back(static_cast<double>(m.comm_bytes));
      cl_messages.push_back(static_cast<double>(m.comm_messages));
    }
  }
  layers.Set("cusim.modeled_transfer_ms", Mean(transfer));
  layers.Set("cusim.peak_device_mb", static_cast<double>(peak) / (1 << 20));
  layers.Set("cusim.kernel_launches", Mean(launches));
  layers.Set("core.multigpu.modeled_ms", Mean(mg_modeled));
  layers.Set("core.multigpu.rounds", Mean(mg_rounds));
  layers.Set("cluster.modeled_ms", Mean(cl_modeled));
  layers.Set("cluster.comm_modeled_ms", Mean(cl_comm));
  layers.Set("cluster.comm_share", Mean(cl_share));
  layers.Set("cluster.comm_bytes", Mean(cl_bytes));
  layers.Set("cluster.comm_messages", Mean(cl_messages));
  layers.Set("cpu.bz_ms", bz_ms);
  layers.Set("bench.late_ms_p99", Quantile(gaps_ms, 0.99));
  // Per engine, traced median over untraced median; the mean of the two.
  double overhead = 0.0;
  for (int which = 0; which < 2; ++which) {
    overhead += Quantile(FieldOf(traced, which, &ScaleOp::wall_ms), 0.5) /
                Quantile(FieldOf(untraced, which, &ScaleOp::wall_ms), 0.5) /
                2.0;
  }
  layers.Set("bench.trace_overhead", overhead);
  layers.Set("bench.unattributed_ms", spans.MeanUnattributedMs());
  KCORE_RETURN_IF_ERROR(layers.Emit(report));
  return spans.Write(args.work_dir + "/trace_" + args.workload + "_" +
                         std::to_string(args.seed) + ".json",
                     RunContextJson(args, inputs, bz_ms));
}

}  // namespace perfbench
