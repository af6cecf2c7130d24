#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "cpu/bz.h"
#include "generators/generators.h"
#include "graph/graph_io.h"

namespace perfbench {

using kcore::Status;
using kcore::StatusOr;

double ProcessCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

namespace {

volatile uint32_t probe_sink = 0;

double ThreadCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

/// Samples of the probe's fixed work, in ms of this thread's CPU time.
std::vector<double>& ProbeSamples() {
  static std::vector<double>* samples = new std::vector<double>;
  return *samples;
}

}  // namespace

void ProbeHostSpeed() {
  const Clock::time_point begin = Clock::now();
  do {
    const double start = ThreadCpuMs();
    uint32_t x = 1;
    for (int i = 0; i < 1500000; ++i) x = x * 1664525u + 1013904223u;
    probe_sink = x;
    ProbeSamples().push_back(ThreadCpuMs() - start);
  } while (MsBetween(begin, Clock::now()) < 500.0);
}

StatusOr<double> HostSlowdown() {
  if (ProbeSamples().empty()) return Status::Internal("host speed not probed");
  return Quantile(ProbeSamples(), 0.5) / kProbeNominalMs;
}

GraphSpec SpecFor(bool tiny) {
  GraphSpec spec;
  if (tiny) {
    spec.vertices = 3000;
    spec.edges = 18000;
    spec.core_size = 24;
    spec.core_density = 0.8;
  } else {
    spec.vertices = 6250;
    spec.edges = 50000;
    spec.core_size = 64;
    spec.core_density = 0.8;
  }
  return spec;
}

StatusOr<Inputs> MakeInputs(const Args& args, uint64_t salt) {
  Inputs inputs;
  inputs.spec = SpecFor(args.tiny);
  const GraphSpec& spec = inputs.spec;
  const uint64_t seed = args.seed * 0x9e3779b97f4a7c15ULL + salt;
  inputs.edges = kcore::OverlayPlantedCore(
      kcore::GenerateChungLuPowerLaw(spec.vertices, spec.edges, spec.exponent,
                                     seed),
      spec.vertices, {spec.core_size, spec.core_density}, seed + 1);

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + args.work_dir + ": " +
                            ec.message());
  }
  inputs.path = args.work_dir + "/graph_" + args.workload + "_" +
                std::to_string(args.seed) + (args.tiny ? "_tiny" : "") +
                ".txt";
  KCORE_RETURN_IF_ERROR(kcore::SaveEdgeListText(inputs.edges, inputs.path));
  inputs.file_bytes = std::filesystem::file_size(inputs.path, ec);

  const kcore::CsrGraph reference = kcore::BuildUndirectedGraphWithVertexCount(
      inputs.edges, spec.vertices);
  kcore::DecomposeResult bz = kcore::RunBz(reference);
  inputs.k_max = bz.MaxCore();
  inputs.oracle_by_id = std::move(bz.core);
  return inputs;
}

StatusOr<LoadedGraph> LoadGraphFile(const std::string& path) {
  LoadedGraph loaded;
  const Clock::time_point t0 = Clock::now();
  KCORE_ASSIGN_OR_RETURN(kcore::EdgeList edges, kcore::LoadEdgeListText(path));
  const Clock::time_point t1 = Clock::now();
  KCORE_ASSIGN_OR_RETURN(loaded.built, kcore::BuildGraph(edges));
  const Clock::time_point t2 = Clock::now();
  loaded.parse_ms = MsBetween(t0, t1);
  loaded.build_ms = MsBetween(t1, t2);
  return loaded;
}

StatusOr<std::vector<uint32_t>> DenseOracle(const Inputs& inputs,
                                            const kcore::BuiltGraph& built) {
  const uint64_t non_isolated = static_cast<uint64_t>(std::count_if(
      inputs.oracle_by_id.begin(), inputs.oracle_by_id.end(),
      [](uint32_t c) { return c > 0; }));
  if (built.original_ids.size() != built.graph.NumVertices() ||
      built.graph.NumVertices() != non_isolated) {
    return Status::Internal("built graph's vertex set differs from the input");
  }
  std::vector<uint32_t> oracle(built.graph.NumVertices());
  for (kcore::VertexId v = 0; v < oracle.size(); ++v) {
    const uint64_t id = built.original_ids[v];
    if (id >= inputs.oracle_by_id.size()) {
      return Status::Internal("built graph has an id outside the input");
    }
    oracle[v] = inputs.oracle_by_id[id];
  }
  return oracle;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << kcore::JsonQuote(metrics[i].name) << ": {\"value\": "
        << JsonNumber(metrics[i].value)
        << ", \"unit\": " << kcore::JsonQuote(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

std::string RunContextJson(const Args& args, const Inputs& inputs,
                           double bz_ms) {
  std::string l3 =
      ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size");
  if (l3.empty()) {
    const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
    l3 = bytes > 0 ? std::to_string(bytes / 1024) + "K" : "unknown";
  }
  std::ostringstream out;
  out << "{\"workload\": " << kcore::JsonQuote(args.workload)
      << ", \"seed\": " << args.seed << ", \"seconds\": "
      << JsonNumber(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"l3_cache\": " << kcore::JsonQuote(l3)
      << ", \"thread_pool_threads\": "
      << kcore::DefaultThreadPool().num_threads()
      << ", \"build_type\": " << kcore::JsonQuote(KCORE_PERFBENCH_BUILD_TYPE)
      << ", \"graph\": {\"vertices\": " << inputs.spec.vertices
      << ", \"edges\": " << inputs.spec.edges
      << ", \"k_max\": " << inputs.k_max
      << ", \"file_bytes\": " << inputs.file_bytes << "}"
      << ", \"serial_bz_ms\": " << JsonNumber(bz_ms) << "}";
  return out.str();
}

size_t SpanRecorder::Add(uint64_t op, std::string name, std::string layer,
                         Clock::time_point start, Clock::time_point end,
                         int64_t parent) {
  spans_.push_back({op, std::move(name), std::move(layer),
                    MsBetween(origin_, start), MsBetween(origin_, end),
                    parent});
  return spans_.size() - 1;
}

size_t SpanRecorder::AddMs(uint64_t op, std::string name, std::string layer,
                           Clock::time_point base, double start_ms,
                           double end_ms, int64_t parent) {
  const double offset = MsBetween(origin_, base);
  spans_.push_back({op, std::move(name), std::move(layer), offset + start_ms,
                    offset + end_ms, parent});
  return spans_.size() - 1;
}

void SpanRecorder::AttachDevice(uint64_t op, const kcore::Trace& device_trace) {
  // Each attached timeline gets its own process track; only the complete
  // spans (kernels, copies, driver ranges) are kept, which bounds the file.
  constexpr uint32_t kMaxAttached = 32;
  if (attached_ >= kMaxAttached) return;
  const uint32_t pid = 1000 + attached_++;
  devices_.SetProcessName(
      pid, "op " + std::to_string(op) + " device (modeled clock)");
  for (const kcore::TraceEvent& event : device_trace.events()) {
    if (event.phase != 'X' || event.cat == kcore::kTraceCatBlock) continue;
    devices_.AddComplete(event.name, event.cat, pid, event.tid, event.ts_ns,
                         event.dur_ns, event.args);
  }
}

double SpanRecorder::MeanUnattributedMs() const {
  std::vector<double> child_sum(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_sum[static_cast<size_t>(span.parent)] +=
          span.end_ms - span.start_ms;
    }
  }
  std::vector<double> unattributed;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) {
      unattributed.push_back(spans_[i].end_ms - spans_[i].start_ms -
                             child_sum[i]);
    }
  }
  return Mean(unattributed);
}

Status SpanRecorder::Write(const std::string& path,
                           const std::string& context_json) const {
  kcore::Trace trace;
  constexpr uint32_t kHostPid = 1;
  trace.SetProcessName(kHostPid, "perfbench host (wall clock)");
  trace.SetThreadName(kHostPid, 0, "ops");
  // One row per layer on the host track; op spans sit on row 0.
  std::map<std::string, uint32_t> layer_rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    uint32_t tid = 0;
    if (span.parent >= 0) {
      auto [it, added] = layer_rows.emplace(
          span.layer, static_cast<uint32_t>(layer_rows.size() + 1));
      if (added) trace.SetThreadName(kHostPid, it->second, span.layer);
      tid = it->second;
    }
    trace.AddComplete(span.name, span.layer, kHostPid, tid,
                      span.start_ms * 1e6,
                      (span.end_ms - span.start_ms) * 1e6,
                      {{"op", std::to_string(span.op)},
                       {"span", std::to_string(i)},
                       {"parent", std::to_string(span.parent)}});
  }
  trace.AddInstant("run_context", "bench", kHostPid, 0, 0.0,
                   {{"context", context_json}});
  trace.Append(devices_);
  return trace.WriteChromeTrace(path);
}

void PrintReport(const Report& report) {
  std::fflush(stderr);
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
