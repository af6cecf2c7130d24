// kcore_perfbench: the repository benchmark program.
//
//   kcore_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>] [--tiny]
//   kcore_perfbench --describe-mix <serve_read|serve_update> --seed <n>
//                   [--count <n>]
//
// Workloads: file_decompose, serve_read, serve_update, scaleout_decompose.
// The last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). The run context is printed first, and an
// untraced run prints an information line before the result: the host
// slowdown, the CPU metrics before scaling and the unbounded wall-clock
// figures. See README.md in this directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

bool OptimizedBuild() {
// The repository's Release flags are -O2 -g without NDEBUG, so optimization
// is read from the compiler, not from assert().
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  const std::string type = KCORE_PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#endif
}

int Usage() {
  std::fprintf(stderr,
               "usage: kcore_perfbench --workload <file_decompose|serve_read|"
               "serve_update|scaleout_decompose> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--tiny]\n"
               "       kcore_perfbench --describe-mix <serve_read|"
               "serve_update> --seed <n> [--count <n>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string describe_mix;
  uint64_t mix_count = 100000;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--describe-mix") {
      describe_mix = value;
    } else if (flag == "--count") {
      mix_count = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (!describe_mix.empty()) {
    const kcore::Status status =
        perfbench::DescribeMix(describe_mix, args.seed, mix_count);
    if (!status.ok()) std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return status.ok() ? 0 : 1;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "kcore_perfbench: refusing to report numbers from a %s "
                 "build; build Release\n",
                 KCORE_PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (!(args.seconds > 0.0)) return Usage();
  // The serving workloads measure the healthy path: no injected faults, no
  // checker or profiler switched on from the environment.
  unsetenv("KCORE_FAULTS");
  unsetenv("KCORE_SIMCHECK");
  unsetenv("KCORE_TRACE");

  perfbench::Report report;
  kcore::Status status;
  if (args.workload == "file_decompose") {
    status = perfbench::RunFileDecompose(args, &report);
  } else if (args.workload == "serve_read") {
    status = perfbench::RunServe(args, /*updates=*/false, &report);
  } else if (args.workload == "serve_update") {
    status = perfbench::RunServe(args, /*updates=*/true, &report);
  } else if (args.workload == "scaleout_decompose") {
    status = perfbench::RunScaleout(args, &report);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "kcore_perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  perfbench::PrintReport(report);
  return 0;
}
