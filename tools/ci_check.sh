#!/usr/bin/env bash
# CI gate: build release + asan and run the tier-1 suite on both.
#
#   tools/ci_check.sh            release + asan + a short tsan leg over the
#                                thread-pool and launch suites
#   tools/ci_check.sh --tsan     additionally run tier-1 in the tsan preset
#
# The asan leg runs the tier-1 tests twice: once plain and once with
# KCORE_SIMCHECK=1, so the simulated-device sanitizer and the host sanitizer
# watch the same kernels simultaneously (simcheck's containment is what
# keeps the deliberately-broken detector tests ASan-clean).
#
# A tracing pass stacks KCORE_TRACE on top of the fault + simcheck
# combination over the same oracle suites: simprof must stay an observer —
# profiled runs still produce exact core numbers while the recovery and
# sanitizer machinery is active. A CLI smoke then checks --trace actually
# emits loadable chrome-trace JSON alongside --simcheck and --faults.
#
# Both legs additionally run a fault-recovery pass: KCORE_FAULTS attaches a
# representative fault plan (transient launch + copy failures and a one-shot
# degree-word bitflip) to every simulated device, and the oracle-equality
# suites must still produce exact core numbers — recovery has to be
# transparent to call sites that never heard of faults. Only those suites
# run under the plan (tests that assert exact launch/retry/checkpoint
# counters are meaningless with ambient faults), and the pass is stacked
# with KCORE_SIMCHECK=1 so checkpoint/rollback traffic is sanitizer-watched.
set -euo pipefail
cd "$(dirname "$0")/.."

# Transients recover via op retries; the bitflip via checkpoint rollback.
fault_spec='launch_fail@2;copy_fail@1;bitflip:launch=7,word=0,bit=3,seed=9'
# Suites that assert core numbers against the CPU oracle for the three
# *resilient* engines (all kernel variants, compaction on/off, 1-7 workers,
# every cluster shape — the cluster leg drives its bitflip rollback over the
# dense border delta buffers).
# The system baselines (Medusa/Gunrock/GSWITCH) surface faults as Status by
# design and are deliberately not run under the plan.
fault_suites='GpuPeelVariantTest.MatchesOracleOnFullSuite'
fault_suites+='|CompactionEquivalenceTest.CoreNumbersIdenticalOnAndOff'
fault_suites+='|MultiGpuWorkerCountTest.MatchesOracleOnFullSuite'
fault_suites+='|MultiGpuTest.AgreesWithSingleGpuKernels'
fault_suites+='|ExpandStrategyTest.MatchesOracleAcrossVariantsOnFullSuite'
fault_suites+='|ExpandTest.MultiGpuAutoMatchesOracleAndBinsPartition'
fault_suites+='|ClusterShapeTest.MatchesOracleOnFullSuite'

run_tsan=0
for arg in "$@"; do
  case "$arg" in
    --tsan) run_tsan=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "=== release: configure + build ==="
cmake --preset release
cmake --build --preset release -j "$(nproc)"

echo "=== release: static analysis (simlint) ==="
# The kernel-DSL analyzer runs off the exported compile_commands.json and is
# gated by the committed baseline. The baseline is required to stay *empty*
# (only comments): new findings must be fixed or suppressed in-source with a
# reviewed `simlint:allow`, never parked in the baseline.
if grep -Ev '^[[:space:]]*(#|$)' tools/simlint_baseline.txt; then
  echo "tools/simlint_baseline.txt drifted: the baseline must stay empty;" \
    "fix the finding or add an in-source simlint:allow instead" >&2
  exit 1
fi
build/tools/simlint/simlint -p build --root . \
  --baseline tools/simlint_baseline.txt

echo "=== release: static analysis (clang-tidy) ==="
# Diagnostics differ across clang-tidy majors, so the CI leg only trusts the
# pinned major; anything else (or no install at all) is a loud skip, never a
# silent pass — the zero-dependency simlint leg above always gates.
tidy_pin_major=16
if command -v clang-tidy > /dev/null; then
  tidy_major="$(clang-tidy --version | sed -n 's/.*version \([0-9]*\).*/\1/p' |
    head -n1)"
  if [[ "$tidy_major" == "$tidy_pin_major" ]]; then
    cmake --build --preset release --target lint
  else
    echo "SKIP: clang-tidy major $tidy_major != pinned $tidy_pin_major;" \
      "install clang-tidy-$tidy_pin_major to run the tidy leg" >&2
  fi
else
  echo "SKIP: clang-tidy not installed; tidy leg not run" \
    "(simlint leg above still gates)" >&2
fi

echo "=== release: tier-1 ==="
ctest --preset tier1
echo "=== release: tier-1 (KCORE_SIMCHECK=1) ==="
KCORE_SIMCHECK=1 ctest --preset tier1
echo "=== release: fault recovery (KCORE_FAULTS) ==="
KCORE_FAULTS="$fault_spec" ctest --preset tier1 -R "$fault_suites"
echo "=== release: fault recovery (KCORE_FAULTS + KCORE_SIMCHECK=1) ==="
KCORE_FAULTS="$fault_spec" KCORE_SIMCHECK=1 ctest --preset tier1 -R "$fault_suites"
echo "=== release: tracing observer (KCORE_TRACE + KCORE_FAULTS + KCORE_SIMCHECK=1) ==="
KCORE_TRACE=1 KCORE_FAULTS="$fault_spec" KCORE_SIMCHECK=1 \
  ctest --preset tier1 -R "$fault_suites"

echo "=== release: kcore_cli device-loss smoke ==="
smoke_graph="$(mktemp)"
expand_graph="$(mktemp)"
trace_json="$(mktemp)"
trap 'rm -f "$smoke_graph" "$expand_graph" "$trace_json"' EXIT
printf '0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n' > "$smoke_graph"
# A lost device degrades to the CPU warm-start: the answer stays exact but
# the CLI reports it with exit 4 and a structured one-line error, which is
# exactly what this gate wants to see (a silent 0 here means degradation
# became invisible to scripts).
rc=0
build/tools/kcore_cli decompose "$smoke_graph" gpu \
  '--faults=device_lost@launch=4' --simcheck || rc=$?
if [[ "$rc" != 4 ]]; then
  echo "device-loss smoke: expected degraded-success exit 4, got $rc" >&2
  exit 1
fi

echo "=== release: kcore_cli --trace smoke (stacked with simcheck + faults) ==="
build/tools/kcore_cli decompose "$smoke_graph" gpu \
  '--faults=launch_fail@2' --simcheck "--trace=$trace_json" --prof-summary \
  | grep -q '^kernel ' || {
    echo "--prof-summary printed no kernel table" >&2; exit 1; }
grep -q '"traceEvents"' "$trace_json" || {
  echo "--trace wrote no chrome-trace JSON" >&2; exit 1; }
grep -q '"name":"retry"' "$trace_json" || {
  echo "trace is missing the retry flow events" >&2; exit 1; }
for engine in multigpu vetga; do
  build/tools/kcore_cli decompose "$smoke_graph" "$engine" \
    "--trace=$trace_json" > /dev/null
  grep -q '"traceEvents"' "$trace_json" || {
    echo "--trace/$engine wrote no chrome-trace JSON" >&2; exit 1; }
done

echo "=== release: expansion-strategy legs (kcore_cli, simcheck on) ==="
# Deterministic skewed fixture: a K12 core, a 600-spoke hub on vertex 0,
# and a path tail. Under --expand=auto the spokes ride the thread bin and
# the hub the warp bin (600 < the 4096 block threshold); the block bin is
# exercised by the tier-1 suite with a lowered threshold.
{
  for ((i = 0; i < 12; i++)); do
    for ((j = i + 1; j < 12; j++)); do echo "$i $j"; done
  done
  for ((i = 12; i < 612; i++)); do echo "0 $i"; done
  for ((i = 612; i < 700; i++)); do echo "$i $((i + 1))"; done
} > "$expand_graph"
base_out="$(build/tools/kcore_cli decompose "$expand_graph" gpu)"
for strategy in thread warp block auto; do
  for engine in gpu multigpu; do
    out="$(build/tools/kcore_cli decompose "$expand_graph" "$engine" \
      "--expand=$strategy" --simcheck)"
    sig="$(grep -E '^(k_max|rounds)' <<< "$out")"
    want="$(grep -E '^(k_max|rounds)' <<< "$base_out")"
    if [[ "$engine" == gpu && "$sig" != "$want" ]]; then
      echo "expand=$strategy/$engine diverges from the default engine:" >&2
      diff <(echo "$want") <(echo "$sig") >&2 || true
      exit 1
    fi
    if [[ "$(grep -E '^k_max' <<< "$out")" != "$(grep -E '^k_max' <<< "$base_out")" ]]; then
      echo "expand=$strategy/$engine k_max diverges" >&2
      exit 1
    fi
  done
done

echo "=== release: expand=warp drift guard (zero-cost-when-off) ==="
# --expand=warp must dispatch to the *original* loop kernel. Two guards:
#  1. its bin meters prove no vertex left the warp path;
#  2. its modeled time matches the flagless default run. Modeled times carry
#     run-to-run scheduling jitter (cross-block cascade order moves work
#     between blocks), so the comparison uses a relative tolerance rather
#     than bit equality.
warp_out="$(build/tools/kcore_cli decompose "$expand_graph" gpu --expand=warp)"
grep -q '^bin_thread      0$' <<< "$warp_out" || {
  echo "expand=warp routed vertices to the thread bin" >&2; exit 1; }
grep -q '^bin_block       0$' <<< "$warp_out" || {
  echo "expand=warp routed vertices to the block bin" >&2; exit 1; }
base_ms="$(awk '/^modeled_ms/ {print $2}' <<< "$base_out")"
warp_ms="$(awk '/^modeled_ms/ {print $2}' <<< "$warp_out")"
awk -v a="$base_ms" -v b="$warp_ms" 'BEGIN {
  d = a > b ? a - b : b - a
  lo = a < b ? a : b
  if (d > 0.10 * lo + 0.005) {
    printf "expand=warp modeled_ms drifted from default: %s vs %s\n", a, b
    exit 1
  }
}'

echo "=== release: single-k legs (--k, gpu vs xiang, stacked with simcheck + faults) ==="
# Direct mining on both engines must agree on the k-core size for every k,
# from the trivial 1-core through the K12 clique core to past-degeneracy.
for k in 1 2 5 11 12 40; do
  gpu_core="$(build/tools/kcore_cli decompose "$expand_graph" gpu "--k=$k" \
    --simcheck | awk '/^core_size/ {print $2}')"
  xiang_core="$(build/tools/kcore_cli decompose "$expand_graph" xiang "--k=$k" \
    | awk '/^core_size/ {print $2}')"
  if [[ -z "$gpu_core" || "$gpu_core" != "$xiang_core" ]]; then
    echo "--k=$k: gpu core_size '$gpu_core' != xiang '$xiang_core'" >&2
    exit 1
  fi
done
# A transient launch failure is retried away without degrading; a dead
# device degrades to the CPU cascade. Both answers must stay exact.
retried="$(build/tools/kcore_cli decompose "$expand_graph" gpu --k=5 \
  '--faults=launch_fail@1' --simcheck)"
grep -q '^core_size    12$' <<< "$retried" || {
  echo "--k=5 under a transient launch failure lost the K12 core" >&2; exit 1; }
grep -q '^degraded            no' <<< "$retried" || {
  echo "--k=5 degraded on a retryable fault" >&2; exit 1; }
rc=0
lost="$(build/tools/kcore_cli decompose "$expand_graph" gpu --k=5 \
  '--faults=device_lost@launch=1' --simcheck)" || rc=$?
if [[ "$rc" != 4 ]]; then
  echo "--k=5 after device loss: expected degraded-success exit 4, got $rc" >&2
  exit 1
fi
grep -q '^core_size    12$' <<< "$lost" || {
  echo "--k=5 after device loss lost the K12 core" >&2; exit 1; }
grep -q 'answered by CPU xiang' <<< "$lost" || {
  echo "--k=5 after device loss did not report the CPU fallback" >&2; exit 1; }
# Malformed queries and unsupported engines are rejected up front.
for bad in '--k=0' '--k=abc' '--k='; do
  if build/tools/kcore_cli decompose "$expand_graph" gpu "$bad" 2>/dev/null; then
    echo "kcore_cli accepted $bad" >&2; exit 1
  fi
done
if build/tools/kcore_cli decompose "$expand_graph" bz --k=2 2>/dev/null; then
  echo "kcore_cli accepted --k on a full-decomposition-only engine" >&2
  exit 1
fi

echo "=== release: renumber legs (gpu + multigpu, stacked with simcheck + faults) ==="
# Degree-ordered renumbering is a pure relabeling: both engines must land on
# the flagless k_max/rounds, with simcheck watching and (on gpu) the
# representative fault plan exercising checkpoint/rollback on the
# renumbered graph.
want_sig="$(grep -E '^(k_max|rounds)' <<< "$base_out")"
for engine in gpu multigpu; do
  renum_out="$(build/tools/kcore_cli decompose "$expand_graph" "$engine" \
    --renumber --simcheck)"
  if [[ "$(grep -E '^(k_max|rounds)' <<< "$renum_out")" != "$want_sig" ]]; then
    echo "--renumber/$engine diverges from the flagless run" >&2
    exit 1
  fi
  grep -q '^renumber        degree-ordered' <<< "$renum_out" || {
    echo "--renumber/$engine did not report the renumber section" >&2; exit 1; }
done
renum_faulted="$(build/tools/kcore_cli decompose "$expand_graph" gpu \
  --renumber --simcheck "--faults=$fault_spec")"
if [[ "$(grep -E '^(k_max|rounds)' <<< "$renum_faulted")" != "$want_sig" ]]; then
  echo "--renumber under the fault plan diverges from the flagless run" >&2
  exit 1
fi

echo "=== release: fused-path drift guard (--fuse) ==="
# Fusion must not move the results (k_max/rounds identical), must actually
# cut launches below the unfused two-per-round floor, and must not drift
# the modeled time upward (same relative tolerance as the warp guard).
fused_out="$(build/tools/kcore_cli decompose "$expand_graph" gpu --fuse --simcheck)"
if [[ "$(grep -E '^(k_max|rounds)' <<< "$fused_out")" != "$want_sig" ]]; then
  echo "--fuse diverges from the flagless run" >&2
  exit 1
fi
fused_rounds="$(awk '/^rounds/ {print $2}' <<< "$fused_out")"
fused_launches="$(awk '/^kernel_launches/ {print $2}' <<< "$fused_out")"
if (( fused_launches >= 2 * fused_rounds )); then
  echo "--fuse did not cut launches: $fused_launches launches over" \
    "$fused_rounds rounds" >&2
  exit 1
fi
fused_ms="$(awk '/^modeled_ms/ {print $2}' <<< "$fused_out")"
awk -v a="$base_ms" -v b="$fused_ms" 'BEGIN {
  if (b > a * 1.10 + 0.005) {
    printf "--fuse modeled_ms drifted above default: %s vs %s\n", b, a
    exit 1
  }
}'

echo "=== release: deadline smoke (--timeout-ms) ==="
# An already-expired deadline must stop the run at the first round boundary
# with exit 1 and a structured DeadlineExceeded; a generous one must not
# perturb the answer.
rc=0
build/tools/kcore_cli decompose "$expand_graph" gpu --timeout-ms=0 \
  2> /dev/null || rc=$?
if [[ "$rc" != 1 ]]; then
  echo "--timeout-ms=0: expected DeadlineExceeded exit 1, got $rc" >&2
  exit 1
fi
timed_out="$(build/tools/kcore_cli decompose "$expand_graph" gpu \
  --timeout-ms=60000)"
if [[ "$(grep -E '^(k_max|rounds)' <<< "$timed_out")" != "$want_sig" ]]; then
  echo "--timeout-ms=60000 perturbed the flagless answer" >&2
  exit 1
fi

echo "=== release: chaos soak (kcore_soak, KCORE_FAULTS + KCORE_SIMCHECK=1) ==="
# A seeded mixed workload (point queries, single-k mining, full decomposes;
# slices cancelled and deadline-expired) through the long-lived serving
# loop, with an ambient fault plan — transient launch rejections plus
# outright device loss — attached to every per-request device and the
# simulated-device sanitizer watching. Every completed answer is verified
# bit-for-bit against the BZ oracle inside the harness; a mismatch, silent
# drop or unresolved future exits 3. Request count is env-overridable so
# nightly runs can soak long (the committed BENCH_serving.json run is 6000
# requests; this gate defaults to a quick 400).
soak_requests="${KCORE_SOAK_REQUESTS:-400}"
KCORE_FAULTS='launch_fail:p=0.01,seed=5;device_lost@launch=25' \
  KCORE_SIMCHECK=1 \
  build/tools/kcore_soak --requests="$soak_requests" --seed=3 \
  --cancel=0.02 --deadline=0.02

echo "=== release: kcore_cli --updates smoke (stacked with simcheck + faults) ==="
# Streams a mixed insert/delete batch sequence through the GPU-resident
# incremental engine; the CLI itself verifies the maintained coreness
# bit-for-bit against a fresh BZ of the final graph ("verify ok (bz)"),
# so this gate just needs the run to survive transient faults cleanly.
updates_stream="$(mktemp)"
trap 'rm -f "$smoke_graph" "$expand_graph" "$trace_json" "$updates_stream"' EXIT
printf -- '- 0 2\n- 1 3\n+ 0 2\n+ 1 3\n- 2 3\n' > "$updates_stream"
build/tools/kcore_cli decompose "$smoke_graph" gpu \
  "--updates=$updates_stream" --update-batch=2 --simcheck \
  '--faults=launch_fail@3' | grep -q '^verify       ok (bz)' || {
    echo "--updates smoke: incremental verify line missing" >&2; exit 1; }

echo "=== release: mutating chaos soak (update slice + KCORE_FAULTS + KCORE_SIMCHECK=1) ==="
# Same chaos harness with the mutation slice engaged: a fraction of the
# workload is edge-update batches through the incremental engine, and the
# harness checks every committed epoch's coreness against the BZ oracle of
# the mutated graph (plus the usual zero-mismatch/zero-drop gates).
KCORE_FAULTS='launch_fail:p=0.01,seed=5;device_lost@launch=25' \
  KCORE_SIMCHECK=1 \
  build/tools/kcore_soak --requests="$soak_requests" --seed=31 \
  --update-fraction=0.15 --update-batch=4 --cancel=0.02 --deadline=0.02

echo "=== release: cluster legs (kcore_cli, 2 strategies, KCORE_SIMCHECK=1) ==="
# The simulated multi-node engine must land on the flagless single-GPU
# answer under both a mass-balancing and a cut-minimizing partition, with
# the simulated-device sanitizer watching every node's devices.
want_kmax="$(grep -E '^k_max' <<< "$base_out")"
for strategy in degree edgecut; do
  cluster_out="$(KCORE_SIMCHECK=1 build/tools/kcore_cli decompose \
    "$expand_graph" cluster --nodes=3 "--partition=$strategy" --simcheck)"
  if [[ "$(grep -E '^k_max' <<< "$cluster_out")" != "$want_kmax" ]]; then
    echo "cluster/--partition=$strategy diverges from the flagless run" >&2
    exit 1
  fi
  grep -q "^partition       $strategy" <<< "$cluster_out" || {
    echo "cluster/--partition=$strategy did not report its strategy" >&2
    exit 1; }
  grep -q '^simcheck     clean' <<< "$cluster_out" || {
    echo "cluster/--partition=$strategy simcheck not clean" >&2; exit 1; }
done

echo "=== release: cluster node-loss leg (degraded exit 4) ==="
# --faults attaches the device-loss plan to every node, so the whole
# cluster dies and the run must finish on the CPU fallback: exact answer,
# structured DegradedSuccess, exit 4. A silent 0 here means node loss
# became invisible to scripts; a nonzero other than 4 means the fallback
# lost the answer.
rc=0
cluster_lost="$(build/tools/kcore_cli decompose "$expand_graph" cluster \
  --nodes=2 '--faults=device_lost@launch=3' --simcheck)" || rc=$?
if [[ "$rc" != 4 ]]; then
  echo "cluster node-loss: expected degraded-success exit 4, got $rc" >&2
  exit 1
fi
if [[ "$(grep -E '^k_max' <<< "$cluster_lost")" != "$want_kmax" ]]; then
  echo "cluster node-loss: degraded answer diverges from the flagless run" >&2
  exit 1
fi
grep -q '^degraded            yes' <<< "$cluster_lost" || {
  echo "cluster node-loss: recovery summary missing degraded marker" >&2
  exit 1; }

echo "=== release: benchmark smoke (perfbench/smoke_test.py) ==="
# Builds the benchmark program against this checkout's src/ and runs every
# workload at a tiny size with its result checks, so a src/ change that
# breaks the benchmark's build or its oracle checks fails here, not in a
# benchmark run.
python3 perfbench/smoke_test.py

echo "=== asan: configure + build ==="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
echo "=== asan: tier-1 ==="
ctest --preset tier1-asan
echo "=== asan: tier-1 (KCORE_SIMCHECK=1) ==="
KCORE_SIMCHECK=1 ctest --preset tier1-asan
echo "=== asan: fault recovery (KCORE_FAULTS + KCORE_SIMCHECK=1) ==="
KCORE_FAULTS="$fault_spec" KCORE_SIMCHECK=1 ctest --preset tier1-asan -R "$fault_suites"

echo "=== tsan: thread-pool hand-off (ThreadPoolTest.*, LaunchTest.*) ==="
# ParallelFor starts every batch on the calling thread and hands it to
# workers only past its gate, so batch publication, the wake and the
# drain are where a host-level race would sit. This short leg builds just
# the two suites that drive them and runs them under TSan on every CI run;
# --tsan below adds the whole tier-1 suite.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target common_test cusim_test
build-tsan/tests/common_test --gtest_filter='ThreadPoolTest.*'
build-tsan/tests/cusim_test --gtest_filter='LaunchTest.*'

if [[ "$run_tsan" == "1" ]]; then
  echo "=== tsan: configure + build ==="
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  echo "=== tsan: tier-1 ==="
  ctest --preset tier1-tsan
fi

echo "ci_check: all gates passed"
