#!/usr/bin/env bash
# CI entry point: run the tier-1 verify three ways — a default (Release)
# build with -Werror (the repo's own sources must build warning-free; GTest
# and google-benchmark come from system packages), an Address+UB-sanitized
# build (MERSIT_SANITIZE=ON) over the full suite (including the
# serialization fuzz tests and fault campaigns), and a
# ThreadSanitizer build (MERSIT_SANITIZE=thread) over the `concurrency`-
# labelled suites (codec lazy init, format kernels, thread pool, GEMM,
# parallel PTQ, serving engine + hot-swap; see tests/CMakeLists.txt for the
# label registry).  Finally, guard against build artifacts leaking into the
# work tree.  Between the default build and the sanitizers, the GEMM
# library must export no weak gemm::detail template symbols, the GEMM,
# layer, fake-quant loop and codec suites must pass again when built with
# -mfma, the examples must run to a clean exit, the paper's deterministic
# outputs must match bench/golden/, and the gate-replay, trunk-mersit,
# mobile-int8 and serve-swap benchmark workloads must report their outputs
# correct.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Three configure+build cycles make compiler caching pay for itself; pick up
# ccache automatically when the host has it, stay silent when it doesn't.
CACHE_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  CACHE_ARGS=(-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  echo "==> ccache detected: $(ccache --version | head -n1)"
fi

# Runs a gtest binary under a filter, failing first when any of the
# filter's ':'-separated patterns selects no test: a pattern aimed at the
# wrong binary would otherwise pass by running nothing.
run_gtest() {
  local bin="$1" filter="$2" pattern listed
  local -a patterns
  IFS=':' read -ra patterns <<< "${filter}"
  for pattern in "${patterns[@]}"; do
    listed="$("${bin}" --gtest_filter="${pattern}" --gtest_list_tests)"
    if ! grep -q '^  ' <<< "${listed}"; then
      echo "==> CI FAIL: ${bin} --gtest_filter='${pattern}' selects no test" >&2
      exit 1
    fi
  done
  "${bin}" --gtest_filter="${filter}"
}

run_suite() {
  local build_dir="$1"; shift
  echo "==> configure ${build_dir} ($*)"
  cmake -B "${build_dir}" -S . "${CACHE_ARGS[@]}" "$@"
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "==> ctest ${build_dir}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

# One place reads the environment: src/core/env.h parses every MERSIT_*
# variable strictly (a malformed value throws instead of falling back to a
# default), so a raw getenv anywhere else in the library, the benches or
# the examples would bring back a knob that a typo silently ignores.
echo "==> environment reads only through src/core/env.h"
RAW_GETENV="$(grep -rn 'getenv(' src bench examples | grep -v '^src/core/env\.h:' || true)"
if [[ -n "${RAW_GETENV}" ]]; then
  echo "==> CI FAIL: getenv outside src/core/env.h:" >&2
  echo "${RAW_GETENV}" >&2
  exit 1
fi

run_suite build -DCMAKE_CXX_FLAGS=-Werror

# Linkage guard: the GEMM templates in nn/gemm/backend_impl.h are compiled
# into TUs with different -m flags, so they must have internal linkage.  A
# weak (W/V) gemm::detail symbol means the linker keeps one TU's copy for
# every caller, and an unoptimized build could then run -mavx512f code
# inside the AVX2 backend or the baseline-flag driver.
echo "==> GEMM template linkage check (nm)"
WEAK="$(nm -C --defined-only build/src/nn/libmersit_nn.a |
  grep -E ' [WV] .*gemm::detail::' || true)"
if [[ -n "${WEAK}" ]]; then
  echo "==> CI FAIL: weak gemm::detail symbols in libmersit_nn.a:" >&2
  echo "${WEAK}" >&2
  exit 1
fi

# SIMD tier self-check: --backends lists every tier with the host's
# verdict and the active one (reading the active tier throws on a
# MERSIT_BACKEND the host cannot execute).  Then the suites must pass
# under the forced scalar tier as well as under the widest one: with
# MERSIT_BACKEND=scalar every SIMD loop's default dispatch runs its scalar
# body — GEMM, depthwise, the epilogue and int8 dequant write-backs,
# fake-quant and int8 level quantization — while the per-tier gates inside
# the suites (GemmBackend.* for the epilogue entry and the Activation
# modules, Int8Kernel.* for dequant_int8 and the segmented int8 output,
# Int8Levels.* for im2col_int8) still install every other tier the host
# executes.  `Gemm*` takes in the contract matrix (test_gemm.cpp):
# the weight-path column Gemm/LayerPath, the model table Gemm/ModelPath
# and the benchmark-shaped GemmBenchCell cells, whose references and pool
# widths 2 and 13 then run on the scalar packs; `Kernel*` the fake-quant
# loop suites; test_formats the codec suite over the scalar fake-quant
# loop; `Int8*` (Int8Levels among them) the int8 path and its level
# quantization.
echo "==> SIMD tier self-check (--backends)"
./build/bench/bench_inference --backends
echo "==> GEMM, fake-quant and codec suites under MERSIT_BACKEND=scalar"
MERSIT_BACKEND=scalar run_gtest ./build/tests/test_concurrency 'Gemm*:Kernel*'
MERSIT_BACKEND=scalar run_gtest ./build/tests/test_formats '*'
MERSIT_BACKEND=scalar run_gtest ./build/tests/test_qgemm \
  'QgemmPack*:QgemmWeightPlan.*:QgemmModelTest.*:Int8*'

# FMA contraction guard: rebuild the GEMM and layer suites (the contract
# matrix included), the fake-quant loop suites (Kernel*, in
# test_concurrency) and the codec suite (test_formats) with -mfma, so the
# compiler may fuse any a*b + c it sees, and rerun them.  They pass
# only if -ffp-contract=off (src/CMakeLists.txt, tests/CMakeLists.txt)
# reaches every TU on the bit-identity path; aarch64 has FMA in its
# baseline ISA, so an aarch64 build (scalar backend only, which no CI
# stage compiles) relies on the same flag.  Hosts that cannot run FMA code
# skip the stage.
if [[ "$(uname -m)" == x86_64 ]] && grep -qw fma /proc/cpuinfo; then
  echo "==> configure build-fma (-mfma)"
  cmake -B build-fma -S . "${CACHE_ARGS[@]}" -DCMAKE_CXX_FLAGS=-mfma
  echo "==> build build-fma (test_concurrency, test_qgemm, test_formats)"
  cmake --build build-fma -j "${JOBS}" --target test_concurrency test_qgemm \
    test_formats
  echo "==> GEMM, layer, fake-quant loop and codec suites under -mfma"
  run_gtest ./build-fma/tests/test_concurrency 'Gemm*:Layer*:Kernel*'
  ./build-fma/tests/test_qgemm
  ./build-fma/tests/test_formats
else
  echo "==> skip the -mfma stage: this host cannot execute x86-64 FMA code"
fi

# Example smoke: the walkthroughs drive the artifact pack/save/load/unpack
# round trip, the code-weight paths, kulisch_dot and hw::MacReference end
# to end; each must exit 0 with its default arguments.
for example in deploy_quantized fault_campaign mac_simulation quickstart; do
  echo "==> example ${example}"
  "./build/examples/${example}"
done

# Perf smoke: the Release bench runs every model through all three paths
# (prepacked+fused / code-domain / decode-free int8, picked with
# gemm::set_qgemm_mode) and enforces its gates internally, exiting nonzero
# when any fails:
#  * ULP > 0 for the fused default forward vs the same model run module by
#    module under a pass-through quant session, on every model at pool
#    widths 1 and 4 (the whole-model bit-identity contract; the layer-level
#    contract against the naive loops is GemmConv/GemmLinear/GemmAttention
#    in test_gemm, and every weight path's is the contract matrix there),
#  * ULP > 0 for the code-domain forward vs the fake-quantized FP32 path,
#  * code-domain slower than prepacked FP32 on ResNet18-mini (medians of
#    alternating pairs), or either of those two models' plan report showing
#    a layer that did not run the FP32 kernel with no fallback,
#  * a vision model with no usable int8 grid for INT8 (int8 path never
#    engaged), int8 logits outside the grid-flip tolerance of the code
#    path, or any batch top-1 flip between the int8 and code paths (the
#    1.3x int8-over-code single-thread speedup bar on ResNet18-mini and
#    VGG16-mini additionally applies in full sizing),
#  * the code format not fitting the Kulisch quire,
#  * a SIMD backend diverging bitwise from scalar in the backend sweep, or
#    the detected backend losing to scalar on the sweep geomean (the 1.5x
#    single-model speedup bar additionally applies in full sizing).
# The --check_json pass guards the committed BENCH_inference.json against
# schema drift, same as the serving report below.
echo "==> perf smoke (bench_inference, fast sizing)"
MERSIT_BENCH_FAST=1 ./build/bench/bench_inference --json=build/BENCH_inference.json
./build/bench/bench_inference --check_json=BENCH_inference.json

# Codec loop smoke: micro_codecs --codec_json runs every registered format
# through every fake-quant batch loop this host can execute (scalar, AVX2,
# AVX-512) on a normal and a ReLU-shaped buffer and exits nonzero if any
# loop's output differs bitwise from the scalar reference.  The per-loop
# ns/elem columns are reported, not gated.
echo "==> codec loop smoke (micro_codecs --codec_json)"
./build/bench/micro_codecs --codec_json=build/codec_throughput.json \
  --benchmark_filter='^$'

# Serving smoke: bench_serving drives the engine through saturation, 2x
# overload, hot-swap under live traffic, and a fault campaign fired through
# the swap path, enforcing its own gates (exit nonzero on violation):
#  * no deadlock — every submitted future resolves within a hard timeout,
#  * typed shedding at 2x saturation (never unbounded queueing),
#  * p99 of served requests within the deadline bound,
#  * corrupt artifacts rejected, clean re-swap restores clean accuracy.
# The --check_json pass guards the committed BENCH_serving.json against
# schema drift (stale committed reports have bitten this repo before).
echo "==> serving smoke (bench_serving, fast sizing)"
MERSIT_BENCH_FAST=1 ./build/bench/bench_serving --json=build/BENCH_serving.json
./build/bench/bench_serving --check_json=BENCH_serving.json

# Hardware smoke: fig7_mac_area_power replays entire per-layer PTQ code
# streams through the 64-wide gate-level simulator, enforcing its gates
# internally (exit nonzero on violation):
#  * 64-wide replay >= 20x faster than the scalar replay loop,
#  * MERSIT(8,2) saves both area and power vs Posit(8,1),
#  * every per-lane accumulator bit-identical to hw::MacReference.
# The --check_json pass guards the committed BENCH_fig7.json.
echo "==> hardware smoke (fig7_mac_area_power, fast sizing)"
MERSIT_BENCH_FAST=1 ./build/bench/fig7_mac_area_power --json=build/BENCH_fig7.json
./build/bench/fig7_mac_area_power --check_json=BENCH_fig7.json

# Paper goldens: the deterministic outputs behind Table 1 (MERSIT codes),
# Fig. 2 (MAC parameters), Fig. 4 (range/precision), Table 3 (multiplier
# breakdown), Fig. 6 (RMSE, fast sizing) and the vmargin, dot-array and
# scaling-policy (fast sizing) ablations must match the committed text
# under bench/golden/ byte for byte.  Every decode, table and kernel they
# read is seeded and thread-count invariant, so any diff is a change in a
# paper number.
echo "==> paper goldens (bench/golden)"
for b in table1_mersit_codes fig2_mac_params fig4_range_precision \
         table3_multiplier_breakdown ablation_vmargin ablation_array; do
  ./build/bench/"${b}" | diff -u "bench/golden/${b}.txt" -
done
for b in fig6_rmse ablation_scaling; do
  MERSIT_BENCH_FAST=1 ./build/bench/"${b}" 2>/dev/null |
    diff -u "bench/golden/${b}.txt" -
done

# Sizing knob: MERSIT_BENCH_FAST takes only 0 or 1 (unset and empty mean
# full), and anything else must stop a bench before it runs at a sizing
# nobody asked for.  fig6_rmse reads its sizes first, so it fails at once.
echo "==> malformed MERSIT_BENCH_FAST exits nonzero"
if MERSIT_BENCH_FAST=yes ./build/bench/fig6_rmse >/dev/null 2>&1; then
  echo "==> CI FAIL: fig6_rmse accepted MERSIT_BENCH_FAST=yes" >&2
  exit 1
fi

# Benchmark exactness: only each result line's verdict is gated, not the
# timings.
#  * gate-replay replays every captured layer stream through the three
#    headline MACs many times over and reports "correct": false if any
#    lane's accumulator disagrees with hw::MacReference or any pass's
#    simulated statistics (pairs, toggles, energy) differ from the first.
#  * trunk-mersit and mobile-int8 run the W8A8 layer code: "correct"
#    includes the bitwise code-domain vs fake-quantized FP32 check and the
#    int8 tolerance check.
#  * serve-swap drives the serving engine through MERSIT(8,2)/(8,3) hot
#    swaps, so code-path layers recompile their weight plans under live
#    traffic.
perfbench_exact() {
  local out result
  out="$(CARGO_TARGET_DIR=build/perfbench-ci python3 perfbench/run.py \
    --workload "$1" --seed 1 --seconds 3 "${@:2}")"
  result="${out##*$'\n'}"
  printf '%s\n' "${out%$'\n'*}"
  if [[ "${result}" != '{"correct": true,'* ]]; then
    echo "==> CI FAIL: $1 result is not \"correct\": true:" >&2
    printf '%s\n' "${result}" >&2
    exit 1
  fi
}
echo "==> gate-replay exactness (perfbench)"
perfbench_exact gate-replay --trace 1
for workload in trunk-mersit mobile-int8 serve-swap; do
  echo "==> ${workload} exactness (perfbench)"
  perfbench_exact "${workload}" --trace 0
done

# Sanitizer stages run under the forced scalar tier: the default dispatch of
# every SIMD loop — GEMM, depthwise, fake-quant and int8 level quantization
# — runs its scalar body (deterministic baseline codegen).  The per-tier
# gates (GemmBackend.*, GemmConv.*, Gemm/LayerPath, Gemm/ModelPath,
# KernelLoops.*, KernelGrid.*, Int8Kernel.*, Int8Levels.*) still install
# every tier the host executes through test::TierGuard, so the intrinsic
# bodies get sanitizer coverage through them.
MERSIT_BACKEND=scalar run_suite build-sanitize -DMERSIT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo

# TSan stage: rebuild and run only the concurrency-sensitive suites (a full
# TSan run of the training-heavy tests would dominate CI time).  Selection is
# by ctest label: tests/CMakeLists.txt labels the dedicated
# test_concurrency executable (codec lazy init, format kernels, thread pool,
# GEMM, the contract matrix, prepack/arena, a code swap racing forwards,
# parallel PTQ), test_qgemm (the code path riding the pool fan-out, weight
# plan recompiles, Kulisch accumulator, int8 path), and test_serve (engine admission /
# watchdog / drain races, hot-swap under load) with `concurrency`, so new
# suites join the stage by adding a source there instead of editing a
# pattern here.  The one name filter slices the contract matrix: the model
# table (Gemm/ModelPath) and the weight-path column at pool width 4 stay
# out; the two benchmark-shaped models (GemmBenchCell) and the column at
# width 1 run.  Force a multi-thread pool so parallel paths actually
# interleave on 1-core runners.
echo "==> configure build-tsan (MERSIT_SANITIZE=thread)"
cmake -B build-tsan -S . "${CACHE_ARGS[@]}" -DMERSIT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
echo "==> build build-tsan"
cmake --build build-tsan -j "${JOBS}" --target test_concurrency test_qgemm test_serve
echo "==> ctest build-tsan (-L concurrency)"
MERSIT_BACKEND=scalar MERSIT_THREADS=4 ctest --test-dir build-tsan \
  --output-on-failure -j "${JOBS}" -L concurrency \
  -E 'Gemm/ModelPath\.|Gemm/LayerPath\..*/width4'

# Committed build trees have bitten this repo before (a stale build-sanitize/
# was checked in); fail if any build artifact is tracked by git or shows up
# untracked (i.e. not covered by .gitignore).
ARTIFACTS="$(git ls-files | grep -E '^build|\.o$|\.a$' || true)"
if [[ -n "${ARTIFACTS}" ]]; then
  echo "==> CI FAIL: build artifacts are tracked by git:" >&2
  echo "${ARTIFACTS}" >&2
  exit 1
fi
UNIGNORED="$(git status --porcelain | grep -E '^\?\? (build|.*\.(o|a)$)' || true)"
if [[ -n "${UNIGNORED}" ]]; then
  echo "==> CI FAIL: build artifacts not covered by .gitignore:" >&2
  echo "${UNIGNORED}" >&2
  exit 1
fi

echo "==> CI OK (default + -mfma + ASan/UBSan + TSan + artifact guard)"
