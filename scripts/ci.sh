#!/usr/bin/env bash
# CI entry point: run the tier-1 verify three ways — a default (Release)
# build, an Address+UB-sanitized build (MERSIT_SANITIZE=ON) over the full
# suite (including the serialization fuzz tests and fault campaigns), and a
# ThreadSanitizer build (MERSIT_SANITIZE=thread) over the `concurrency`-
# labelled suites (codec lazy init, kernel cache, thread pool, GEMM,
# parallel PTQ, serving engine + hot-swap; see tests/CMakeLists.txt for the
# label registry).  Finally, guard against build artifacts leaking into the
# work tree.  Between the default build and the sanitizers, the GEMM
# library must export no weak gemm::detail template symbols, and the
# gate-replay, trunk-mersit, mobile-int8 and serve-swap benchmark workloads
# must report their outputs correct.
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

run_suite() {
  local build_dir="$1"; shift
  echo "==> configure ${build_dir} ($*)"
  cmake -B "${build_dir}" -S . "${CACHE_ARGS[@]}" "$@"
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "==> ctest ${build_dir}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

run_suite build

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

# SIMD backend self-check: the registry's CPUID detection must activate a
# backend this host can actually execute (--backends exits nonzero
# otherwise), and the GEMM suites must pass under the forced scalar
# reference as well as under the auto-detected backend (the per-backend
# bitwise gates inside the suites cover every other compiled-in backend).
# The test_qgemm filter includes QgemmModelTest so code-mode whole-model
# bit identity also runs on the scalar packs.
echo "==> SIMD backend self-check (--backends)"
./build/bench/bench_inference --backends
echo "==> GEMM suites under MERSIT_BACKEND=scalar"
MERSIT_BACKEND=scalar ./build/tests/test_concurrency --gtest_filter='Gemm*'
MERSIT_BACKEND=scalar ./build/tests/test_qgemm --gtest_filter='QgemmPack*:QgemmModelTest.*:Int8*'

# Perf smoke: the Release bench runs every model through all three modes
# (prepacked+fused / code-domain MERSIT_QGEMM=code / decode-free
# MERSIT_QGEMM=int8) and enforces its gates internally, exiting nonzero
# when any fails:
#  * ULP > 0 for the fused default forward vs the same model run module by
#    module under a pass-through quant session, on every model at pool
#    widths 1 and 4 (the whole-model bit-identity contract; the layer-level
#    contract against the naive loops is GemmConv/GemmLinear/GemmAttention
#    in test_gemm),
#  * ULP > 0 for the code-domain forward vs the fake-quantized FP32 path,
#  * code-domain slower than prepacked FP32 on ResNet18-mini,
#  * a vision model with no usable affine LUT for INT8 (int8 path never
#    engaged), int8 logits outside the grid-flip tolerance of the code
#    path, or any batch top-1 flip between the int8 and code paths (the
#    1.3x int8-over-code single-thread speedup bar on ResNet18-mini and
#    VGG16-mini additionally applies in full sizing),
#  * no usable Kulisch table for the code format,
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
MERSIT_BENCH_FAST=1 ./build/bench/bench_serving --fast --json=build/BENCH_serving.json
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
#    swaps, so code-mode layers rebuild their packs under live traffic.
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

# Sanitizer stages run the *default* dispatch under the forced scalar
# reference backend (deterministic baseline codegen; the per-backend gates
# inside test_gemm/test_qgemm still drive every compiled-in SIMD backend
# explicitly, so the intrinsic kernels get sanitizer coverage through them).
MERSIT_BACKEND=scalar run_suite build-sanitize -DMERSIT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo

# TSan stage: rebuild and run only the concurrency-sensitive suites (a full
# TSan run of the training-heavy tests would dominate CI time).  Selection is
# by ctest label, not name regex: tests/CMakeLists.txt labels the dedicated
# test_concurrency executable (codec lazy init, kernel cache, thread pool,
# GEMM, prepack/arena, a code swap racing forwards, parallel PTQ),
# test_qgemm (code mode riding the pool fan-out, keyed pack cache, Kulisch
# accumulator, int8 path), and test_serve (engine admission / watchdog /
# drain races, hot-swap under load) with `concurrency`, so new suites join
# the stage by adding a source there instead of editing a pattern here.
# Force a multi-thread pool so parallel paths actually interleave on 1-core
# runners.
echo "==> configure build-tsan (MERSIT_SANITIZE=thread)"
cmake -B build-tsan -S . "${CACHE_ARGS[@]}" -DMERSIT_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
echo "==> build build-tsan"
cmake --build build-tsan -j "${JOBS}" --target test_concurrency test_qgemm test_serve
echo "==> ctest build-tsan (-L concurrency)"
MERSIT_BACKEND=scalar MERSIT_THREADS=4 ctest --test-dir build-tsan \
  --output-on-failure -j "${JOBS}" -L concurrency

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

echo "==> CI OK (default + ASan/UBSan + TSan + artifact guard)"
