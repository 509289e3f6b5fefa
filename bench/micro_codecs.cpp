// google-benchmark microbenchmarks: codec encode/decode throughput, the
// scalar-vs-kernel batch quantization comparison, and gate-level MAC
// simulation rate.
//
// Extra flag: --codec_json=PATH writes a machine-readable speedup report
// before the google-benchmark run — the bench trajectory and EXPERIMENTS.md
// consume it.  Per format, on a normal and a ReLU-shaped (half zeros)
// buffer, single thread: ns/elem of the Format::quantize reference
// (fake_quantize_scalar) and of the QuantKernel batch loop of each tier the
// host can run (scalar, avx2, avx512; set with core::set_tier), and the
// speedup of the active tier's loop (MERSIT_BACKEND, else the widest).  Every
// loop's output is first compared bitwise with the reference; any
// difference makes the run exit 1 (no timing gate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/cpu.h"
#include "core/mersit.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "formats/kernels/quant_kernel.h"
#include "formats/quantize.h"
#include "hw/mac.h"
#include "hw/reference.h"
#include "nn/gemm/qgemm.h"
#include "rtl/sim.h"

using namespace mersit;

namespace {

std::vector<double> random_values(std::size_t n) {
  std::mt19937 rng(11);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

void BM_EncodeTable(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  (void)fmt->codec();  // build tables outside the loop
  const auto vals = random_values(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fmt->encode(vals[i++ & 4095]));
  }
}

void BM_EncodeDirectMersit(benchmark::State& state) {
  const core::MersitFormat& fmt = core::mersit_8_2();
  const auto vals = random_values(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fmt.encode_direct(vals[i++ & 4095]));
  }
}

void BM_DecodeMersit(benchmark::State& state) {
  const core::MersitFormat& fmt = core::mersit_8_2();
  std::uint8_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fmt.decode_value(c++));
  }
}

std::vector<float> random_floats(std::size_t n, unsigned seed = 3) {
  std::vector<float> buf(n);
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.f, 1.f);
  for (auto& v : buf) v = dist(rng);
  return buf;
}

/// The scale a PTQ run would use for this buffer (paper-default policy), so
/// the quantize benchmarks exercise the format's whole value range instead
/// of the degenerate all-underflow corner.
double ptq_scale(const formats::Format& fmt, const std::vector<float>& buf) {
  float mx = 0.f;
  for (const float v : buf) mx = std::max(mx, std::fabs(v));
  return formats::scale_for_absmax(fmt, mx, formats::ScalePolicy::kMaxToUnity);
}

void BM_QuantizeBufferScalar(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  (void)fmt->codec();  // build tables outside the loop
  const std::vector<float> buf =
      random_floats(static_cast<std::size_t>(state.range(0)));
  const double scale = ptq_scale(*fmt, buf);
  for (auto _ : state) {
    std::vector<float> copy = buf;
    formats::fake_quantize_scalar(copy, *fmt, scale);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_QuantizeBufferKernel(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  (void)fmt->kernel();  // build LUTs outside the loop
  const std::vector<float> buf =
      random_floats(static_cast<std::size_t>(state.range(0)));
  const double scale = ptq_scale(*fmt, buf);
  for (auto _ : state) {
    std::vector<float> copy = buf;
    formats::fake_quantize(copy, *fmt, scale);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// ------------------------------------------------- speedup report (JSON) --

/// One format on one buffer shape: the Format::quantize reference and each
/// tier's QuantKernel batch loop (negative = the host cannot run that tier).
struct CodecTiming {
  std::string format;
  const char* buffer = "";
  double reference_ns_per_elem = 0.0;
  double loop_ns_per_elem[std::size(core::kTiers)] = {};
  double dispatched_ns_per_elem = 0.0;
  [[nodiscard]] double speedup() const {
    return dispatched_ns_per_elem > 0.0
               ? reference_ns_per_elem / dispatched_ns_per_elem
               : 0.0;
  }
};

/// Wall-time one fake_quantize variant over repeated passes of `buf`,
/// working through an L1-resident scratch chunk so the unavoidable
/// refresh-copy (fake_quantize is in-place) stays off the measurement.
template <typename Fn>
double time_ns_per_elem(const std::vector<float>& buf, int passes, Fn&& fn) {
  constexpr std::size_t kChunk = 4096;
  std::vector<float> scratch(kChunk);
  const auto pass = [&](bool timed, double& ns) {
    for (std::size_t at = 0; at < buf.size(); at += kChunk) {
      const std::size_t n = std::min(kChunk, buf.size() - at);
      std::copy_n(buf.data() + at, n, scratch.data());
      const auto t0 = std::chrono::steady_clock::now();
      fn(std::span<float>(scratch.data(), n));
      const auto t1 = std::chrono::steady_clock::now();
      if (timed)
        ns += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
    }
  };
  double ns = 0.0;
  pass(/*timed=*/false, ns);  // warm-up (tables, caches, page faults)
  for (int p = 0; p < passes; ++p) pass(/*timed=*/true, ns);
  return ns / (static_cast<double>(passes) * static_cast<double>(buf.size()));
}

/// Activation-shaped input: ReLU of a normal stream, so about half the
/// elements are zeros at unpredictable positions.
std::vector<float> relu_floats(std::size_t n) {
  std::vector<float> buf = random_floats(n, /*seed=*/5);
  for (float& v : buf) v = std::max(v, 0.f);
  return buf;
}

/// Measure every registered format through the reference and the loop of
/// every tier the host executes (installed with core::set_tier), on a normal
/// and a ReLU-shaped buffer, and write the JSON report.  Returns 1 when any
/// loop's output differs bitwise from the reference.
int write_codec_json(const char* path) {
  const core::Tier dispatched = core::active_tier();
  constexpr std::size_t kElems = 1 << 16;
  constexpr int kPasses = 24;
  const struct {
    const char* name;
    std::vector<float> data;
  } buffers[] = {{"normal", random_floats(kElems)},
                 {"relu", relu_floats(kElems)}};
  std::vector<CodecTiming> rows;
  int mismatches = 0;
  for (const std::string& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = fmt->kernel();
    for (const auto& b : buffers) {
      const double scale = ptq_scale(*fmt, b.data);
      std::vector<float> want = b.data;
      formats::fake_quantize_scalar(want, *fmt, scale);
      CodecTiming t;
      t.format = name;
      t.buffer = b.name;
      t.reference_ns_per_elem =
          time_ns_per_elem(b.data, kPasses, [&](std::span<float> c) {
            formats::fake_quantize_scalar(c, *fmt, scale);
          });
      for (std::size_t l = 0; l < std::size(core::kTiers); ++l) {
        const core::Tier tier = core::kTiers[l];
        t.loop_ns_per_elem[l] = -1.0;
        if (!core::tier_executable(tier)) continue;
        core::set_tier(tier);
        std::vector<float> got = b.data;
        kernel->fake_quantize(got, scale);
        if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) !=
            0) {
          std::fprintf(stderr,
                       "micro_codecs: %s loop differs from the scalar "
                       "reference on %s (%s buffer)\n",
                       core::tier_name(tier), name.c_str(), b.name);
          ++mismatches;
        }
        t.loop_ns_per_elem[l] =
            time_ns_per_elem(b.data, kPasses, [&](std::span<float> c) {
              kernel->fake_quantize(c, scale);
            });
        if (tier == dispatched)
          t.dispatched_ns_per_elem = t.loop_ns_per_elem[l];
      }
      core::set_tier(dispatched);
      rows.push_back(t);
    }
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_codecs: cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_codecs/fake_quantize\",\n");
  std::fprintf(f, "  \"elements\": %zu,\n  \"dispatched_loop\": \"%s\",\n",
               kElems, core::tier_name(dispatched));
  std::fprintf(f, "  \"mismatches\": %d,\n  \"rows\": [\n", mismatches);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CodecTiming& t = rows[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"buffer\": \"%s\", "
                 "\"reference_ns_per_elem\": %.3f",
                 t.format.c_str(), t.buffer, t.reference_ns_per_elem);
    for (std::size_t l = 0; l < std::size(core::kTiers); ++l) {
      const char* loop = core::tier_name(core::kTiers[l]);
      if (t.loop_ns_per_elem[l] < 0.0)
        std::fprintf(f, ", \"%s_ns_per_elem\": null", loop);
      else
        std::fprintf(f, ", \"%s_ns_per_elem\": %.3f", loop,
                     t.loop_ns_per_elem[l]);
    }
    std::fprintf(f, ", \"speedup\": %.2f}%s\n", t.speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("%-14s %-7s %10s", "format", "buffer", "reference");
  for (const core::Tier tier : core::kTiers)
    std::printf(" %10s", core::tier_name(tier));
  std::printf(" %8s   (ns/elem; dispatched loop: %s)\n", "speedup",
              core::tier_name(dispatched));
  for (const CodecTiming& t : rows) {
    std::printf("%-14s %-7s %10.2f", t.format.c_str(), t.buffer,
                t.reference_ns_per_elem);
    for (const double ns : t.loop_ns_per_elem) {
      if (ns < 0.0)
        std::printf(" %10s", "-");
      else
        std::printf(" %10.2f", ns);
    }
    std::printf(" %7.1fx\n", t.speedup());
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "micro_codecs: %d loop/format/buffer outputs differ "
                 "from the scalar reference\n", mismatches);
    return 1;
  }
  return 0;
}

void BM_MacNetlistCycle(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  rtl::Netlist nl;
  const hw::MacPorts mac = hw::build_mac(nl, *fmt);
  rtl::Simulator sim(nl);
  std::mt19937 rng(5);
  for (auto _ : state) {
    sim.set_input_bus(mac.wdec.code, rng() & 0xFF);
    sim.set_input_bus(mac.adec.code, rng() & 0xFF);
    sim.eval();
    sim.clock();
    benchmark::DoNotOptimize(sim.get(mac.acc[0]));
  }
}

/// One 64-lane eval/clock sweep of the MAC netlist: 64 code pairs settle
/// per iteration, so items_processed counts pairs and the per-pair rate is
/// directly comparable to BM_MacNetlistCycle above (the scalar sweep).
void BM_MacNetlistCycle64(benchmark::State& state, const char* name) {
  const auto fmt = core::make_format(name);
  rtl::Netlist nl;
  const hw::MacPorts mac = hw::build_mac(nl, *fmt);
  rtl::Simulator sim(nl);
  sim.set_lane_count(rtl::Simulator::kLanes);
  std::mt19937_64 rng(5);
  std::array<std::uint64_t, rtl::Simulator::kLanes> w{}, a{};
  for (auto _ : state) {
    for (int l = 0; l < rtl::Simulator::kLanes; ++l) {
      w[static_cast<std::size_t>(l)] = rng() & 0xFF;
      a[static_cast<std::size_t>(l)] = rng() & 0xFF;
    }
    sim.set_input_bus_lanes(mac.wdec.code, w);
    sim.set_input_bus_lanes(mac.adec.code, a);
    sim.eval();
    sim.clock();
    benchmark::DoNotOptimize(sim.get_lanes(mac.acc[0]));
  }
  state.SetItemsProcessed(state.iterations() * rtl::Simulator::kLanes);
}

/// Decode-free int8 GEMM rate on a 256^3 problem, called the way a conv
/// calls it: weight codes packed once through INT8's level map with
/// per-row scales, activation levels (uniform scale) packed per call, and
/// a per-row bias — so the rate includes the B pack and the dequant
/// write-back.  Single-threaded.  items_per_second counts multiply-adds as
/// 2 ops, so the reported rate reads directly as GOP/s — the headline
/// number EXPERIMENTS.md quotes for the integer path.
void BM_QgemmInt8Kernel256(benchmark::State& state) {
  constexpr int kDim = 256;
  core::resize_global_pool(1);  // raw single-thread kernel rate
  const auto fmt = core::make_format("INT8");
  const formats::TableCodec& table = fmt->codec();
  std::vector<std::uint8_t> finite;
  for (int c = 0; c < 256; ++c)
    if (table.finite(static_cast<std::uint8_t>(c))) finite.push_back(static_cast<std::uint8_t>(c));
  const formats::TableCodec::Int8Grid& grid = table.int8_grid();
  if (!grid.usable) {
    state.SkipWithError("INT8 has no usable int8 grid");
    return;
  }
  std::mt19937 rng(9);
  std::uniform_int_distribution<std::size_t> pick(0, finite.size() - 1);
  std::vector<std::uint8_t> ac(kDim * kDim);
  std::vector<std::int8_t> bq(kDim * kDim);
  for (auto& c : ac) c = finite[pick(rng)];
  for (auto& q : bq) q = grid.level[finite[pick(rng)]];
  const nn::gemm::PackedInt8 pa =
      nn::gemm::pack_a_int8_matrix(kDim, kDim, ac.data(), kDim, grid.level);
  const std::vector<double> sa(kDim, grid.pitch);
  const std::vector<float> bias(kDim, 0.f);
  std::vector<float> out(static_cast<std::size_t>(kDim) * kDim);
  for (auto _ : state) {
    nn::gemm::qgemm_int8(kDim, kDim, kDim, pa, sa.data(), bq.data(), kDim,
                         grid.pitch, nn::gemm::Init::kBiasRow, bias.data(),
                         out.data(), kDim);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (2LL * kDim * kDim * kDim));
}

void BM_MacReference(benchmark::State& state) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const auto* ef = dynamic_cast<const formats::ExponentCodedFormat*>(fmt.get());
  hw::MacReference ref(*ef);
  std::mt19937 rng(5);
  for (auto _ : state) {
    ref.accumulate(static_cast<std::uint8_t>(rng()), static_cast<std::uint8_t>(rng()));
    benchmark::DoNotOptimize(ref.acc_raw());
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_EncodeTable, mersit82, "MERSIT(8,2)");
BENCHMARK_CAPTURE(BM_EncodeTable, posit81, "Posit(8,1)");
BENCHMARK_CAPTURE(BM_EncodeTable, fp84, "FP(8,4)");
BENCHMARK_CAPTURE(BM_EncodeTable, int8, "INT8");
BENCHMARK(BM_EncodeDirectMersit);
BENCHMARK(BM_DecodeMersit);
BENCHMARK_CAPTURE(BM_QuantizeBufferScalar, mersit82, "MERSIT(8,2)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferScalar, posit81, "Posit(8,1)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferScalar, fp84, "FP(8,4)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferScalar, int8, "INT8")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferKernel, mersit82, "MERSIT(8,2)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferKernel, posit81, "Posit(8,1)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferKernel, fp84, "FP(8,4)")->Arg(4096);
BENCHMARK_CAPTURE(BM_QuantizeBufferKernel, int8, "INT8")->Arg(4096);
BENCHMARK_CAPTURE(BM_MacNetlistCycle, mersit82, "MERSIT(8,2)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle, posit81, "Posit(8,1)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle, fp84, "FP(8,4)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle64, mersit82, "MERSIT(8,2)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle64, posit81, "Posit(8,1)");
BENCHMARK_CAPTURE(BM_MacNetlistCycle64, fp84, "FP(8,4)");
BENCHMARK(BM_QgemmInt8Kernel256);
BENCHMARK(BM_MacReference);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--codec_json=", 13) == 0) {
      const int rc = write_codec_json(argv[i] + 13);
      if (rc != 0) return rc;
      // Strip the custom flag so google-benchmark doesn't reject it.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
