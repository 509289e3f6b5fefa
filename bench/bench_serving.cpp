// Serving-engine benchmark: latency/throughput under load, backpressure at
// saturation, artifact hot-swap under live traffic, and a fault campaign
// fired through the hot-swap path while requests are in flight.
//
// Protocol (ResNet18-mini serving MERSIT(8,2) artifacts, pool pinned to one
// worker thread so all parallelism comes from engine replicas):
//  1. saturation probe — closed-loop clients, one per batch slot of every
//     replica (replicas x max_batch) so the batcher fills as it does under
//     open-loop load, measure the sustainable QPS (the median of three
//     probes, so one low reading cannot put the "2x" rung below capacity);
//  2. open-loop runs at 0.5x / 1x / 2x of saturation (bursty arrivals,
//     generator never waits on responses): p50/p99 latency of served
//     requests, served QPS, and the shed rate by typed reason;
//  3. hot-swap under load — a 1x run while a swapper thread alternates the
//     MERSIT(8,2) and MERSIT(8,3) generations;
//  4. fault campaign under load — corrupted MQT1 payloads (fault::
//     make_live_swap_stages) arrive through swap_artifacts under traffic;
//     accuracy is measured *through the engine* per accepted stage, a
//     corrupt container must be rejected, and a clean re-swap must restore
//     exactly the clean accuracy.
//
// Internal gates (exit nonzero on violation; the CI serving-smoke stage
// relies on this):
//  * no deadlock — every submitted future resolves within a hard timeout;
//  * accounting — submitted == served + shed(typed) + replica failures in
//    every phase;
//  * backpressure — the 2x run sheds a nonzero fraction with typed
//    rejections instead of queueing without bound;
//  * latency — p99 of served requests stays within 1.5x the configured
//    deadline (the engine sheds what it cannot serve in time);
//  * hot-swap — every swap under load succeeds, zero replica failures;
//  * faults — the corrupt container is rejected and the post-campaign
//    re-swap restores clean accuracy exactly.
//
// Flags: --json=PATH writes the report consumed by EXPERIMENTS.md and the
// committed BENCH_serving.json; --check_json=PATH validates that a
// committed report still matches this bench's schema (staleness guard).
// MERSIT_BENCH_FAST=1 selects smoke sizing.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "fault/live.h"
#include "nn/models.h"
#include "ptq/sweep.h"
#include "serve/engine.h"

using namespace mersit;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kModel = "resnet";
constexpr double kHarvestTimeoutS = 30.0;  ///< deadlock gate per future
constexpr double kP99DeadlineSlack = 1.5;

int g_bad = 0;
void gate(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_serving: GATE FAILED: %s\n", what);
    ++g_bad;
  }
}

// ------------------------------------------------------------- accounting --

serve::Engine::Stats operator-(const serve::Engine::Stats& a,
                               const serve::Engine::Stats& b) {
  serve::Engine::Stats d;
  d.submitted = a.submitted - b.submitted;
  d.served = a.served - b.served;
  d.shed_queue_full = a.shed_queue_full - b.shed_queue_full;
  d.shed_deadline = a.shed_deadline - b.shed_deadline;
  d.shed_draining = a.shed_draining - b.shed_draining;
  d.replica_failures = a.replica_failures - b.replica_failures;
  d.batches = a.batches - b.batches;
  d.swaps = a.swaps - b.swaps;
  d.swap_rejects = a.swap_rejects - b.swap_rejects;
  d.watchdog_expired = a.watchdog_expired - b.watchdog_expired;
  return d;
}

std::uint64_t shed_total(const serve::Engine::Stats& s) {
  return s.shed_queue_full + s.shed_deadline + s.shed_draining;
}

void check_conservation(const serve::Engine::Stats& d, const char* phase) {
  if (d.submitted != d.served + shed_total(d) + d.replica_failures) {
    std::fprintf(stderr,
                 "bench_serving: GATE FAILED: accounting leak in %s "
                 "(%llu submitted != %llu served + %llu shed + %llu failed)\n",
                 phase, static_cast<unsigned long long>(d.submitted),
                 static_cast<unsigned long long>(d.served),
                 static_cast<unsigned long long>(shed_total(d)),
                 static_cast<unsigned long long>(d.replica_failures));
    ++g_bad;
  }
}

// -------------------------------------------------------------- load gens --

struct LoadReport {
  double offered_qps = 0.0;
  double served_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  serve::Engine::Stats delta;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Harvest every future; a future that misses the hard timeout is the
/// deadlock gate firing (the engine's contract is that every submission's
/// future is always satisfied).
std::vector<double> harvest_latencies(std::vector<std::future<serve::Response>>& futs) {
  std::vector<double> served_ms;
  served_ms.reserve(futs.size());
  for (auto& f : futs) {
    if (f.wait_for(std::chrono::duration<double>(kHarvestTimeoutS)) !=
        std::future_status::ready) {
      gate(false, "request future unresolved (engine deadlock/hang)");
      continue;
    }
    const serve::Response r = f.get();
    if (r.ok)
      served_ms.push_back(static_cast<double>(r.total_ns) / 1e6);
  }
  return served_ms;
}

/// Closed-loop saturation probes per run; the open-loop rungs scale their
/// median.
constexpr int kSaturationProbes = 3;

/// Closed-loop saturation probe: `threads` clients submit back-to-back.
double saturation_probe(serve::Engine& engine, const nn::Tensor& probe,
                        int threads, double seconds) {
  const serve::Engine::Stats before = engine.stats();
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t)
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed))
        (void)engine.submit(kModel, probe, /*deadline_us=*/10'000'000).get();
    });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : clients) t.join();
  const serve::Engine::Stats d = engine.stats() - before;
  check_conservation(d, "saturation probe");
  return static_cast<double>(d.served) / seconds;
}

/// Open-loop generator: bursts of 4 at a fixed offered rate, never waiting
/// on responses (queueing delay is visible, unlike closed-loop).
LoadReport open_loop(serve::Engine& engine, const nn::Tensor& probe,
                     double offered_qps, double seconds,
                     std::int64_t deadline_us) {
  constexpr int kBurst = 4;
  const serve::Engine::Stats before = engine.stats();
  std::vector<std::future<serve::Response>> futs;
  futs.reserve(static_cast<std::size_t>(offered_qps * seconds) + kBurst);

  const auto t0 = Clock::now();
  const double interval_s = static_cast<double>(kBurst) / offered_qps;
  double next_s = 0.0;
  while (std::chrono::duration<double>(Clock::now() - t0).count() < seconds) {
    for (int b = 0; b < kBurst; ++b)
      futs.push_back(engine.submit(kModel, probe, deadline_us));
    next_s += interval_s;
    std::this_thread::sleep_until(t0 + std::chrono::duration<double>(next_s));
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> served_ms = harvest_latencies(futs);
  const serve::Engine::Stats d = engine.stats() - before;
  check_conservation(d, "open loop");

  LoadReport rep;
  rep.offered_qps = static_cast<double>(futs.size()) / wall_s;
  rep.served_qps = static_cast<double>(d.served) / wall_s;
  rep.p50_ms = percentile(served_ms, 0.50);
  rep.p99_ms = percentile(served_ms, 0.99);
  rep.shed_rate = d.submitted > 0 ? static_cast<double>(shed_total(d)) /
                                        static_cast<double>(d.submitted)
                                  : 0.0;
  rep.delta = d;
  return rep;
}

// ------------------------------------------------------ engine-path accuracy --

/// Accuracy of the *serving path*: every test sample goes through submit(),
/// so batching, quantized inputs, and the current artifact generation are
/// all in the measurement.
double engine_accuracy(serve::Engine& engine, const nn::Dataset& test,
                       const std::vector<int>& sample_shape) {
  std::int64_t numel = 1;
  for (const int d : sample_shape) numel *= d;
  const int n = static_cast<int>(test.labels.size());
  // Windowed submission: keep in-flight work well under queue capacity so
  // the measurement never sheds — a shed sample would turn admission noise
  // into an accuracy delta and break the exact-recovery gate.
  constexpr int kWindow = 32;
  int correct = 0;
  for (int base = 0; base < n; base += kWindow) {
    const int count = std::min(kWindow, n - base);
    std::vector<std::future<serve::Response>> futs;
    futs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      nn::Tensor x(sample_shape);
      std::memcpy(x.raw(), test.inputs.data().data() + (base + i) * numel,
                  static_cast<std::size_t>(numel) * sizeof(float));
      futs.push_back(
          engine.submit(kModel, std::move(x), /*deadline_us=*/30'000'000));
    }
    for (int i = 0; i < count; ++i) {
      if (futs[static_cast<std::size_t>(i)].wait_for(
              std::chrono::duration<double>(kHarvestTimeoutS)) !=
          std::future_status::ready) {
        gate(false, "accuracy request future unresolved");
        continue;
      }
      const serve::Response r = futs[static_cast<std::size_t>(i)].get();
      if (!r.ok) {
        gate(false, "accuracy request shed despite windowed submission");
        continue;
      }
      int argmax = 0;
      for (int c = 1; c < static_cast<int>(r.output.numel()); ++c)
        if (r.output[c] > r.output[argmax]) argmax = c;
      if (argmax == test.labels[static_cast<std::size_t>(base + i)]) ++correct;
    }
  }
  return 100.0 * correct / n;
}

// ------------------------------------------------------------ JSON report --

struct SwapStageReport {
  double ber = 0.0;
  bool accepted = false;
  double accuracy = 0.0;
  std::uint64_t bits_flipped = 0;
};

int check_json(const char* path) {
  // Schema staleness guard: the committed report must carry every section
  // and gate marker this bench version writes.
  return bench::check_report(path, "bench_serving", {
      "\"bench\": \"bench_serving/engine\"",
      "\"saturation_qps\"",
      "\"open_loop\"",
      "\"load_factor\": 0.5",
      "\"load_factor\": 1,",
      "\"load_factor\": 2,",
      "\"p99_ms\"",
      "\"shed_rate\"",
      "\"hot_swap\"",
      "\"fault_campaign\"",
      "\"corrupt_container_rejected\": true",
      "\"recovery_matches_clean\": true",
  });
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--check_json=", 13) == 0) {
      return check_json(argv[i] + 13);
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [--check_json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const auto sizes = bench::Sizes::from_env();
  // One pool worker: replica concurrency, not GEMM fan-out, is under test.
  core::resize_global_pool(1);

  serve::EngineOptions opt;
  opt.replicas = 2;
  opt.max_batch = 8;
  opt.batch_delay_us = 200;
  opt.default_deadline_us = sizes.fast ? 100'000 : 250'000;
  opt.queue_capacity = 64;
  const double deadline_ms = static_cast<double>(opt.default_deadline_us) / 1e3;
  const double probe_s = sizes.fast ? 0.5 : 2.0;
  const double run_s = sizes.fast ? 0.6 : 2.5;

  std::printf("=== Serving: micro-batching, backpressure, hot-swap under load ===\n");
  std::printf("(%s sizing, img=%d; %d replicas, max_batch=%d, deadline=%.0fms, "
              "queue=%zu)\n\n",
              sizes.mode(), sizes.img, opt.replicas, opt.max_batch, deadline_ms,
              opt.queue_capacity);

  // --- model + artifacts -------------------------------------------------
  const nn::Dataset train = nn::make_vision_dataset(sizes.train, 3, sizes.img, 101);
  const nn::Dataset test = nn::make_vision_dataset(sizes.test, 3, sizes.img, 102);
  const nn::Dataset calib = nn::make_vision_dataset(sizes.calib, 3, sizes.img, 103);
  std::mt19937 rng(2024);
  auto model = nn::make_resnet_mini(3, 10, 1, rng);
  std::fprintf(stderr, "[setup] training ResNet18-mini (%d epochs)...\n",
               sizes.epochs);
  bench::train_vision_model(*model, train, sizes.epochs, 55);
  nn::fold_all_batchnorms(*model);

  const auto fmt_a = core::make_format("MERSIT(8,2)");
  const auto fmt_b = core::make_format("MERSIT(8,3)");
  const ptq::CalibrationTable table = ptq::calibrate_model(*model, calib);
  const ptq::QuantizedModel qm_a = ptq::pack_weights(*model, *fmt_a);
  const ptq::QuantizedModel qm_b = ptq::pack_weights(*model, *fmt_b);
  std::ostringstream mct1_os, mqt1_a_os, mqt1_b_os;
  table.save(mct1_os);
  qm_a.save(mqt1_a_os);
  qm_b.save(mqt1_b_os);
  const std::string mct1 = std::move(mct1_os).str();
  const std::string mqt1_a = std::move(mqt1_a_os).str();
  const std::string mqt1_b = std::move(mqt1_b_os).str();

  serve::Engine engine(opt);
  engine.register_model(kModel, *model,
                        serve::ModelConfig{{3, sizes.img, sizes.img}});
  auto swap_to = [&](const std::string& mqt1_bytes, const auto& fmt) {
    std::istringstream t(mct1), w(mqt1_bytes);
    engine.swap_artifacts(kModel, t, w, fmt);
  };
  swap_to(mqt1_a, fmt_a);

  nn::Tensor probe({3, sizes.img, sizes.img});
  std::memcpy(probe.raw(), test.inputs.data().data(),
              static_cast<std::size_t>(probe.numel()) * sizeof(float));

  // --- 1. saturation probe ----------------------------------------------
  // Fewer clients than batch slots leave batches part-empty, so the probe
  // would read the batcher's closed-loop rate rather than its capacity and
  // the "2x" rung could land at capacity.
  const int probe_clients = opt.replicas * opt.max_batch;
  std::vector<double> sat_probes;
  for (int i = 0; i < kSaturationProbes; ++i)
    sat_probes.push_back(saturation_probe(engine, probe, probe_clients, probe_s));
  std::sort(sat_probes.begin(), sat_probes.end());
  const double sat_qps = sat_probes[sat_probes.size() / 2];
  std::printf("saturation (closed-loop, %d clients, median of %d probes %.0f..%.0f): "
              "%.0f req/s\n\n",
              probe_clients, kSaturationProbes, sat_probes.front(), sat_probes.back(),
              sat_qps);
  gate(sat_qps > 0.0, "saturation probe served nothing");

  // --- 2. open-loop 0.5x / 1x / 2x --------------------------------------
  std::printf("%-6s %12s %12s %9s %9s %10s %8s %8s\n", "load", "offered/s",
              "served/s", "p50 ms", "p99 ms", "shed rate", "q-full", "dline");
  bench::print_rule(80);
  const double factors[] = {0.5, 1.0, 2.0};
  LoadReport reports[3];
  for (int i = 0; i < 3; ++i) {
    reports[i] = open_loop(engine, probe, factors[i] * sat_qps, run_s,
                           opt.default_deadline_us);
    const LoadReport& r = reports[i];
    std::printf("%-6.1fx %12.0f %12.0f %9.2f %9.2f %9.1f%% %8llu %8llu\n",
                factors[i], r.offered_qps, r.served_qps, r.p50_ms, r.p99_ms,
                100.0 * r.shed_rate,
                static_cast<unsigned long long>(r.delta.shed_queue_full),
                static_cast<unsigned long long>(r.delta.shed_deadline));
    if (r.delta.served >= 50)
      gate(r.p99_ms <= deadline_ms * kP99DeadlineSlack,
           "p99 of served requests exceeds the deadline bound");
  }
  // Backpressure gate: at 2x saturation the engine must shed (typed), not
  // queue without bound.
  gate(shed_total(reports[2].delta) > 0,
       "2x saturation shed nothing (unbounded queueing?)");

  // --- 3. hot-swap under load -------------------------------------------
  std::printf("\nhot-swap under load (1x, alternating MERSIT(8,2)/MERSIT(8,3)):\n");
  const serve::Engine::Stats swap_before = engine.stats();
  std::atomic<bool> swap_stop{false};
  std::atomic<int> swap_count{0};
  std::thread swapper([&] {
    int i = 0;
    while (!swap_stop.load(std::memory_order_relaxed)) {
      if (i % 2 == 0)
        swap_to(mqt1_b, fmt_b);
      else
        swap_to(mqt1_a, fmt_a);
      ++i;
      swap_count.store(i);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  const LoadReport swap_run =
      open_loop(engine, probe, sat_qps, run_s, opt.default_deadline_us);
  swap_stop.store(true);
  swapper.join();
  const serve::Engine::Stats swap_delta = engine.stats() - swap_before;
  std::printf("  %d swaps, %llu served (p99 %.2f ms), %llu replica failures\n",
              swap_count.load(),
              static_cast<unsigned long long>(swap_delta.served),
              swap_run.p99_ms,
              static_cast<unsigned long long>(swap_delta.replica_failures));
  gate(swap_count.load() > 0 && swap_delta.swaps ==
                                    static_cast<std::uint64_t>(swap_count.load()),
       "hot swaps under load did not all succeed");
  gate(swap_delta.replica_failures == 0, "replica failures during hot-swap run");
  swap_to(mqt1_a, fmt_a);  // back to generation A for the campaign

  // --- 4. fault campaign through the live swap path ----------------------
  std::printf("\nfault campaign under load (corrupted MQT1 via swap_artifacts):\n");
  const double clean_acc = engine_accuracy(engine, test, {3, sizes.img, sizes.img});
  std::printf("  clean accuracy through engine: %.2f%%\n", clean_acc);

  const std::vector<double> bers = {1e-4, 1e-3, 1e-2};
  const auto stages = fault::make_live_swap_stages(qm_a, bers, /*seed=*/0xC0FFEE);
  std::vector<SwapStageReport> stage_reports;
  for (const auto& stage : stages) {
    SwapStageReport rep;
    rep.ber = stage.ber;
    rep.bits_flipped = stage.bits_flipped;
    // Background traffic while the corrupted artifact swaps in.
    std::atomic<bool> stop{false};
    std::thread hammer([&] {
      while (!stop.load(std::memory_order_relaxed))
        (void)engine.submit(kModel, probe, /*deadline_us=*/10'000'000).get();
    });
    try {
      swap_to(stage.mqt1_bytes, fmt_a);
      rep.accepted = true;
    } catch (const std::exception& e) {
      rep.accepted = false;  // dense corruption tripped the non-finite gate
      std::fprintf(stderr, "  [gate] BER %.0e rejected: %s\n", stage.ber,
                   e.what());
    }
    stop.store(true);
    hammer.join();
    if (rep.accepted)
      rep.accuracy = engine_accuracy(engine, test, {3, sizes.img, sizes.img});
    std::printf("  BER %.0e: %s%s\n", stage.ber,
                rep.accepted ? "accepted, accuracy " : "rejected at swap",
                rep.accepted
                    ? (std::to_string(rep.accuracy).substr(0, 5) + "%").c_str()
                    : "");
    stage_reports.push_back(rep);
    swap_to(mqt1_a, fmt_a);  // restore between stages
  }

  // Corrupt *container* (truncated stream): must throw, old weights serve on.
  bool corrupt_rejected = false;
  try {
    swap_to(mqt1_a.substr(0, mqt1_a.size() / 3), fmt_a);
  } catch (const std::exception&) {
    corrupt_rejected = true;
  }
  gate(corrupt_rejected, "truncated MQT1 container was accepted");

  // Clean recovery: the serving path must return exactly to clean accuracy.
  swap_to(mqt1_a, fmt_a);
  const double recovery_acc =
      engine_accuracy(engine, test, {3, sizes.img, sizes.img});
  const bool recovered = recovery_acc == clean_acc;
  std::printf("  corrupt container rejected: %s; recovery accuracy %.2f%% "
              "(clean %.2f%%)\n",
              corrupt_rejected ? "yes" : "NO", recovery_acc, clean_acc);
  gate(recovered, "clean re-swap did not restore clean accuracy");

  engine.drain();
  const serve::Engine::Stats total = engine.stats();
  check_conservation(total, "whole bench");

  // --- JSON report --------------------------------------------------------
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_serving: cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_serving/engine\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n  \"img\": %d,\n", sizes.mode(),
                 sizes.img);
    std::fprintf(f,
                 "  \"options\": {\"replicas\": %d, \"max_batch\": %d, "
                 "\"deadline_us\": %lld, \"queue_capacity\": %zu},\n",
                 opt.replicas, opt.max_batch,
                 static_cast<long long>(opt.default_deadline_us),
                 opt.queue_capacity);
    std::fprintf(f, "  \"saturation_qps\": %.0f,\n  \"open_loop\": [\n", sat_qps);
    for (int i = 0; i < 3; ++i) {
      const LoadReport& r = reports[i];
      std::fprintf(f,
                   "    {\"load_factor\": %g, \"offered_qps\": %.0f, "
                   "\"served_qps\": %.0f, \"p50_ms\": %.2f, \"p99_ms\": %.2f, "
                   "\"shed_rate\": %.4f, \"shed_queue_full\": %llu, "
                   "\"shed_deadline\": %llu}%s\n",
                   factors[i], r.offered_qps, r.served_qps, r.p50_ms, r.p99_ms,
                   r.shed_rate,
                   static_cast<unsigned long long>(r.delta.shed_queue_full),
                   static_cast<unsigned long long>(r.delta.shed_deadline),
                   i < 2 ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"hot_swap\": {\"swaps\": %d, \"served\": %llu, "
                 "\"p99_ms\": %.2f, \"replica_failures\": %llu},\n",
                 swap_count.load(),
                 static_cast<unsigned long long>(swap_delta.served),
                 swap_run.p99_ms,
                 static_cast<unsigned long long>(swap_delta.replica_failures));
    std::fprintf(f,
                 "  \"fault_campaign\": {\"clean_accuracy\": %.2f, "
                 "\"stages\": [\n",
                 clean_acc);
    for (std::size_t i = 0; i < stage_reports.size(); ++i) {
      const SwapStageReport& r = stage_reports[i];
      std::fprintf(f,
                   "    {\"ber\": %g, \"accepted\": %s, \"accuracy\": %.2f, "
                   "\"bits_flipped\": %llu}%s\n",
                   r.ber, r.accepted ? "true" : "false", r.accuracy,
                   static_cast<unsigned long long>(r.bits_flipped),
                   i + 1 < stage_reports.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ], \"corrupt_container_rejected\": %s, "
                 "\"recovery_accuracy\": %.2f, "
                 "\"recovery_matches_clean\": %s}\n",
                 corrupt_rejected ? "true" : "false", recovery_acc,
                 recovered ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }

  if (g_bad > 0) {
    std::fprintf(stderr, "bench_serving: %d gate(s) failed\n", g_bad);
    return 1;
  }
  std::printf("\nall serving gates passed\n");
  return 0;
}
