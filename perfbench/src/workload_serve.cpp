// serve-swap: open-loop traffic through serve::Engine while a second thread
// hot-swaps the artifact generation.
//
// Two replicas of ResNet18-mini serve MERSIT(8,2) / MERSIT(8,3) artifacts
// with the GEMM pool pinned to one thread, so parallelism comes from the
// replicas.  Arrivals are Poisson at a fixed ladder of absolute rates (no
// saturation probe: the offered load must not move with the code under
// test).  Each request's latency runs from its scheduled send time, so a
// stall also charges the requests it delays, and a shed or failed request
// misses every latency limit.  Every served response is compared bit for bit
// with a quiesced reference for its input and artifact generation.
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <stop_token>
#include <thread>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "nn/data.h"
#include "nn/gemm/qgemm.h"
#include "nn/models.h"
#include "serve/engine.h"
#include "host_speed.h"
#include "workloads.h"

namespace perfbench {

using namespace mersit;

namespace {

constexpr const char* kModel = "resnet18";
constexpr int kImg = 12;
constexpr int kCalibImages = 1000;
constexpr int kInputs = 64;  ///< distinct request inputs
constexpr int kReplicas = 2;

/// Offered rates in requests per second, light load to past saturation.
/// Absolute, so they do not move with the code.  kNominal is the rung whose
/// latency is the headline: well below saturation, with enough samples for
/// a p99.  The top rung is at least twice the engine's capacity on a 4-core
/// x86 host, so the rate it serves measures capacity even if the engine gets
/// much faster; the limit currently falls between the 2000 and 4000 rungs.
constexpr double kLadder[] = {500, 1000, 2000, 4000, 8000, 16000};
constexpr int kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr int kNominal = 1;
/// The ladder is walked this many times, each rung for a short slice, so
/// every rung samples the whole run rather than one stretch of it.
constexpr int kCycles = 6;

/// p99 latency limit from the scheduled send time.
constexpr double kLimitMs = 20.0;
/// Engine deadline: requests that cannot be served by then are shed.
constexpr std::int64_t kDeadlineUs = 50'000;
/// A shed or failed request counts as this latency, beyond any limit.
constexpr double kMissMs = 1000.0;
/// Capacity is read from served-request counts in windows of this length.
constexpr double kWindowS = 0.05;
/// The swap thread alternates generations at this cadence.
constexpr double kSwapPeriodMs = 200.0;
constexpr double kHarvestTimeoutS = 30.0;
/// Engine set-up takes about a millisecond, so it repeats more often than
/// the other workloads' set-ups for a steady median.
constexpr int kServeSetupReps = 20 * kSetupReps;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Serialized artifact pair of one generation.
struct Artifact {
  std::shared_ptr<const formats::Format> fmt;
  std::string mct1, mqt1;
};

void swap_to(serve::Engine& engine, const Artifact& a) {
  std::istringstream t(a.mct1), w(a.mqt1);
  engine.swap_artifacts(kModel, t, w, a.fmt);
}

struct Request {
  std::int64_t sched_ns = 0;  ///< scheduled send time
  std::int64_t sent_ns = 0;   ///< actual submit time
  int input = 0;
  std::future<serve::Response> fut;
  serve::Response resp;
  double latency_ms = kMissMs;  ///< from sched_ns; kMissMs if not served
};

struct Swap {
  std::int64_t begin_ns = 0, end_ns = 0;
  std::uint64_t seq = 0;
  int artifact = 0;
  std::string error;  ///< why the engine rejected it; empty if it swapped
};

/// One slice of the ladder: a stretch of Poisson arrivals at kLadder[rung].
struct Slice {
  int rung = 0;
  double seconds = 0.0;
  std::vector<Request> reqs;
  std::int64_t start_ns = 0;
};

/// Poisson arrivals at `rate` for `seconds`, each with a seeded input index.
std::vector<Request> schedule(double rate, double seconds, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> pick(0, kInputs - 1);
  std::vector<Request> out;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    Request r;
    r.sched_ns = static_cast<std::int64_t>(t * 1e9);
    r.input = pick(rng);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

Result run_serve_swap(const Args& args) {
  Result res;
  core::resize_global_pool(1);
  const auto prev_mode = nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kCode);

  // Producer side, not timed: the model and its two artifact generations.
  const unsigned task = sub_seed(args.seed, 2);
  const nn::Dataset calib =
      nn::make_vision_dataset(kCalibImages, 3, kImg, sub_seed(args.seed, 3), task);
  const nn::Dataset inputs =
      nn::make_vision_dataset(kInputs, 3, kImg, sub_seed(args.seed, 5), task);
  std::mt19937 rng(sub_seed(args.seed, 1));
  nn::ModulePtr model = nn::make_resnet_mini(3, 10, 1, rng);
  nn::fold_all_batchnorms(*model);
  std::ostringstream mct1;
  ptq::calibrate_model(*model, calib).save(mct1);
  std::vector<Artifact> artifacts;
  for (const char* name : {"MERSIT(8,2)", "MERSIT(8,3)"}) {
    Artifact a{core::make_format(name), mct1.str(), {}};
    std::ostringstream mqt1;
    ptq::pack_weights(*model, *a.fmt).save(mqt1);
    a.mqt1 = std::move(mqt1).str();
    artifacts.push_back(std::move(a));
  }
  const std::vector<int> sample_shape = {3, kImg, kImg};
  const auto sample = [&](int i) {
    nn::Tensor x(sample_shape);
    std::memcpy(x.raw(), inputs.inputs.raw() + static_cast<std::size_t>(i) * x.numel(),
                static_cast<std::size_t>(x.numel()) * sizeof(float));
    return x;
  };

  serve::EngineOptions opt;  // defaults, not the environment
  opt.replicas = kReplicas;
  opt.default_deadline_us = kDeadlineUs;

  // Set-up as an operator pays it: start the engine, register the model,
  // install the first generation and get the first response back.
  std::unique_ptr<serve::Engine> engine;
  HostProbe probe;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    engine.reset();
    const Slowdown before = probe.measure(kSetupProbes);
    const auto t0 = Clock::now();
    engine = std::make_unique<serve::Engine>(opt);
    engine->register_model(kModel, *model, serve::ModelConfig{sample_shape});
    swap_to(*engine, artifacts[0]);
    const serve::Response first = engine->submit(kModel, sample(0)).get();
    const double s = ms_between(t0, Clock::now()) / 1e3;
    const Slowdown after = probe.measure(kSetupProbes);
    setup_s.push_back(s / std::sqrt(before.mixed() * after.mixed()));
    if (!first.ok) throw std::runtime_error("serve-swap: first request not served");
  }

  // Quiesced references: one request at a time per input and generation.
  // artifact_seq -> artifact index; the swap thread adds entries and the
  // checks read them after it has joined.
  std::map<std::uint64_t, int> generation;
  std::vector<std::vector<nn::Tensor>> refs(artifacts.size());
  for (int a : {0, 1}) {
    if (a == 1) swap_to(*engine, artifacts[1]);
    generation[engine->artifact_seq(kModel)] = a;
    for (int i = 0; i < kInputs; ++i) {
      serve::Response r = engine->submit(kModel, sample(i), 10'000'000).get();
      if (!r.ok) throw std::runtime_error("serve-swap: reference request failed");
      refs[static_cast<std::size_t>(a)].push_back(std::move(r.output));
    }
  }
  swap_to(*engine, artifacts[0]);
  generation[engine->artifact_seq(kModel)] = 0;

  // Swap thread: alternates generations at a fixed cadence while the
  // arrival generator (this thread) walks the ladder.  Declared after
  // everything it touches, so it is stopped and joined first on every exit.
  std::vector<Swap> swaps;
  std::jthread swapper([&](const std::stop_token& stop) {
    int next = 1;
    auto tick = Clock::now();
    while (!stop.stop_requested()) {
      tick += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(kSwapPeriodMs));
      std::this_thread::sleep_until(tick);
      if (stop.stop_requested()) break;
      Swap s;
      s.artifact = next;
      s.begin_ns = now_ns();
      try {
        swap_to(*engine, artifacts[static_cast<std::size_t>(next)]);
        s.seq = engine->artifact_seq(kModel);  // only this thread swaps
        generation[s.seq] = next;
      } catch (const std::exception& e) {
        s.error = e.what();
      }
      s.end_ns = now_ns();
      swaps.push_back(std::move(s));
      next = 1 - next;
    }
  });

  const serve::Engine::Stats before = engine->stats();
  std::vector<Slice> slices;
  std::vector<double> gen_lag_ms;
  const double slice_s = args.seconds / (kRungs * kCycles);
  for (int s = 0; s < kRungs * kCycles; ++s) {
    const int k = s % kRungs;
    Slice slice{k, slice_s, schedule(kLadder[k], slice_s, sub_seed(args.seed, 10 + s)),
                now_ns()};
    for (Request& r : slice.reqs) {
      r.sched_ns += slice.start_ns;
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(r.sched_ns)));
      r.sent_ns = now_ns();
      r.fut = engine->submit(kModel, sample(r.input));
    }
    // Drain before the next slice, so no rung inherits another's backlog.
    for (Request& r : slice.reqs) {
      gen_lag_ms.push_back(static_cast<double>(r.sent_ns - r.sched_ns) / 1e6);
      if (r.fut.wait_for(std::chrono::duration<double>(kHarvestTimeoutS)) !=
          std::future_status::ready) {
        res.fail("request future unresolved (engine hang)");
        continue;
      }
      r.resp = r.fut.get();
      if (r.resp.ok)
        r.latency_ms = static_cast<double>(r.sent_ns - r.sched_ns + r.resp.total_ns) / 1e6;
    }
    slices.push_back(std::move(slice));
  }
  swapper.request_stop();
  swapper.join();
  const serve::Engine::Stats after = engine->stats();
  engine->drain();

  // Output checks: bit-identical to the reference of the generation served.
  for (const Slice& slice : slices)
    for (const Request& r : slice.reqs) {
      ++res.attempted;
      if (!r.resp.ok) {
        if (r.resp.reason == serve::RejectReason::kReplicaFailure)
          res.fail("replica failure: " + r.resp.error);
        continue;  // typed load shedding: a latency miss, not a wrong answer
      }
      const auto g = generation.find(r.resp.artifact_seq);
      if (g == generation.end()) {
        res.fail("response from unknown generation " + std::to_string(r.resp.artifact_seq));
        continue;
      }
      const nn::Tensor& ref = refs[static_cast<std::size_t>(g->second)]
                                  [static_cast<std::size_t>(r.input)];
      if (r.resp.output.shape() != ref.shape() ||
          std::memcmp(r.resp.output.raw(), ref.raw(),
                      static_cast<std::size_t>(ref.numel()) * sizeof(float)) != 0)
        res.fail("response differs from the quiesced reference of generation " +
                 std::to_string(r.resp.artifact_seq));
    }
  std::int64_t swap_rejects = 0;
  for (const Swap& s : swaps) {
    ++res.attempted;
    if (s.error.empty()) continue;
    ++swap_rejects;
    res.fail("artifact swap rejected: " + s.error);
  }

  // Per rung, pooled over its slices: latencies, the no-backlog check, and
  // served rates per kWindowS window.  End-to-end: latency at the nominal
  // rung and capacity, the rate served at the top rung.
  std::printf("serve-swap: limit p99 <= %.0f ms, %zu swaps, %d cycles of the ladder\n",
              kLimitMs, swaps.size(), kCycles);
  std::printf("%10s %8s %8s %8s %10s %10s %10s\n", "rate/s", "sent", "served",
              "shed", "p50 ms", "p99 ms", "served/s");
  std::vector<std::vector<double>> latency(kRungs), window_rate(kRungs);
  std::vector<double> tail_ms(kRungs, 0.0);
  std::vector<std::size_t> served(kRungs, 0);
  for (int k = 0; k < kRungs; ++k) {
    std::vector<double> tails;  // the last tenth of each slice
    for (const Slice& slice : slices) {
      if (slice.rung != k) continue;
      std::vector<double> rate(static_cast<std::size_t>(slice.seconds / kWindowS), 0.0);
      for (std::size_t i = 0; i < slice.reqs.size(); ++i) {
        const Request& r = slice.reqs[i];
        latency[k].push_back(r.latency_ms);
        if (i >= slice.reqs.size() - slice.reqs.size() / 10) tails.push_back(r.latency_ms);
        if (!r.resp.ok) continue;
        ++served[k];
        const auto w = static_cast<std::size_t>(
            static_cast<double>(r.sent_ns + r.resp.total_ns - slice.start_ns) / 1e9 / kWindowS);
        if (w < rate.size()) rate[w] += 1.0 / kWindowS;
      }
      window_rate[k].insert(window_rate[k].end(), rate.begin(), rate.end());
    }
    tail_ms[k] = median(tails);
  }
  double slo_qps = 0.0;
  for (int k = 0; k < kRungs; ++k) {
    const double p99 = quantile(latency[k], 0.99);
    // No growing backlog: the end of each slice still meets the limit.
    if (p99 <= kLimitMs && tail_ms[k] <= kLimitMs) slo_qps = std::max(slo_qps, kLadder[k]);
    std::printf("%10.0f %8zu %8zu %8zu %10.3f %10.3f %10.1f\n", kLadder[k],
                latency[k].size(), served[k], latency[k].size() - served[k],
                median(latency[k]), p99, median(window_rate[k]));
  }
  std::printf("slo_qps %.0f (highest rung meeting the limit)\n", slo_qps);
  const std::vector<double>& nominal = latency[kNominal];
  const double capacity = quantile(window_rate[kRungs - 1], 1.0 - kFastQuantile);
  std::printf("nominal %.0f req/s: latency p10 %.3f p50 %.3f p99 %.3f ms; "
              "capacity %.0f req/s\n", kLadder[kNominal], quantile(nominal, kFastQuantile),
              median(nominal), quantile(nominal, 0.99), capacity);
  res.end_to_end["setup_s"] = median(setup_s);
  res.end_to_end["op_ms"] = quantile(nominal, kFastQuantile);

  // Per-layer: the engine's stage split at the nominal rung, its counters
  // over the ladder, and the swap and generator spans.
  std::vector<double> queue_ms, service_ms;
  for (const Slice& slice : slices)
    for (const Request& r : slice.reqs)
      if (slice.rung == kNominal && r.resp.ok) {
        queue_ms.push_back(static_cast<double>(r.resp.queue_ns) / 1e6);
        service_ms.push_back(static_cast<double>(r.resp.total_ns - r.resp.queue_ns) / 1e6);
      }
  res.layers["serve.queue_ms_p50"] = median(queue_ms);
  res.layers["serve.queue_ms_p99"] = quantile(queue_ms, 0.99);
  res.layers["serve.service_ms_p50"] = median(service_ms);
  res.layers["serve.service_ms_p99"] = quantile(service_ms, 0.99);
  const double batches = static_cast<double>(after.batches - before.batches);
  res.layers["serve.batch_size_mean"] =
      batches > 0 ? static_cast<double>(after.served - before.served) / batches : 0.0;
  res.layers["serve.shed_queue_full"] =
      static_cast<double>(after.shed_queue_full - before.shed_queue_full);
  res.layers["serve.shed_deadline"] =
      static_cast<double>(after.shed_deadline - before.shed_deadline);
  // first_after_swap: from a swap call's start to the first response served
  // by the generation it installed.
  std::map<std::uint64_t, std::int64_t> first_done;  // artifact_seq -> time
  for (const Slice& slice : slices)
    for (const Request& r : slice.reqs)
      if (r.resp.ok) {
        const std::int64_t done = r.sent_ns + r.resp.total_ns;
        const auto [it, fresh] = first_done.emplace(r.resp.artifact_seq, done);
        if (!fresh) it->second = std::min(it->second, done);
      }
  std::vector<double> swap_ms, first_after_ms;
  for (const Swap& s : swaps) {
    swap_ms.push_back(static_cast<double>(s.end_ns - s.begin_ns) / 1e6);
    if (const auto it = first_done.find(s.seq); s.error.empty() && it != first_done.end())
      first_after_ms.push_back(static_cast<double>(it->second - s.begin_ns) / 1e6);
  }
  res.layers["serve.swap_ms_p50"] = median(swap_ms);
  res.layers["serve.swap_ms_max"] = swap_ms.empty() ? 0.0 : *std::max_element(swap_ms.begin(), swap_ms.end());
  res.layers["serve.first_after_swap_ms"] = median(first_after_ms);
  res.layers["serve.swaps"] = static_cast<double>(swaps.size()) - static_cast<double>(swap_rejects);
  res.layers["serve.swap_rejects"] = static_cast<double>(swap_rejects);
  res.layers["serve.gen_lag_ms_p99"] = quantile(gen_lag_ms, 0.99);

  if (args.trace && !args.trace_out.empty()) {
    // Request spans (scheduled time -> completion, split at dequeue) and
    // swap spans, relative to the first slice's start.
    std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
    if (f == nullptr) {
      res.fail("cannot write " + args.trace_out);
    } else {
      const std::int64_t origin = slices.front().start_ns;
      std::fprintf(f, "{\"workload\": \"serve-swap\", \"limit_ms\": %g,\n"
                      " \"request_columns\": [\"rate\", \"sched_ms\", \"send_lag_ms\", "
                      "\"queue_ms\", \"service_ms\", \"ok\", \"seq\", \"batch\"],\n"
                      " \"requests\": [\n", kLimitMs);
      bool first = true;
      for (const Slice& slice : slices)
        for (const Request& r : slice.reqs) {
          std::fprintf(f, "%s  [%g, %.4f, %.4f, %.4f, %.4f, %d, %llu, %d]",
                       first ? "" : ",\n", kLadder[slice.rung],
                       static_cast<double>(r.sched_ns - origin) / 1e6,
                       static_cast<double>(r.sent_ns - r.sched_ns) / 1e6,
                       static_cast<double>(r.resp.queue_ns) / 1e6,
                       static_cast<double>(r.resp.total_ns - r.resp.queue_ns) / 1e6,
                       r.resp.ok ? 1 : 0,
                       static_cast<unsigned long long>(r.resp.artifact_seq),
                       r.resp.batch_size);
          first = false;
        }
      std::fprintf(f, "\n ],\n \"swap_columns\": [\"begin_ms\", \"ms\", \"seq\", \"artifact\"],\n \"swaps\": [\n");
      for (std::size_t i = 0; i < swaps.size(); ++i)
        std::fprintf(f, "%s  [%.4f, %.4f, %llu, %d]", i ? ",\n" : "",
                     static_cast<double>(swaps[i].begin_ns - origin) / 1e6,
                     static_cast<double>(swaps[i].end_ns - swaps[i].begin_ns) / 1e6,
                     static_cast<unsigned long long>(swaps[i].seq), swaps[i].artifact);
      std::fprintf(f, "\n ]}\n");
      if (std::fclose(f) != 0) res.fail("cannot write " + args.trace_out);
    }
  }
  nn::gemm::set_qgemm_mode(prev_mode);
  return res;
}

}  // namespace perfbench
