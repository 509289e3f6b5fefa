// Multi-tenant serving engine: deadline-aware micro-batching over replica
// pools, with robustness as the contract.
//
// The engine composes five existing subsystems into the repo's "millions of
// users" layer (ROADMAP):
//   * nn::ReplicaPool        — N Module::clone() replicas per model, leased;
//   * core::BoundedQueue     — bounded MPMC admission (shed, never block);
//   * core clock shim        — monotonic deadlines, injectable for tests;
//   * ptq artifact seams     — hardened MCT1/MQT1 loaders + validate-then-
//                              swap hot reload (stale packs impossible via
//                              the per-Param version counters);
//   * core::ThreadPool       — each replica forward still parallelizes its
//                              GEMMs through the global pool.
//
// Robustness contract, in order of the guarantees callers rely on:
//   1. submit() never blocks.  Overload resolves to a typed rejection —
//      Rejected{QueueFull} at admission, Rejected{DeadlineExceeded} when a
//      request's deadline cannot be met, Rejected{Draining} at shutdown —
//      never an unbounded queue or a wedged caller.
//   2. Every submitted request's future is always satisfied: served,
//      rejected at admission, expired on dequeue (deadline-aware: a request
//      is shed when now + expected-service-time exceeds its deadline),
//      expired by the watchdog sweep (even when every worker is wedged), or
//      failed with Rejected{ReplicaFailure} when a replica forward throws.
//      A replica exception fails exactly its micro-batch; the worker and
//      the engine keep serving.
//   3. Artifact hot-swap is atomic per replica and drain-free: the MCT1 +
//      MQT1 pair is parsed by the hardened loaders, gated on non-finite
//      code density, coverage-checked against the module tree, and
//      structurally validated — all BEFORE any replica weight is touched.
//      A corrupt artifact throws and leaves every replica serving the old
//      generation.  Each forward runs entirely under one artifact
//      generation (replica leases), so responses under a concurrent swap
//      are bit-identical to a quiesced swap's before/after outputs.
//      Under the code, kulisch and int8 paths (gemm::set_qgemm_mode) the
//      swap installs the artifact's 8-bit codes directly
//      (ptq::install_code_weights) instead of decoding into FP32, which
//      drops each layer's weight plan; the next forward compiles a new one
//      from the new codes.  Decodes are bit-identical, so responses match
//      the float path exactly while weights stay in 1-byte form (int8
//      additionally remaps the codes of a uniform-grid format to integer
//      levels and accumulates in int32; see nn/gemm/qgemm.h for its ULP
//      contract).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/bounded_queue.h"
#include "core/clock.h"
#include "formats/corruption.h"
#include "formats/format.h"
#include "formats/quantize.h"
#include "nn/replica.h"
#include "nn/tensor.h"
#include "ptq/ptq.h"
#include "ptq/serialize.h"

namespace mersit::serve {

/// Why a request was not served.  Every rejection is typed; "mystery hang"
/// is not in this enum by design.
enum class RejectReason : std::uint8_t {
  kQueueFull,         ///< bounded queue at capacity (admission shed)
  kDeadlineExceeded,  ///< deadline passed (at admission, dequeue, or sweep)
  kDraining,          ///< engine shutting down
  kReplicaFailure,    ///< the serving replica threw; see Response::error
};

[[nodiscard]] const char* to_string(RejectReason r);

struct Response {
  bool ok = false;
  RejectReason reason = RejectReason::kReplicaFailure;  ///< valid when !ok
  std::string error;          ///< detail for kReplicaFailure
  nn::Tensor output;          ///< logits row [classes], valid when ok
  std::uint64_t artifact_seq = 0;  ///< artifact generation that served it
  int batch_size = 0;         ///< micro-batch size this request rode in
  core::MonoNanos queue_ns = 0;  ///< submit -> dequeue
  core::MonoNanos total_ns = 0;  ///< submit -> completion
};

struct EngineOptions {
  int replicas = 2;            ///< clones per registered model
  int max_batch = 8;           ///< micro-batch size trigger
  std::int64_t batch_delay_us = 200;      ///< micro-batch deadline trigger
  std::int64_t default_deadline_us = 50'000;  ///< per-request default
  std::size_t queue_capacity = 256;       ///< per-model admission bound
  std::int64_t watchdog_period_us = 2'000;    ///< expiry-sweep cadence
  /// Swap sanity gate: reject an artifact whose fraction of non-finite
  /// (NaR/Inf/NaN) codes exceeds this bound.  Clean artifacts have zero.
  double max_nonfinite_fraction = 0.25;
  /// How replicas decode the (rare, corruption-only) non-finite codes that
  /// pass the gate: zero-substitution keeps a bit-flipped weight from
  /// NaN-poisoning every logit it touches.
  formats::CorruptionPolicy corruption_policy =
      formats::CorruptionPolicy::kZeroSubstitute;
  core::ClockFn clock;         ///< defaults to core::mono_now_ns

  /// Defaults overridden by MERSIT_SERVE_REPLICAS / _BATCH / _QUEUE /
  /// _BATCH_DELAY_US / _DEADLINE_US / _WATCHDOG_US.  Parsing is strict
  /// (core::env_int): a malformed value throws std::runtime_error instead
  /// of silently serving with a default.
  [[nodiscard]] static EngineOptions from_env();
};

/// Per-model registration config.
struct ModelConfig {
  std::vector<int> sample_shape;  ///< one request's input shape (no batch dim)
  bool quantize_input = true;     ///< false for token-id inputs (BERT)
  formats::ScalePolicy policy = formats::ScalePolicy::kMaxToUnity;
};

class Engine {
 public:
  explicit Engine(EngineOptions opt = EngineOptions::from_env());
  ~Engine();  ///< drain()s

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Clone `proto` opt.replicas times under `name` and start its workers.
  /// The model serves FP32 until artifacts are swapped in.  Throws
  /// std::invalid_argument on a duplicate name or empty sample_shape, and
  /// std::logic_error after drain().
  void register_model(const std::string& name, const nn::Module& proto,
                      ModelConfig cfg);

  /// Atomic artifact hot-swap under live traffic (validate-then-swap, see
  /// the class contract).  Throws std::runtime_error / std::invalid_argument
  /// on a corrupt, mismatched, or gate-failing artifact pair — in which case
  /// no replica was mutated and the old generation keeps serving.
  /// Concurrent swaps of one model serialize.
  void swap_artifacts(const std::string& name, std::istream& mct1,
                      std::istream& mqt1,
                      std::shared_ptr<const formats::Format> fmt);

  /// Enqueue one single-sample request.  Never blocks: the future is
  /// always eventually satisfied, immediately so for typed rejections.
  /// `deadline_us` < 0 selects options().default_deadline_us.  Throws
  /// std::invalid_argument for an unknown model or wrong input shape
  /// (caller bugs, not load conditions).
  [[nodiscard]] std::future<Response> submit(const std::string& name,
                                             nn::Tensor input,
                                             std::int64_t deadline_us = -1);

  /// Stop accepting work (-> Rejected{Draining}), fail everything queued
  /// with Rejected{Draining}, join workers and watchdog.  Idempotent.
  void drain();

  /// Monotonic counters since construction (snapshot).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t served = 0;
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t shed_draining = 0;
    std::uint64_t replica_failures = 0;
    std::uint64_t batches = 0;        ///< micro-batches dispatched
    std::uint64_t swaps = 0;          ///< successful artifact swaps
    std::uint64_t swap_rejects = 0;   ///< swaps rejected by validation
    std::uint64_t watchdog_expired = 0;  ///< requests failed by the sweep
  };
  [[nodiscard]] Stats stats() const;

  /// Current artifact generation of `name` (0 = still serving FP32).
  [[nodiscard]] std::uint64_t artifact_seq(const std::string& name) const;

  [[nodiscard]] const EngineOptions& options() const { return opt_; }

 private:
  struct ArtifactState;
  struct PendingRequest;
  struct ModelEntry;

  [[nodiscard]] ModelEntry& find_model(const std::string& name) const;
  void worker_loop(ModelEntry& m, int replica_idx);
  void watchdog_loop();
  void serve_batch(ModelEntry& m, int replica_idx,
                   std::vector<PendingRequest>& batch);
  static void complete_rejected(PendingRequest& r, RejectReason reason,
                                core::MonoNanos now, std::string error = "");

  EngineOptions opt_;
  core::ClockFn clock_;

  mutable std::mutex models_mu_;  ///< guards the map; entries are stable
  std::map<std::string, std::unique_ptr<ModelEntry>> models_;

  std::mutex lifecycle_mu_;       ///< register/drain serialization
  std::atomic<bool> draining_{false};
  bool drained_ = false;          ///< guarded by lifecycle_mu_

  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;    ///< guarded by watchdog_mu_

  // Counters (relaxed atomics; snapshot via stats()).
  std::atomic<std::uint64_t> submitted_{0}, served_{0}, shed_queue_full_{0},
      shed_deadline_{0}, shed_draining_{0}, replica_failures_{0}, batches_{0},
      swaps_{0}, swap_rejects_{0}, watchdog_expired_{0};
};

}  // namespace mersit::serve
