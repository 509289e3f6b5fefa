#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "formats/corruption.h"
#include "formats/quantize.h"
#include "nn/gemm/qgemm.h"

namespace mersit::serve {

using core::MonoNanos;

namespace {

/// Swap sanity gate: an artifact whose fraction of non-finite (NaR/Inf/NaN)
/// codes exceeds this bound is rejected.  Clean artifacts have zero.
constexpr double kMaxNonfiniteFraction = 0.25;

/// How replicas decode the (rare, corruption-only) non-finite codes that
/// pass the gate: zero-substitution keeps a bit-flipped weight from
/// NaN-poisoning every logit it touches.
constexpr formats::CorruptionPolicy kCorruptionPolicy =
    formats::CorruptionPolicy::kZeroSubstitute;

}  // namespace

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kQueueFull: return "QueueFull";
    case RejectReason::kDeadlineExceeded: return "DeadlineExceeded";
    case RejectReason::kDraining: return "Draining";
    case RejectReason::kReplicaFailure: return "ReplicaFailure";
  }
  return "Unknown";
}

// ------------------------------------------------------- internal structs --

/// One installed artifact generation.  Immutable once built and heap-pinned
/// behind a shared_ptr: the FakeQuantizer holds references into `table` and
/// `*fmt`, so the struct must never move after construction.
struct Engine::ArtifactState {
  std::shared_ptr<const formats::Format> fmt;
  ptq::CalibrationTable table;
  std::unique_ptr<ptq::FakeQuantizer> fq;
  std::uint64_t seq = 0;
};

struct Engine::PendingRequest {
  nn::Tensor input;
  std::promise<Response> promise;
  MonoNanos submit_ns = 0;
  MonoNanos deadline_ns = 0;
};

struct Engine::ModelEntry {
  ModelEntry(const nn::Module& proto, int replicas, std::size_t queue_capacity,
             ModelConfig config)
      : cfg(std::move(config)),
        pool(proto, replicas),
        states(static_cast<std::size_t>(replicas)),
        queue(queue_capacity) {}

  std::string name;
  ModelConfig cfg;
  std::int64_t sample_numel = 0;
  nn::ReplicaPool pool;
  /// states[i] is read/written only while holding the pool's lease i, so a
  /// forward always sees a complete generation (old or new, never a mix).
  std::vector<std::shared_ptr<const ArtifactState>> states;
  core::BoundedQueue<PendingRequest> queue;
  std::atomic<std::uint64_t> seq{0};       ///< artifact generation counter
  std::atomic<MonoNanos> ewma_batch_ns{0}; ///< expected-service estimate
  std::mutex swap_mu;                      ///< serializes swaps of this model
  std::vector<std::thread> workers;
};

// ----------------------------------------------------------- construction --

Engine::Engine(EngineOptions opt) : opt_(std::move(opt)) {
  // Serving starts a new phase: the tensor blocks the process cached for
  // offline work (calibration, training batches) are sized for batches the
  // engine will not run, so hand them back for the serving heap to reuse.
  nn::release_cached_storage();
  clock_ = opt_.clock ? opt_.clock : core::ClockFn(&core::mono_now_ns);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Engine::~Engine() { drain(); }

void Engine::register_model(const std::string& name, const nn::Module& proto,
                            ModelConfig cfg) {
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (drained_ || draining_.load())
    throw std::logic_error("Engine::register_model: engine is draining");
  if (cfg.sample_shape.empty())
    throw std::invalid_argument(
        "Engine::register_model: sample_shape must name the per-request "
        "input shape");
  auto entry = std::make_unique<ModelEntry>(proto, opt_.replicas,
                                            opt_.queue_capacity, std::move(cfg));
  entry->name = name;
  entry->sample_numel = 1;
  for (const int d : entry->cfg.sample_shape) {
    if (d <= 0)
      throw std::invalid_argument(
          "Engine::register_model: non-positive sample dimension");
    entry->sample_numel *= d;
  }
  ModelEntry* raw = entry.get();
  {
    const std::lock_guard<std::mutex> lock(models_mu_);
    if (!models_.emplace(name, std::move(entry)).second)
      throw std::invalid_argument("Engine::register_model: duplicate model '" +
                                  name + "'");
  }
  for (int i = 0; i < raw->pool.size(); ++i)
    raw->workers.emplace_back([this, raw, i] { worker_loop(*raw, i); });
}

Engine::ModelEntry& Engine::find_model(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(models_mu_);
  const auto it = models_.find(name);
  if (it == models_.end())
    throw std::invalid_argument("Engine: unknown model '" + name + "'");
  return *it->second;
}

// -------------------------------------------------------------- admission --

void Engine::complete_rejected(PendingRequest& r, RejectReason reason,
                               MonoNanos now, std::string error) {
  Response resp;
  resp.ok = false;
  resp.reason = reason;
  resp.error = std::move(error);
  resp.total_ns = std::max<MonoNanos>(0, now - r.submit_ns);
  r.promise.set_value(std::move(resp));
}

std::future<Response> Engine::submit(const std::string& name, nn::Tensor input,
                                     std::int64_t deadline_us) {
  ModelEntry& m = find_model(name);
  if (input.shape() != m.cfg.sample_shape)
    throw std::invalid_argument("Engine::submit: input shape " +
                                input.shape_str() + " does not match model '" +
                                name + "'");
  const MonoNanos now = clock_();
  PendingRequest req;
  req.input = std::move(input);
  req.submit_ns = now;
  req.deadline_ns =
      now + (deadline_us < 0 ? opt_.default_deadline_us : deadline_us) *
                core::kNanosPerMicro;
  std::future<Response> future = req.promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  if (draining_.load(std::memory_order_acquire)) {
    shed_draining_.fetch_add(1, std::memory_order_relaxed);
    complete_rejected(req, RejectReason::kDraining, now);
  } else if (now >= req.deadline_ns) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    complete_rejected(req, RejectReason::kDeadlineExceeded, now);
  } else if (!m.queue.try_push(std::move(req))) {
    // try_push leaves the moved-from value intact on failure only because
    // it never moves unless it commits; req is still valid here.
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    complete_rejected(req, RejectReason::kQueueFull, now);
  }
  return future;
}

// --------------------------------------------------------------- dispatch --

void Engine::worker_loop(ModelEntry& m, int replica_idx) {
  const auto pop_timeout =
      std::chrono::nanoseconds(opt_.watchdog_period_us * core::kNanosPerMicro);
  const MonoNanos batch_delay_ns = opt_.batch_delay_us * core::kNanosPerMicro;

  std::vector<PendingRequest> batch;
  // Admit or shed one dequeued request.  Deadline-aware: a request whose
  // deadline cannot survive the expected service time is shed now (typed),
  // not served late.
  const auto admit = [&](PendingRequest&& r) {
    const MonoNanos now = clock_();
    const MonoNanos margin = m.ewma_batch_ns.load(std::memory_order_relaxed);
    if (now + margin >= r.deadline_ns) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      complete_rejected(r, RejectReason::kDeadlineExceeded, now);
      return;
    }
    batch.push_back(std::move(r));
  };

  for (;;) {
    auto first = m.queue.pop_wait(pop_timeout);
    if (!first.has_value()) {
      if (m.queue.closed()) return;  // drain(): remainder handled there
      continue;                      // timeout — loop to observe shutdown
    }
    batch.clear();
    const MonoNanos gather_start = clock_();
    admit(std::move(*first));
    // Gather until the size trigger (max_batch), the delay trigger
    // (batch_delay), or the earliest admitted deadline minus the service
    // estimate — whichever bites first.
    while (static_cast<int>(batch.size()) < opt_.max_batch) {
      MonoNanos wait = gather_start + batch_delay_ns - clock_();
      if (!batch.empty()) {
        MonoNanos earliest = batch.front().deadline_ns;
        for (const PendingRequest& r : batch)
          earliest = std::min(earliest, r.deadline_ns);
        const MonoNanos margin =
            m.ewma_batch_ns.load(std::memory_order_relaxed);
        wait = std::min(wait, earliest - margin - clock_());
      }
      if (wait <= 0) {
        auto more = m.queue.try_pop();
        if (!more.has_value()) break;
        admit(std::move(*more));
        continue;
      }
      auto more = m.queue.pop_wait(std::chrono::nanoseconds(wait));
      if (!more.has_value()) break;
      admit(std::move(*more));
    }
    if (!batch.empty()) serve_batch(m, replica_idx, batch);
  }
}

void Engine::serve_batch(ModelEntry& m, int replica_idx,
                         std::vector<PendingRequest>& batch) {
  const int b = static_cast<int>(batch.size());
  std::vector<int> shape;
  shape.reserve(m.cfg.sample_shape.size() + 1);
  shape.push_back(b);
  shape.insert(shape.end(), m.cfg.sample_shape.begin(),
               m.cfg.sample_shape.end());
  nn::Tensor stacked(shape);
  for (int i = 0; i < b; ++i)
    std::memcpy(stacked.raw() + static_cast<std::size_t>(i) * m.sample_numel,
                batch[static_cast<std::size_t>(i)].input.raw(),
                static_cast<std::size_t>(m.sample_numel) * sizeof(float));

  const MonoNanos dequeue_ns = clock_();
  nn::Tensor logits;
  std::uint64_t seq = 0;
  std::string error;
  {
    nn::ReplicaPool::Lease lease = m.pool.acquire(replica_idx);
    const std::shared_ptr<const ArtifactState>& art =
        m.states[static_cast<std::size_t>(replica_idx)];
    seq = art ? art->seq : 0;
    const nn::Context ctx{/*train=*/false, art ? art->fq.get() : nullptr};
    try {
      if (ctx.quant != nullptr) ctx.quant->on_input(stacked);
      logits = lease.module().run(stacked, ctx);
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "non-std exception from replica forward";
    }
  }
  const MonoNanos done_ns = clock_();

  // Service-time estimate for deadline-aware shedding: EWMA with 1/4 gain,
  // normalized per micro-batch (service time is dominated by the batched
  // GEMMs, which scale with b, so the per-batch figure is the right margin
  // for the next batch of similar size).
  const MonoNanos batch_ns = done_ns - dequeue_ns;
  const MonoNanos prev = m.ewma_batch_ns.load(std::memory_order_relaxed);
  m.ewma_batch_ns.store(prev == 0 ? batch_ns : (3 * prev + batch_ns) / 4,
                        std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);

  if (!error.empty()) {
    replica_failures_.fetch_add(static_cast<std::uint64_t>(b),
                                std::memory_order_relaxed);
    for (PendingRequest& r : batch)
      complete_rejected(r, RejectReason::kReplicaFailure, done_ns, error);
    return;
  }
  const std::int64_t row = logits.numel() / b;
  for (int i = 0; i < b; ++i) {
    PendingRequest& r = batch[static_cast<std::size_t>(i)];
    Response resp;
    resp.ok = true;
    resp.output = nn::Tensor({static_cast<int>(row)});
    std::memcpy(resp.output.raw(), logits.raw() + i * row,
                static_cast<std::size_t>(row) * sizeof(float));
    resp.artifact_seq = seq;
    resp.batch_size = b;
    resp.queue_ns = dequeue_ns - r.submit_ns;
    resp.total_ns = done_ns - r.submit_ns;
    // Count before fulfilling the promise: a caller woken by get() must
    // already see this response in stats() (the shed counters follow the
    // same order at every rejection site).
    served_.fetch_add(1, std::memory_order_relaxed);
    r.promise.set_value(std::move(resp));
  }
}

// --------------------------------------------------------------- watchdog --

void Engine::watchdog_loop() {
  const auto period =
      std::chrono::nanoseconds(opt_.watchdog_period_us * core::kNanosPerMicro);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock, period, [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    const MonoNanos now = clock_();
    const std::lock_guard<std::mutex> lock(models_mu_);
    for (auto& [name, m] : models_) {
      (void)name;
      // Backstop expiry: pull deadline-blown requests out of the queue and
      // fail them even if every worker is wedged — callers never wait past
      // their deadline plus one watchdog period.
      std::vector<PendingRequest> expired = m->queue.remove_if(
          [now](const PendingRequest& r) { return now >= r.deadline_ns; });
      for (PendingRequest& r : expired) {
        shed_deadline_.fetch_add(1, std::memory_order_relaxed);
        watchdog_expired_.fetch_add(1, std::memory_order_relaxed);
        complete_rejected(r, RejectReason::kDeadlineExceeded, now);
      }
    }
  }
}

// --------------------------------------------------------------- hot swap --

void Engine::swap_artifacts(const std::string& name, std::istream& mct1,
                            std::istream& mqt1,
                            std::shared_ptr<const formats::Format> fmt) {
  if (fmt == nullptr)
    throw std::invalid_argument("Engine::swap_artifacts: null format");
  ModelEntry& m = find_model(name);
  const std::lock_guard<std::mutex> swap_lock(m.swap_mu);
  try {
    // Gate 1: hardened parse of both containers + format-name check, plus
    // structural validation of every weight tensor against the module tree
    // (the model-aware overload) — an artifact whose element counts don't
    // match the target layers is rejected here, by path, replicas untouched.
    // Replica 0 is leased only for the read-only shape walk.
    ptq::ArtifactPair pair = [&] {
      nn::ReplicaPool::Lease lease = m.pool.acquire(0);
      return ptq::load_artifact_pair(mct1, mqt1, *fmt, lease.module());
    }();

    // Gate 2: non-finite code density.  Clean artifacts have zero; a heavy
    // fraction means the container decoded but its payload is garbage.
    std::uint64_t total_codes = 0;
    for (const ptq::QuantizedTensor& t : pair.weights.tensors)
      total_codes += static_cast<std::uint64_t>(t.numel());
    const std::uint64_t non_finite =
        ptq::count_nonfinite_codes(pair.weights, *fmt);
    if (total_codes > 0 &&
        static_cast<double>(non_finite) >
            kMaxNonfiniteFraction * static_cast<double>(total_codes))
      throw std::runtime_error(
          "Engine::swap_artifacts: artifact rejected by sanity gate: " +
          std::to_string(non_finite) + "/" + std::to_string(total_codes) +
          " codes decode non-finite (bound " +
          std::to_string(kMaxNonfiniteFraction) + ")");

    // Gate 3 + apply, per replica under its lease.  validate_table_coverage
    // and the weight installers all validate against the whole module tree
    // before mutating anything, so a failing artifact leaves the replica
    // serving its old weights.  The checks are deterministic in (structure,
    // artifact) and the replicas are identical clones, so once replica 0
    // passes, all replicas pass — cross-replica divergence is impossible.
    // The weight path is sampled once so one swap installs one
    // representation on every replica even if set_qgemm_mode runs mid-swap.
    const bool code_mode =
        nn::gemm::qgemm_mode() != nn::gemm::QgemmMode::kFloat;
    const std::uint64_t seq = m.seq.load(std::memory_order_relaxed) + 1;
    m.pool.for_each_exclusive([&](nn::Module& module, int idx) {
      ptq::validate_table_coverage(module, pair.table);
      if (code_mode) {
        // Code-domain serving: install the artifact's 8-bit codes directly
        // (layers pack GEMM operands from them); FP32 weights untouched.
        // Decodes are bit-identical to unpack_weights, so responses match
        // the float path exactly.
        ptq::install_code_weights(module, pair.weights, *fmt,
                                  kCorruptionPolicy);
      } else {
        ptq::clear_weight_codes(module);  // drop any previous generation's codes
        ptq::unpack_weights(module, pair.weights, *fmt, kCorruptionPolicy);
      }
      auto state = std::make_shared<ArtifactState>();
      state->fmt = fmt;
      state->table = pair.table;
      state->fq = std::make_unique<ptq::FakeQuantizer>(
          state->table, *state->fmt, formats::ScalePolicy::kMaxToUnity);
      state->fq->set_input_quantization(true);
      state->seq = seq;
      m.states[static_cast<std::size_t>(idx)] = std::move(state);
    });
    m.seq.store(seq, std::memory_order_release);
    swaps_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    swap_rejects_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

std::uint64_t Engine::artifact_seq(const std::string& name) const {
  return find_model(name).seq.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------- drain --

void Engine::drain() {
  const std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (drained_) return;
  draining_.store(true, std::memory_order_release);

  // Stop the watchdog first so the shutdown path owns queue draining.
  {
    const std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();

  // Close every queue: new pushes fail (submit already rejects earlier on
  // the draining_ flag), parked workers wake and exit, and whatever was
  // still queued is failed with the typed Draining rejection.
  std::vector<ModelEntry*> entries;
  {
    const std::lock_guard<std::mutex> lock(models_mu_);
    for (auto& [name, m] : models_) {
      (void)name;
      entries.push_back(m.get());
    }
  }
  for (ModelEntry* m : entries) {
    std::vector<PendingRequest> queued = m->queue.close_and_drain();
    const MonoNanos now = clock_();
    for (PendingRequest& r : queued) {
      shed_draining_.fetch_add(1, std::memory_order_relaxed);
      complete_rejected(r, RejectReason::kDraining, now);
    }
  }
  for (ModelEntry* m : entries)
    for (std::thread& t : m->workers)
      if (t.joinable()) t.join();
  drained_ = true;
}

Engine::Stats Engine::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_draining = shed_draining_.load(std::memory_order_relaxed);
  s.replica_failures = replica_failures_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.swap_rejects = swap_rejects_.load(std::memory_order_relaxed);
  s.watchdog_expired = watchdog_expired_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mersit::serve
