// serve::Engine robustness contract: typed admission control, deadline
// expiry (on-dequeue and watchdog backstop), draining semantics, replica-
// exception containment, micro-batch coalescing and row routing, strict
// MERSIT_SERVE_* env parsing.  Runs under the `concurrency` TSan label.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/models.h"
#include "serve/engine.h"

namespace mersit::serve {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ test models --

/// Echoes each input row as its "logits" row — routing through stacking,
/// batching, and row extraction is directly observable.
class EchoModel final : public nn::Module {
 public:
  [[nodiscard]] std::string name() const override { return "EchoModel"; }
  nn::Tensor forward(const nn::Tensor& x, const nn::Context&) override {
    return x;
  }
  nn::Tensor backward(const nn::Tensor&) override {
    throw std::logic_error("inference only");
  }
  [[nodiscard]] nn::ModulePtr clone() const override {
    return std::make_unique<EchoModel>();
  }
};

/// Forward blocks until the shared gate opens; `entered` lets tests wait
/// until a request is actually inside a replica (queue verifiably empty).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  void release() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void await_entered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }
};

class GateModel final : public nn::Module {
 public:
  explicit GateModel(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  [[nodiscard]] std::string name() const override { return "GateModel"; }
  nn::Tensor forward(const nn::Tensor& x, const nn::Context&) override {
    {
      std::unique_lock<std::mutex> lock(gate_->mu);
      ++gate_->entered;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [&] { return gate_->open; });
    }
    return nn::Tensor({x.dim(0), 2});
  }
  nn::Tensor backward(const nn::Tensor&) override {
    throw std::logic_error("inference only");
  }
  [[nodiscard]] nn::ModulePtr clone() const override {
    return std::make_unique<GateModel>(gate_);
  }

 private:
  std::shared_ptr<Gate> gate_;
};

/// Throws when the first element of a sample is the poison value.
class ThrowingModel final : public nn::Module {
 public:
  static constexpr float kPoison = -777.f;
  [[nodiscard]] std::string name() const override { return "ThrowingModel"; }
  nn::Tensor forward(const nn::Tensor& x, const nn::Context&) override {
    for (int i = 0; i < x.dim(0); ++i)
      if (x.at(i, 0) == kPoison)
        throw std::runtime_error("poisoned batch");
    return nn::Tensor({x.dim(0), 2});
  }
  nn::Tensor backward(const nn::Tensor&) override {
    throw std::logic_error("inference only");
  }
  [[nodiscard]] nn::ModulePtr clone() const override {
    return std::make_unique<ThrowingModel>();
  }
};

EngineOptions fast_options() {
  EngineOptions o;
  o.replicas = 1;
  o.max_batch = 1;
  o.batch_delay_us = 0;
  o.default_deadline_us = 5'000'000;
  o.queue_capacity = 64;
  o.watchdog_period_us = 1'000;
  return o;
}

nn::Tensor sample(float v0, int numel = 4) {
  nn::Tensor t({numel});
  for (int i = 0; i < numel; ++i) t[i] = v0 + static_cast<float>(i);
  return t;
}

// ---------------------------------------------------------------- serving --

TEST(ServeEngine, EchoServesAndRoutesRows) {
  Engine engine(fast_options());
  engine.register_model("echo", EchoModel(), ModelConfig{{4}, false});
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(engine.submit("echo", sample(10.f * static_cast<float>(i))));
  for (int i = 0; i < 8; ++i) {
    Response r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok) << to_string(r.reason) << " " << r.error;
    const nn::Tensor expect = sample(10.f * static_cast<float>(i));
    ASSERT_EQ(r.output.numel(), expect.numel());
    EXPECT_EQ(std::memcmp(r.output.raw(), expect.raw(),
                          sizeof(float) * static_cast<std::size_t>(expect.numel())),
              0)
        << "row routing mixed up responses";
    EXPECT_EQ(r.artifact_seq, 0u);  // FP32 serving, no artifact yet
    EXPECT_GE(r.total_ns, r.queue_ns);
  }
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.submitted, 8u);
  EXPECT_EQ(s.served, 8u);
}

TEST(ServeEngine, StartReleasesCachedTensorStorage) {
  // Blocks cached by offline work (here: one freed batch activation) are
  // sized for batches the engine will not run; starting it hands them back.
  { const nn::Tensor offline({32, 16, 12, 12}); }
  ASSERT_GT(nn::storage_pool_stats().cached_bytes, 0u);
  const Engine engine(fast_options());
  EXPECT_EQ(nn::storage_pool_stats().cached_bytes, 0u);
}

TEST(ServeEngine, MicroBatchCoalescesUpToMaxBatch) {
  EngineOptions o = fast_options();
  o.max_batch = 4;
  o.batch_delay_us = 100'000;  // wide gather window
  Engine engine(o);
  engine.register_model("echo", EchoModel(), ModelConfig{{4}, false});
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 4; ++i)
    futs.push_back(engine.submit("echo", sample(static_cast<float>(i)),
                                 /*deadline_us=*/5'000'000));
  for (int i = 0; i < 4; ++i) {
    Response r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.batch_size, 4) << "requests should coalesce into one batch";
    EXPECT_EQ(r.output[0], static_cast<float>(i));
  }
  EXPECT_EQ(engine.stats().batches, 1u);
}

TEST(ServeEngine, ConcurrentSubmittersAllServed) {
  EngineOptions o = fast_options();
  o.replicas = 2;
  o.max_batch = 8;
  o.queue_capacity = 1024;
  Engine engine(o);
  engine.register_model("echo", EchoModel(), ModelConfig{{4}, false});
  constexpr int kThreads = 4, kPerThread = 50;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&engine, &ok_counts, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto fut = engine.submit("echo", sample(static_cast<float>(t)),
                                 /*deadline_us=*/10'000'000);
        if (fut.get().ok) ++ok_counts[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok_counts[static_cast<std::size_t>(t)], kPerThread);
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.served, s.submitted);
}

// -------------------------------------------------------------- admission --

TEST(ServeEngine, QueueFullShedsTyped) {
  auto gate = std::make_shared<Gate>();
  EngineOptions o = fast_options();
  o.queue_capacity = 2;
  Engine engine(o);
  engine.register_model("gate", GateModel(gate), ModelConfig{{4}, false});

  auto in_flight = engine.submit("gate", sample(0.f));
  gate->await_entered(1);  // replica busy, queue now verifiably empty
  auto q1 = engine.submit("gate", sample(1.f));
  auto q2 = engine.submit("gate", sample(2.f));
  auto rejected = engine.submit("gate", sample(3.f));
  Response r = rejected.get();  // immediate: admission never blocks
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, RejectReason::kQueueFull);
  EXPECT_EQ(engine.stats().shed_queue_full, 1u);

  gate->release();
  EXPECT_TRUE(in_flight.get().ok);
  EXPECT_TRUE(q1.get().ok);
  EXPECT_TRUE(q2.get().ok);
}

TEST(ServeEngine, ExpiredAtSubmitShedsImmediately) {
  Engine engine(fast_options());
  engine.register_model("echo", EchoModel(), ModelConfig{{4}, false});
  Response r = engine.submit("echo", sample(0.f), /*deadline_us=*/0).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, RejectReason::kDeadlineExceeded);
}

TEST(ServeEngine, WatchdogFailsStrandedRequests) {
  auto gate = std::make_shared<Gate>();
  Engine engine(fast_options());
  engine.register_model("gate", GateModel(gate), ModelConfig{{4}, false});

  auto in_flight = engine.submit("gate", sample(0.f), /*deadline_us=*/30'000'000);
  gate->await_entered(1);
  // Stranded behind a wedged replica with a 20ms deadline: the watchdog
  // sweep must fail it even though no worker ever dequeues it.
  auto stranded = engine.submit("gate", sample(1.f), /*deadline_us=*/20'000);
  ASSERT_EQ(stranded.wait_for(10s), std::future_status::ready)
      << "request hung past its deadline — watchdog failed to sweep";
  Response r = stranded.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reason, RejectReason::kDeadlineExceeded);
  EXPECT_GE(engine.stats().watchdog_expired, 1u);

  gate->release();
  EXPECT_TRUE(in_flight.get().ok);
}

// --------------------------------------------------------------- draining --

TEST(ServeEngine, DrainFailsQueuedAndRejectsNew) {
  auto gate = std::make_shared<Gate>();
  Engine engine(fast_options());
  engine.register_model("gate", GateModel(gate), ModelConfig{{4}, false});

  auto in_flight = engine.submit("gate", sample(0.f), /*deadline_us=*/60'000'000);
  gate->await_entered(1);
  auto queued = engine.submit("gate", sample(1.f), /*deadline_us=*/60'000'000);

  std::thread drainer([&engine] { engine.drain(); });
  // drain() fails queued work before joining the (still wedged) worker.
  ASSERT_EQ(queued.wait_for(10s), std::future_status::ready);
  Response rq = queued.get();
  EXPECT_FALSE(rq.ok);
  EXPECT_EQ(rq.reason, RejectReason::kDraining);

  gate->release();
  drainer.join();
  EXPECT_TRUE(in_flight.get().ok);  // in-flight batch completes normally

  Response post = engine.submit("gate", sample(2.f)).get();
  EXPECT_FALSE(post.ok);
  EXPECT_EQ(post.reason, RejectReason::kDraining);
  EXPECT_THROW(engine.register_model("late", EchoModel(), ModelConfig{{4}, false}),
               std::logic_error);
}

// -------------------------------------------------------- replica failure --

TEST(ServeEngine, ReplicaExceptionFailsBatchEngineSurvives) {
  Engine engine(fast_options());
  engine.register_model("throwy", ThrowingModel(), ModelConfig{{4}, false});
  Response bad =
      engine.submit("throwy", sample(ThrowingModel::kPoison)).get();
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.reason, RejectReason::kReplicaFailure);
  EXPECT_NE(bad.error.find("poisoned"), std::string::npos);
  // The worker caught the exception; the same replica keeps serving.
  Response good = engine.submit("throwy", sample(1.f)).get();
  EXPECT_TRUE(good.ok);
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.replica_failures, 1u);
  EXPECT_EQ(s.served, 1u);
}

// ------------------------------------------------------------ caller bugs --

TEST(ServeEngine, UnknownModelAndBadShapeThrow) {
  Engine engine(fast_options());
  engine.register_model("echo", EchoModel(), ModelConfig{{4}, false});
  EXPECT_THROW((void)engine.submit("nope", sample(0.f)), std::invalid_argument);
  EXPECT_THROW((void)engine.submit("echo", nn::Tensor({3})),
               std::invalid_argument);
  EXPECT_THROW(engine.register_model("echo", EchoModel(), ModelConfig{{4}, false}),
               std::invalid_argument);
  EXPECT_THROW(engine.register_model("bad", EchoModel(), ModelConfig{{}, false}),
               std::invalid_argument);
}

// -------------------------------------------------------------- env knobs --

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      setenv(name_, old_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

TEST(ServeEngine, EnvKnobsParseStrictly) {
  {
    ScopedEnv r("MERSIT_SERVE_REPLICAS", "3");
    ScopedEnv b("MERSIT_SERVE_BATCH", "16");
    ScopedEnv q("MERSIT_SERVE_QUEUE", "512");
    ScopedEnv d("MERSIT_SERVE_DEADLINE_US", "123456");
    const EngineOptions o = EngineOptions::from_env();
    EXPECT_EQ(o.replicas, 3);
    EXPECT_EQ(o.max_batch, 16);
    EXPECT_EQ(o.queue_capacity, 512u);
    EXPECT_EQ(o.default_deadline_us, 123456);
  }
  // Garbage, zero, negative, trailing junk: every knob throws instead of
  // silently serving with a default.
  for (const char* var :
       {"MERSIT_SERVE_REPLICAS", "MERSIT_SERVE_BATCH", "MERSIT_SERVE_QUEUE",
        "MERSIT_SERVE_BATCH_DELAY_US", "MERSIT_SERVE_DEADLINE_US",
        "MERSIT_SERVE_WATCHDOG_US"}) {
    for (const char* bad : {"garbage", "0x10", "-1", "12stop"}) {
      ScopedEnv e(var, bad);
      EXPECT_THROW((void)EngineOptions::from_env(), std::runtime_error)
          << var << "=" << bad;
    }
  }
  {  // zero is out of range everywhere except the batch delay
    ScopedEnv e("MERSIT_SERVE_REPLICAS", "0");
    EXPECT_THROW((void)EngineOptions::from_env(), std::runtime_error);
  }
  {
    ScopedEnv e("MERSIT_SERVE_BATCH_DELAY_US", "0");
    EXPECT_EQ(EngineOptions::from_env().batch_delay_us, 0);
  }
}

}  // namespace
}  // namespace mersit::serve
