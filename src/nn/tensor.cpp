#include "nn/tensor.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#if defined(__SANITIZE_ADDRESS__)
#define MERSIT_STORAGE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MERSIT_STORAGE_ASAN 1
#endif
#endif
#ifdef MERSIT_STORAGE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace mersit::nn {

namespace {

/// Hands out the first `bytes` of a block.  Address-sanitized builds fill
/// them with all-ones words (a NaN), so a producer that reads an element
/// before writing it, or a Tensor(shape) that lost its zero-fill, changes
/// outputs bitwise; the rest of a larger cached block stays poisoned.
/// Other builds leave the storage as malloc or its last owner left it.
void* hand_out(void* p, std::size_t bytes) {
#ifdef MERSIT_STORAGE_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  std::memset(p, 0xff, bytes);
#else
  (void)bytes;
#endif
  return p;
}

/// Process-wide recycler for Tensor storage.  A batched forward allocates
/// the same 0.1-1 MB activation blocks every call; returned to malloc, they
/// go back to the OS (mmap, heap-top trim) and the next forward faults them
/// in again.  Freed blocks of at least kPooledBytes wait in free lists by
/// size instead, and a request takes the smallest cached block that holds
/// it (best fit), so blocks freed by a network's wide early layers serve its
/// narrower later ones.  The pool is bounded by
///
///     cached + live <= high water of live
///
/// counting every block at its full size, so it never holds more memory
/// than the process already had in use at its peak: a miss that would break
/// the bound first returns the least recently freed blocks to malloc.
class StoragePool {
 public:
  void* alloc(std::size_t bytes) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto fit = free_.lower_bound(bytes);
      if (fit != free_.end()) {
        const std::size_t size = fit->first;
        void* p = fit->second.back().p;
        live_blocks_.emplace(p, size);
        fit->second.pop_back();
        if (fit->second.empty()) free_.erase(fit);
        cached_ -= size;
        live_ += size;
        ++hits_;
        return hand_out(p, bytes);
      }
      ++misses_;
      live_ += bytes;
      high_water_ = std::max(high_water_, live_);
      while (cached_ + live_ > high_water_) evict_oldest();
    }
    void* p = std::malloc(bytes);
    const std::lock_guard<std::mutex> lock(mu_);
    try {
      if (p == nullptr) throw std::bad_alloc();
      live_blocks_.emplace(p, bytes);
    } catch (...) {
      std::free(p);
      live_ -= bytes;
      throw;
    }
    return hand_out(p, bytes);
  }

  void free(void* p) noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_blocks_.find(p);
    const std::size_t size = it->second;
    live_blocks_.erase(it);
    live_ -= size;
#ifdef MERSIT_STORAGE_ASAN
    ASAN_POISON_MEMORY_REGION(p, size);
#endif
    try {
      free_[size].push_back({p, ++clock_});
      cached_ += size;
    } catch (...) {  // no room for the list entry: drop the block instead
      release(p, size);
    }
  }

  void release_cached() noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& [size, blocks] : free_)
      for (const Cached& c : blocks) release(c.p, size);
    free_.clear();
    cached_ = 0;
  }

  StoragePoolStats stats() {
    const std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_, cached_, live_, high_water_};
  }

 private:
  struct Cached {
    void* p;
    std::uint64_t freed_at;  ///< clock_ when the block was freed
  };

  /// Returns the least recently freed cached block to malloc.
  void evict_oldest() {
    auto oldest = free_.begin();
    for (auto e = free_.begin(); e != free_.end(); ++e)
      if (e->second.front().freed_at < oldest->second.front().freed_at) oldest = e;
    const std::size_t size = oldest->first;
    release(oldest->second.front().p, size);
    oldest->second.pop_front();
    if (oldest->second.empty()) free_.erase(oldest);
    cached_ -= size;
  }

  static void release(void* p, std::size_t bytes) noexcept {
#ifdef MERSIT_STORAGE_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
    (void)bytes;
#endif
    std::free(p);
  }

  std::mutex mu_;
  /// Cached blocks by size, each list in the order they were freed.
  std::map<std::size_t, std::deque<Cached>> free_;
  std::unordered_map<void*, std::size_t> live_blocks_;  ///< block sizes
  std::size_t cached_ = 0, live_ = 0, high_water_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, clock_ = 0;
};

/// Leaked on purpose: static and thread_local Tensors destroyed at exit
/// still return their storage here.
StoragePool& storage_pool() {
  static StoragePool* const pool = new StoragePool;
  return *pool;
}

std::size_t shape_numel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (const int d : shape) {
    if (d <= 0) throw std::invalid_argument("Tensor: non-positive dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

}  // namespace

StoragePoolStats storage_pool_stats() { return storage_pool().stats(); }

void release_cached_storage() noexcept { storage_pool().release_cached(); }

namespace detail {

void* storage_alloc(std::size_t bytes) {
  if (bytes >= kPooledBytes) return storage_pool().alloc(bytes);
  void* p = std::malloc(bytes != 0 ? bytes : 1);
  if (p == nullptr) throw std::bad_alloc();
  return hand_out(p, bytes);
}

void storage_free(void* p, std::size_t bytes) noexcept {
  if (bytes >= kPooledBytes)
    storage_pool().free(p);
  else
    std::free(p);
}

}  // namespace detail

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.f) {}

Tensor Tensor::uninitialized(std::vector<int> shape) {
  Tensor t;
  t.data_.resize(shape_numel(shape));
  t.shape_ = std::move(shape);
  return t;
}

Tensor::Tensor(std::vector<int> shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor Tensor::randn(std::vector<int> shape, std::mt19937& rng, float stddev) {
  Tensor t(std::move(shape));
  std::normal_distribution<float> dist(0.f, stddev);
  for (auto& v : t.data_) v = dist(rng);
  return t;
}

Tensor Tensor::reshaped(std::vector<int> shape) const& {
  if (static_cast<std::int64_t>(shape_numel(shape)) != numel())
    throw std::invalid_argument("Tensor::reshaped: numel mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  t.qscale_ = qscale_;
  return t;
}

Tensor Tensor::reshaped(std::vector<int> shape) && {
  if (static_cast<std::int64_t>(shape_numel(shape)) != numel())
    throw std::invalid_argument("Tensor::reshaped: numel mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data_);
  t.qscale_ = qscale_;
  shape_.clear();
  return t;
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

float Tensor::abs_max() const {
  float m = 0.f;
  for (const float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i)
    os << shape_[i] << (i + 1 < shape_.size() ? "," : "");
  os << ']';
  return os.str();
}

}  // namespace mersit::nn
