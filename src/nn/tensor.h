// Minimal dense float32 tensor for the DNN substrate.
//
// Row-major contiguous storage; shapes are small vectors of ints.  This is
// deliberately simple: the PTQ study needs correct forward/backward math on
// small models, not a BLAS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mersit::nn {

/// Counters of the process-wide storage pool behind Tensor (see
/// storage_pool_stats).  Only requests of at least detail::kPooledBytes are
/// counted, and every block at its full size.
struct StoragePoolStats {
  std::uint64_t hits = 0;           ///< requests served from the cache
  std::uint64_t misses = 0;         ///< requests that went to malloc
  std::size_t cached_bytes = 0;     ///< freed blocks held for reuse
  std::size_t live_bytes = 0;       ///< blocks handed out, not yet freed
  std::size_t live_high_water = 0;  ///< max live_bytes so far
};

/// Snapshot of the storage pool's counters.  The pool's invariant is
/// cached_bytes + live_bytes <= live_high_water at every point.
[[nodiscard]] StoragePoolStats storage_pool_stats();

/// Returns every cached block to malloc (live blocks are untouched).
void release_cached_storage() noexcept;

namespace detail {

/// Blocks at least this large recycle through the storage pool (best fit
/// over the freed blocks, see tensor.cpp); smaller ones go straight to
/// malloc.
inline constexpr std::size_t kPooledBytes = std::size_t{64} << 10;

void* storage_alloc(std::size_t bytes);
void storage_free(void* p, std::size_t bytes) noexcept;

/// std::vector allocator over the storage pool.  Value-less construction
/// default-initialises, so a vector sized without a fill value is left
/// unwritten (Tensor::uninitialized); every other constructor writes.
template <class T>
struct StorageAllocator {
  using value_type = T;
  StorageAllocator() = default;
  template <class U>
  StorageAllocator(const StorageAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(storage_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { storage_free(p, n * sizeof(T)); }

  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const StorageAllocator&, const StorageAllocator&) {
    return true;
  }
};

}  // namespace detail

class Tensor {
 public:
  Tensor() = default;
  /// Zero-filled.
  explicit Tensor(std::vector<int> shape);
  Tensor(std::vector<int> shape, float fill);

  [[nodiscard]] static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  /// Unwritten storage, for producers that write every element before any
  /// read.  Address-sanitized builds fill it with NaN, so a read before the
  /// write shows up in the outputs.
  [[nodiscard]] static Tensor uninitialized(std::vector<int> shape);
  /// Gaussian init with the given standard deviation.
  [[nodiscard]] static Tensor randn(std::vector<int> shape, std::mt19937& rng,
                                    float stddev);

  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }
  [[nodiscard]] int dim(int i) const { return shape_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int ndim() const { return static_cast<int>(shape_.size()); }
  [[nodiscard]] std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }
  [[nodiscard]] float* raw() { return data_.data(); }
  [[nodiscard]] const float* raw() const { return data_.data(); }

  [[nodiscard]] float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  // Indexed access (2-4D convenience), row-major over the leading dims.
  [[nodiscard]] float& at(int a, int b) { return data_[offset(a, b)]; }
  [[nodiscard]] float& at(int a, int b, int c) { return data_[offset(a, b, c)]; }
  [[nodiscard]] float& at(int a, int b, int c, int d) {
    return data_[offset(a, b, c, d)];
  }
  [[nodiscard]] float at(int a, int b) const { return data_[offset(a, b)]; }
  [[nodiscard]] float at(int a, int b, int c) const { return data_[offset(a, b, c)]; }
  [[nodiscard]] float at(int a, int b, int c, int d) const {
    return data_[offset(a, b, c, d)];
  }

  /// Same data, new shape (numel must match).  The lvalue overload deep-
  /// copies; the rvalue overload steals the buffer, so hot paths that
  /// reshape a temporary (attention head folding, the GEMM conv lowering)
  /// pay no copy: `std::move(t).reshaped(...)`.
  [[nodiscard]] Tensor reshaped(std::vector<int> shape) const&;
  [[nodiscard]] Tensor reshaped(std::vector<int> shape) &&;

  void fill(float v);
  void zero() { fill(0.f); }
  [[nodiscard]] float abs_max() const;
  [[nodiscard]] std::string shape_str() const;

  /// Quantization scale the values were last fake-quantized with (every
  /// element is code_value * quant_scale for some 8-bit code), or 0 when
  /// the tensor is not known to be quantized.  Stamped by the PTQ session
  /// hooks; consumed by the Kulisch GEMM mode to recover activation codes
  /// by re-encoding.  Propagates through reshaped(); any other producing
  /// op yields a fresh (unstamped) tensor.
  [[nodiscard]] double quant_scale() const { return qscale_; }
  void set_quant_scale(double s) { qscale_ = s; }

 private:
  [[nodiscard]] std::size_t offset(int a, int b) const {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(shape_[1]) +
           static_cast<std::size_t>(b);
  }
  [[nodiscard]] std::size_t offset(int a, int b, int c) const {
    return offset(a, b) * static_cast<std::size_t>(shape_[2]) +
           static_cast<std::size_t>(c);
  }
  [[nodiscard]] std::size_t offset(int a, int b, int c, int d) const {
    return offset(a, b, c) * static_cast<std::size_t>(shape_[3]) +
           static_cast<std::size_t>(d);
  }

  std::vector<int> shape_;
  std::vector<float, detail::StorageAllocator<float>> data_;
  double qscale_ = 0.0;
};

}  // namespace mersit::nn
