// The scalar reference backend: the engine's original plain-C++ 4x8
// micro-kernel and pack routines, now expressed as template instantiations
// of the shared generic kernels.  Compiled with the project's baseline
// flags (no -m options), so it runs on any host — it is the backend every
// SIMD implementation is gated bitwise against, and the one every host
// can run.
//
// Register blocking: the micro-kernel keeps an MR x NR accumulator block in
// locals.  4 x 8 = 8 vector registers on baseline SSE2 (4-wide), leaving
// room for the A broadcast and B loads — 6 x 8 already spills on GCC 12 and
// runs ~4x slower.  MC/KC/NC size the packed panels for L2/L1 residency.
#include <cmath>

#include "nn/gemm/backend_impl.h"

namespace mersit::nn::gemm {

namespace {

constexpr int kMR = 4;
constexpr int kNR = 8;

// Int8 path: the generic templates at KG = 1 *are* the scalar reference the
// SIMD int8 kernels are gated bitwise against.
constexpr int kKG8 = 1;

// Depthwise: 4 channels per lane block, one SSE2 register.
constexpr int kDwLanes = 4;

// quantize_levels: the reference every tier's body reproduces byte for
// byte, and the tail loop of the SIMD bodies (through this descriptor).
// The whole int8 layer contract (ULP-0 across backends, thread invariance)
// leans on every lane producing the same byte whichever body quantized it.
void quantize_levels(const float* x, std::size_t n, double inv, int lo,
                     int hi, std::int8_t* out) {
  const double dlo = static_cast<double>(lo);
  const double dhi = static_cast<double>(hi);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]) * inv;
    int q;
    if (v >= dhi) {
      q = hi;
    } else if (v <= dlo) {
      q = lo;
    } else if (v != v) {  // NaN input: match encode-of-NaN gating upstream
      q = 0;
    } else {
      q = static_cast<int>(std::lrint(v));  // RNE under default fenv
    }
    out[i] = static_cast<std::int8_t>(q);
  }
}

constexpr Backend kScalar = {
    core::Tier::kScalar, kMR, kNR, /*mc=*/120, /*kc=*/256, /*nc=*/1024,
    detail::pack_a_block<kMR>, detail::pack_b_block<kNR>,
    detail::micro_generic<kMR, kNR>,
    kKG8,
    detail::pack_a_int8_block<kMR, kKG8>, detail::pack_b_int8_block<kNR, kKG8>,
    detail::micro_int8_generic<kMR, kNR, kKG8>,
    detail::dequant_int8,
    detail::epilogue,
    detail::depthwise_block<kDwLanes>,
    quantize_levels,
};

}  // namespace

const Backend* backend_scalar() { return &kScalar; }

}  // namespace mersit::nn::gemm
