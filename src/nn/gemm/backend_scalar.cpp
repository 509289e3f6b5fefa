// The scalar reference backend: the engine's original plain-C++ 4x8
// micro-kernel and pack routines, now expressed as template instantiations
// of the shared generic kernels.  Compiled with the project's baseline
// flags (no -m options), so it runs on any host — it is the backend every
// SIMD implementation is gated bitwise against, and the terminal entry of
// the detection order.
//
// Register blocking: the micro-kernel keeps an MR x NR accumulator block in
// locals.  4 x 8 = 8 vector registers on baseline SSE2 (4-wide), leaving
// room for the A broadcast and B loads — 6 x 8 already spills on GCC 12 and
// runs ~4x slower.  MC/KC/NC size the packed panels for L2/L1 residency.
#include "nn/gemm/backend_impl.h"

namespace mersit::nn::gemm {

namespace {

constexpr int kMR = 4;
constexpr int kNR = 8;

bool supported() { return true; }

// Int8 path: the generic templates at KG = 1 *are* the scalar reference the
// SIMD int8 kernels are gated bitwise against.
constexpr int kKG8 = 1;

constexpr Backend kScalar = {
    "scalar", /*id=*/0, kMR, kNR, /*mc=*/120, /*kc=*/256, /*nc=*/1024,
    supported,
    detail::pack_a_block<kMR>, detail::pack_b_block<kNR>,
    detail::micro_generic<kMR, kNR>,
    kKG8,
    detail::pack_a_int8_block<kMR, kKG8>, detail::pack_b_int8_block<kNR, kKG8>,
    detail::micro_int8_generic<kMR, kNR, kKG8>,
};

}  // namespace

const Backend* backend_scalar() { return &kScalar; }

}  // namespace mersit::nn::gemm
