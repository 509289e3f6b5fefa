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

void pack_a(const float* a, int lda, bool trans, int m0, int mc, int k0,
            int kc, float* dst) {
  detail::pack_a_block<kMR>(a, lda, trans, m0, mc, k0, kc, dst);
}

void pack_b(const float* b, int ldb, bool trans, int k0, int kc, int n0,
            int nc, float* dst) {
  detail::pack_b_block<kNR>(b, ldb, trans, k0, kc, n0, nc, dst);
}

void micro(int kc, const float* ap, const float* bp, float* c, int ldc,
           int mr, int nr, Epilogue epi, const float* asc, const float* ash) {
  detail::micro_generic<kMR, kNR>(kc, ap, bp, c, ldc, mr, nr, epi, asc, ash);
}

// Int8 path: the generic templates at KG = 1 *are* the scalar reference the
// SIMD int8 kernels are gated bitwise against.
constexpr int kKG8 = 1;

void pack_a_int8(const std::uint8_t* a, int lda, bool trans,
                 const std::int8_t* qlut, int m0, int mc, int k0, int kc,
                 std::int8_t* dst) {
  detail::pack_a_int8_block<kMR, kKG8>(a, lda, trans, qlut, m0, mc, k0, kc,
                                       dst);
}

void pack_b_int8(const std::uint8_t* b, int ldb, bool trans,
                 const std::int8_t* qlut, int k0, int kc, int n0, int nc,
                 std::int8_t* dst) {
  detail::pack_b_int8_block<kNR, kKG8>(b, ldb, trans, qlut, k0, kc, n0, nc,
                                       dst);
}

void micro_int8(int kc, const std::int8_t* ap, const std::int8_t* bp,
                std::int32_t* acc, int ldacc, int mr, int nr) {
  detail::micro_int8_generic<kMR, kNR, kKG8>(kc, ap, bp, acc, ldacc, mr, nr);
}

void pack_a_int8_f32(const float* a, int lda, bool trans, double inv, int lo,
                     int hi, int m0, int mc, int k0, int kc,
                     std::int8_t* dst) {
  detail::pack_a_int8_f32_block<kMR, kKG8>(a, lda, trans, inv, lo, hi, m0, mc,
                                           k0, kc, dst);
}

constexpr Backend kScalar = {
    "scalar", /*id=*/0, kMR,    kNR,    /*mc=*/120,   /*kc=*/256,
    /*nc=*/1024,        supported,      pack_a,       pack_b, micro,
    /*kg8=*/kKG8,       pack_a_int8,    pack_b_int8,  micro_int8,
    pack_a_int8_f32,
};

}  // namespace

const Backend* backend_scalar() { return &kScalar; }

}  // namespace mersit::nn::gemm
