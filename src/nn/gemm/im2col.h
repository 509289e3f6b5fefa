// im2col / col2im lowering for the GEMM conv path.
//
// The column buffer is [channels*k*k, oh*ow] row-major, with the row index
// ordered (c, ki, kj) — exactly the accumulation order of the naive conv
// loops, so a fixed-k-order GEMM over it reproduces the reference results
// bit for bit.  Out-of-bounds (padding) taps are stored as 0.
#pragma once

#include <cstdint>

namespace mersit::nn::gemm {

/// Output spatial size of a same-style square conv.
[[nodiscard]] inline int conv_out_dim(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

/// Lower one image plane group `x` ([channels, h, w] contiguous) into
/// `col` ([channels*k*k, oh*ow]).
void im2col(const float* x, int channels, int h, int w, int k, int stride,
            int pad, float* col);

/// Strided variant: row r of the column matrix lands at col + r*col_ld
/// (col_ld >= oh*ow).  Lets several samples share one wide column buffer —
/// sample i lowers into col + i*(oh*ow) with col_ld = samples*(oh*ow) — so
/// a whole batch runs as a single GEMM.  Bytes written per row are
/// identical to the contiguous variant (which is col_ld == oh*ow).
void im2col(const float* x, int channels, int h, int w, int k, int stride,
            int pad, float* col, int col_ld);

/// im2col fused with level quantization for the decode-free int8 path: the
/// column matrix is written directly as int8 levels,
/// q = clamp(RNE(v·inv), lo, hi), exactly the quantize_levels computation
/// (padding taps are level 0, matching quantize of the float 0 the plain
/// im2col stores).  The plane group is quantized once into thread-local
/// scratch and the lowering gather runs in the byte domain, so each input
/// pixel is quantized once (not k*k times), the column buffer shrinks 4x,
/// and the intermediate float traffic disappears.  A unit conv (k 1,
/// stride 1, pad 0), whose column rows are the input planes, quantizes
/// each plane straight into its row instead.  Bit-identical to
/// im2col + quantize_levels by construction (elementwise quantization).
void im2col_int8(const float* x, int channels, int h, int w, int k, int stride,
                 int pad, double inv, int lo, int hi, std::int8_t* col,
                 int col_ld);

/// Scatter-add `col` ([channels*k*k, oh*ow]) back into `dx`
/// ([channels, h, w]); padding taps are dropped.  Used by Conv2d::backward
/// to fold the column-space input gradient back to image space.
void col2im_add(const float* col, int channels, int h, int w, int k, int stride,
                int pad, float* dx);

}  // namespace mersit::nn::gemm
