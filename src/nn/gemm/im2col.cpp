#include "nn/gemm/im2col.h"

#include <algorithm>
#include <cstring>

#include "core/scratch_arena.h"
#include "nn/gemm/qgemm.h"

namespace mersit::nn::gemm {

namespace {

/// Valid output-x range [j_begin, j_end) for kernel column kj: the j where
/// j*stride + kj - pad lands inside [0, w).
inline void out_range(int extent, int k_off, int stride, int pad, int out,
                      int& begin, int& end) {
  // j*stride + k_off - pad >= 0  =>  j >= ceil((pad - k_off) / stride)
  const int lo = pad - k_off;
  begin = lo > 0 ? (lo + stride - 1) / stride : 0;
  // j*stride + k_off - pad <= extent-1  =>  j <= (extent-1+pad-k_off)/stride
  const int hi = extent - 1 + pad - k_off;
  end = hi < 0 ? 0 : std::min(out, hi / stride + 1);
  begin = std::min(begin, end);
}

}  // namespace

void im2col(const float* x, int channels, int h, int w, int k, int stride,
            int pad, float* col) {
  const int oh = conv_out_dim(h, k, stride, pad);
  const int ow = conv_out_dim(w, k, stride, pad);
  im2col(x, channels, h, w, k, stride, pad, col, oh * ow);
}

void im2col(const float* x, int channels, int h, int w, int k, int stride,
            int pad, float* col, int col_ld) {
  const int oh = conv_out_dim(h, k, stride, pad);
  const int ow = conv_out_dim(w, k, stride, pad);
  const int osz = col_ld;
  float* row = col;
  for (int c = 0; c < channels; ++c) {
    const float* plane = x + static_cast<std::size_t>(c) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj, row += osz) {
        int jb, je;
        out_range(w, kj, stride, pad, ow, jb, je);
        for (int i = 0; i < oh; ++i) {
          float* out = row + static_cast<std::size_t>(i) * ow;
          const int yi = i * stride + ki - pad;
          if (yi < 0 || yi >= h) {
            std::memset(out, 0, static_cast<std::size_t>(ow) * sizeof(float));
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(yi) * w + kj - pad;
          for (int j = 0; j < jb; ++j) out[j] = 0.f;
          if (stride == 1) {
            std::memcpy(out + jb, src + jb,
                        static_cast<std::size_t>(je - jb) * sizeof(float));
          } else {
            for (int j = jb; j < je; ++j) out[j] = src[j * stride];
          }
          for (int j = je; j < ow; ++j) out[j] = 0.f;
        }
      }
    }
  }
}

void im2col_int8(const float* x, int channels, int h, int w, int k, int stride,
                 int pad, double inv, int lo, int hi, std::int8_t* col,
                 int col_ld) {
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  if (k == 1 && stride == 1 && pad == 0) {
    // Unit conv: column row c is input plane c, so each plane quantizes
    // straight into its row — no scratch copy, no gather.
    for (int c = 0; c < channels; ++c)
      quantize_levels(x + static_cast<std::size_t>(c) * hw, hw, inv, lo, hi,
                      col + static_cast<std::size_t>(c) * col_ld);
    return;
  }
  const int oh = conv_out_dim(h, k, stride, pad);
  const int ow = conv_out_dim(w, k, stride, pad);
  // Quantize the image plane group ONCE (one long quantize_levels call over
  // the contiguous [channels, h, w] block), then gather in the byte domain.
  // Quantization is elementwise, so quantize-then-gather produces exactly
  // the levels a per-tap fused pass would — but each input pixel is
  // quantized once instead of up to k*k times, and the gather itself is
  // memcpy instead of tiny per-segment quantizer invocations whose dispatch
  // overhead dominates at conv-sized rows.
  core::ScratchArena& arena = core::ScratchArena::local();
  const core::ScratchArena::Scope scope(arena);
  const std::size_t plane_sz = static_cast<std::size_t>(channels) * hw;
  std::int8_t* qx =
      reinterpret_cast<std::int8_t*>(arena.alloc((plane_sz + 3) / 4));
  quantize_levels(x, plane_sz, inv, lo, hi, qx);
  std::int8_t* row = col;
  for (int c = 0; c < channels; ++c) {
    const std::int8_t* plane = qx + static_cast<std::size_t>(c) * hw;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj, row += col_ld) {
        int jb, je;
        out_range(w, kj, stride, pad, ow, jb, je);
        if (stride == 1 && ow == w) {
          // Size-preserving taps: out[i*ow + j] = plane[i*w + j + off] with
          // a fixed offset, so the whole (c,ki,kj) row is ONE byte run of
          // the plane.  Copy it in a single memcpy (starting at jb so the
          // read never precedes the plane), zero the out-of-image top and
          // bottom rows, and patch the <=pad boundary columns each interior
          // row — those bytes were copied from the neighboring image row.
          const int i0 = std::max(0, pad - ki);
          const int i1 = std::min(oh, h + pad - ki);
          if (i0 > 0) std::memset(row, 0, static_cast<std::size_t>(i0) * ow);
          if (i1 < oh)
            std::memset(row + static_cast<std::size_t>(i1) * ow, 0,
                        static_cast<std::size_t>(oh - i1) * ow);
          if (i0 < i1 && jb < je) {
            const std::ptrdiff_t off =
                static_cast<std::ptrdiff_t>(ki - pad) * w + (kj - pad);
            std::memcpy(row + static_cast<std::size_t>(i0) * ow + jb,
                        plane + static_cast<std::size_t>(i0) * ow + jb + off,
                        static_cast<std::size_t>(i1 - i0) * ow - jb -
                            (ow - je));
            for (int i = i0; i < i1; ++i) {
              std::int8_t* out = row + static_cast<std::size_t>(i) * ow;
              for (int j = 0; j < jb; ++j) out[j] = 0;
              for (int j = je; j < ow; ++j) out[j] = 0;
            }
          } else if (i0 < i1) {
            std::memset(row + static_cast<std::size_t>(i0) * ow, 0,
                        static_cast<std::size_t>(i1 - i0) * ow);
          }
          continue;
        }
        for (int i = 0; i < oh; ++i) {
          std::int8_t* out = row + static_cast<std::size_t>(i) * ow;
          const int yi = i * stride + ki - pad;
          if (yi < 0 || yi >= h) {
            std::memset(out, 0, static_cast<std::size_t>(ow));
            continue;
          }
          const std::int8_t* src =
              plane + static_cast<std::size_t>(yi) * w + kj - pad;
          for (int j = 0; j < jb; ++j) out[j] = 0;
          if (stride == 1) {
            std::memcpy(out + jb, src + jb, static_cast<std::size_t>(je - jb));
          } else {
            for (int j = jb; j < je; ++j) out[j] = src[j * stride];
          }
          for (int j = je; j < ow; ++j) out[j] = 0;
        }
      }
    }
  }
}

void col2im_add(const float* col, int channels, int h, int w, int k, int stride,
                int pad, float* dx) {
  const int oh = conv_out_dim(h, k, stride, pad);
  const int ow = conv_out_dim(w, k, stride, pad);
  const int osz = oh * ow;
  const float* row = col;
  for (int c = 0; c < channels; ++c) {
    float* plane = dx + static_cast<std::size_t>(c) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj, row += osz) {
        int jb, je;
        out_range(w, kj, stride, pad, ow, jb, je);
        for (int i = 0; i < oh; ++i) {
          const int yi = i * stride + ki - pad;
          if (yi < 0 || yi >= h) continue;
          const float* src = row + static_cast<std::size_t>(i) * ow;
          float* dst = plane + static_cast<std::size_t>(yi) * w + kj - pad;
          for (int j = jb; j < je; ++j) dst[j * stride] += src[j];
        }
      }
    }
  }
}

}  // namespace mersit::nn::gemm
