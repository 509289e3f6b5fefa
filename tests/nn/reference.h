// Test oracle for the nn layer contract: the naive loops that the GEMM
// lowering of Conv2d, Linear and MultiHeadSelfAttention, the depthwise
// backend kernel, and the plane loops of GlobalAvgPool and SEBlock must
// reproduce; the direct kernel calls the int8 and Kulisch weight paths
// must reproduce; plus the comparator and scope guards the nn suites share
// (the tier guard, test::TierGuard, is core/tier_guard.h's).
//
// Every loop is the direct formula in the accumulation order the engine
// promises: each output starts from its bias (or zero) and adds its
// products in ascending input order (channel, kernel row, kernel column
// for convs), with padding taps skipped.  A following BN affine and the
// epilogue apply once, at the end.  Layer forwards must therefore match
// bit for bit.  The one exception is the conv input gradient: col2im
// regroups its sums, so callers compare it under a numeric tolerance.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "../core/tier_guard.h"
#include "core/thread_pool.h"
#include "formats/kernels/quant_kernel.h"
#include "formats/quantize.h"
#include "nn/attention.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"
#include "nn/gemm/im2col.h"
#include "nn/gemm/qgemm.h"
#include "nn/layers.h"
#include "nn/qweights.h"
#include "nn/tensor.h"

namespace mersit::nn::reference {

// Give the global pool real fan-out even on single-core CI (respects an
// explicit MERSIT_THREADS from the environment).  Static init runs before
// main(), which is before the pool's first use can construct it.
inline const bool kEnvReady = [] {
  setenv("MERSIT_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// ----------------------------------------------------------------- guards --

/// Restores the requested weight path (gemm::set_qgemm_mode) on scope exit.
struct ModeGuard {
  explicit ModeGuard(gemm::QgemmMode m) : prev(gemm::set_qgemm_mode(m)) {}
  ~ModeGuard() { gemm::set_qgemm_mode(prev); }
  gemm::QgemmMode prev;
};

/// Resizes the global pool, and restores the width it had on scope exit.
struct PoolWidthGuard {
  explicit PoolWidthGuard(int width) : prev(core::global_pool().size()) {
    core::resize_global_pool(width);
  }
  ~PoolWidthGuard() { core::resize_global_pool(prev); }
  int prev;
};

// ------------------------------------------------------------- test data --

inline std::vector<float> random_vec(std::size_t n, std::mt19937& rng) {
  std::normal_distribution<float> dist(0.f, 1.f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

inline void randomize(Tensor& t, std::mt19937& rng) {
  std::normal_distribution<float> nd(0.f, 1.f);
  for (auto& v : t.data()) v = nd(rng);
}

/// Non-trivial BN statistics, so the fused affine is not near-identity.
inline void randomize_bn(BatchNorm2d& bn, std::mt19937& rng) {
  std::normal_distribution<float> nd(0.f, 0.5f);
  std::uniform_real_distribution<float> ud(0.5f, 2.f);
  for (auto& v : bn.gamma.value.data()) v = 1.f + nd(rng);
  for (auto& v : bn.beta.value.data()) v = nd(rng);
  for (auto& v : bn.running_mean.data()) v = nd(rng);
  for (auto& v : bn.running_var.data()) v = ud(rng);
  bn.gamma.bump_version();
  bn.beta.bump_version();
}

/// Fake-quantizes x onto `fmt`'s grid at its own absmax and stamps the
/// scale, as a PTQ session leaves an activation.
inline void fake_quantize(Tensor& x, const formats::Format& fmt) {
  const double scale =
      formats::scale_for_absmax(fmt, x.abs_max(), formats::ScalePolicy::kMaxToUnity);
  fmt.kernel()->fake_quantize(x.data(), scale);
  x.set_quant_scale(scale);
}

// ------------------------------------------------------------ comparators --

inline bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

inline bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && bitwise_equal(a.data(), b.data());
}

// ------------------------------------------------------------------- conv --

struct ConvGeometry {
  int in_ch, out_ch, k, stride, pad, groups;
};

inline ConvGeometry geometry_of(const Conv2d& conv) {
  return {conv.in_channels(), conv.out_channels(), conv.kernel(),
          conv.stride(),      conv.pad(),          conv.groups()};
}

/// Parameter gradients and input gradient of one backward pass, each
/// accumulated from zero.
struct Grads {
  Tensor dx, dw, db;
};

/// y = epi(bn_scale*(bias + conv(x, w)) + bn_shift) over [n, in_ch, h, w];
/// `w` is [out_ch, in_ch/groups, k, k], the BN affine (out_ch entries each)
/// is optional.
inline Tensor conv_forward(const Tensor& x, const float* w, const float* bias,
                           const ConvGeometry& g,
                           gemm::Epilogue epi = gemm::Epilogue::kNone,
                           const float* bn_scale = nullptr,
                           const float* bn_shift = nullptr) {
  const int n = x.dim(0), h = x.dim(2), wd = x.dim(3);
  const int oh = (h + 2 * g.pad - g.k) / g.stride + 1;
  const int ow = (wd + 2 * g.pad - g.k) / g.stride + 1;
  const int icg = g.in_ch / g.groups, ocg = g.out_ch / g.groups;
  const int kk = g.k * g.k;
  Tensor y({n, g.out_ch, oh, ow});
  for (int b = 0; b < n; ++b) {
    for (int o = 0; o < g.out_ch; ++o) {
      const int grp = o / ocg;
      for (int i = 0; i < oh; ++i) {
        for (int j = 0; j < ow; ++j) {
          float acc = bias[o];
          for (int c = 0; c < icg; ++c) {
            const int ic = grp * icg + c;
            const float* wo = w + (static_cast<std::size_t>(o) * icg + c) * kk;
            for (int ki = 0; ki < g.k; ++ki) {
              const int yi = i * g.stride + ki - g.pad;
              if (yi < 0 || yi >= h) continue;
              for (int kj = 0; kj < g.k; ++kj) {
                const int xj = j * g.stride + kj - g.pad;
                if (xj < 0 || xj >= wd) continue;
                acc += wo[ki * g.k + kj] * x.at(b, ic, yi, xj);
              }
            }
          }
          if (bn_scale != nullptr) acc = bn_scale[o] * acc + bn_shift[o];
          y.at(b, o, i, j) = gemm::epilogue_eval(epi, acc);
        }
      }
    }
  }
  return y;
}

inline Grads conv_backward(const Tensor& x, const Tensor& gy, const float* w,
                           const ConvGeometry& g) {
  const int n = x.dim(0), h = x.dim(2), wd = x.dim(3);
  const int oh = gy.dim(2), ow = gy.dim(3);
  const int icg = g.in_ch / g.groups, ocg = g.out_ch / g.groups;
  const int kk = g.k * g.k;
  Grads r{Tensor(x.shape()), Tensor({g.out_ch, icg, g.k, g.k}), Tensor({g.out_ch})};
  for (int b = 0; b < n; ++b) {
    for (int o = 0; o < g.out_ch; ++o) {
      const int grp = o / ocg;
      for (int i = 0; i < oh; ++i) {
        for (int j = 0; j < ow; ++j) {
          const float go = gy.at(b, o, i, j);
          if (go == 0.f) continue;
          r.db[o] += go;
          for (int c = 0; c < icg; ++c) {
            const int ic = grp * icg + c;
            const float* wo = w + (static_cast<std::size_t>(o) * icg + c) * kk;
            for (int ki = 0; ki < g.k; ++ki) {
              const int yi = i * g.stride + ki - g.pad;
              if (yi < 0 || yi >= h) continue;
              for (int kj = 0; kj < g.k; ++kj) {
                const int xj = j * g.stride + kj - g.pad;
                if (xj < 0 || xj >= wd) continue;
                r.dw.at(o, c, ki, kj) += go * x.at(b, ic, yi, xj);
                r.dx.at(b, ic, yi, xj) += go * wo[ki * g.k + kj];
              }
            }
          }
        }
      }
    }
  }
  return r;
}

/// The per-channel (scale, shift) inference BatchNorm2d evaluates, in the
/// module's own expressions.
inline std::pair<std::vector<float>, std::vector<float>> bn_affine(
    const BatchNorm2d& bn) {
  std::vector<float> scale(static_cast<std::size_t>(bn.channels()));
  std::vector<float> shift(scale.size());
  for (int c = 0; c < bn.channels(); ++c) {
    const float inv = 1.f / std::sqrt(bn.running_var[c] + bn.eps());
    scale[static_cast<std::size_t>(c)] = bn.gamma.value[c] * inv;
    shift[static_cast<std::size_t>(c)] =
        bn.beta.value[c] - bn.running_mean[c] * scale[static_cast<std::size_t>(c)];
  }
  return {std::move(scale), std::move(shift)};
}

// ----------------------------------------------------------------- linear --

/// y = epi(bias + x · wᵀ) for x [n, in], w [out, in].
inline Tensor linear_forward(const Tensor& x, const float* w, const float* bias,
                             int out, gemm::Epilogue epi = gemm::Epilogue::kNone) {
  const int n = x.dim(0), in = x.dim(1);
  Tensor y({n, out});
  for (int i = 0; i < n; ++i) {
    const float* xi = x.raw() + static_cast<std::ptrdiff_t>(i) * in;
    for (int o = 0; o < out; ++o) {
      const float* wo = w + static_cast<std::ptrdiff_t>(o) * in;
      float acc = bias[o];
      for (int j = 0; j < in; ++j) acc += wo[j] * xi[j];
      y.at(i, o) = gemm::epilogue_eval(epi, acc);
    }
  }
  return y;
}

inline Tensor linear_forward(const Linear& lin, const Tensor& x) {
  return linear_forward(x, lin.weight.value.raw(), lin.bias.value.raw(),
                        lin.weight.value.dim(0));
}

// ----------------------------------------------------------- weight paths --
//
// What a layer with installed codes computes under each weight path,
// from the public kernels rather than the layer code.  code: the naive
// loops above over decoded_weights.  int8 and kulisch: per sample and
// group, im2col the input, turn the columns into levels or codes at the
// input's stamped scale, and call qgemm_int8 (under the scalar backend) or
// qgemm_kulisch.  A Linear is the 1x1 conv over [n, in, 1, 1]: both
// kernels' write-back is float(bias + acc * (s_a * s_b)), so the operand
// orientation does not change a bit.

/// The 256-code decode of `fmt` through its quant kernel.
inline std::array<double, 256> decode_lut(const formats::Format& fmt) {
  const auto kernel = fmt.kernel();
  std::array<double, 256> lut;
  for (int c = 0; c < 256; ++c)
    lut[static_cast<std::size_t>(c)] = kernel->decode(static_cast<std::uint8_t>(c));
  return lut;
}

/// float(book value x channel scale): the weights code mode decodes.
inline std::vector<float> decoded_weights(const WeightCodes& wc) {
  std::vector<float> w(wc.codes.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<float>(wc.book->value[wc.codes[i]] *
                              wc.scales[i / static_cast<std::size_t>(wc.per_channel)]);
  return w;
}

/// Calls group_gemm(o0, col, osz, out) per sample and group of a conv over
/// x: `col` is the group's im2col buffer [kdim x osz], `o0` its first
/// output channel and `out` its [ocg x osz] output block.
template <typename GroupGemm>
Tensor lowered_conv(const Tensor& x, const ConvGeometry& g, GroupGemm&& group_gemm) {
  const int n = x.dim(0), h = x.dim(2), wd = x.dim(3);
  const int oh = (h + 2 * g.pad - g.k) / g.stride + 1;
  const int ow = (wd + 2 * g.pad - g.k) / g.stride + 1;
  const int icg = g.in_ch / g.groups, ocg = g.out_ch / g.groups, osz = oh * ow;
  Tensor y({n, g.out_ch, oh, ow});
  std::vector<float> col(static_cast<std::size_t>(icg) * g.k * g.k * osz);
  for (int b = 0; b < n; ++b)
    for (int grp = 0; grp < g.groups; ++grp) {
      const std::size_t o0 = static_cast<std::size_t>(grp) * ocg;
      gemm::im2col(x.raw() + (static_cast<std::size_t>(b) * g.in_ch +
                              static_cast<std::size_t>(grp) * icg) * h * wd,
                   icg, h, wd, g.k, g.stride, g.pad, col.data());
      group_gemm(o0, col.data(), osz,
                 y.raw() + (static_cast<std::size_t>(b) * g.out_ch + o0) * osz);
    }
  return y;
}

/// The int8 path over x (stamped scale `xscale`): quantize_levels on the
/// format's int8 grid, then qgemm_int8 over the group's weight levels
/// packed once, with the BN affine (when given) and the epilogue.
inline Tensor int8_forward(const Tensor& x, double xscale, const WeightCodes& wc,
                           const float* bias, const ConvGeometry& g,
                           gemm::Epilogue epi, const float* bn_scale = nullptr,
                           const float* bn_shift = nullptr) {
  const formats::TableCodec::Int8Grid& grid = wc.book->table().int8_grid();
  const int kdim = wc.per_channel, ocg = g.out_ch / g.groups;
  std::vector<double> iscales;
  for (const double s : wc.scales) iscales.push_back(grid.pitch * s);
  const test::TierGuard scalar(core::Tier::kScalar);
  std::vector<gemm::PackedInt8> packs;
  for (int grp = 0; grp < g.groups; ++grp)
    packs.push_back(gemm::pack_a_int8_matrix(
        ocg, kdim, wc.codes.data() + static_cast<std::size_t>(grp) * ocg * kdim, kdim,
        grid.level));
  return lowered_conv(x, g, [&](std::size_t o0, const float* col, int osz, float* out) {
    std::vector<std::int8_t> q(static_cast<std::size_t>(kdim) * osz);
    gemm::quantize_levels(col, q.size(), 1.0 / (grid.pitch * xscale), -grid.qmax,
                          grid.qmax, q.data());
    const gemm::RowAffine aff{bn_scale != nullptr ? bn_scale + o0 : nullptr,
                              bn_shift != nullptr ? bn_shift + o0 : nullptr};
    gemm::qgemm_int8(ocg, osz, kdim, packs[o0 / static_cast<std::size_t>(ocg)],
                     iscales.data() + o0, q.data(), osz, grid.pitch * xscale,
                     gemm::Init::kBiasRow, bias + o0, out, osz, nullptr, epi,
                     bn_scale != nullptr ? &aff : nullptr);
  });
}

/// The Kulisch path over x (stamped scale `xscale`): each column value
/// re-encoded as encode(v / xscale), then qgemm_kulisch on the book's
/// table with the epilogue.
template <typename Encode>
Tensor kulisch_forward(const Tensor& x, double xscale, const WeightCodes& wc,
                       const float* bias, const ConvGeometry& g, gemm::Epilogue epi,
                       Encode&& encode) {
  const int kdim = wc.per_channel, ocg = g.out_ch / g.groups;
  return lowered_conv(x, g, [&](std::size_t o0, const float* col, int osz, float* out) {
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(kdim) * osz);
    for (std::size_t i = 0; i < codes.size(); ++i)
      codes[i] = encode(static_cast<double>(col[i]) * (1.0 / xscale));
    const gemm::QOperand a{wc.codes.data() + o0 * kdim, kdim, wc.scales.data() + o0,
                           0.0};
    const gemm::QOperand b{codes.data(), osz, nullptr, xscale};
    gemm::qgemm_kulisch(ocg, osz, kdim, a, b, wc.book->table(), gemm::Init::kBiasRow,
                        bias + o0, out, osz, epi);
  });
}

// ------------------------------------------------------- pooling and SE --

/// y[b, c] = (x[b, c, i, j] summed over (i, j) row-major ascending) *
/// (1 / (h*w)): GlobalAvgPool's forward.
inline Tensor global_avg_pool(const Tensor& x) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const float inv = 1.f / static_cast<float>(h * w);
  Tensor y({n, c});
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch) {
      float acc = 0.f;
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) acc += x.at(b, ch, i, j);
      y.at(b, ch) = acc * inv;
    }
  return y;
}

/// SEBlock's forward: global average pool, fc1 + ReLU, fc2, a sigmoid
/// gate per (sample, channel), then y = x * gate over the channel plane.
inline Tensor se_forward(SEBlock& se, const Tensor& x) {
  std::vector<NamedChild> fc;  // fc1, fc2
  se.collect_children(fc);
  const auto& fc1 = dynamic_cast<const Linear&>(*fc[0].module);
  const auto& fc2 = dynamic_cast<const Linear&>(*fc[1].module);
  const Tensor h1 = linear_forward(global_avg_pool(x), fc1.weight.value.raw(),
                                   fc1.bias.value.raw(), fc1.weight.value.dim(0),
                                   gemm::Epilogue::kReLU);
  const Tensor z2 = linear_forward(fc2, h1);
  Tensor y(x.shape());
  for (int b = 0; b < x.dim(0); ++b)
    for (int c = 0; c < x.dim(1); ++c) {
      const float g = 1.f / (1.f + std::exp(-z2.at(b, c)));
      for (int i = 0; i < x.dim(2); ++i)
        for (int j = 0; j < x.dim(3); ++j) y.at(b, c, i, j) = x.at(b, c, i, j) * g;
    }
  return y;
}

// ------------------------------------------------------------------- MHSA --

/// The attention core over projected q, k, v ([n*t, dim] each): per
/// (batch, head) scaled dot-product scores, a max-shifted softmax per row,
/// and the attention-weighted sum of v.  Returns the [n*t, dim] context.
inline Tensor attention_context(const Tensor& q, const Tensor& k, const Tensor& v,
                                int n, int t, int heads) {
  const int d = q.dim(1), dh = d / heads;
  const float scale = 1.f / std::sqrt(static_cast<float>(dh));
  Tensor ctx_out({n * t, d});
  std::vector<float> a(static_cast<std::size_t>(t) * t);
  for (int b = 0; b < n; ++b) {
    for (int hd = 0; hd < heads; ++hd) {
      const int off = hd * dh;
      for (int i = 0; i < t; ++i) {
        const float* qi = q.raw() + (static_cast<std::int64_t>(b) * t + i) * d + off;
        float* ai = a.data() + static_cast<std::size_t>(i) * t;
        float mx = -1e30f;
        for (int j = 0; j < t; ++j) {
          const float* kj = k.raw() + (static_cast<std::int64_t>(b) * t + j) * d + off;
          float s = 0.f;
          for (int e = 0; e < dh; ++e) s += qi[e] * kj[e];
          s *= scale;
          ai[j] = s;
          mx = std::max(mx, s);
        }
        float denom = 0.f;
        for (int j = 0; j < t; ++j) {
          ai[j] = std::exp(ai[j] - mx);
          denom += ai[j];
        }
        const float invd = 1.f / denom;
        for (int j = 0; j < t; ++j) ai[j] *= invd;
        float* out = ctx_out.raw() + (static_cast<std::int64_t>(b) * t + i) * d + off;
        for (int e = 0; e < dh; ++e) out[e] = 0.f;
        for (int j = 0; j < t; ++j) {
          const float* vj = v.raw() + (static_cast<std::int64_t>(b) * t + j) * d + off;
          for (int e = 0; e < dh; ++e) out[e] += ai[j] * vj[e];
        }
      }
    }
  }
  return ctx_out;
}

/// Whole MHSA forward over x [n, t, dim]: the four projections through
/// linear_forward around attention_context.
inline Tensor mhsa_forward(MultiHeadSelfAttention& attn, const Tensor& x) {
  std::vector<NamedChild> proj;  // wq, wk, wv, wo
  attn.collect_children(proj);
  const auto lin = [&](int i) -> const Linear& {
    return dynamic_cast<const Linear&>(*proj[static_cast<std::size_t>(i)].module);
  };
  const int n = x.dim(0), t = x.dim(1), d = x.dim(2);
  const Tensor flat = x.reshaped({n * t, d});
  const Tensor ctx_out =
      attention_context(linear_forward(lin(0), flat), linear_forward(lin(1), flat),
                        linear_forward(lin(2), flat), n, t, attn.heads());
  return linear_forward(lin(3), ctx_out).reshaped({n, t, d});
}

// ------------------------------------------------------------ whole model --

/// A quant session that leaves every activation untouched.  Its presence
/// alone turns the structural fusions off (fuse_inference_ok needs
/// ctx.quant == nullptr), so a forward under it runs module by module: the
/// unfused reference the fused default forward must reproduce bit for bit.
class PassThroughSession final : public QuantSession {
 public:
  void on_activation(const Module& layer, Tensor& t) override {
    (void)layer;
    (void)t;
  }
  [[nodiscard]] bool concurrent_safe() const override { return true; }
};

inline Tensor unfused_forward(Module& model, const Tensor& x) {
  PassThroughSession pass;
  const Context ctx{/*train=*/false, &pass};
  return model.forward(x, ctx);
}

}  // namespace mersit::nn::reference
