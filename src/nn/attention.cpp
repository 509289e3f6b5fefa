#include "nn/attention.h"

#include <cmath>
#include <stdexcept>

#include "core/thread_pool.h"
#include "nn/gemm/gemm.h"

namespace mersit::nn {

// ------------------------------------------------------------- Embedding ---

Embedding::Embedding(int vocab, int max_len, int dim, std::mt19937& rng)
    : table(Tensor::randn({vocab, dim}, rng, 0.1f)),
      pos(Tensor::randn({max_len, dim}, rng, 0.1f)),
      vocab_(vocab),
      max_len_(max_len),
      dim_(dim) {}

void Embedding::collect_params(std::vector<Param*>& out) {
  out.push_back(&table);
  out.push_back(&pos);
}

Tensor Embedding::forward(const Tensor& tokens, const Context& ctx) {
  const int n = tokens.dim(0), t = tokens.dim(1);
  if (t > max_len_) throw std::invalid_argument("Embedding: sequence too long");
  Tensor y({n, t, dim_});
  for (int b = 0; b < n; ++b)
    for (int i = 0; i < t; ++i) {
      const int id = static_cast<int>(tokens.at(b, i));
      if (id < 0 || id >= vocab_) throw std::invalid_argument("Embedding: bad token id");
      for (int d = 0; d < dim_; ++d)
        y.at(b, i, d) = table.value.at(id, d) + pos.value.at(i, d);
    }
  if (ctx.train) tok_cache_ = tokens;
  return y;
}

Tensor Embedding::backward(const Tensor& grad_out) {
  const int n = tok_cache_.dim(0), t = tok_cache_.dim(1);
  for (int b = 0; b < n; ++b)
    for (int i = 0; i < t; ++i) {
      const int id = static_cast<int>(tok_cache_.at(b, i));
      for (int d = 0; d < dim_; ++d) {
        table.grad.at(id, d) += grad_out.at(b, i, d);
        pos.grad.at(i, d) += grad_out.at(b, i, d);
      }
    }
  return Tensor(tok_cache_.shape());  // tokens carry no gradient
}

// ------------------------------------------------------------- LayerNorm ---

LayerNorm::LayerNorm(int dim)
    : gamma(Tensor({dim}, 1.f)), beta(Tensor::zeros({dim})), d_(dim) {}

void LayerNorm::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma);
  out.push_back(&beta);
}

Tensor LayerNorm::forward(const Tensor& x, const Context& ctx) {
  const std::int64_t rows = x.numel() / d_;
  Tensor y(x.shape());
  if (ctx.train) {
    x_hat_ = Tensor(x.shape());
    inv_std_ = Tensor({static_cast<int>(rows)});
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x.raw() + r * d_;
    float* yr = y.raw() + r * d_;
    float mean = 0.f;
    for (int d = 0; d < d_; ++d) mean += xr[d];
    mean /= static_cast<float>(d_);
    float var = 0.f;
    for (int d = 0; d < d_; ++d) {
      const float dv = xr[d] - mean;
      var += dv * dv;
    }
    var /= static_cast<float>(d_);
    const float inv = 1.f / std::sqrt(var + eps_);
    for (int d = 0; d < d_; ++d) {
      const float xh = (xr[d] - mean) * inv;
      if (ctx.train) x_hat_[r * d_ + d] = xh;
      yr[d] = gamma.value[d] * xh + beta.value[d];
    }
    if (ctx.train) inv_std_[r] = inv;
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  const std::int64_t rows = grad_out.numel() / d_;
  Tensor dx(grad_out.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* g = grad_out.raw() + r * d_;
    float sum_gxh = 0.f, sum_g = 0.f;
    for (int d = 0; d < d_; ++d) {
      const float gh = g[d] * gamma.value[d];
      sum_g += gh;
      sum_gxh += gh * x_hat_[r * d_ + d];
      gamma.grad[d] += g[d] * x_hat_[r * d_ + d];
      beta.grad[d] += g[d];
    }
    const float inv = inv_std_[r] / static_cast<float>(d_);
    for (int d = 0; d < d_; ++d) {
      const float gh = g[d] * gamma.value[d];
      dx[r * d_ + d] =
          inv * (static_cast<float>(d_) * gh - sum_g - x_hat_[r * d_ + d] * sum_gxh);
    }
  }
  return dx;
}

// ----------------------------------------------------------------- MHSA ----

MultiHeadSelfAttention::MultiHeadSelfAttention(int dim, int heads, std::mt19937& rng)
    : d_(dim),
      h_(heads),
      dh_(dim / heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  if (dim % heads != 0)
    throw std::invalid_argument("MHSA: heads must divide dim");
}

void MultiHeadSelfAttention::collect_params(std::vector<Param*>& out) {
  wq_.collect_params(out);
  wk_.collect_params(out);
  wv_.collect_params(out);
  wo_.collect_params(out);
}

void MultiHeadSelfAttention::collect_children(std::vector<NamedChild>& out) {
  out.push_back({"wq", &wq_});
  out.push_back({"wk", &wk_});
  out.push_back({"wv", &wv_});
  out.push_back({"wo", &wo_});
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, const Context& ctx) {
  // Inference-mode forwards run concurrently on a shared model (the parallel
  // PTQ calibration/eval loops), so everything is computed in locals; member
  // caches are written only under ctx.train, where runs are single-threaded.
  const int n = x.dim(0);
  const int t = x.dim(1);
  const Tensor flat = x.reshaped({n * t, d_});
  Tensor q = wq_.forward(flat, ctx);
  Tensor k = wk_.forward(flat, ctx);
  Tensor v = wv_.forward(flat, ctx);
  const float scale = 1.f / std::sqrt(static_cast<float>(dh_));

  Tensor attn({n * h_, t, t});
  Tensor ctx_out({n * t, d_});
  // Per (batch, head): scores = Q·Kᵀ (heads are strided d_-wide column
  // slices, which sgemm's leading dims address directly), softmax rows,
  // then context = attn·V.  The score and context sums run in the same
  // ascending-k order as the naive loops, so outputs are bit-identical;
  // head tasks are disjoint, so the fan-out is thread-count invariant.
  core::global_pool().parallel_for(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(h_),
      [&](std::size_t task) {
        const int b = static_cast<int>(task) / h_;
        const int hd = static_cast<int>(task) % h_;
        const int off = hd * dh_;
        float* a = attn.raw() + (static_cast<std::int64_t>(b) * h_ + hd) * t * t;
        const float* qb = q.raw() + static_cast<std::int64_t>(b) * t * d_ + off;
        const float* kb = k.raw() + static_cast<std::int64_t>(b) * t * d_ + off;
        const float* vb = v.raw() + static_cast<std::int64_t>(b) * t * d_ + off;
        gemm::sgemm(t, t, dh_, qb, d_, /*trans_a=*/false, kb, d_,
                    /*trans_b=*/true, a, t);
        for (int i = 0; i < t; ++i) {
          float* ar = a + static_cast<std::int64_t>(i) * t;
          float mx = -1e30f;
          for (int j = 0; j < t; ++j) {
            ar[j] *= scale;
            mx = std::max(mx, ar[j]);
          }
          float denom = 0.f;
          for (int j = 0; j < t; ++j) {
            ar[j] = std::exp(ar[j] - mx);
            denom += ar[j];
          }
          const float invd = 1.f / denom;
          for (int j = 0; j < t; ++j) ar[j] *= invd;
        }
        gemm::sgemm(t, dh_, t, a, t, /*trans_a=*/false, vb, d_,
                    /*trans_b=*/false,
                    ctx_out.raw() + static_cast<std::int64_t>(b) * t * d_ + off,
                    d_);
      });
  Tensor y = wo_.forward(ctx_out, ctx);
  if (ctx.train) {
    n_ = n;
    t_ = t;
    q_ = std::move(q);
    k_ = std::move(k);
    v_ = std::move(v);
    attn_ = std::move(attn);
  }
  return std::move(y).reshaped({n, t, d_});
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  const Tensor gflat = grad_out.reshaped({n_ * t_, d_});
  Tensor dctx = wo_.backward(gflat);
  Tensor dq({n_ * t_, d_}), dk({n_ * t_, d_}), dv({n_ * t_, d_});
  const float scale = 1.f / std::sqrt(static_cast<float>(dh_));
  for (int b = 0; b < n_; ++b) {
    for (int hd = 0; hd < h_; ++hd) {
      const int off = hd * dh_;
      const float* a = attn_.raw() + (static_cast<std::int64_t>(b) * h_ + hd) * t_ * t_;
      for (int i = 0; i < t_; ++i) {
        const float* go = dctx.raw() + (static_cast<std::int64_t>(b) * t_ + i) * d_ + off;
        // dv and d(attn).
        std::vector<float> da(static_cast<std::size_t>(t_), 0.f);
        for (int j = 0; j < t_; ++j) {
          const float* vj = v_.raw() + (static_cast<std::int64_t>(b) * t_ + j) * d_ + off;
          float* dvj = dv.raw() + (static_cast<std::int64_t>(b) * t_ + j) * d_ + off;
          float acc = 0.f;
          const float w = a[i * t_ + j];
          for (int d = 0; d < dh_; ++d) {
            acc += go[d] * vj[d];
            dvj[d] += go[d] * w;
          }
          da[static_cast<std::size_t>(j)] = acc;
        }
        // Softmax jacobian: ds_j = a_j * (da_j - sum_k a_k da_k).
        float dot = 0.f;
        for (int j = 0; j < t_; ++j) dot += a[i * t_ + j] * da[static_cast<std::size_t>(j)];
        const float* qi = q_.raw() + (static_cast<std::int64_t>(b) * t_ + i) * d_ + off;
        float* dqi = dq.raw() + (static_cast<std::int64_t>(b) * t_ + i) * d_ + off;
        for (int j = 0; j < t_; ++j) {
          const float ds = a[i * t_ + j] * (da[static_cast<std::size_t>(j)] - dot) * scale;
          const float* kj = k_.raw() + (static_cast<std::int64_t>(b) * t_ + j) * d_ + off;
          float* dkj = dk.raw() + (static_cast<std::int64_t>(b) * t_ + j) * d_ + off;
          for (int d = 0; d < dh_; ++d) {
            dqi[d] += ds * kj[d];
            dkj[d] += ds * qi[d];
          }
        }
      }
    }
  }
  Tensor dx = wq_.backward(dq);
  const Tensor dxk = wk_.backward(dk);
  const Tensor dxv = wv_.backward(dv);
  for (std::int64_t i = 0; i < dx.numel(); ++i) dx[i] += dxk[i] + dxv[i];
  return std::move(dx).reshaped({n_, t_, d_});
}

// ----------------------------------------------------- TransformerBlock ----

TransformerBlock::TransformerBlock(int dim, int heads, int ff_dim, std::mt19937& rng)
    : d_(dim),
      ff_(ff_dim),
      ln1_(dim),
      ln2_(dim),
      attn_(dim, heads, rng),
      ff1_(dim, ff_dim, rng),
      ff2_(ff_dim, dim, rng) {}

void TransformerBlock::collect_params(std::vector<Param*>& out) {
  ln1_.collect_params(out);
  ln2_.collect_params(out);
  attn_.collect_params(out);
  ff1_.collect_params(out);
  ff2_.collect_params(out);
}

void TransformerBlock::collect_children(std::vector<NamedChild>& out) {
  out.push_back({"ln1", &ln1_});
  out.push_back({"attn", &attn_});
  out.push_back({"ln2", &ln2_});
  out.push_back({"ff1", &ff1_});
  // gelu_ was historically missing from collect_modules even though it is a
  // quant point fired by forward(); it must be part of the named walk so its
  // calibration entry has a path.
  out.push_back({"gelu", &gelu_});
  out.push_back({"ff2", &ff2_});
}

Tensor TransformerBlock::forward(const Tensor& x, const Context& ctx) {
  const int n = x.dim(0);
  const int t = x.dim(1);
  if (ctx.train) {
    n_ = n;
    t_ = t;
  }
  Tensor h = ln1_.run(x, ctx);
  h = attn_.run(h, ctx);
  Tensor mid(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) mid[i] = x[i] + h[i];

  Tensor f = ln2_.run(mid, ctx);
  if (fuse_inference_ok(ctx)) {
    // No quant session, so ff1's and gelu's hooks are no-ops: fuse the GELU
    // into ff1's GEMM write-back (bit-identical — act_eval delegates to the
    // same epilogue formula) and skip the standalone module.
    f = ff1_.forward_fused(std::move(f).reshaped({n * t, d_}), ctx,
                           gemm::Epilogue::kGELU);
  } else {
    f = ff1_.run(std::move(f).reshaped({n * t, d_}), ctx);
    f = gelu_.run(f, ctx);
  }
  f = ff2_.run(f, ctx);
  Tensor out(mid.shape());
  for (std::int64_t i = 0; i < mid.numel(); ++i) out[i] = mid[i] + f[i];
  return out;
}

Tensor TransformerBlock::backward(const Tensor& grad_out) {
  // FF branch.
  Tensor g = ff2_.backward(grad_out.reshaped({n_ * t_, d_}));
  g = gelu_.backward(g);
  g = ff1_.backward(g);
  Tensor dmid = ln2_.backward(std::move(g).reshaped({n_, t_, d_}));
  for (std::int64_t i = 0; i < dmid.numel(); ++i) dmid[i] += grad_out[i];
  // Attention branch.
  Tensor ga = attn_.backward(dmid);
  Tensor dx = ln1_.backward(ga);
  for (std::int64_t i = 0; i < dx.numel(); ++i) dx[i] += dmid[i];
  return dx;
}

// --------------------------------------------------------------- ClsPool ---

Tensor ClsPool::forward(const Tensor& x, const Context& ctx) {
  if (ctx.train) x_shape_ = x.shape();
  const int n = x.dim(0), d = x.dim(2);
  Tensor y({n, d});
  for (int b = 0; b < n; ++b)
    for (int j = 0; j < d; ++j) y.at(b, j) = x.at(b, 0, j);
  return y;
}

Tensor ClsPool::backward(const Tensor& grad_out) {
  Tensor dx(x_shape_);
  const int n = x_shape_[0], d = x_shape_[2];
  for (int b = 0; b < n; ++b)
    for (int j = 0; j < d; ++j) dx.at(b, 0, j) = grad_out.at(b, j);
  return dx;
}

}  // namespace mersit::nn
