#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scratch_arena.h"
#include "core/thread_pool.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"
#include "nn/gemm/im2col.h"
#include "nn/gemm/qgemm.h"
#include "nn/qweights.h"

namespace mersit::nn {

namespace {

float sigmoidf(float x) { return 1.f / (1.f + std::exp(-x)); }

/// out[p] = (sum of plane p's hw elements, ascending) * (1 / hw) over
/// `planes` contiguous planes: the global average pool of GlobalAvgPool
/// and SEBlock.
void plane_means(const float* x, int planes, int hw, float* out) {
  const float inv = 1.f / static_cast<float>(hw);
  for (int p = 0; p < planes; ++p) {
    const float* xp = x + static_cast<std::size_t>(p) * hw;
    float acc = 0.f;
    for (int i = 0; i < hw; ++i) acc += xp[i];
    out[p] = acc * inv;
  }
}

/// The path one inference forward asks for — the one read of the
/// process-wide gemm::qgemm_mode() — and, for the int8 and Kulisch paths,
/// the decline the call decides itself.  Training asks for no plan: it
/// runs the live Param unpacked.
std::optional<PlanRequest> resolve_path(const Context& ctx, const Tensor& x,
                                        bool depthwise, bool fused_affine) {
  if (ctx.train) return std::nullopt;
  PlanRequest req{gemm::qgemm_mode()};
  const bool kulisch = req.path == gemm::QgemmMode::kKulisch;
  if (kulisch || req.path == gemm::QgemmMode::kInt8)
    req.declined = depthwise                  ? PlanFallback::kDepthwise
                   : !(x.quant_scale() > 0.0) ? PlanFallback::kUnstampedInput
                   : fused_affine && kulisch  ? PlanFallback::kFusedAffine
                                              : PlanFallback::kNone;
  return req;
}

/// The FP32 weights a forward reads: the plan's decoded codes, else the
/// live Param (training, no codes installed, or the kFloat path).
const float* fp32_weights(const WeightPlan* plan, const Param& weight) {
  return plan != nullptr && plan->codes != nullptr ? plan->decoded.data()
                                                   : weight.value.raw();
}

/// The fused-epilogue equivalent of an Act kind, or kNone when the kind has
/// no epilogue (sigmoid/tanh never directly follow a conv/linear here).
gemm::Epilogue epilogue_for(Act a) {
  switch (a) {
    case Act::kReLU: return gemm::Epilogue::kReLU;
    case Act::kReLU6: return gemm::Epilogue::kReLU6;
    case Act::kSiLU: return gemm::Epilogue::kSiLU;
    case Act::kHardSwish: return gemm::Epilogue::kHardSwish;
    case Act::kGELU: return gemm::Epilogue::kGELU;
    default: return gemm::Epilogue::kNone;
  }
}

/// Static geometry of one conv application, shared by the GEMM-lowered
/// forward and backward.
struct ConvGeom {
  int n, in_ch, out_ch, h, w, oh, ow, k, stride, pad, groups, icg, ocg;
  [[nodiscard]] int osz() const { return oh * ow; }
  [[nodiscard]] int kdim() const { return icg * k * k; }
  /// 1x1/stride-1/no-pad convs read the input slab as the column buffer
  /// directly — no im2col copy.
  [[nodiscard]] bool unit() const { return k == 1 && stride == 1 && pad == 0; }
  [[nodiscard]] bool depthwise() const { return icg == 1 && ocg == 1; }
};

/// `c` applied to `x`; throws on a channel mismatch.
ConvGeom conv_geom(const Conv2d& c, const Tensor& x) {
  if (x.dim(1) != c.in_channels()) throw std::invalid_argument("Conv2d: channel mismatch");
  const int h = x.dim(2), w = x.dim(3), k = c.kernel(), s = c.stride(), p = c.pad();
  return {x.dim(0), c.in_channels(), c.out_channels(), h, w, (h + 2 * p - k) / s + 1,
          (w + 2 * p - k) / s + 1, k, s, p, c.groups(), c.in_channels() / c.groups(),
          c.out_channels() / c.groups()};
}

/// Exact-accumulation conv (the Kulisch path) over `x` laid out as g's
/// input: weight codes times re-encoded activation codes through the
/// software quire.
Tensor conv_kulisch(const ConvGeom& g, const Tensor& x, const WeightCodes& wc,
                    const float* bias, gemm::Epilogue epi) {
  const int n = g.n, h = g.h, w = g.w, icg = g.icg, ocg = g.ocg, kdim = g.kdim(), osz = g.osz();
  const double xscale = x.quant_scale();
  const double xinv = 1.0 / xscale;
  Tensor y({n, g.out_ch, g.oh, g.ow});
  core::global_pool().parallel_for(static_cast<std::size_t>(n), [&](std::size_t b) {
    const float* xb = x.raw() + b * static_cast<std::size_t>(g.in_ch) * h * w;
    float* yb = y.raw() + b * static_cast<std::size_t>(g.out_ch) * osz;
    // The quire path re-reads every element once to encode; plain vectors
    // instead of the float-only ScratchArena (exactness mode, not a hot
    // path).
    std::vector<float> col;
    if (!g.unit()) col.resize(static_cast<std::size_t>(kdim) * osz);
    std::vector<std::uint8_t> ccodes(static_cast<std::size_t>(kdim) * osz);
    for (int grp = 0; grp < g.groups; ++grp) {
      const float* src = xb + static_cast<std::size_t>(grp) * icg * h * w;
      const float* colp = src;
      if (!g.unit()) {
        gemm::im2col(src, icg, h, w, g.k, g.stride, g.pad, col.data());
        colp = col.data();
      }
      for (std::size_t i = 0; i < ccodes.size(); ++i)
        ccodes[i] = wc.book->kernel->encode(static_cast<double>(colp[i]) * xinv);
      const gemm::QOperand a{
          wc.codes.data() + static_cast<std::size_t>(grp) * ocg * kdim, kdim,
          wc.scales.data() + static_cast<std::size_t>(grp) * ocg, 0.0};
      const gemm::QOperand bop{ccodes.data(), osz, nullptr, xscale};
      gemm::qgemm_kulisch(ocg, osz, kdim, a, bop, wc.book->table(),
                          gemm::Init::kBiasRow,
                          bias + static_cast<std::size_t>(grp) * ocg,
                          yb + static_cast<std::size_t>(grp) * ocg * osz, osz,
                          epi);
    }
  });
  return y;
}

/// Decode-free conv (the int8 path on a uniform-grid format) over `x` laid
/// out as g's input: weight levels times activation levels in int32,
/// dequant at write-back.  `plan` carries the codes, the per-group level
/// packs and the fused dequant scales; bn_scale/bn_shift fuse a following
/// inference BN exactly as the FP32 conv does.
Tensor conv_int8(const ConvGeom& g, const Tensor& x, const WeightPlan& plan,
                 const float* bias, gemm::Epilogue epi, const float* bn_scale,
                 const float* bn_shift) {
  const WeightCodes& wc = *plan.codes;
  const int n = g.n, h = g.h, w = g.w, icg = g.icg, ocg = g.ocg, kdim = g.kdim(), osz = g.osz();
  const formats::TableCodec::Int8Grid& grid = wc.book->table().int8_grid();
  const double xscale = x.quant_scale();
  const double xinv = 1.0 / (grid.pitch * xscale);
  Tensor y = Tensor::uninitialized({n, g.out_ch, g.oh, g.ow});
  // Batched lowering: sample chunks share one wide column buffer (sample i's
  // columns at offset i*osz, row stride chunk·osz), so each group runs ONE
  // qgemm_int8 of N = chunk·osz columns instead of a per-sample GEMM —
  // per-call pack/driver overhead amortizes across the batch, which is what
  // makes int8 win at small-channel shapes (M = ocg as low as 14 in the
  // mini models).  The lowering itself is the fused im2col_int8: columns are
  // written directly as int8 levels (one pass, 4x smaller buffer, and the
  // separate quantize sweep disappears).  Chunk boundaries are a function of
  // the shape only, every output element's integer accumulation is exact,
  // and the dequant expression is per-element — so results are invariant to
  // chunking, tiling, thread count, and backend, exactly like the
  // per-sample formulation this replaces.
  const std::size_t col_bytes = static_cast<std::size_t>(kdim) * osz;
  constexpr std::size_t kColBudget = std::size_t{8} << 20;
  const int chunk = static_cast<int>(std::clamp<std::size_t>(
      kColBudget / (col_bytes != 0 ? col_bytes : 1), 1,
      static_cast<std::size_t>(n)));
  core::ScratchArena& arena = core::ScratchArena::local();
  const core::ScratchArena::Scope scope(arena);
  // The level buffer reinterprets arena floats (4 int8 levels per slot);
  // the arena's 64-byte slot alignment carries over.
  std::int8_t* qcol = reinterpret_cast<std::int8_t*>(
      arena.alloc((static_cast<std::size_t>(kdim) * chunk * osz + 3) / 4));
  // Batched C rows interleave samples ([m][sample][osz]), so the GEMM lands
  // in scratch and scatters to y's [sample][channel][osz] layout after.
  float* cbuf = chunk > 1
                    ? arena.alloc(static_cast<std::size_t>(ocg) * chunk * osz)
                    : nullptr;
  for (int b0 = 0; b0 < n; b0 += chunk) {
    const int bn = std::min(chunk, n - b0);
    const int ncols = bn * osz;
    for (int grp = 0; grp < g.groups; ++grp) {
      core::global_pool().parallel_for(
          static_cast<std::size_t>(bn), [&](std::size_t bi) {
            gemm::im2col_int8(
                x.raw() + (static_cast<std::size_t>(b0 + bi) * g.in_ch +
                           static_cast<std::size_t>(grp) * icg) *
                              h * w,
                icg, h, w, g.k, g.stride, g.pad, xinv, -grid.qmax, grid.qmax,
                qcol + bi * static_cast<std::size_t>(osz), ncols);
          });
      gemm::RowAffine aff;
      if (bn_scale != nullptr) {
        aff.scale = bn_scale + static_cast<std::size_t>(grp) * ocg;
        aff.shift = bn_shift + static_cast<std::size_t>(grp) * ocg;
      }
      float* cdst = bn == 1
                        ? y.raw() + (static_cast<std::size_t>(b0) * g.out_ch +
                                     static_cast<std::size_t>(grp) * ocg) *
                                        osz
                        : cbuf;
      gemm::qgemm_int8(ocg, ncols, kdim, plan.ipacks[grp],
                       plan.iscales.data() + static_cast<std::size_t>(grp) * ocg,
                       qcol, ncols, grid.pitch * xscale, gemm::Init::kBiasRow,
                       bias + static_cast<std::size_t>(grp) * ocg, cdst, ncols,
                       &core::global_pool(), epi,
                       bn_scale != nullptr ? &aff : nullptr);
      if (bn > 1) {
        for (int m = 0; m < ocg; ++m) {
          const float* crow = cbuf + static_cast<std::size_t>(m) * ncols;
          for (int bi = 0; bi < bn; ++bi)
            std::memcpy(y.raw() + ((static_cast<std::size_t>(b0 + bi) *
                                        g.out_ch +
                                    static_cast<std::size_t>(grp) * ocg + m)) *
                                      osz,
                        crow + static_cast<std::size_t>(bi) * osz,
                        static_cast<std::size_t>(osz) * sizeof(float));
        }
      }
    }
  }
  return y;
}

}  // namespace

bool fuse_inference_ok(const Context& ctx) {
  return !ctx.train && ctx.quant == nullptr;
}

const char* kernel_name(WeightKernel k) {
  static constexpr const char* kNames[] = {"fp32", "int8", "kulisch"};
  return kNames[static_cast<int>(k)];
}

const char* fallback_name(PlanFallback f) {
  static constexpr const char* kNames[] = {
      "none",            "no weight codes",       "depthwise",        "unstamped input",
      "fused BN affine", "no table for the path", "non-finite codes", "K above kInt8MaxK"};
  return kNames[static_cast<int>(f)];
}

std::vector<LayerPlan> weight_plans(Module& model) {
  std::vector<LayerPlan> out;
  for (Module* m : model.modules())
    if (const auto* cw = dynamic_cast<const ChannelWeights*>(m))
      if (auto plan = cw->weight_plan())
        out.push_back({m->path().empty() ? m->name() : m->path(), std::move(plan)});
  return out;
}

// -------------------------------------------------------- ChannelWeights ---

void ChannelWeights::set_weight_codes(std::shared_ptr<const WeightCodes> codes) {
  const auto channels = static_cast<std::size_t>(weight_channels());
  const std::size_t per = weight_param().value.data().size() / std::max<std::size_t>(channels, 1);
  if (codes != nullptr &&
      (codes->book == nullptr || static_cast<std::size_t>(codes->channels) != channels ||
       static_cast<std::size_t>(codes->per_channel) != per ||
       codes->codes.size() != channels * per || codes->scales.size() != channels)) {
    const auto& m = dynamic_cast<const Module&>(*this);
    throw std::invalid_argument(m.name() + " '" + m.path() +
                                "': weight codes do not match the layer shape (" +
                                std::to_string(channels) + " channels x " +
                                std::to_string(per) + " weights, one scale each)");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  codes_ = std::move(codes);
  plan_ = nullptr;
}

std::shared_ptr<const WeightCodes> ChannelWeights::weight_codes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return codes_;
}

std::shared_ptr<const WeightPlan> ChannelWeights::weight_plan() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

// The one plan compiler.  Picks the kernel — the requested int8 / Kulisch
// path when the call did not decline it and the payload qualifies (the
// format has an int8 grid / fits the quire, no non-finite code, and for
// int8 an exact int32 K), else FP32 with the typed reason — and builds
// what that kernel reads:
// FP32 panels of the live Param or of the codes decoded once (bit-identical
// to the quantize→dequantize weights), or int8 level panels with the
// channel scales folded into the grid pitch.  The kFloat path ignores the
// codes.
std::shared_ptr<const WeightPlan> ChannelWeights::plan_for(const PlanRequest& req,
                                                           const WeightLayout& layout) {
  const Param& weight = weight_param();
  const std::uint64_t version = weight.version();
  const int backend = gemm::active_backend().id;
  const std::lock_guard<std::mutex> lock(mu_);
  if (plan_ != nullptr && plan_->request == req && plan_->version == version &&
      plan_->backend_id == backend)
    return plan_;
  auto plan = std::make_shared<WeightPlan>();
  plan->request = req;
  plan->reason = req.declined;
  if (req.path != gemm::QgemmMode::kFloat) plan->codes = codes_;
  plan->version = version;
  plan->backend_id = backend;
  const WeightCodes* wc = plan->codes.get();
  const bool int8 = req.path == gemm::QgemmMode::kInt8;
  if ((int8 || req.path == gemm::QgemmMode::kKulisch) && plan->reason == PlanFallback::kNone) {
    if (wc == nullptr)
      plan->reason = PlanFallback::kNoCodes;
    else if (int8 ? !wc->book->table().int8_grid().usable
                  : !gemm::kulisch_fits(wc->book->table()))
      plan->reason = PlanFallback::kNoTable;
    else if (wc->nonfinite != 0)
      plan->reason = PlanFallback::kNonFinite;
    else if (int8 && layout.k > gemm::kInt8MaxK)
      plan->reason = PlanFallback::kKTooLarge;
    else
      plan->kernel = int8 ? WeightKernel::kInt8 : WeightKernel::kKulisch;
  }
  const std::size_t block = static_cast<std::size_t>(layout.rows) * layout.k;
  if (plan->kernel == WeightKernel::kInt8) {
    const formats::TableCodec::Int8Grid& grid = wc->book->table().int8_grid();
    for (const double s : wc->scales) plan->iscales.push_back(grid.pitch * s);
    for (int grp = 0; grp < layout.groups; ++grp)
      plan->ipacks.push_back(gemm::pack_a_int8_matrix(
          layout.rows, layout.k, wc->codes.data() + grp * block, layout.k, grid.level));
  } else if (plan->kernel == WeightKernel::kFp32) {
    const float* src = weight.value.raw();
    if (wc != nullptr) {
      plan->decoded.resize(wc->codes.size());
      gemm::decode_codes(wc->codes.data(), wc->codes.size(), wc->book->value,
                         wc->scales.data(), static_cast<std::size_t>(wc->per_channel),
                         plan->decoded.data());
      src = plan->decoded.data();
    }
    for (int grp = 0; grp < layout.groups; ++grp) {
      const float* w = src + grp * block;
      plan->packs.push_back(
          layout.b_operand ? gemm::pack_b_matrix(layout.k, layout.rows, w, layout.k, true)
                           : gemm::pack_a_matrix(layout.rows, layout.k, w, layout.k, false));
    }
  }
  plan_ = std::move(plan);
  return plan_;
}

// ---------------------------------------------------------------- Linear ---

Linear::Linear(int in, int out, std::mt19937& rng)
    : weight(Tensor::randn({out, in}, rng, std::sqrt(2.f / static_cast<float>(in)))),
      bias(Tensor::zeros({out})),
      in_(in),
      out_(out) {}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight);
  out.push_back(&bias);
}

std::span<float> Linear::channel_span(int c) {
  return weight.value.data().subspan(static_cast<std::size_t>(c) * static_cast<std::size_t>(in_),
                                     static_cast<std::size_t>(in_));
}

Tensor Linear::forward(const Tensor& x, const Context& ctx) {
  return forward_fused(x, ctx, gemm::Epilogue::kNone);
}

Tensor Linear::forward_fused(const Tensor& x, const Context& ctx,
                             gemm::Epilogue epi) {
  const int n = x.dim(0);
  if (x.dim(1) != in_) throw std::invalid_argument("Linear: width mismatch");
  const auto req = resolve_path(ctx, x, /*depthwise=*/false, /*fused_affine=*/false);
  const auto plan = req ? plan_for(*req, {1, out_, in_, /*b_operand=*/true}) : nullptr;
  switch (plan != nullptr ? plan->kernel : WeightKernel::kFp32) {
    case WeightKernel::kKulisch:
    case WeightKernel::kInt8: {
      // The 1x1 conv over [n, in, 1, 1]: the same products, and both
      // kernels' write-back float(bias + acc·(s_a·s_b)) is symmetric in the
      // operands, so the conv kernels give the Linear's bits.
      const ConvGeom g{n, in_, out_, 1, 1, 1, 1, 1, 1, 0, 1, in_, out_};
      Tensor y = plan->kernel == WeightKernel::kInt8
                     ? conv_int8(g, x, *plan, bias.value.raw(), epi, nullptr, nullptr)
                     : conv_kulisch(g, x, *plan->codes, bias.value.raw(), epi);
      return std::move(y).reshaped({n, out_});
    }
    case WeightKernel::kFp32:
      break;
  }
  Tensor y = Tensor::uninitialized({n, out_});
  // y = x · Wᵀ + b; bias-first then ascending-k accumulation matches the
  // naive loop's rounding sequence exactly.
  gemm::sgemm(n, out_, in_, x.raw(), in_, /*trans_a=*/false,
              fp32_weights(plan.get(), weight), in_, /*trans_b=*/true, y.raw(),
              out_, gemm::Init::kBiasCol, bias.value.raw(), nullptr, epi, nullptr,
              plan != nullptr ? plan->packs.data() : nullptr);
  if (ctx.train) x_cache_ = x;
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const int n = x.dim(0);
  Tensor dx({n, in_});
  // dx = g · W;  dW += gᵀ · x;  db += column sums of g.
  gemm::sgemm(n, in_, out_, grad_out.raw(), out_, /*trans_a=*/false,
              weight.value.raw(), in_, /*trans_b=*/false, dx.raw(), in_);
  gemm::sgemm(out_, in_, n, grad_out.raw(), out_, /*trans_a=*/true, x.raw(),
              in_, /*trans_b=*/false, weight.grad.raw(), in_,
              gemm::Init::kAccumulate);
  for (int o = 0; o < out_; ++o) {
    float s = bias.grad[o];
    for (int i = 0; i < n; ++i) s += grad_out[static_cast<std::int64_t>(i) * out_ + o];
    bias.grad[o] = s;
  }
  return dx;
}

// ---------------------------------------------------------------- Conv2d ---

Conv2d::Conv2d(int in_ch, int out_ch, int ksize, int stride, int pad, int groups,
               std::mt19937& rng)
    : weight(Tensor::randn(
          {out_ch, in_ch / groups, ksize, ksize}, rng,
          std::sqrt(2.f / static_cast<float>((in_ch / groups) * ksize * ksize)))),
      bias(Tensor::zeros({out_ch})),
      in_ch_(in_ch),
      out_ch_(out_ch),
      k_(ksize),
      stride_(stride),
      pad_(pad),
      groups_(groups) {
  if (in_ch % groups != 0 || out_ch % groups != 0)
    throw std::invalid_argument("Conv2d: groups must divide channel counts");
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight);
  out.push_back(&bias);
}

std::span<float> Conv2d::channel_span(int c) {
  const std::size_t per = static_cast<std::size_t>(in_ch_ / groups_) *
                          static_cast<std::size_t>(k_) * static_cast<std::size_t>(k_);
  return weight.value.data().subspan(static_cast<std::size_t>(c) * per, per);
}

namespace {

/// One sample's grouped-conv forward as per-group GEMMs over an im2col
/// buffer (`col` is caller-provided scratch of kdim x osz floats, unused
/// for unit convs).  `packs`, when non-null, holds one prepacked A operand
/// per group; `epi` fuses a following activation into the write-back, and
/// `bn_scale`/`bn_shift` (out_ch entries) fuse a following inference BN as
/// the per-channel affine applied before `epi`.
void conv_forward_sample(const ConvGeom& g, const float* xb, const float* wt,
                         const float* bias, float* yb, float* col,
                         const gemm::PackedMatrix* packs, gemm::Epilogue epi,
                         const float* bn_scale, const float* bn_shift) {
  for (int grp = 0; grp < g.groups; ++grp) {
    const float* src = xb + static_cast<std::size_t>(grp) * g.icg * g.h * g.w;
    const float* colp = src;
    if (!g.unit()) {
      gemm::im2col(src, g.icg, g.h, g.w, g.k, g.stride, g.pad, col);
      colp = col;
    }
    gemm::RowAffine aff;
    if (bn_scale != nullptr) {
      aff.scale = bn_scale + static_cast<std::size_t>(grp) * g.ocg;
      aff.shift = bn_shift + static_cast<std::size_t>(grp) * g.ocg;
    }
    gemm::sgemm(g.ocg, g.osz(), g.kdim(),
                wt + static_cast<std::size_t>(grp) * g.ocg * g.kdim(), g.kdim(),
                /*trans_a=*/false, colp, g.osz(), /*trans_b=*/false,
                yb + static_cast<std::size_t>(grp) * g.ocg * g.osz(), g.osz(),
                gemm::Init::kBiasRow, bias + static_cast<std::size_t>(grp) * g.ocg,
                nullptr, epi, packs != nullptr ? &packs[grp] : nullptr, nullptr,
                bn_scale != nullptr ? &aff : nullptr);
  }
}

}  // namespace

Tensor Conv2d::forward(const Tensor& x, const Context& ctx) {
  return forward_fused(x, ctx, gemm::Epilogue::kNone);
}

Tensor Conv2d::forward_fused(const Tensor& x, const Context& ctx,
                             gemm::Epilogue epi) {
  return forward_affine(x, ctx, epi, nullptr, nullptr);
}

Tensor Conv2d::forward_bn_fused(const Tensor& x, const Context& ctx,
                                const BatchNorm2d& bn, gemm::Epilogue epi) {
  if (bn.folded())
    throw std::logic_error("Conv2d::forward_bn_fused: BN already folded");
  if (bn.channels() != out_ch_)
    throw std::invalid_argument("Conv2d::forward_bn_fused: channel mismatch");
  // The exact per-channel coefficients BatchNorm2d::forward evaluates in
  // inference mode — same expressions, so scale*v + shift reproduces the
  // module pass bit for bit.  Recomputed per forward like the module does;
  // out_ch scalars, negligible next to the GEMM.
  std::vector<float> sc(static_cast<std::size_t>(out_ch_));
  std::vector<float> sh(static_cast<std::size_t>(out_ch_));
  for (int c = 0; c < out_ch_; ++c) {
    const float inv = 1.f / std::sqrt(bn.running_var[c] + bn.eps());
    const float scale = bn.gamma.value[c] * inv;
    sc[static_cast<std::size_t>(c)] = scale;
    sh[static_cast<std::size_t>(c)] =
        bn.beta.value[c] - bn.running_mean[c] * scale;
  }
  return forward_affine(x, ctx, epi, sc.data(), sh.data());
}

Tensor Conv2d::forward_affine(const Tensor& x, const Context& ctx,
                              gemm::Epilogue epi, const float* bn_scale,
                              const float* bn_shift) {
  const bool depthwise = in_ch_ == groups_ && out_ch_ == groups_;
  const auto req = resolve_path(ctx, x, depthwise, bn_scale != nullptr);
  const WeightLayout layout{depthwise ? 0 : groups_, out_ch_ / groups_,
                            (in_ch_ / groups_) * k_ * k_, /*b_operand=*/false};
  const auto plan = req ? plan_for(*req, layout) : nullptr;
  switch (plan != nullptr ? plan->kernel : WeightKernel::kFp32) {
    case WeightKernel::kKulisch:
      return conv_kulisch(conv_geom(*this, x), x, *plan->codes, bias.value.raw(), epi);
    case WeightKernel::kInt8:
      // A fused inference BN rides the RowAffine write-back, identical to
      // the FP32 kernel's fold, so the Sequential fusion scan needs no
      // special case.
      return conv_int8(conv_geom(*this, x), x, *plan, bias.value.raw(), epi, bn_scale,
                       bn_shift);
    case WeightKernel::kFp32:
      break;
  }
  // The FP32 kernel over the live Param or the decoded codes.  Samples are
  // independent; nested calls (e.g. from the parallel PTQ evaluators) run
  // inline, and each sample is computed whole, so the output is invariant
  // to the thread count.
  const float* wt = fp32_weights(plan.get(), weight);
  const float* bs = bias.value.raw();
  const gemm::PackedMatrix* group_packs = plan != nullptr ? plan->packs.data() : nullptr;
  const ConvGeom g = conv_geom(*this, x);
  Tensor y = Tensor::uninitialized({g.n, out_ch_, g.oh, g.ow});
  const gemm::Backend& be = gemm::active_backend();
  const gemm::DepthwiseShape dw{out_ch_, g.h, g.w, g.oh, g.ow, k_, stride_, pad_};
  core::global_pool().parallel_for(static_cast<std::size_t>(g.n), [&](std::size_t b) {
    const float* xb = x.raw() + b * static_cast<std::size_t>(in_ch_) * g.h * g.w;
    float* yb = y.raw() + b * static_cast<std::size_t>(out_ch_) * g.osz();
    core::ScratchArena& arena = core::ScratchArena::local();
    const core::ScratchArena::Scope scope(arena);
    if (g.depthwise()) {
      be.depthwise(dw, xb, wt, bs, yb, epi, bn_scale, bn_shift,
                   arena.alloc(gemm::depthwise_scratch(dw)));
      return;
    }
    float* col = g.unit() ? nullptr
                          : arena.alloc(static_cast<std::size_t>(g.kdim()) * g.osz());
    conv_forward_sample(g, xb, wt, bs, yb, col, group_packs, epi, bn_scale,
                        bn_shift);
  });
  if (ctx.train) x_cache_ = x;
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const ConvGeom g = conv_geom(*this, x);
  const int n = g.n, h = g.h, w = g.w, icg = g.icg, ocg = g.ocg, kdim = g.kdim(), osz = g.osz();
  Tensor dx(x.shape());
  core::ScratchArena& arena = core::ScratchArena::local();
  const core::ScratchArena::Scope scope(arena);
  const std::size_t cn = g.unit() ? 0 : static_cast<std::size_t>(kdim) * osz;
  float* col = arena.alloc(cn);
  float* dcol = arena.alloc(cn);
  // Serial over samples: gradient accumulation into weight.grad keeps the
  // naive loop's batch-ascending add order (training is single-threaded).
  for (int b = 0; b < n; ++b) {
    const float* xb = x.raw() + static_cast<std::size_t>(b) * in_ch_ * h * w;
    float* dxb = dx.raw() + static_cast<std::size_t>(b) * in_ch_ * h * w;
    for (int grp = 0; grp < groups_; ++grp) {
      const float* src = xb + static_cast<std::size_t>(grp) * icg * h * w;
      const float* colp = src;
      if (!g.unit()) {
        gemm::im2col(src, icg, h, w, k_, stride_, pad_, col);
        colp = col;
      }
      const float* gy = grad_out.raw() +
                        (static_cast<std::size_t>(b) * out_ch_ +
                         static_cast<std::size_t>(grp) * ocg) * osz;
      // db: per-channel sums of gy, (i, j) ascending as in the naive loop.
      for (int o = 0; o < ocg; ++o) {
        float s = bias.grad[grp * ocg + o];
        const float* row = gy + static_cast<std::size_t>(o) * osz;
        for (int p = 0; p < osz; ++p) s += row[p];
        bias.grad[grp * ocg + o] = s;
      }
      // dW += gy · colᵀ   ([ocg x osz] · [osz x kdim])
      gemm::sgemm(ocg, kdim, osz, gy, osz, /*trans_a=*/false, colp, osz,
                  /*trans_b=*/true,
                  weight.grad.raw() + static_cast<std::size_t>(grp) * ocg * kdim,
                  kdim, gemm::Init::kAccumulate);
      // dcol = Wᵀ · gy   ([kdim x ocg] · [ocg x osz]), then fold back to
      // image space.  Unit convs write the input-gradient slab directly.
      float* dslab = dxb + static_cast<std::size_t>(grp) * icg * h * w;
      if (g.unit()) {
        gemm::sgemm(kdim, osz, ocg,
                    weight.value.raw() + static_cast<std::size_t>(grp) * ocg * kdim,
                    kdim, /*trans_a=*/true, gy, osz, /*trans_b=*/false, dslab,
                    osz);
      } else {
        gemm::sgemm(kdim, osz, ocg,
                    weight.value.raw() + static_cast<std::size_t>(grp) * ocg * kdim,
                    kdim, /*trans_a=*/true, gy, osz, /*trans_b=*/false,
                    dcol, osz);
        gemm::col2im_add(dcol, icg, h, w, k_, stride_, pad_, dslab);
      }
    }
  }
  return dx;
}

// ----------------------------------------------------------- BatchNorm2d ---

BatchNorm2d::BatchNorm2d(int channels)
    : gamma(Tensor({channels}, 1.f)),
      beta(Tensor::zeros({channels})),
      running_mean(Tensor::zeros({channels})),
      running_var(Tensor({channels}, 1.f)),
      c_(channels) {}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma);
  out.push_back(&beta);
}

Tensor BatchNorm2d::forward(const Tensor& x, const Context& ctx) {
  if (folded_) return x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const float count = static_cast<float>(n * h * w);
  Tensor y = Tensor::uninitialized(x.shape());  // both branches write all of it
  if (ctx.train) {
    x_shape_ = x.shape();
    x_hat_ = Tensor(x.shape());
    inv_std_ = Tensor({c_});
    for (int c = 0; c < c_; ++c) {
      float mean = 0.f;
      for (int b = 0; b < n; ++b)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) mean += x.at(b, c, i, j);
      mean /= count;
      float var = 0.f;
      for (int b = 0; b < n; ++b)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) {
            const float d = x.at(b, c, i, j) - mean;
            var += d * d;
          }
      var /= count;
      const float inv = 1.f / std::sqrt(var + eps_);
      inv_std_[c] = inv;
      running_mean[c] = (1.f - momentum_) * running_mean[c] + momentum_ * mean;
      running_var[c] = (1.f - momentum_) * running_var[c] + momentum_ * var;
      for (int b = 0; b < n; ++b)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) {
            const float xh = (x.at(b, c, i, j) - mean) * inv;
            x_hat_.at(b, c, i, j) = xh;
            y.at(b, c, i, j) = gamma.value[c] * xh + beta.value[c];
          }
    }
  } else {
    // Inference affine over contiguous [h*w] channel planes: same
    // scale*x + shift per element as the indexed loops, minus the
    // out-of-line at() call per element (and the plain loop vectorizes).
    const int hw = h * w;
    for (int c = 0; c < c_; ++c) {
      const float inv = 1.f / std::sqrt(running_var[c] + eps_);
      const float scale = gamma.value[c] * inv;
      const float shift = beta.value[c] - running_mean[c] * scale;
      for (int b = 0; b < n; ++b) {
        const float* xp =
            x.raw() + (static_cast<std::size_t>(b) * c_ + c) * hw;
        float* yp = y.raw() + (static_cast<std::size_t>(b) * c_ + c) * hw;
        for (int i = 0; i < hw; ++i) yp[i] = scale * xp[i] + shift;
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  const int n = x_shape_[0], h = x_shape_[2], w = x_shape_[3];
  const float count = static_cast<float>(n * h * w);
  Tensor dx({n, c_, h, w});
  for (int c = 0; c < c_; ++c) {
    float sum_dy = 0.f, sum_dy_xhat = 0.f;
    for (int b = 0; b < n; ++b)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float g = grad_out.at(b, c, i, j);
          sum_dy += g;
          sum_dy_xhat += g * x_hat_.at(b, c, i, j);
        }
    gamma.grad[c] += sum_dy_xhat;
    beta.grad[c] += sum_dy;
    const float scale = gamma.value[c] * inv_std_[c] / count;
    for (int b = 0; b < n; ++b)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float g = grad_out.at(b, c, i, j);
          dx.at(b, c, i, j) =
              scale * (count * g - sum_dy - x_hat_.at(b, c, i, j) * sum_dy_xhat);
        }
  }
  return dx;
}

void BatchNorm2d::fold_into(Conv2d& conv) {
  if (folded_) throw std::logic_error("BatchNorm2d: already folded");
  if (conv.out_channels() != c_)
    throw std::invalid_argument("BatchNorm2d::fold_into: channel mismatch");
  if (conv.weight_codes() != nullptr)
    throw std::logic_error(
        "BatchNorm2d::fold_into: conv '" +
        (conv.path().empty() ? conv.name() : conv.path()) +
        "' carries installed weight codes; fold before installing codes");
  for (int o = 0; o < c_; ++o) {
    const float inv = 1.f / std::sqrt(running_var[o] + eps_);
    const float scale = gamma.value[o] * inv;
    for (float& v : conv.channel_span(o)) v *= scale;
    conv.bias.value[o] = (conv.bias.value[o] - running_mean[o]) * scale + beta.value[o];
  }
  conv.weight.bump_version();
  conv.bias.bump_version();
  folded_ = true;
}

// ------------------------------------------------------------ Activation ---

const char* act_name(Act a) {
  switch (a) {
    case Act::kReLU: return "ReLU";
    case Act::kReLU6: return "ReLU6";
    case Act::kSiLU: return "SiLU";
    case Act::kHardSwish: return "HardSwish";
    case Act::kGELU: return "GELU";
    case Act::kSigmoid: return "Sigmoid";
    case Act::kTanh: return "Tanh";
  }
  return "?";
}

float act_eval(Act a, float x) {
  switch (a) {
    // The fusable kinds delegate to the GEMM epilogue so the fused
    // write-back and the standalone Activation module share one formula —
    // bit-identity between the two paths holds by construction.
    case Act::kReLU: return gemm::epilogue_eval(gemm::Epilogue::kReLU, x);
    case Act::kReLU6: return gemm::epilogue_eval(gemm::Epilogue::kReLU6, x);
    case Act::kSiLU: return gemm::epilogue_eval(gemm::Epilogue::kSiLU, x);
    case Act::kHardSwish:
      return gemm::epilogue_eval(gemm::Epilogue::kHardSwish, x);
    case Act::kGELU: return gemm::epilogue_eval(gemm::Epilogue::kGELU, x);
    case Act::kSigmoid: return sigmoidf(x);
    case Act::kTanh: return std::tanh(x);
  }
  return 0.f;
}

namespace {

float act_grad(Act a, float x) {
  switch (a) {
    case Act::kReLU: return x > 0.f ? 1.f : 0.f;
    case Act::kReLU6: return (x > 0.f && x < 6.f) ? 1.f : 0.f;
    case Act::kSiLU: {
      const float s = sigmoidf(x);
      return s * (1.f + x * (1.f - s));
    }
    case Act::kHardSwish:
      if (x <= -3.f) return 0.f;
      if (x >= 3.f) return 1.f;
      return (2.f * x + 3.f) / 6.f;
    case Act::kGELU: {
      const float c = 0.7978845608f;
      const float u = c * (x + 0.044715f * x * x * x);
      const float t = std::tanh(u);
      return 0.5f * (1.f + t) +
             0.5f * x * (1.f - t * t) * c * (1.f + 3.f * 0.044715f * x * x);
    }
    case Act::kSigmoid: {
      const float s = sigmoidf(x);
      return s * (1.f - s);
    }
    case Act::kTanh: {
      const float t = std::tanh(x);
      return 1.f - t * t;
    }
  }
  return 0.f;
}

}  // namespace

Tensor Activation::forward(const Tensor& x, const Context& ctx) {
  Tensor y = Tensor::uninitialized(x.shape());
  // act_eval delegates the fusable kinds to epilogue_eval, so the bulk
  // epilogue loop (constant-epilogue body, auto-vectorized) computes the
  // identical value per element — just without the per-element kind switch.
  if (const auto e = epilogue_for(kind_); e != gemm::Epilogue::kNone) {
    constexpr std::int64_t kChunk = 1 << 28;  // epilogue_apply takes int n
    for (std::int64_t i0 = 0; i0 < x.numel(); i0 += kChunk)
      gemm::epilogue_apply(
          e, x.raw() + i0, y.raw() + i0,
          static_cast<int>(std::min(kChunk, x.numel() - i0)));
  } else {
    for (std::int64_t i = 0; i < x.numel(); ++i) y[i] = act_eval(kind_, x[i]);
  }
  if (ctx.train) x_cache_ = x;
  return y;
}

Tensor Activation::backward(const Tensor& grad_out) {
  Tensor dx(x_cache_.shape());
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    dx[i] = grad_out[i] * act_grad(kind_, x_cache_[i]);
  return dx;
}

// -------------------------------------------------------------- Pooling ----

Tensor MaxPool2d::forward(const Tensor& x, const Context& ctx) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = h / 2, ow = w / 2;
  Tensor y = Tensor::uninitialized({n, c, oh, ow});
  if (ctx.train) {
    x_cache_ = x;
    argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  }
  std::int64_t oi = 0;
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch)
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j, ++oi) {
          // Seeded from the window's own first tap, so windows of huge
          // negative values (fault-injected weights produce them) keep
          // their true max and route the gradient inside the window.  A
          // NaN seed yields to the first non-NaN tap; the strict > keeps
          // the first of tied maxima.
          std::int64_t best_idx =
              ((static_cast<std::int64_t>(b) * c + ch) * h + 2 * i) * w + 2 * j;
          float best = x[best_idx];
          for (int di = 0; di < 2; ++di)
            for (int dj = 0; dj < 2; ++dj) {
              const int yi = 2 * i + di, xj = 2 * j + dj;
              const std::int64_t idx =
                  ((static_cast<std::int64_t>(b) * c + ch) * h + yi) * w + xj;
              if (x[idx] > best || (std::isnan(best) && !std::isnan(x[idx]))) {
                best = x[idx];
                best_idx = idx;
              }
            }
          y[oi] = best;
          if (ctx.train) argmax_[static_cast<std::size_t>(oi)] = best_idx;
        }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  Tensor dx(x_cache_.shape());
  for (std::int64_t oi = 0; oi < grad_out.numel(); ++oi)
    dx[argmax_[static_cast<std::size_t>(oi)]] += grad_out[oi];
  return dx;
}

Tensor GlobalAvgPool::forward(const Tensor& x, const Context& ctx) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (ctx.train) x_shape_ = x.shape();
  Tensor y = Tensor::uninitialized({n, c});
  plane_means(x.raw(), n * c, h * w, y.raw());
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const int n = x_shape_[0], c = x_shape_[1], h = x_shape_[2], w = x_shape_[3];
  Tensor dx({n, c, h, w});
  const float inv = 1.f / static_cast<float>(h * w);
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(b, ch) * inv;
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) dx.at(b, ch, i, j) = g;
    }
  return dx;
}

Tensor Flatten::forward(const Tensor& x, const Context& ctx) {
  if (ctx.train) x_shape_ = x.shape();
  const int n = x.dim(0);
  return x.reshaped({n, static_cast<int>(x.numel() / n)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(x_shape_);
}

// ------------------------------------------------------------ Sequential ---

Sequential::Sequential(std::vector<ModulePtr> mods) : mods_(std::move(mods)) {
  names_.reserve(mods_.size());
  for (std::size_t i = 0; i < mods_.size(); ++i) names_.push_back(std::to_string(i));
}

void Sequential::add(ModulePtr m) {
  names_.push_back(std::to_string(mods_.size()));
  mods_.push_back(std::move(m));
}

void Sequential::add(std::string child_name, ModulePtr m) {
  names_.push_back(std::move(child_name));
  mods_.push_back(std::move(m));
}

Tensor Sequential::forward(const Tensor& x, const Context& ctx) {
  // `in` is the current input: the caller's x until the first child has
  // run, so x is read in place rather than copied.
  const Tensor* in = &x;
  Tensor cur;
  if (!fuse_inference_ok(ctx)) {
    for (auto& m : mods_) {
      // A folded BN is the identity and no quant point: skipping it keeps
      // every hook and saves its copy of the activation.
      if (const auto* bn = dynamic_cast<const BatchNorm2d*>(m.get());
          bn != nullptr && bn->folded())
        continue;
      cur = m->run(*in, ctx);
      in = &cur;
    }
    if (in == &x) return x;  // no children
    return cur;
  }
  // Inference-only fusion scan (no quant session, so run() == forward() and
  // skipping a module loses no hooks): a Conv2d or Linear head absorbs an
  // already-folded BN (exact identity — saves the pass-through copy), an
  // unfolded channel-matched BN as the bit-identical per-channel affine
  // write-back, and a trailing fusable Activation (bit-identical fused
  // epilogue).
  for (std::size_t i = 0; i < mods_.size(); in = &cur) {
    Module* m = mods_[i].get();
    if (auto* conv = dynamic_cast<Conv2d*>(m)) {
      std::size_t j = i + 1;
      const BatchNorm2d* affine_bn = nullptr;
      if (j < mods_.size()) {
        if (auto* bn = dynamic_cast<BatchNorm2d*>(mods_[j].get())) {
          if (bn->folded()) {
            ++j;  // identity module: skip it outright
          } else if (bn->channels() == conv->out_channels()) {
            affine_bn = bn;
            ++j;
          }
        }
      }
      gemm::Epilogue epi = gemm::Epilogue::kNone;
      if (j < mods_.size()) {  // activation directly after conv[+bn]
        if (auto* act = dynamic_cast<Activation*>(mods_[j].get())) {
          if (const auto e = epilogue_for(act->kind());
              e != gemm::Epilogue::kNone) {
            epi = e;
            ++j;
          }
        }
      }
      cur = affine_bn != nullptr
                ? conv->forward_bn_fused(*in, ctx, *affine_bn, epi)
                : conv->forward_fused(*in, ctx, epi);
      i = j;
      continue;
    }
    if (auto* lin = dynamic_cast<Linear*>(m)) {
      std::size_t j = i + 1;
      gemm::Epilogue epi = gemm::Epilogue::kNone;
      if (j < mods_.size()) {
        if (auto* act = dynamic_cast<Activation*>(mods_[j].get())) {
          if (const auto e = epilogue_for(act->kind());
              e != gemm::Epilogue::kNone) {
            epi = e;
            ++j;
          }
        }
      }
      cur = lin->forward_fused(*in, ctx, epi);
      i = j;
      continue;
    }
    cur = m->run(*in, ctx);
    ++i;
  }
  if (in == &x) return x;
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = mods_.rbegin(); it != mods_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& m : mods_) m->collect_params(out);
}

void Sequential::collect_children(std::vector<NamedChild>& out) {
  for (std::size_t i = 0; i < mods_.size(); ++i) out.push_back({names_[i], mods_[i].get()});
}

ModulePtr Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  copy->set_path(path());
  copy->names_ = names_;
  copy->mods_.reserve(mods_.size());
  for (const ModulePtr& m : mods_) copy->mods_.push_back(m->clone());
  return copy;
}

// -------------------------------------------------------------- Residual ---

Tensor ResidualBlock::forward(const Tensor& x, const Context& ctx) {
  Tensor main = body_->run(x, ctx);
  Tensor shortcut_out;
  if (shortcut_) shortcut_out = shortcut_->run(x, ctx);
  const Tensor& skip = shortcut_ ? shortcut_out : x;
  if (main.numel() != skip.numel())
    throw std::invalid_argument("ResidualBlock: branch shape mismatch");
  for (std::int64_t i = 0; i < main.numel(); ++i) main[i] += skip[i];
  return main;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor dx = body_->backward(grad_out);
  if (shortcut_) {
    const Tensor ds = shortcut_->backward(grad_out);
    for (std::int64_t i = 0; i < dx.numel(); ++i) dx[i] += ds[i];
  } else {
    for (std::int64_t i = 0; i < dx.numel(); ++i) dx[i] += grad_out[i];
  }
  return dx;
}

void ResidualBlock::collect_params(std::vector<Param*>& out) {
  body_->collect_params(out);
  if (shortcut_) shortcut_->collect_params(out);
}

void ResidualBlock::collect_children(std::vector<NamedChild>& out) {
  out.push_back({"body", body_.get()});
  if (shortcut_) out.push_back({"shortcut", shortcut_.get()});
}

ModulePtr ResidualBlock::clone() const {
  auto copy = std::make_unique<ResidualBlock>(body_->clone(),
                                              shortcut_ ? shortcut_->clone() : nullptr);
  copy->set_path(path());
  return copy;
}

// -------------------------------------------------------------------- SE ---

SEBlock::SEBlock(int channels, int reduced, std::mt19937& rng)
    : c_(channels), fc1_(channels, reduced, rng), fc2_(reduced, channels, rng) {}

void SEBlock::collect_params(std::vector<Param*>& out) {
  fc1_.collect_params(out);
  fc2_.collect_params(out);
}

void SEBlock::collect_children(std::vector<NamedChild>& out) {
  out.push_back({"fc1", &fc1_});
  out.push_back({"fc2", &fc2_});
}

Tensor SEBlock::forward(const Tensor& x, const Context& ctx) {
  // Computed in locals so concurrent inference forwards on a shared model
  // (parallel PTQ calibration/eval) don't race; caches move into members
  // only under ctx.train, where runs are single-threaded.
  if (x.dim(1) != c_) throw std::invalid_argument("SEBlock: channel mismatch");
  const int n = x.dim(0), hw = x.dim(2) * x.dim(3);
  Tensor pooled = Tensor::uninitialized({n, c_});
  plane_means(x.raw(), n * c_, hw, pooled.raw());
  // fc1's ReLU is applied by SEBlock itself (no Activation module and no
  // intermediate quant hook), so fusing it into fc1's GEMM write-back is
  // legal even under a quant session; backward needs nothing from z1 either,
  // but training keeps the explicit form so fc1 caches its input.
  Tensor h1;
  if (ctx.train) {
    Tensor z1 = fc1_.forward(pooled, ctx);
    h1 = Tensor(z1.shape());
    for (std::int64_t i = 0; i < z1.numel(); ++i) h1[i] = z1[i] > 0.f ? z1[i] : 0.f;
  } else {
    h1 = fc1_.forward_fused(pooled, ctx, gemm::Epilogue::kReLU);
  }
  Tensor z2 = fc2_.forward(h1, ctx);
  Tensor gate = Tensor::uninitialized(z2.shape());
  for (std::int64_t i = 0; i < z2.numel(); ++i) gate[i] = sigmoidf(z2[i]);
  Tensor y = Tensor::uninitialized(x.shape());
  for (std::int64_t p = 0; p < gate.numel(); ++p) {
    const float g = gate[p];
    const float* xp = x.raw() + p * hw;
    float* yp = y.raw() + p * hw;
    for (int i = 0; i < hw; ++i) yp[i] = xp[i] * g;
  }
  if (ctx.train) {
    x_cache_ = x;
    h1_ = std::move(h1);
    gate_ = std::move(gate);
  }
  return y;
}

Tensor SEBlock::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  Tensor dgate({n, c_});
  Tensor dx(x.shape());
  for (int b = 0; b < n; ++b)
    for (int c = 0; c < c_; ++c) {
      const float g = gate_.at(b, c);
      float acc = 0.f;
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float go = grad_out.at(b, c, i, j);
          dx.at(b, c, i, j) = go * g;          // direct path
          acc += go * x.at(b, c, i, j);        // gate path
        }
      dgate.at(b, c) = acc;
    }
  // Through the sigmoid.
  Tensor dz2(dgate.shape());
  for (std::int64_t i = 0; i < dz2.numel(); ++i) {
    const float g = gate_[i];
    dz2[i] = dgate[i] * g * (1.f - g);
  }
  Tensor dh1 = fc2_.backward(dz2);
  for (std::int64_t i = 0; i < dh1.numel(); ++i)
    if (h1_[i] <= 0.f) dh1[i] = 0.f;
  Tensor dpooled = fc1_.backward(dh1);
  const float inv = 1.f / static_cast<float>(h * w);
  for (int b = 0; b < n; ++b)
    for (int c = 0; c < c_; ++c) {
      const float g = dpooled.at(b, c) * inv;
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) dx.at(b, c, i, j) += g;
    }
  return dx;
}

}  // namespace mersit::nn
