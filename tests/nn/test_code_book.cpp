// The shared code book (nn::CodeBook, built by ptq::make_code_book): each
// entry is the per-code decode it replaces, bit for bit, for every
// registered format under both corruption policies; the format's one code
// table (dyadic pairs, int8 grid) agrees with the book's values under both
// policies; both installers hand every layer one shared book; and the
// table's Kulisch product of every code pair is the value hw::MacReference
// accumulates for it, so the software numerics and the netlist's reference
// cannot drift apart unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "core/registry.h"
#include "formats/corruption.h"
#include "formats/kernels/quant_kernel.h"
#include "hw/mac.h"
#include "hw/reference.h"
#include "nn/gemm/qgemm.h"
#include "nn/models.h"
#include "nn/qweights.h"
#include "ptq/ptq.h"
#include "ptq/serialize.h"

namespace mersit::nn {
namespace {

constexpr formats::CorruptionPolicy kPolicies[] = {
    formats::CorruptionPolicy::kPropagate,
    formats::CorruptionPolicy::kZeroSubstitute};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(CodeBook, EntriesMatchPerCodeDecodeEveryFormatBothPolicies) {
  for (const std::string& name : core::all_format_names()) {
    SCOPED_TRACE(name);
    const auto fmt = core::make_format(name);
    const auto kernel = fmt->kernel();
    const formats::TableCodec& table = fmt->codec();
    const formats::TableCodec::Int8Grid& grid = table.int8_grid();
    for (const auto policy : kPolicies) {
      SCOPED_TRACE(policy == formats::CorruptionPolicy::kPropagate ? "propagate"
                                                                   : "zero");
      const auto book = ptq::make_code_book(*fmt, policy);
      ASSERT_NE(book, nullptr);
      // The book holds the format's own kernel and table, whatever the policy.
      ASSERT_EQ(book->kernel, kernel);
      ASSERT_EQ(&book->table(), &table);
      for (int c = 0; c < 256; ++c) {
        const auto code = static_cast<std::uint8_t>(c);
        const double v = book->value[c];
        EXPECT_TRUE(same_bits(v, formats::decode_with_policy(*fmt, code, policy)))
            << "code " << c;
        const formats::ValueClass cls = fmt->classify(code);
        EXPECT_EQ(table.classify(code), cls) << "code " << c;
        EXPECT_EQ(table.finite(code), cls != formats::ValueClass::kInf &&
                                          cls != formats::ValueClass::kNaN)
            << "code " << c;
        EXPECT_EQ(table.finite(code), std::isfinite(fmt->decode_value(code)))
            << "code " << c;
        // The in-process installer used the kernel's decode table; the
        // book must give the same bits.
        if (policy == formats::CorruptionPolicy::kPropagate) {
          EXPECT_TRUE(same_bits(v, kernel->decode(code))) << "code " << c;
        }
        if (table.finite(code)) {
          EXPECT_EQ(kernel->encode(v), fmt->encode(v)) << "code " << c;
        }
        // The Kulisch and int8 tables the plans read hold for the book's
        // values under either policy: a policy-zeroed code is on both, as
        // pair (0, 0) and level 0; a propagated non-finite code never
        // reaches a kernel (plans decline it) and holds the same.
        const std::int64_t mant = table.dyadic_mant()[c];
        const int exp = table.dyadic_exp()[c];
        if (std::isfinite(v)) {
          if (table.dyadic_exact()) {
            EXPECT_EQ(std::ldexp(static_cast<double>(mant), exp), v) << "code " << c;
          }
          if (grid.usable) {
            EXPECT_EQ(grid.pitch * static_cast<double>(grid.level[c]), v) << "code " << c;
          }
        } else {
          EXPECT_EQ(mant, 0) << "code " << c;
          EXPECT_EQ(exp, 0) << "code " << c;
          EXPECT_EQ(grid.level[c], 0) << "code " << c;
        }
      }
    }
  }
  // The flagship format runs exactly; the INT8 family runs decode-free.
  EXPECT_TRUE(gemm::kulisch_fits(core::make_format("MERSIT(8,2)")->codec()));
  EXPECT_TRUE(core::make_format("INT8")->codec().int8_grid().usable);
}

/// The distinct books installed on `model`'s ChannelWeights layers, and how
/// many layers carry codes.
std::set<const CodeBook*> installed_books(Module& model, int& layers) {
  std::set<const CodeBook*> books;
  layers = 0;
  for (Module* m : model.modules())
    if (auto* cw = dynamic_cast<ChannelWeights*>(m)) {
      const auto wc = cw->weight_codes();
      if (wc == nullptr) continue;
      ++layers;
      books.insert(wc->book.get());
    }
  return books;
}

TEST(CodeBook, BothInstallersShareOneBookAcrossLayers) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  std::mt19937 rng(5);
  const ModulePtr model = make_resnet_mini(3, 10, 1, rng);
  int layers = 0;

  ptq::install_weight_codes(*model, *fmt, formats::ScalePolicy::kMaxToUnity);
  const auto in_process = installed_books(*model, layers);
  EXPECT_GT(layers, 1);
  ASSERT_EQ(in_process.size(), 1u);
  EXPECT_NE(*in_process.begin(), nullptr);

  const ptq::QuantizedModel qm = ptq::pack_weights(*model, *fmt);
  ptq::install_code_weights(*model, qm, *fmt,
                            formats::CorruptionPolicy::kZeroSubstitute);
  const auto from_artifact = installed_books(*model, layers);
  ASSERT_EQ(from_artifact.size(), 1u);
  EXPECT_NE(*from_artifact.begin(), nullptr);
  // One book per installer call, not a process-wide cache.
  EXPECT_NE(*from_artifact.begin(), *in_process.begin());
}

// ------------------------------------------------------------ nn <-> hw --

// For every exponent-coded format whose accumulator fits the reference
// model, a single MacReference step over each of the 65,536 code pairs
// holds the table's Kulisch product mant_w·mant_a·2^(exp_w+exp_a−2·emin)
// (0 for special codes), and the widest product is W+1 bits for the FP
// rows and W bits for the posit and MERSIT rows.  Wider formats throw.
TEST(CodeBookHw, KulischProductMatchesMacReferenceAllCodePairs) {
  std::set<std::string> covered;
  for (const std::string& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto* ef = dynamic_cast<const formats::ExponentCodedFormat*>(fmt.get());
    if (ef == nullptr) continue;
    SCOPED_TRACE(name);
    const hw::MacConfig cfg = hw::mac_config(*ef);
    if (cfg.acc_width > hw::MacReference::kMaxAccWidth) {
      EXPECT_THROW((void)hw::MacReference(*ef), std::invalid_argument);
      continue;
    }
    const formats::TableCodec& table = fmt->codec();
    ASSERT_TRUE(gemm::kulisch_fits(table));
    const std::int64_t* mant = table.dyadic_mant();
    const int* exp = table.dyadic_exp();
    hw::MacReference ref(*ef);
    int widest = 0;
    int mismatches = 0;
    for (int w = 0; w < 256; ++w) {
      for (int a = 0; a < 256; ++a) {
        ref.reset();
        ref.accumulate(static_cast<std::uint8_t>(w), static_cast<std::uint8_t>(a));
        std::int64_t want = 0;
        if (table.finite(static_cast<std::uint8_t>(w)) &&
            table.finite(static_cast<std::uint8_t>(a))) {
          const int shift = exp[w] + exp[a] - 2 * cfg.spec.emin;
          ASSERT_GE(shift, 0) << "codes " << w << "," << a;
          ASSERT_LT(shift, 62) << "codes " << w << "," << a;
          want = mant[w] * mant[a] * (std::int64_t{1} << shift);
        } else {
          EXPECT_EQ(mant[w] * mant[a], 0) << "codes " << w << "," << a;
        }
        if (ref.acc_raw() != want || ref.overflowed()) ++mismatches;
        const std::uint64_t mag = static_cast<std::uint64_t>(want < 0 ? -want : want);
        widest = std::max(widest, static_cast<int>(std::bit_width(mag)));
      }
    }
    EXPECT_EQ(mismatches, 0);
    const bool fp = name.rfind("FP(", 0) == 0;
    EXPECT_EQ(widest, cfg.w + (fp ? 1 : 0));
    covered.insert(name);
  }
  for (const char* name : {"FP(8,2)", "FP(8,3)", "FP(8,4)", "Posit(8,0)",
                           "Posit(8,1)", "StdPosit(8,0)", "StdPosit(8,1)",
                           "MERSIT(8,2)", "MERSIT(8,3)"})
    EXPECT_EQ(covered.count(name), 1u) << name;
}

TEST(CodeBookHw, WideAccumulatorThrowsNamingFormatAndWidth) {
  const auto fmt = core::make_format("FP(8,5)");
  const auto& ef = dynamic_cast<const formats::ExponentCodedFormat&>(*fmt);
  const int width = hw::mac_config(ef).acc_width;
  ASSERT_GT(width, hw::MacReference::kMaxAccWidth);
  try {
    const hw::MacReference ref(ef);
    FAIL() << "constructed a " << width << "-bit reference";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FP(8,5)"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(width)), std::string::npos) << what;
  }
  // The headline formats fit for every margin up to V = 10.
  for (const auto& headline : core::headline_formats()) {
    SCOPED_TRACE(headline->name());
    const auto& hef = dynamic_cast<const formats::ExponentCodedFormat&>(*headline);
    for (int v = 2; v <= 10; ++v)
      EXPECT_NO_THROW((void)hw::MacReference(hef, v)) << v;
  }
}

}  // namespace
}  // namespace mersit::nn
