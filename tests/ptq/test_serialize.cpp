#include "ptq/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/registry.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "ptq/ptq.h"

namespace mersit::ptq {
namespace {

TEST(Serialize, PackUnpackEqualsFakeQuantization) {
  std::mt19937 rng(7);
  auto model = nn::make_vgg_mini(3, 10, rng);
  const auto fmt = core::make_format("MERSIT(8,2)");

  // Reference: in-place fake quantization.
  const WeightSnapshot snap = snapshot_weights(*model);
  const QuantizedModel qm = pack_weights(*model, *fmt);
  quantize_weights_per_channel(*model, *fmt, formats::ScalePolicy::kMaxToUnity);
  const WeightSnapshot fake = snapshot_weights(*model);
  restore_weights(*model, snap);

  // Unpack the codes into the pristine model and compare.
  unpack_weights(*model, qm, *fmt);
  const auto params = model->parameters();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j) {
      ASSERT_NEAR(params[i]->value[j], fake.values[i][j], 2e-6f) << i << "," << j;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
  restore_weights(*model, snap);
}

TEST(Serialize, StreamRoundTripIsExact) {
  std::mt19937 rng(9);
  auto model = nn::make_resnet_mini(3, 10, 1, rng);
  const auto fmt = core::make_format("Posit(8,1)");
  const QuantizedModel qm = pack_weights(*model, *fmt);

  std::stringstream ss;
  qm.save(ss);
  EXPECT_EQ(ss.str().size(), qm.byte_size());
  const QuantizedModel back = QuantizedModel::load(ss);
  ASSERT_EQ(back.format_name, qm.format_name);
  ASSERT_EQ(back.tensors.size(), qm.tensors.size());
  for (std::size_t i = 0; i < qm.tensors.size(); ++i) {
    EXPECT_EQ(back.tensors[i].shape, qm.tensors[i].shape);
    EXPECT_EQ(back.tensors[i].channels, qm.tensors[i].channels);
    EXPECT_EQ(back.tensors[i].scales, qm.tensors[i].scales);
    EXPECT_EQ(back.tensors[i].codes, qm.tensors[i].codes);
  }
}

TEST(Serialize, CompressionRatioIsRoughly4x) {
  std::mt19937 rng(11);
  auto model = nn::make_vgg_mini(3, 10, rng);
  const auto fmt = core::make_format("MERSIT(8,2)");
  const QuantizedModel qm = pack_weights(*model, *fmt);
  std::int64_t weight_elems = 0;
  for (const auto& t : qm.tensors) weight_elems += t.numel();
  const double fp32_bytes = 4.0 * static_cast<double>(weight_elems);
  EXPECT_LT(static_cast<double>(qm.byte_size()), 0.30 * fp32_bytes);
}

TEST(Serialize, LoadRejectsGarbage) {
  std::stringstream bad("not a model");
  EXPECT_THROW((void)QuantizedModel::load(bad), std::runtime_error);
  std::stringstream truncated;
  truncated.write("MQT1", 4);
  EXPECT_THROW((void)QuantizedModel::load(truncated), std::runtime_error);
}

TEST(Serialize, UnpackValidatesFormatAndShape) {
  std::mt19937 rng(13);
  auto model = nn::make_vgg_mini(3, 10, rng);
  const auto fmt = core::make_format("MERSIT(8,2)");
  const auto other = core::make_format("FP(8,4)");
  const QuantizedModel qm = pack_weights(*model, *fmt);
  EXPECT_THROW(unpack_weights(*model, qm, *other), std::invalid_argument);
  auto small = nn::make_resnet_mini(3, 10, 1, rng);
  EXPECT_THROW(unpack_weights(*small, qm, *fmt), std::invalid_argument);
}

// ------------------------------------------------------------ golden bytes --

/// FNV-1a 64 over `bytes`, continuing from `h`.
std::uint64_t fnv1a(const void* bytes, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// SplitMix64's finalizer: the integer hash the golden weights come from.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A conv + linear model whose every parameter is an exact dyadic value
/// from an integer hash (no std:: distribution, so the bytes cannot move
/// with the standard library).  Linear channel 2 is all zero, the
/// degenerate scale-1.0 channel.
nn::ModulePtr golden_model() {
  std::mt19937 rng(0);  // initial values are all overwritten
  auto conv = std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, 1, rng);
  auto fc = std::make_unique<nn::Linear>(16, 5, rng);
  nn::Linear* fc_ptr = fc.get();
  auto model = std::make_unique<nn::Sequential>();
  model->add("conv", std::move(conv));
  model->add("fc", std::move(fc));
  nn::assign_paths(*model, "golden");
  std::uint64_t i = 0;
  for (nn::Param* p : model->parameters())
    for (std::int64_t j = 0; j < p->value.numel(); ++j)
      p->value[j] =
          static_cast<float>(static_cast<int>(mix64(++i) % 2001) - 1000) / 256.f;
  for (float& v : fc_ptr->channel_span(2)) v = 0.f;
  return model;
}

/// FNV-1a of every parameter's float bits, in parameter order.
std::uint64_t weights_digest(nn::Module& model, std::uint64_t h) {
  for (nn::Param* p : model.parameters())
    h = fnv1a(p->value.raw(), static_cast<std::size_t>(p->value.numel()) *
                                  sizeof(float), h);
  return h;
}

// The artifact bytes and the weights they decode to are fixed: the MQT1
// container pack_weights writes for the golden model, the MCT1 container
// of a fixed table, and the weights unpack_weights writes from the MQT1
// bytes under both corruption policies after one code of the first tensor
// is replaced by a non-finite code of the format (when it has one).
TEST(SerializeGolden, ArtifactBytesAndUnpackedWeightsMatchDigest) {
  CalibrationTable table;
  table.model_name = "golden";
  table.input_absmax = 2.5f;
  table.absmax["golden/conv"] = 3.75f;
  table.absmax["golden/fc"] = 0.8125f;
  std::ostringstream mct1;
  table.save(mct1);
  EXPECT_EQ(fnv1a(mct1.str().data(), mct1.str().size()),
            0x7afe3b09e8f6c983ull);

  struct Row {
    const char* format;
    std::uint64_t mqt1;      ///< FNV-1a of the MQT1 bytes
    std::uint64_t unpacked;  ///< FNV-1a of the unpacked weights, both policies
    std::uint64_t corrupted; ///< non-finite codes counted over both unpacks
  };
  const Row rows[] = {
      {"INT8", 0x900c109cfcd5e5e3ull, 0x882c697b2cf0eb70ull, 2},
      {"FP(8,4)", 0xaedcea8b254c5ba9ull, 0x3e5cee234be2ac8cull, 2},
      {"Posit(8,1)", 0x82fc6b7e234b4d4aull, 0x7e5a36812150fa08ull, 2},
      {"MERSIT(8,2)", 0xf091df1ed3d7ebbbull, 0xe42fcfe9b2e828ecull, 2},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.format);
    const auto fmt = core::make_format(row.format);
    const nn::ModulePtr model = golden_model();
    const QuantizedModel qm = pack_weights(*model, *fmt);
    std::ostringstream mqt1;
    qm.save(mqt1);
    const std::string bytes = mqt1.str();
    const std::uint64_t mqt1_digest = fnv1a(bytes.data(), bytes.size());

    std::istringstream in(bytes);
    QuantizedModel loaded = QuantizedModel::load(in);
    for (int c = 0; c < 256; ++c) {
      const auto cls = fmt->classify(static_cast<std::uint8_t>(c));
      if (cls == formats::ValueClass::kInf || cls == formats::ValueClass::kNaN) {
        loaded.tensors.front().codes[1] = static_cast<std::uint8_t>(c);
        break;
      }
    }
    std::uint64_t unpacked = 0xcbf29ce484222325ull;
    formats::CorruptionStats stats;
    for (const auto policy : {formats::CorruptionPolicy::kPropagate,
                              formats::CorruptionPolicy::kZeroSubstitute}) {
      const nn::ModulePtr target = golden_model();
      unpack_weights(*target, loaded, *fmt, policy, &stats);
      unpacked = weights_digest(*target, unpacked);
    }
    EXPECT_EQ(mqt1_digest, row.mqt1);
    EXPECT_EQ(unpacked, row.unpacked);
    EXPECT_EQ(stats.non_finite, row.corrupted);
  }
}

}  // namespace
}  // namespace mersit::ptq
