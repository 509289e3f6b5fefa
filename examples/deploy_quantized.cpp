// Deployment round trip: train FP32 -> pack weights into true 8-bit MERSIT
// codes -> save/load the binary container -> unpack into a fresh model ->
// verify accuracy survives, and run one layer's worth of dot products
// through the exact Kulisch reference as an accelerator would.
//
//   ./deploy_quantized [format]       default MERSIT(8,2)
#include <cstdio>
#include <random>
#include <sstream>
#include <stdexcept>

#include "core/registry.h"
#include "hw/reference.h"
#include "nn/data.h"
#include "ptq/ptq.h"
#include "ptq/serialize.h"

using namespace mersit;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "MERSIT(8,2)";
  const auto fmt = core::make_format(name);

  // 1. Train a small model.
  const nn::Dataset train = nn::make_vision_dataset(640, 3, 12, 101);
  const nn::Dataset test = nn::make_vision_dataset(256, 3, 12, 102);
  std::mt19937 rng(1);
  auto model = nn::make_vgg_mini(3, 10, rng);
  nn::TrainOptions opt;
  opt.epochs = 4;
  opt.batch = 32;
  opt.lr = 2e-3f;
  std::printf("Training VGG-mini...\n");
  (void)nn::train_classifier(*model, train, opt);
  const float fp32 = ptq::evaluate_fp32(*model, test, ptq::Metric::kAccuracy);

  // 2. Pack weights into 8-bit codes and serialize.
  const ptq::QuantizedModel qm = ptq::pack_weights(*model, *fmt);
  std::stringstream blob;
  qm.save(blob);
  std::int64_t elems = 0;
  for (const auto& t : qm.tensors) elems += t.numel();
  std::printf("Packed %lld weights into %zu bytes (%s codes + FP32 scales; "
              "FP32 would be %lld bytes)\n",
              static_cast<long long>(elems), qm.byte_size(), name.c_str(),
              static_cast<long long>(4 * elems));

  // 3. Load into a freshly initialized model of the same architecture.
  std::mt19937 rng2(999);  // different init: everything comes from the blob
  auto deployed = nn::make_vgg_mini(3, 10, rng2);
  const ptq::QuantizedModel loaded = ptq::QuantizedModel::load(blob);
  ptq::unpack_weights(*deployed, loaded, *fmt);
  const float deployed_acc =
      ptq::evaluate_fp32(*deployed, test, ptq::Metric::kAccuracy);
  std::printf("Accuracy: FP32 %.2f%% -> deployed (weights quantized) %.2f%%\n",
              fp32, deployed_acc);

  // 4. One dot product through the exact hardware model.
  const auto* ef = dynamic_cast<const formats::ExponentCodedFormat*>(fmt.get());
  if (ef != nullptr) {
    const ptq::QuantizedTensor& t0 = loaded.tensors.front();
    const std::size_t n = t0.codes.size() / static_cast<std::size_t>(t0.channels);
    std::vector<std::uint8_t> w(t0.codes.begin(),
                                t0.codes.begin() + static_cast<std::ptrdiff_t>(n));
    std::vector<std::uint8_t> a(n);
    std::mt19937 rng3(5);
    std::normal_distribution<double> dist(0.0, 0.5);
    for (auto& c : a) c = fmt->encode(dist(rng3));
    double fp64 = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      fp64 += fmt->decode_value(w[i]) * fmt->decode_value(a[i]);
    try {
      const double exact = hw::kulisch_dot(*ef, w, a);
      std::printf("Kulisch dot over channel 0 (%zu MACs): %.10f (|err vs fp64| = %.1e)\n",
                  n, exact, std::fabs(exact - fp64));
    } catch (const std::invalid_argument& e) {
      // Formats whose accumulator outgrows the int64 reference model.
      std::printf("Kulisch dot skipped: %s\n", e.what());
    }
  }
  return 0;
}
