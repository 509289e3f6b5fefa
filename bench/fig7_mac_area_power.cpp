// Regenerates Fig. 7: area and power of the three synthesized MAC units
// (FP(8,4), Posit(8,1), MERSIT(8,2)), power measured by replaying the
// *entire* quantized inference trace of a trained model through the
// gate-level netlists at 100 MHz — the paper's "PrimeTime PX with actual
// DNN data" methodology, with no stream subsampling.
//
// For every quantizable layer the bench captures the activation stream
// that feeds it during a full calibration-set forward pass (run under fake
// quantization, so the trace is the PTQ inference trace), pairs it with
// the layer's per-channel-quantized weight codes, and replays each layer
// stream through the 64-wide simulator (hw::MacReplay).  Output: the
// Fig. 7 area/power table over the full trace, a per-layer x per-format
// energy table (fJ/MAC), and the measured bit-parallel replay speedup.
//
// Gates (exit nonzero on violation):
//  * 64-wide replay must be >= 20x faster than the scalar replay loop on
//    the same stream,
//  * MERSIT(8,2) must save both area and power vs Posit(8,1) (the paper's
//    headline claim),
//  * every per-lane accumulator must match hw::MacReference bit-for-bit
//    (enforced inside MacReplay, throws on mismatch).
//
// Flags: --json=PATH writes the report consumed by EXPERIMENTS.md;
// --check_json=PATH validates a committed report against the current
// schema (the staleness guard shared with bench_inference/bench_serving).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>

#include "bench_common.h"
#include "core/registry.h"
#include "hw/power.h"
#include "ptq/ptq.h"

using namespace mersit;

namespace {

// ------------------------------------------------------- trace capture ----

/// Activation stream feeding one quantizable layer, plus what is needed to
/// encode it: the calibrated |max| of the tensor's producer.
struct LayerTrace {
  std::string path;          ///< consuming ChannelWeights module
  std::vector<float> acts;   ///< fake-quantized values entering the layer
  float act_absmax = 0.f;    ///< calibration |max| of the producing tensor
};

/// QuantSession that runs the normal fake-quantized PTQ forward while
/// recording, for every ChannelWeights consumer, the full activation
/// stream that enters it.  "Entering" is taken at the 8-bit memory
/// boundary: the most recent quant-point output (the model input for the
/// first layer) — exactly the operand stream a MAC array would fetch.
class TraceCapture final : public nn::QuantSession {
 public:
  TraceCapture(const ptq::CalibrationTable& table, const formats::Format& fmt,
               ptq::FakeQuantizer& fq, const nn::Tensor& quantized_input)
      : table_(table), fq_(fq) {
    const auto in = quantized_input.data();
    prev_.assign(in.begin(), in.end());
    prev_absmax_ = table.input_absmax;
  }

  void on_activation(const nn::Module& layer, nn::Tensor& t) override {
    if (dynamic_cast<const nn::ChannelWeights*>(&layer) != nullptr)
      traces.push_back({layer.path(), prev_, prev_absmax_});
    fq_.on_activation(layer, t);
    const auto d = t.data();
    prev_.assign(d.begin(), d.end());
    prev_absmax_ = table_.absmax.at(layer.path());
  }

  std::vector<LayerTrace> traces;

 private:
  const ptq::CalibrationTable& table_;
  ptq::FakeQuantizer& fq_;
  std::vector<float> prev_;
  float prev_absmax_ = 0.f;
};

/// Per-output-channel weight codes of one ChannelWeights module, encoded
/// with the PTQ per-channel max scales.
std::vector<std::uint8_t> encode_weights(nn::ChannelWeights& cw,
                                         const formats::Format& fmt) {
  std::vector<std::uint8_t> codes;
  for (int c = 0; c < cw.weight_channels(); ++c) {
    const std::span<float> span = cw.channel_span(c);
    float absmax = 0.f;
    for (const float v : span) absmax = std::max(absmax, std::fabs(v));
    const double scale = formats::scale_for_absmax(fmt, absmax);
    for (const float v : span)
      codes.push_back(fmt.encode(static_cast<double>(v) / scale));
  }
  return codes;
}

/// Pair a layer's weight codes with its activation codes, round-robin to
/// length max(Nw, Na): every weight code and every captured activation
/// code is replayed at least once (the activity model for one MAC of the
/// array sweeping the layer's full operand set).
hw::CodeStream layer_stream(const std::vector<std::uint8_t>& w_codes,
                            const formats::Format& fmt, const LayerTrace& tr) {
  std::vector<std::uint8_t> a_codes;
  a_codes.reserve(tr.acts.size());
  const double scale = formats::scale_for_absmax(fmt, tr.act_absmax);
  for (const float v : tr.acts)
    a_codes.push_back(fmt.encode(static_cast<double>(v) / scale));
  const std::size_t len = std::max(w_codes.size(), a_codes.size());
  hw::CodeStream s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    s.emplace_back(w_codes[i % w_codes.size()], a_codes[i % a_codes.size()]);
  return s;
}

// ------------------------------------------------------------ reporting ----

struct LayerEnergy {
  std::string path;
  std::size_t pairs = 0;
  std::vector<double> fj_per_mac;  ///< one entry per headline format
};

struct ThroughputReport {
  std::size_t pairs = 0;
  double scalar_mpairs_s = 0.0;
  double wide_mpairs_s = 0.0;
  [[nodiscard]] double speedup() const {
    return scalar_mpairs_s > 0.0 ? wide_mpairs_s / scalar_mpairs_s : 0.0;
  }
};

int write_json(const char* path, const bench::Sizes& sizes,
               const std::vector<hw::MacCost>& costs,
               const std::vector<LayerEnergy>& layers,
               const ThroughputReport& tp) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig7_mac_area_power: cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig7_mac_area_power/full_trace\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", sizes.mode());
  std::fprintf(f,
               "  \"replay\": {\"pairs\": %zu, \"scalar_mpairs_per_s\": %.3f, "
               "\"wide_mpairs_per_s\": %.3f, \"speedup_vs_scalar\": %.1f},\n",
               tp.pairs, tp.scalar_mpairs_s, tp.wide_mpairs_s, tp.speedup());
  std::fprintf(f, "  \"formats\": [\n");
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const hw::MacCost& c = costs[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"area_um2\": %.1f, "
                 "\"power_uw\": %.3f, \"cells\": %zu, \"components\": [",
                 c.format.c_str(), c.area_um2, c.power_uw, c.cells);
    for (std::size_t k = 0; k < c.components.size(); ++k)
      std::fprintf(f, "%s{\"name\": \"%s\", \"area_um2\": %.1f, \"power_uw\": %.3f}",
                   k > 0 ? ", " : "", c.components[k].name.c_str(),
                   c.components[k].area_um2, c.components[k].power_uw);
    std::fprintf(f, "]}%s\n", i + 1 < costs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"per_layer_fj_per_mac\": [\n");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerEnergy& le = layers[i];
    std::fprintf(f, "    {\"layer\": \"%s\", \"pairs\": %zu, \"fj_per_mac\": [",
                 le.path.c_str(), le.pairs);
    for (std::size_t k = 0; k < le.fj_per_mac.size(); ++k)
      std::fprintf(f, "%s%.2f", k > 0 ? ", " : "", le.fj_per_mac[k]);
    std::fprintf(f, "]}%s\n", i + 1 < layers.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}

/// Staleness guard for the committed BENCH_fig7.json: every field the
/// current bench emits.
int check_json(const char* path) {
  return bench::check_report(path, "fig7_mac_area_power", {
      "\"bench\": \"fig7_mac_area_power/full_trace\"",
      "\"mode\"",
      "\"replay\"",
      "\"scalar_mpairs_per_s\"",
      "\"wide_mpairs_per_s\"",
      "\"speedup_vs_scalar\"",
      "\"formats\"",
      "\"area_um2\"",
      "\"power_uw\"",
      "\"cells\"",
      "\"components\"",
      "\"per_layer_fj_per_mac\"",
      "\"fj_per_mac\"",
  });
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--check_json=", 13) == 0) {
      return check_json(argv[i] + 13);
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [--check_json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  const auto sizes = bench::Sizes::from_env();
  std::printf("=== Fig. 7: MAC area and power (45nm-like cell model, 100 MHz) ===\n");
  std::printf("full-trace replay, %s sizing\n\n", sizes.mode());

  // Train + fold the model once; the quantized traces are per format.
  const nn::Dataset calib = nn::make_vision_dataset(sizes.calib, 3, sizes.img, 103);
  const nn::Dataset train =
      nn::make_vision_dataset(sizes.train / 2, 3, sizes.img, 101);
  std::mt19937 rng(7);
  nn::ModulePtr model = nn::make_mobilenet_v3_mini(3, 10, rng);
  bench::train_vision_model(*model, train, 2, 5);
  nn::fold_all_batchnorms(*model);
  const ptq::CalibrationTable table = ptq::calibrate_model(*model, calib);

  const auto formats = core::headline_formats();
  std::vector<hw::MacCost> costs;
  std::vector<LayerEnergy> layers;
  ThroughputReport tp;
  int failures = 0;

  for (std::size_t fi = 0; fi < formats.size(); ++fi) {
    const formats::Format& fmt = *formats[fi];

    // One fake-quantized forward over the whole calibration set, capturing
    // every layer's input stream (the full PTQ inference trace).
    ptq::FakeQuantizer fq(table, fmt, formats::ScalePolicy::kMaxToUnity);
    nn::Tensor input = calib.inputs;
    fq.quantize_input(input);
    TraceCapture capture(table, fmt, fq, input);
    nn::Context ctx;
    ctx.quant = &capture;
    (void)model->run(input, ctx);

    // Weight codes per consuming module, keyed by path.
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> wcodes;
    for (nn::Module* m : model->modules())
      if (auto* cw = dynamic_cast<nn::ChannelWeights*>(m))
        wcodes.emplace_back(m->path(), encode_weights(*cw, fmt));

    hw::MacReplay replay(fmt);
    std::size_t largest = 0;
    std::size_t row = 0;
    hw::CodeStream largest_stream;
    for (const LayerTrace& tr : capture.traces) {
      const std::vector<std::uint8_t>* codes = nullptr;
      for (const auto& [p, c] : wcodes)
        if (p == tr.path) codes = &c;
      if (codes == nullptr) {
        std::fprintf(stderr, "FAIL: no weights recorded for %s\n", tr.path.c_str());
        ++failures;
        continue;
      }
      const hw::CodeStream stream = layer_stream(*codes, fmt, tr);
      const hw::ReplayStats st = replay.replay(stream);
      if (fi == 0) layers.push_back({tr.path, st.pairs, {}});
      layers[row++].fj_per_mac.push_back(st.energy_fj /
                                         static_cast<double>(st.pairs));
      if (stream.size() > largest) {
        largest = stream.size();
        largest_stream = stream;
      }
    }
    costs.push_back(replay.cost());

    // Throughput gate, measured on the format under study's largest real
    // layer stream (MERSIT, the headline format, reports the number).
    if (formats[fi]->name().rfind("MERSIT", 0) == 0 && !largest_stream.empty()) {
      hw::MacReplay timing(fmt);
      const double t0 = now_ms();
      (void)timing.replay(largest_stream, 1);
      const double t1 = now_ms();
      (void)timing.replay(largest_stream, 64);
      const double t2 = now_ms();
      tp.pairs = largest_stream.size();
      const double pairs = static_cast<double>(largest_stream.size());
      tp.scalar_mpairs_s = pairs / (t1 - t0) / 1e3;
      tp.wide_mpairs_s = pairs / (t2 - t1) / 1e3;
    }
  }

  // --- Fig. 7 headline table ----------------------------------------------
  std::printf("%-13s %12s %12s %8s %10s %10s\n", "Format", "Area(um^2)",
              "Power(uW)", "Cells", "Area/Posit", "Pwr/Posit");
  bench::print_rule(70);
  const double pa = costs[1].area_um2, pp = costs[1].power_uw;
  for (const auto& c : costs) {
    std::printf("%-13s %12.1f %12.2f %8zu %9.1f%% %9.1f%%\n", c.format.c_str(),
                c.area_um2, c.power_uw, c.cells, 100.0 * c.area_um2 / pa,
                100.0 * c.power_uw / pp);
  }

  std::printf("\nPer-component breakdown:\n");
  std::printf("%-13s %12s %12s %12s %12s %12s\n", "Format", "decoder", "exp_adder",
              "frac_mult", "aligner", "accum");
  bench::print_rule(78);
  for (const auto& c : costs) {
    std::printf("%-13s", c.format.c_str());
    for (const char* part :
         {"decoder", "exp_adder", "frac_multiplier", "aligner", "accumulator"})
      std::printf(" %7.0f/%4.1f", c.component(part).area_um2,
                  c.component(part).power_uw);
    std::printf("   (area um^2 / power uW)\n");
  }

  // --- per-layer x per-format energy --------------------------------------
  std::printf("\nPer-layer switching energy over the full trace (fJ/MAC):\n");
  std::printf("%-34s %10s", "Layer", "pairs");
  for (const auto& fmt : formats) std::printf(" %12s", fmt->name().c_str());
  std::printf("\n");
  bench::print_rule(86);
  for (const auto& le : layers) {
    std::printf("%-34s %10zu", le.path.c_str(), le.pairs);
    for (const double fj : le.fj_per_mac) std::printf(" %12.2f", fj);
    std::printf("\n");
  }

  const double save_area = 100.0 * (1.0 - costs[2].area_um2 / costs[1].area_um2);
  const double save_pwr = 100.0 * (1.0 - costs[2].power_uw / costs[1].power_uw);
  std::printf("\nMERSIT(8,2) vs Posit(8,1): %.1f%% area saving, %.1f%% power saving\n",
              save_area, save_pwr);
  std::printf("(paper: 26.6%% area, 22.2%% power; MERSIT ~11%% larger than FP(8,4))\n");
  if (save_area <= 0.0 || save_pwr <= 0.0) {
    std::fprintf(stderr, "FAIL: MERSIT must save area and power vs Posit(8,1)\n");
    ++failures;
  }

  std::printf("\nBit-parallel replay: %zu pairs, scalar %.2f Mpairs/s, "
              "64-wide %.2f Mpairs/s -> %.1fx\n",
              tp.pairs, tp.scalar_mpairs_s, tp.wide_mpairs_s, tp.speedup());
  if (tp.speedup() < 20.0) {
    std::fprintf(stderr,
                 "FAIL: 64-wide replay speedup %.1fx below the 20x gate\n",
                 tp.speedup());
    ++failures;
  }

  if (json_path != nullptr) {
    const int rc = write_json(json_path, sizes, costs, layers, tp);
    if (rc != 0) return rc;
    std::printf("\nwrote %s\n", json_path);
  }
  return failures == 0 ? 0 : 1;
}
