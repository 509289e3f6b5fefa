// gate-replay: the Fig. 7 measurement as a workload.  Set-up captures the
// fake-quantized PTQ code streams that feed every conv/linear layer of
// MobileNet_v3-mini and builds the MAC netlist of each headline format; the
// timed phase replays every stream through hw::MacReplay, 64 lanes wide, on
// one thread.  No nn or serve code runs while timed.  The simulated
// statistics (toggles, switching energy) must repeat exactly on every pass,
// and MacReplay itself checks each lane's accumulator against MacReference.
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "hw/power.h"
#include "nn/data.h"
#include "nn/models.h"
#include "ptq/ptq.h"
#include "host_speed.h"
#include "workloads.h"

namespace perfbench {

using namespace mersit;

namespace {

constexpr int kImg = 12;
/// Capture set size.  Fig. 7 captures 256 images; 8 keep one replay pass of
/// the three formats near 0.2 s, so a run holds ~100 passes per format.
constexpr int kCaptureImages = 8;
constexpr int kLanes = 64;

/// Metric-name stem of each headline format.
const std::map<std::string, std::string>& format_stems() {
  static const std::map<std::string, std::string> stems = {
      {"FP(8,4)", "fp8_4"}, {"Posit(8,1)", "posit8_1"}, {"MERSIT(8,2)", "mersit8_2"}};
  return stems;
}

/// Records, for every ChannelWeights consumer, the fake-quantized stream
/// entering it: the latest quant-point output (the model input for the
/// first layer), i.e. the operands a MAC array would fetch from 8-bit memory.
class StreamCapture final : public nn::QuantSession {
 public:
  StreamCapture(const ptq::CalibrationTable& table, ptq::FakeQuantizer& fq,
                const nn::Tensor& quantized_input)
      : table_(table), fq_(fq), prev_absmax_(table.input_absmax) {
    const auto in = quantized_input.data();
    prev_.assign(in.begin(), in.end());
  }

  struct Layer {
    std::string path;
    std::vector<float> acts;
    float act_absmax = 0.f;  ///< calibration |max| of the producing tensor
  };

  void on_activation(const nn::Module& layer, nn::Tensor& t) override {
    if (dynamic_cast<const nn::ChannelWeights*>(&layer) != nullptr)
      layers.push_back({layer.path(), prev_, prev_absmax_});
    fq_.on_activation(layer, t);
    const auto d = t.data();
    prev_.assign(d.begin(), d.end());
    prev_absmax_ = table_.absmax.at(layer.path());
  }

  std::vector<Layer> layers;

 private:
  const ptq::CalibrationTable& table_;
  ptq::FakeQuantizer& fq_;
  std::vector<float> prev_;
  float prev_absmax_;
};

/// Per-output-channel weight codes with the PTQ per-channel max scales.
std::vector<std::uint8_t> encode_weights(nn::ChannelWeights& cw,
                                         const formats::Format& fmt) {
  std::vector<std::uint8_t> codes;
  for (int c = 0; c < cw.weight_channels(); ++c) {
    const std::span<float> span = cw.channel_span(c);
    float absmax = 0.f;
    for (const float v : span) absmax = std::max(absmax, std::fabs(v));
    const double scale = formats::scale_for_absmax(fmt, absmax);
    for (const float v : span) codes.push_back(fmt.encode(static_cast<double>(v) / scale));
  }
  return codes;
}

struct LayerStream {
  std::string path;
  hw::CodeStream stream;
};

/// Capture every layer's code stream in `fmt`: weight codes paired
/// round-robin with the captured activation codes, to the longer length, so
/// every code of both operands is replayed at least once (as in Fig. 7).
std::vector<LayerStream> capture(nn::Module& model, const ptq::CalibrationTable& table,
                                 const nn::Dataset& images, const formats::Format& fmt) {
  ptq::FakeQuantizer fq(table, fmt, formats::ScalePolicy::kMaxToUnity);
  nn::Tensor input = images.inputs;
  fq.quantize_input(input);
  StreamCapture cap(table, fq, input);
  (void)model.run(input, nn::Context{/*train=*/false, &cap});

  std::map<std::string, std::vector<std::uint8_t>> wcodes;
  for (nn::Module* m : model.modules())
    if (auto* cw = dynamic_cast<nn::ChannelWeights*>(m))
      wcodes[m->path()] = encode_weights(*cw, fmt);
  std::vector<LayerStream> out;
  for (const StreamCapture::Layer& l : cap.layers) {
    const std::vector<std::uint8_t>& w = wcodes.at(l.path);
    const double scale = formats::scale_for_absmax(fmt, l.act_absmax);
    std::vector<std::uint8_t> a;
    a.reserve(l.acts.size());
    for (const float v : l.acts) a.push_back(fmt.encode(static_cast<double>(v) / scale));
    LayerStream ls{l.path, {}};
    const std::size_t len = std::max(w.size(), a.size());
    ls.stream.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
      ls.stream.emplace_back(w[i % w.size()], a[i % a.size()]);
    out.push_back(std::move(ls));
  }
  return out;
}

/// One headline format's streams and replay harness.
struct FormatRun {
  std::shared_ptr<const formats::Format> fmt;
  std::string stem;
  std::vector<LayerStream> layers;
  std::unique_ptr<hw::MacReplay> replay;
  /// Per layer: the first pass that replayed it without error.
  std::vector<std::optional<hw::ReplayStats>> expect;
  std::vector<double> pass_ms;
  std::vector<std::vector<double>> call_ms;  ///< per layer: every replay() time
  std::vector<std::vector<double>> norm_ms;  ///< the same at nominal host speed
};

}  // namespace

Result run_gate_replay(const Args& args) {
  Result res;
  core::resize_global_pool(1);

  // Producer side, not timed: the calibrated model.
  const nn::Dataset images = nn::make_vision_dataset(
      kCaptureImages, 3, kImg, sub_seed(args.seed, 3), sub_seed(args.seed, 2));
  std::mt19937 rng(sub_seed(args.seed, 1));
  nn::ModulePtr model = nn::make_mobilenet_v3_mini(3, 10, rng);
  nn::fold_all_batchnorms(*model);
  const ptq::CalibrationTable table = ptq::calibrate_model(*model, images);

  // Set-up: stream capture and netlist build for every format.
  HostProbe probe;
  std::vector<double> setup_s, capture_ms, netlist_ms;
  const auto timed_setup = [&] {
    std::vector<FormatRun> out;
    const Slowdown before = probe.measure(kSetupProbes);
    const auto t0 = Clock::now();
    for (const auto& fmt : core::headline_formats()) {
      FormatRun r;
      r.fmt = fmt;
      r.stem = format_stems().at(fmt->name());
      r.layers = capture(*model, table, images, *fmt);
      out.push_back(std::move(r));
    }
    const auto t1 = Clock::now();
    for (FormatRun& r : out) r.replay = std::make_unique<hw::MacReplay>(*r.fmt);
    const auto t2 = Clock::now();
    const Slowdown after = probe.measure(kSetupProbes);
    capture_ms.push_back(ms_between(t0, t1));
    netlist_ms.push_back(ms_between(t1, t2));
    setup_s.push_back(ms_between(t0, t2) / 1e3 / std::sqrt(before.mixed() * after.mixed()));
    return out;
  };
  std::vector<FormatRun> runs = timed_setup();

  std::size_t passes = 0;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(args.seconds);
  SetupSchedule setups(start, args.seconds);
  while (passes == 0 || Clock::now() < end) {
    if (setups.due()) (void)timed_setup();  // a fresh set-up, discarded
    for (FormatRun& r : runs) {
      r.call_ms.resize(r.layers.size());
      r.norm_ms.resize(r.layers.size());
      r.expect.resize(r.layers.size());
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < r.layers.size(); ++i) {
        const double slowdown = probe.measure().mixed();
        const auto c0 = Clock::now();
        ++res.attempted;
        hw::ReplayStats st;
        try {
          st = r.replay->replay(r.layers[i].stream, kLanes);
        } catch (const std::logic_error& e) {
          res.fail(r.stem + " " + r.layers[i].path + ": " + e.what());
          continue;
        }
        r.call_ms[i].push_back(ms_between(c0, Clock::now()));
        r.norm_ms[i].push_back(r.call_ms[i].back() / slowdown);
        std::optional<hw::ReplayStats>& want = r.expect[i];
        if (!want) {
          want = st;
        } else if (st.toggles != want->toggles || st.energy_fj != want->energy_fj ||
                   st.pairs != want->pairs) {
          res.fail(r.stem + " " + r.layers[i].path + ": simulated statistics changed");
        }
      }
      r.pass_ms.push_back(ms_between(t0, Clock::now()));
    }
    ++passes;
  }
  while (setups.owed()) (void)timed_setup();

  // One operation is a pass over every layer in all three formats; its time
  // is the sum of each replay() call's median normalised time (pass_ms).
  double pairs_total = 0.0;
  std::vector<std::vector<double>> calls;
  std::printf("gate-replay: %zu passes, %d lanes, %d capture images\n", passes,
              kLanes, kCaptureImages);
  for (const FormatRun& r : runs) {
    double pairs = 0.0, sweeps = 0.0, toggles = 0.0, energy = 0.0;
    for (const std::optional<hw::ReplayStats>& st : r.expect) {
      if (!st) continue;
      pairs += static_cast<double>(st->pairs);
      sweeps += static_cast<double>(st->sweeps);
      toggles += static_cast<double>(st->toggles);
      energy += st->energy_fj;
    }
    const double ms50 = median(r.pass_ms);
    pairs_total += pairs;
    calls.insert(calls.end(), r.norm_ms.begin(), r.norm_ms.end());
    const std::string hw = "hw." + r.stem;
    res.layers[hw + ".replay_ms"] = ms50;
    res.layers[hw + ".mpairs_per_s"] = pairs / (ms50 * 1e3);
    res.layers[hw + ".pairs"] = pairs;
    res.layers[hw + ".sweeps"] = sweeps;
    res.layers[hw + ".fj_per_mac"] = pairs > 0 ? energy / pairs : 0.0;
    res.layers["rtl." + r.stem + ".toggles"] = toggles;
    std::printf("  %-12s %zu layers, %.0f pairs, pass %.1f ms, %.2f Mpairs/s, "
                "%.0f toggles, %.3f fJ/MAC\n",
                r.fmt->name().c_str(), r.layers.size(), pairs, ms50,
                pairs / (ms50 * 1e3), toggles, pairs > 0 ? energy / pairs : 0.0);
  }
  res.layers["hw.capture_ms"] = median(capture_ms);
  res.layers["hw.netlist_ms"] = median(netlist_ms);
  res.end_to_end["setup_s"] = median(setup_s);
  const double pass = pass_ms(calls);
  std::printf("  at nominal host speed: pass %.1f ms, %.3f Mpairs/s\n", pass,
              pairs_total / (pass * 1e3));
  res.end_to_end["op_ms"] = pass;

  if (args.trace && !args.trace_out.empty()) {
    std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
    if (f == nullptr) {
      res.fail("cannot write " + args.trace_out);
    } else {
      std::fprintf(f, "{\"workload\": \"gate-replay\", \"passes\": %zu, \"lanes\": %d,\n"
                      " \"rows\": [\n", passes, kLanes);
      bool first = true;
      for (const FormatRun& r : runs)
        for (std::size_t i = 0; i < r.layers.size(); ++i) {
          if (!r.expect[i]) continue;
          const hw::ReplayStats& st = *r.expect[i];
          std::fprintf(f,
                       "%s  {\"format\": \"%s\", \"path\": \"%s\", \"pairs\": %zu, "
                       "\"sweeps\": %zu, \"toggles\": %llu, \"fj_per_mac\": %.6f, "
                       "\"ms_per_call\": %.6f}",
                       first ? "" : ",\n", r.fmt->name().c_str(), r.layers[i].path.c_str(),
                       st.pairs, st.sweeps, static_cast<unsigned long long>(st.toggles),
                       st.pairs > 0 ? st.energy_fj / static_cast<double>(st.pairs) : 0.0,
                       median(r.call_ms[i]));
          first = false;
        }
      std::fprintf(f, "\n]}\n");
      if (std::fclose(f) != 0) res.fail("cannot write " + args.trace_out);
    }
  }
  return res;
}

}  // namespace perfbench
