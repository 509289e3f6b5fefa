#include "ptq/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include "nn/qweights.h"
#include "ptq/ptq.h"

namespace mersit::ptq {

namespace {

constexpr char kMagic[4] = {'M', 'Q', 'T', '1'};
constexpr char kCalibMagic[4] = {'M', 'C', 'T', '1'};

// Hard caps on untrusted length fields (far above any legitimate artifact,
// far below anything that could exhaust memory).
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint32_t kMaxTensors = 1u << 20;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::int64_t kMaxNumel = std::int64_t{1} << 31;
constexpr std::int64_t kMaxChannels = std::int64_t{1} << 24;
constexpr std::size_t kReadChunk = std::size_t{1} << 16;
constexpr std::uint32_t kMaxCalibEntries = 1u << 20;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

void write_str(std::ostream& os, const std::string& s) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Untrusted-input reader: tracks the remaining stream size when the stream
/// is seekable, so declared lengths can be rejected *before* allocation;
/// bulk payloads are read in bounded chunks either way, so a lying length
/// on a non-seekable stream fails at the actual end of data instead of
/// triggering a giant allocation.  `who` prefixes every error message
/// ("QuantizedModel" / "CalibrationTable").
class BoundedReader {
 public:
  explicit BoundedReader(std::istream& is, const char* who = "QuantizedModel")
      : is_(is), who_(who) {
    const auto pos = is.tellg();
    if (pos == std::istream::pos_type(-1)) return;  // not seekable
    is.clear();
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(pos);
    if (end != std::istream::pos_type(-1) && end >= pos) {
      remaining_ = static_cast<std::uint64_t>(end - pos);
      known_ = true;
    }
  }

  /// Reject a claimed payload of `n` bytes that cannot fit in the stream.
  void claim(std::uint64_t n, const char* what) {
    if (known_ && n > remaining_)
      throw std::runtime_error(std::string(who_) + ": " + what +
                               " exceeds remaining stream size");
  }

  void read_raw(void* dst, std::size_t n, const char* what) {
    claim(n, what);
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is_ || static_cast<std::size_t>(is_.gcount()) != n)
      throw std::runtime_error(std::string(who_) + ": truncated " + what);
    if (known_) remaining_ -= n;
  }

  template <typename T>
  T read_pod(const char* what) {
    T v{};
    read_raw(&v, sizeof(T), what);
    return v;
  }

  /// Read `count` elements of `T` into `out`, growing in bounded chunks so
  /// the allocation never outruns the data actually present.
  template <typename T>
  void read_array(std::vector<T>& out, std::uint64_t count, const char* what) {
    claim(count * sizeof(T), what);
    out.clear();
    while (count > 0) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(count, kReadChunk / sizeof(T)));
      const std::size_t base = out.size();
      out.resize(base + n);
      read_raw(out.data() + base, n * sizeof(T), what);
      count -= n;
    }
  }

  /// Read a u32-length-prefixed string, capped at kMaxNameLen.
  std::string read_str(const char* what) {
    const auto len = read_pod<std::uint32_t>(what);
    if (len > kMaxNameLen)
      throw std::runtime_error(std::string(who_) + ": " + what + " length " +
                               std::to_string(len) + " exceeds cap");
    claim(len, what);
    std::string s(len, '\0');
    if (len > 0) read_raw(s.data(), len, what);
    return s;
  }

 private:
  std::istream& is_;
  const char* who_;
  std::uint64_t remaining_ = 0;
  bool known_ = false;
};

}  // namespace

void QuantizedModel::save(std::ostream& os) const {
  os.write(kMagic, 4);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(format_name.size()));
  os.write(format_name.data(), static_cast<std::streamsize>(format_name.size()));
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(tensors.size()));
  for (const QuantizedTensor& t : tensors) {
    write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(t.shape.size()));
    for (const int d : t.shape) write_pod<std::int32_t>(os, d);
    write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(t.channels));
    for (const float s : t.scales) write_pod<float>(os, s);
    os.write(reinterpret_cast<const char*>(t.codes.data()),
             static_cast<std::streamsize>(t.codes.size()));
  }
}

QuantizedModel QuantizedModel::load(std::istream& is) {
  BoundedReader r(is);
  char magic[4];
  r.read_raw(magic, 4, "magic");
  if (std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("QuantizedModel: bad magic");
  QuantizedModel qm;
  const auto name_len = r.read_pod<std::uint32_t>("format-name length");
  if (name_len > kMaxNameLen)
    throw std::runtime_error("QuantizedModel: format-name length " +
                             std::to_string(name_len) + " exceeds cap");
  r.claim(name_len, "format name");
  qm.format_name.resize(name_len);
  if (name_len > 0) r.read_raw(qm.format_name.data(), name_len, "format name");
  const auto count = r.read_pod<std::uint32_t>("tensor count");
  if (count > kMaxTensors)
    throw std::runtime_error("QuantizedModel: tensor count " +
                             std::to_string(count) + " exceeds cap");
  // Each tensor record occupies at least ndim + channels = 8 bytes.  No
  // reserve(count): growth stays proportional to data actually parsed.
  r.claim(std::uint64_t{8} * count, "tensor records");
  for (std::uint32_t i = 0; i < count; ++i) {
    QuantizedTensor t;
    const auto ndim = r.read_pod<std::uint32_t>("rank");
    if (ndim > kMaxRank)
      throw std::runtime_error("QuantizedModel: implausible rank " +
                               std::to_string(ndim));
    t.shape.resize(ndim);
    std::int64_t numel = 1;
    for (auto& d : t.shape) {
      d = r.read_pod<std::int32_t>("dimension");
      if (d <= 0) throw std::runtime_error("QuantizedModel: bad dimension");
      if (numel > kMaxNumel / d)
        throw std::runtime_error("QuantizedModel: element count overflow");
      numel *= d;
    }
    const auto channels = r.read_pod<std::uint32_t>("channel count");
    if (channels == 0 || static_cast<std::int64_t>(channels) > kMaxChannels ||
        static_cast<std::int64_t>(channels) > numel ||
        numel % static_cast<std::int64_t>(channels) != 0)
      throw std::runtime_error("QuantizedModel: bad channel count");
    t.channels = static_cast<int>(channels);
    r.read_array(t.scales, channels, "scales");
    r.read_array(t.codes, static_cast<std::uint64_t>(numel), "codes");
    qm.tensors.push_back(std::move(t));
  }
  return qm;
}

std::size_t QuantizedModel::byte_size() const {
  std::size_t n = 4 + 4 + format_name.size() + 4;
  for (const QuantizedTensor& t : tensors)
    n += 4 + 4 * t.shape.size() + 4 + 4 * t.scales.size() + t.codes.size();
  return n;
}

// ------------------------------------------------------ calibration table --

void CalibrationTable::save(std::ostream& os) const {
  os.write(kCalibMagic, 4);
  write_str(os, model_name);
  write_pod<float>(os, input_absmax);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(absmax.size()));
  // std::map iterates in sorted path order: identical tables serialize to
  // identical bytes.
  for (const auto& [path, mx] : absmax) {
    write_str(os, path);
    write_pod<float>(os, mx);
  }
}

CalibrationTable CalibrationTable::load(std::istream& is) {
  BoundedReader r(is, "CalibrationTable");
  char magic[4];
  r.read_raw(magic, 4, "magic");
  if (std::memcmp(magic, kCalibMagic, 4) != 0)
    throw std::runtime_error("CalibrationTable: bad magic");
  CalibrationTable t;
  t.model_name = r.read_str("model name");
  t.input_absmax = r.read_pod<float>("input absmax");
  if (!std::isfinite(t.input_absmax) || t.input_absmax < 0.f)
    throw std::runtime_error("CalibrationTable: non-finite or negative input absmax");
  const auto count = r.read_pod<std::uint32_t>("entry count");
  if (count > kMaxCalibEntries)
    throw std::runtime_error("CalibrationTable: entry count " +
                             std::to_string(count) + " exceeds cap");
  // Each entry occupies at least a path length + absmax = 8 bytes.
  r.claim(std::uint64_t{8} * count, "entry records");
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string path = r.read_str("entry path");
    if (path.empty())
      throw std::runtime_error("CalibrationTable: empty entry path");
    const float mx = r.read_pod<float>("entry absmax");
    if (!std::isfinite(mx) || mx < 0.f)
      throw std::runtime_error("CalibrationTable: non-finite or negative absmax for '" +
                               path + "'");
    if (!t.absmax.emplace(std::move(path), mx).second)
      throw std::runtime_error("CalibrationTable: duplicate entry path");
  }
  return t;
}

std::size_t CalibrationTable::byte_size() const {
  std::size_t n = 4 + 4 + model_name.size() + 4 + 4;
  for (const auto& [path, mx] : absmax) {
    (void)mx;
    n += 4 + path.size() + 4;
  }
  return n;
}

// ---------------------------------------------------------------- weights --

QuantizedModel pack_weights(nn::Module& model, const formats::Format& fmt,
                            formats::ScalePolicy policy) {
  QuantizedModel qm;
  qm.format_name = fmt.name();
  for (nn::Module* m : model.modules()) {
    auto* cw = dynamic_cast<nn::ChannelWeights*>(m);
    if (cw == nullptr) continue;
    QuantizedTensor t;
    t.path = m->path();
    t.channels = cw->weight_channels();
    const std::size_t per = cw->channel_span(0).size();
    t.shape = {t.channels, static_cast<int>(per)};
    t.scales.reserve(static_cast<std::size_t>(t.channels));
    t.codes.reserve(static_cast<std::size_t>(t.channels) * per);
    for (int c = 0; c < t.channels; ++c) {
      const std::span<const float> w = cw->channel_span(c);
      float mx = 0.f;
      for (const float v : w) mx = std::max(mx, std::fabs(v));
      const double scale =
          mx > 0.f ? formats::scale_for_absmax(fmt, mx, policy) : 1.0;
      t.scales.push_back(static_cast<float>(scale));
      for (const float v : w)
        t.codes.push_back(fmt.encode(static_cast<double>(v) / scale));
    }
    qm.tensors.push_back(std::move(t));
  }
  return qm;
}

namespace {

std::string layer_label(const nn::Module* m, std::size_t index) {
  if (!m->path().empty()) return "'" + m->path() + "'";
  std::string label = "#";
  label += std::to_string(index);
  label += " (";
  label += m->name();
  label += ')';
  return label;
}

/// The shared validation pass of unpack_weights / install_code_weights /
/// validate_weight_shapes: collect the ChannelWeights targets and check the
/// artifact structurally matches them, mutating nothing.  `who` prefixes
/// the error messages so each caller keeps its own name in diagnostics.
std::vector<std::pair<nn::Module*, nn::ChannelWeights*>> validated_targets(
    nn::Module& model, const QuantizedModel& qm, const char* who) {
  std::vector<std::pair<nn::Module*, nn::ChannelWeights*>> targets;
  for (nn::Module* m : model.modules()) {
    auto* cw = dynamic_cast<nn::ChannelWeights*>(m);
    if (cw != nullptr) targets.emplace_back(m, cw);
  }
  if (targets.size() != qm.tensors.size())
    throw std::invalid_argument(
        std::string(who) + ": tensor count mismatch (model has " +
        std::to_string(targets.size()) + " quantizable layers, artifact has " +
        std::to_string(qm.tensors.size()) + " tensors)");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const QuantizedTensor& t = qm.tensors[i];
    nn::ChannelWeights* cw = targets[i].second;
    const std::string label = layer_label(targets[i].first, i);
    if (t.channels != cw->weight_channels())
      throw std::invalid_argument(
          std::string(who) + ": channel mismatch at layer " + label +
          " (model has " + std::to_string(cw->weight_channels()) +
          ", artifact has " + std::to_string(t.channels) + ")");
    if (static_cast<std::int64_t>(t.scales.size()) !=
        static_cast<std::int64_t>(t.channels))
      throw std::invalid_argument(std::string(who) +
                                  ": scale count mismatch at layer " + label);
    if (t.numel() != t.channels * static_cast<std::int64_t>(cw->channel_span(0).size()))
      throw std::invalid_argument(
          std::string(who) + ": element count mismatch at layer " + label +
          " (model has " +
          std::to_string(t.channels *
                         static_cast<std::int64_t>(cw->channel_span(0).size())) +
          ", artifact has " + std::to_string(t.numel()) + ")");
  }
  return targets;
}

}  // namespace

void validate_weight_shapes(nn::Module& model, const QuantizedModel& qm) {
  (void)validated_targets(model, qm, "validate_weight_shapes");
}

void unpack_weights(nn::Module& model, const QuantizedModel& qm,
                    const formats::Format& fmt, formats::CorruptionPolicy policy,
                    formats::CorruptionStats* stats) {
  if (fmt.name() != qm.format_name)
    throw std::invalid_argument("unpack_weights: format mismatch (" + fmt.name() +
                                " vs " + qm.format_name + ")");
  // Pass 1: validate the artifact against the whole model before touching a
  // single weight, so a structurally incompatible artifact can never leave
  // the model half-overwritten.
  const auto targets = validated_targets(model, qm, "unpack_weights");
  // Pass 2: decode.
  const auto book = make_code_book(fmt, policy);
  const formats::TableCodec& table = book->table();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const QuantizedTensor& t = qm.tensors[i];
    nn::ChannelWeights* cw = targets[i].second;
    std::size_t k = 0;
    for (int c = 0; c < t.channels; ++c) {
      const std::span<float> w = cw->channel_span(c);
      const double scale = t.scales[static_cast<std::size_t>(c)];
      for (float& v : w) {
        const std::uint8_t code = t.codes[k++];
        if (stats != nullptr && !table.finite(code)) ++stats->non_finite;
        v = static_cast<float>(book->value[code] * scale);
      }
    }
    cw->weight_param().bump_version();  // invalidate prepacked-weight caches
  }
}

void install_code_weights(nn::Module& model, const QuantizedModel& qm,
                          const formats::Format& fmt,
                          formats::CorruptionPolicy policy,
                          formats::CorruptionStats* stats) {
  if (fmt.name() != qm.format_name)
    throw std::invalid_argument("install_code_weights: format mismatch (" +
                                fmt.name() + " vs " + qm.format_name + ")");
  const auto targets = validated_targets(model, qm, "install_code_weights");
  // value[code] * scale is exactly the value unpack_weights writes.  The
  // corruption counters count pre-policy non-finite codes, the layer's
  // `nonfinite` only those the policy left non-finite.
  const auto book = make_code_book(fmt, policy);
  const formats::TableCodec& table = book->table();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const QuantizedTensor& t = qm.tensors[i];
    nn::ChannelWeights* cw = targets[i].second;
    auto wc = std::make_shared<nn::WeightCodes>();
    wc->channels = t.channels;
    wc->per_channel = static_cast<int>(cw->channel_span(0).size());
    wc->codes = t.codes;
    wc->scales.reserve(t.scales.size());
    // Scales widen float→double here, then decode as value[code] * scale —
    // the same arithmetic (and therefore the same bits) as unpack_weights.
    for (const float s : t.scales) wc->scales.push_back(static_cast<double>(s));
    wc->book = book;
    for (const std::uint8_t code : t.codes) {
      if (stats != nullptr && !table.finite(code)) ++stats->non_finite;
      if (!std::isfinite(book->value[code])) ++wc->nonfinite;
    }
    cw->set_weight_codes(std::move(wc));
  }
}

// ------------------------------------------------------- serving artifacts --

ArtifactPair load_artifact_pair(std::istream& mct1, std::istream& mqt1,
                                const formats::Format& fmt) {
  ArtifactPair pair;
  pair.table = CalibrationTable::load(mct1);
  pair.weights = QuantizedModel::load(mqt1);
  if (pair.weights.format_name != fmt.name())
    throw std::runtime_error("load_artifact_pair: weight artifact is for format '" +
                             pair.weights.format_name + "', engine serves '" +
                             fmt.name() + "'");
  return pair;
}

ArtifactPair load_artifact_pair(std::istream& mct1, std::istream& mqt1,
                                const formats::Format& fmt, nn::Module& model) {
  ArtifactPair pair = load_artifact_pair(mct1, mqt1, fmt);
  validate_weight_shapes(model, pair.weights);
  return pair;
}

std::uint64_t count_nonfinite_codes(const QuantizedModel& qm,
                                    const formats::Format& fmt) {
  // A linear scan over the format's class table — cheap enough to run on
  // every hot-swap without perturbing serving latency.
  const formats::TableCodec& table = fmt.codec();
  std::uint64_t n = 0;
  for (const QuantizedTensor& t : qm.tensors)
    for (const std::uint8_t code : t.codes)
      if (!table.finite(code)) ++n;
  return n;
}

}  // namespace mersit::ptq
