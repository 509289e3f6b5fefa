#include "trace_session.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "nn/layers.h"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ModuleInfo describe(nn::Module& m) {
  ModuleInfo info;
  info.path = m.path();
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
    const nn::Tensor& w = conv->weight.value;  // [out, in/groups, k, k]
    info.kind = w.dim(1) == 1                      ? Kind::kConvDw
                : w.dim(2) == 1 && w.dim(3) == 1 ? Kind::kConv1x1
                                                 : Kind::kConvKxK;
    info.macs_per_output = static_cast<double>(w.dim(1)) * w.dim(2) * w.dim(3);
    info.weight_elems = w.numel();
  } else if (auto* fc = dynamic_cast<nn::Linear*>(&m)) {
    info.kind = Kind::kLinear;
    info.macs_per_output = fc->weight.value.dim(1);  // [out, in]
    info.weight_elems = fc->weight.value.numel();
  } else if (dynamic_cast<nn::SEBlock*>(&m) != nullptr) {
    info.kind = Kind::kSE;
  } else if (dynamic_cast<nn::Activation*>(&m) != nullptr) {
    info.kind = Kind::kAct;
  } else if (dynamic_cast<nn::MaxPool2d*>(&m) != nullptr ||
             dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr) {
    info.kind = Kind::kPool;
  } else if (dynamic_cast<nn::ResidualBlock*>(&m) != nullptr) {
    info.kind = Kind::kResidual;
  }
  return info;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kConvKxK: return "conv_kxk";
    case Kind::kConvDw: return "conv_dw";
    case Kind::kConv1x1: return "conv_1x1";
    case Kind::kLinear: return "linear";
    case Kind::kSE: return "se";
    case Kind::kAct: return "act";
    case Kind::kPool: return "pool";
    case Kind::kResidual: return "residual";
    case Kind::kOther: return "other";
  }
  return "other";
}

std::vector<ModuleInfo> classify_modules(nn::Module& model) {
  std::vector<ModuleInfo> out;
  std::vector<std::string> se_paths;
  for (nn::Module* m : model.modules()) {
    out.push_back(describe(*m));
    if (out.back().kind == Kind::kSE) se_paths.push_back(m->path() + "/");
  }
  for (ModuleInfo& info : out)
    for (const std::string& prefix : se_paths)
      if (info.path.starts_with(prefix)) info.kind = Kind::kSE;
  return out;
}

TracingSession::TracingSession(nn::Module& model, nn::QuantSession& inner)
    : inner_(inner), info_(classify_modules(model)) {
  const std::vector<nn::Module*> mods = model.modules();
  for (std::size_t i = 0; i < mods.size(); ++i)
    index_.emplace(mods[i], static_cast<std::int32_t>(i));
  spans_.reserve(1 << 16);
}

void TracingSession::begin_batch(std::uint32_t batch) {
  batch_ = batch;
  cursor_ns_ = now_ns();
}

void TracingSession::on_input(nn::Tensor& t) {
  const std::int64_t enter = now_ns();
  spans_.push_back({batch_, kInput, false, cursor_ns_, enter, t.numel()});
  inner_.on_input(t);
  cursor_ns_ = now_ns();
  spans_.push_back({batch_, kInput, true, enter, cursor_ns_, t.numel()});
}

void TracingSession::on_activation(const nn::Module& layer, nn::Tensor& t) {
  const std::int64_t enter = now_ns();
  const auto it = index_.find(&layer);
  if (it == index_.end())
    throw std::logic_error("TracingSession: hook from a module outside the "
                           "traced model: " + layer.path());
  spans_.push_back({batch_, it->second, false, cursor_ns_, enter, t.numel()});
  inner_.on_activation(layer, t);
  cursor_ns_ = now_ns();
  spans_.push_back({batch_, it->second, true, enter, cursor_ns_, t.numel()});
}

double ForwardBreakdown::attributed_ms() const {
  double sum = fakequant_ms;
  for (const double ms : kind_ms) sum += ms;
  return sum;
}

std::vector<ForwardBreakdown> breakdown(const TracingSession& s) {
  std::map<std::uint32_t, ForwardBreakdown> by_batch;
  for (const TracingSession::Span& sp : s.spans()) {
    ForwardBreakdown& b = by_batch[sp.batch];
    const double ms = static_cast<double>(sp.end_ns - sp.begin_ns) / 1e6;
    if (sp.fakequant) {
      b.fakequant_ms += ms;
      b.fakequant_elems += static_cast<double>(sp.elems);
      continue;
    }
    const ModuleInfo* info = sp.module == TracingSession::kInput
                                 ? nullptr
                                 : &s.modules()[static_cast<std::size_t>(sp.module)];
    const auto k = static_cast<std::size_t>(info ? info->kind : Kind::kOther);
    b.kind_ms[k] += ms;
    if (info) b.kind_macs[k] += info->macs_per_output * static_cast<double>(sp.elems);
  }
  std::vector<ForwardBreakdown> out;
  out.reserve(by_batch.size());
  for (auto& [id, b] : by_batch) out.push_back(b);
  return out;
}

bool write_path_rows(const TracingSession& s, const std::string& file,
                     const std::string& workload) {
  struct Row {
    double self_ms = 0.0, fakequant_ms = 0.0, macs = 0.0, bytes = 0.0;
  };
  std::map<std::int32_t, Row> rows;
  std::map<std::uint32_t, bool> batches;
  for (const TracingSession::Span& sp : s.spans()) {
    batches[sp.batch] = true;
    Row& r = rows[sp.module];
    const double ms = static_cast<double>(sp.end_ns - sp.begin_ns) / 1e6;
    if (sp.fakequant) {
      r.fakequant_ms += ms;
      continue;
    }
    r.self_ms += ms;
    if (sp.module == TracingSession::kInput) continue;
    const ModuleInfo& info = s.modules()[static_cast<std::size_t>(sp.module)];
    r.macs += info.macs_per_output * static_cast<double>(sp.elems);
    r.bytes += static_cast<double>(info.weight_elems) +
               4.0 * static_cast<double>(sp.elems);
  }
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) return false;
  const double n = batches.empty() ? 1.0 : static_cast<double>(batches.size());
  std::fprintf(f,
               "{\"workload\": \"%s\", \"forwards\": %zu,\n"
               " \"note\": \"per forward; macs and bytes are computed from "
               "tensor shapes (weights as 1-byte codes, outputs as fp32), "
               "not measured\",\n \"rows\": [\n",
               workload.c_str(), batches.size());
  bool first = true;
  for (const auto& [idx, r] : rows) {
    const bool input = idx == TracingSession::kInput;
    const ModuleInfo* info =
        input ? nullptr : &s.modules()[static_cast<std::size_t>(idx)];
    std::fprintf(f,
                 "%s  {\"path\": \"%s\", \"kind\": \"%s\", \"macs\": %.0f, "
                 "\"bytes\": %.0f, \"self_ms\": %.6f, \"fakequant_ms\": %.6f}",
                 first ? "" : ",\n", input ? "<input>" : info->path.c_str(),
                 input ? "input" : kind_name(info->kind), r.macs / n,
                 r.bytes / n, r.self_ms / n, r.fakequant_ms / n);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
