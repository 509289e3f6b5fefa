// The backend registry: compiled-in descriptor list, CPUID-backed
// auto-detection, strict MERSIT_BACKEND parsing, and the process-wide
// active-backend slot.
#include "nn/gemm/backend.h"

#include <atomic>
#include <iterator>
#include <stdexcept>

#include "core/cpu.h"
#include "core/env.h"

namespace mersit::nn::gemm {

namespace {

// Detection order: widest ISA first, scalar (always supported) last.
const Backend* const kRegistry[] = {
#if defined(__x86_64__) || defined(_M_X64)
    backend_avx512(),
    backend_avx2(),
#endif
    backend_scalar(),
};

std::string registry_names() {
  std::string s;
  for (const Backend* b : kRegistry) {
    if (!s.empty()) s += '|';
    s += b->name;
  }
  return s;
}

/// First compiled-in backend the host can execute (the list ends with
/// scalar, whose supported() is constant true).
const Backend* detect_best() {
  for (const Backend* b : kRegistry)
    if (b->supported()) return b;
  return backend_scalar();
}

std::atomic<const Backend*>& active_slot() {
  static std::atomic<const Backend*> slot = [] {
    const char* env = core::env_str("MERSIT_BACKEND");
    return env != nullptr ? &parse_backend(env) : detect_best();
  }();
  return slot;
}

}  // namespace

std::span<const Backend* const> backends() {
  return {kRegistry, std::size(kRegistry)};
}

const Backend& scalar_backend() { return *backend_scalar(); }

const Backend* find_backend(std::string_view name) {
  for (const Backend* b : kRegistry)
    if (name == b->name) return b;
  return nullptr;
}

const Backend& parse_backend(const std::string& value) {
  const Backend* b = find_backend(value);
  if (b == nullptr)
    throw std::runtime_error("MERSIT_BACKEND='" + value +
                             "': expected one of " + registry_names());
  if (!b->supported())
    throw std::runtime_error(
        "MERSIT_BACKEND='" + value + "': this host cannot execute the " +
        std::string(b->name) +
        " backend (host features: " + core::cpu_feature_summary() + ")");
  return *b;
}

const Backend& active_backend() {
  return *active_slot().load(std::memory_order_relaxed);
}

const Backend* set_backend(const Backend* b) {
  if (b == nullptr)
    throw std::invalid_argument("set_backend: null backend");
  if (!b->supported())
    throw std::invalid_argument(
        std::string("set_backend: the ") + b->name +
        " backend is not executable on this host (features: " +
        core::cpu_feature_summary() + ")");
  return active_slot().exchange(b, std::memory_order_relaxed);
}

}  // namespace mersit::nn::gemm
