// active_backend: the descriptor of the one SIMD tier core::active_tier()
// names.
#include "nn/gemm/backend.h"

#include "core/cpu.h"

namespace mersit::nn::gemm {

const Backend& active_backend() {
  switch (core::active_tier()) {
#if defined(__x86_64__) || defined(_M_X64)
    case core::Tier::kAvx512: return *backend_avx512();
    case core::Tier::kAvx2: return *backend_avx2();
#endif
    default: return *backend_scalar();
  }
}

}  // namespace mersit::nn::gemm
