#include "linalg/kernels.h"

#include <cmath>

#include "tensor/kernel_table.h"

namespace goggles {

// DotF and NormF dispatch to the per-ISA kernel table (tensor/isa.h):
// fixed-16-lane std::fma accumulation with a fixed tree reduction, so the
// results are bit-identical at every tier — the vector width only decides
// how many of the 16 virtual lanes map onto one register.

float DotF(const float* a, const float* b, int64_t n) {
  return ActiveKernels().dot_f(a, b, n);
}

float NormF(const float* a, int64_t n) {
  return std::sqrt(ActiveKernels().dot_f(a, a, n));
}

void NormalizeF(float* a, int64_t n) {
  float norm = NormF(a, n);
  if (norm < 1e-12f) return;
  float inv = 1.0f / norm;
  for (int64_t i = 0; i < n; ++i) a[i] *= inv;
}

}  // namespace goggles
