#pragma once

#include <cstdint>

/// \file kernels.h
/// \brief BLAS-1 style float kernels on raw pointers.
///
/// Featurization normalizes position and prototype vectors with
/// NormalizeF, and the scalar ScoreQuery reference takes Eq. 3's cosine as
/// a DotF of normalized vectors; the fit and served scorers run the fused
/// PrototypeMaxScores (tensor/gemm.h) instead. DotF dispatches to the
/// per-ISA kernel tables (tensor/isa.h) and is bit-identical at every
/// tier: fixed-16-lane std::fma accumulation with a fixed tree reduction,
/// so the host's vector width never changes the result.

namespace goggles {

/// \brief Dot product of two length-n float vectors.
float DotF(const float* a, const float* b, int64_t n);

/// \brief Euclidean (L2) norm of a length-n float vector.
float NormF(const float* a, int64_t n);

/// \brief Scales a vector so it has unit L2 norm (no-op on ~zero vectors).
void NormalizeF(float* a, int64_t n);

}  // namespace goggles
