#pragma once

#include <cstdint>
#include <string>

/// \file isa.h
/// \brief Runtime ISA dispatch for the tensor kernel core.
///
/// The packed GEMM / conv / reduction kernels are compiled once per ISA
/// tier (scalar baseline, AVX2, AVX-512), each translation
/// unit built with its own -m flags, and one tier is selected at startup
/// from a cpuid probe of the host. A portable binary (built with
/// GOGGLES_NATIVE_ARCH=OFF, the default) therefore runs on any host of
/// its architecture and still executes AVX2/AVX-512 micro-kernels where
/// the CPU has them.
///
/// Every tier computes bit-identical f32/f64 results: all kernels
/// accumulate through explicit std::fma (correctly rounded whether it
/// lowers to the hardware instruction or the libm fallback) in the fixed
/// ascending-k chunked order of gemm.h, and the reduction kernels use a
/// fixed 16-lane virtual accumulator with a fixed tree reduction. The
/// tier choice is a pure speed knob, never a numerics knob.
///
/// Selection order:
///  1. `GOGGLES_ISA=scalar|avx2|avx512` forces a tier. An
///     unknown value warns and falls back to auto-detection; a known tier
///     the binary lacks or the host cannot execute warns and falls back
///     to the best available tier.
///  2. Otherwise the highest tier that is both compiled into the binary
///     and supported by the host wins (the scalar tier is always both).

namespace goggles {

/// \brief The ISA tiers a binary can carry, ascending by capability.
/// kScalar is compiled at the architecture baseline (SSE2 vectors on
/// x86-64, NEON on aarch64) and is the only tier on aarch64.
enum class IsaTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

inline constexpr int kNumIsaTiers = 3;

/// \brief Bit for `tier` in the availability masks below.
inline constexpr uint32_t IsaTierBit(IsaTier tier) {
  return 1u << static_cast<int>(tier);
}

/// \brief Lower-case tier name ("scalar", "avx2", "avx512") — the exact
/// spelling GOGGLES_ISA accepts.
const char* IsaTierName(IsaTier tier);

/// \brief Strict parse of a GOGGLES_ISA value. Returns false (leaving
/// `*out` untouched) for anything but the exact tier names.
bool ParseIsaTierName(const std::string& name, IsaTier* out);

/// \brief Tiers whose kernel tables are linked into this binary.
/// Always contains kScalar.
uint32_t CompiledIsaMask();

/// \brief Tiers the host CPU can execute (cpuid-probed on x86; kScalar
/// alone elsewhere). Always contains kScalar.
uint32_t HostIsaMask();

/// \brief Pure tier-selection policy, factored out for tests: picks
/// `requested` when `has_request` and the tier is in both masks,
/// otherwise the highest tier of `host_mask & compiled_mask` (falling
/// back to kScalar, which is always available). This is the graceful
/// path for a binary carrying tiers the host lacks: they are simply
/// never selected.
IsaTier ResolveIsaTier(bool has_request, IsaTier requested,
                       uint32_t host_mask, uint32_t compiled_mask);

/// \brief Full GOGGLES_ISA request handling against explicit masks, also
/// factored out for tests: strict-parses `request` (empty = auto; an
/// unknown value warns and degrades to auto; a parsed but unusable tier
/// warns and degrades to the best usable) and resolves via
/// ResolveIsaTier. ActiveIsaTier() is exactly this applied to the real
/// env value and the real masks, cached.
IsaTier ResolveIsaRequest(const std::string& request, uint32_t host_mask,
                          uint32_t compiled_mask);

/// \brief The tier the process dispatches to, resolved once on first use
/// from GOGGLES_ISA and the masks above (then cached).
IsaTier ActiveIsaTier();

/// \brief Forces the active tier (tests and benches sweeping tiers in
/// one process). Returns false — leaving the active tier unchanged — if
/// the tier is not compiled in or the host cannot execute it. Not meant
/// to race with in-flight kernel calls.
bool ForceIsaTier(IsaTier tier);

/// \brief Space-separated vector-ISA feature flags of the host CPU
/// (e.g. "sse2 avx avx2 fma avx512f ..."), for the bench perf records.
std::string HostCpuFlagsString();

}  // namespace goggles
