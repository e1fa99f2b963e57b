#include "tensor/isa.h"

#include <atomic>

#include "tensor/kernel_table.h"
#include "util/env.h"
#include "util/logging.h"

namespace goggles {
namespace {

/// Active tier, -1 until first resolution. Written once by the lazy
/// resolver (or by ForceIsaTier in tests); read on every dispatch.
std::atomic<int> g_active_tier{-1};

#if defined(__x86_64__) || defined(__i386__)
constexpr bool kIsX86 = true;
#else
constexpr bool kIsX86 = false;
#endif

}  // namespace

const char* IsaTierName(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return "scalar";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseIsaTierName(const std::string& name, IsaTier* out) {
  for (int t = 0; t < kNumIsaTiers; ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if (name == IsaTierName(tier)) {
      *out = tier;
      return true;
    }
  }
  return false;
}

uint32_t CompiledIsaMask() {
  uint32_t mask = IsaTierBit(IsaTier::kScalar);
#if defined(GOGGLES_ISA_HAVE_AVX2)
  mask |= IsaTierBit(IsaTier::kAvx2);
#endif
#if defined(GOGGLES_ISA_HAVE_AVX512)
  mask |= IsaTierBit(IsaTier::kAvx512);
#endif
  return mask;
}

uint32_t HostIsaMask() {
  uint32_t mask = IsaTierBit(IsaTier::kScalar);
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    mask |= IsaTierBit(IsaTier::kAvx2);
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    mask |= IsaTierBit(IsaTier::kAvx512);
  }
#endif
  return mask;
}

IsaTier ResolveIsaTier(bool has_request, IsaTier requested,
                       uint32_t host_mask, uint32_t compiled_mask) {
  const uint32_t usable = host_mask & compiled_mask;
  if (has_request && (usable & IsaTierBit(requested)) != 0) return requested;
  // Auto (or graceful fallback from an unusable request): the highest
  // usable tier. kScalar is in both masks by construction, so the loop
  // always terminates on a valid tier.
  for (int t = kNumIsaTiers - 1; t > 0; --t) {
    if ((usable & (1u << t)) != 0) return static_cast<IsaTier>(t);
  }
  return IsaTier::kScalar;
}

IsaTier ResolveIsaRequest(const std::string& request, uint32_t host_mask,
                          uint32_t compiled_mask) {
  bool has_request = false;
  IsaTier requested = IsaTier::kScalar;
  if (!request.empty()) {
    if (ParseIsaTierName(request, &requested)) {
      has_request = true;
    } else {
      GOGGLES_LOG(WARNING)
          << "GOGGLES_ISA=\"" << request
          << "\" is not a tier name (scalar|avx2|avx512); "
             "using auto-detection";
    }
  }
  const IsaTier resolved =
      ResolveIsaTier(has_request, requested, host_mask, compiled_mask);
  if (has_request && resolved != requested) {
    GOGGLES_LOG(WARNING)
        << "GOGGLES_ISA=" << IsaTierName(requested)
        << " is not usable on this host/binary; falling back to "
        << IsaTierName(resolved);
  }
  return resolved;
}

IsaTier ActiveIsaTier() {
  const int cached = g_active_tier.load(std::memory_order_acquire);
  if (cached >= 0) return static_cast<IsaTier>(cached);

  const IsaTier resolved = ResolveIsaRequest(GetEnvOr("GOGGLES_ISA", ""),
                                             HostIsaMask(), CompiledIsaMask());
  // Concurrent first callers resolve the same value, so the race is
  // benign; the CAS just keeps the write once-only.
  int expected = -1;
  g_active_tier.compare_exchange_strong(expected,
                                        static_cast<int>(resolved),
                                        std::memory_order_release,
                                        std::memory_order_acquire);
  return static_cast<IsaTier>(g_active_tier.load(std::memory_order_acquire));
}

bool ForceIsaTier(IsaTier tier) {
  const uint32_t usable = HostIsaMask() & CompiledIsaMask();
  if ((usable & IsaTierBit(tier)) == 0) return false;
  g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
  return true;
}

std::string HostCpuFlagsString() {
  std::string flags;
  const auto append = [&flags](const char* name) {
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
  if (kIsX86) {
#if defined(__x86_64__) || defined(__i386__)
    // __builtin_cpu_supports only takes string literals, hence the macro.
#define GOGGLES_PROBE_CPU_FLAG(flag) \
  if (__builtin_cpu_supports(flag)) append(flag)
    GOGGLES_PROBE_CPU_FLAG("sse2");
    GOGGLES_PROBE_CPU_FLAG("sse3");
    GOGGLES_PROBE_CPU_FLAG("ssse3");
    GOGGLES_PROBE_CPU_FLAG("sse4.1");
    GOGGLES_PROBE_CPU_FLAG("sse4.2");
    GOGGLES_PROBE_CPU_FLAG("avx");
    GOGGLES_PROBE_CPU_FLAG("avx2");
    GOGGLES_PROBE_CPU_FLAG("fma");
    GOGGLES_PROBE_CPU_FLAG("avx512f");
    GOGGLES_PROBE_CPU_FLAG("avx512bw");
    GOGGLES_PROBE_CPU_FLAG("avx512dq");
    GOGGLES_PROBE_CPU_FLAG("avx512vl");
    GOGGLES_PROBE_CPU_FLAG("avx512cd");
#undef GOGGLES_PROBE_CPU_FLAG
#endif
  } else {
#if defined(__aarch64__)
    append("neon");
#endif
  }
  if (flags.empty()) flags = "baseline";
  return flags;
}

const TensorKernels* KernelsForTier(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return &isa_impl::scalar::GetKernels();
#if defined(GOGGLES_ISA_HAVE_AVX2)
    case IsaTier::kAvx2:
      return &isa_impl::avx2::GetKernels();
#endif
#if defined(GOGGLES_ISA_HAVE_AVX512)
    case IsaTier::kAvx512:
      return &isa_impl::avx512::GetKernels();
#endif
    default:
      return nullptr;
  }
}

const TensorKernels& ActiveKernels() {
  const TensorKernels* table = KernelsForTier(ActiveIsaTier());
  // ActiveIsaTier only resolves to compiled-in tiers, so table is never
  // null; the fallback keeps the dispatcher total anyway.
  return table != nullptr ? *table : isa_impl::scalar::GetKernels();
}

}  // namespace goggles
