#include "tensor/isa.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/env.h"
#include "util/rng.h"

/// \file tensor_isa_dispatch_test.cc
/// \brief The runtime ISA dispatch contract: strict GOGGLES_ISA parsing,
/// graceful fallback when a binary carries tiers the host lacks, and —
/// the load-bearing invariant — bit-identical f32/f64 kernel results at
/// every tier the host can run (GEMM, conv, the BLAS-1 reductions, the
/// mixture panel-stack products, the EM E-step and M-step products).

namespace goggles {
namespace {

/// Tiers this process can actually sweep (compiled in AND executable).
std::vector<IsaTier> UsableTiers() {
  std::vector<IsaTier> tiers;
  const uint32_t usable = HostIsaMask() & CompiledIsaMask();
  for (int t = 0; t < kNumIsaTiers; ++t) {
    if ((usable & (1u << t)) != 0) tiers.push_back(static_cast<IsaTier>(t));
  }
  return tiers;
}

/// Restores auto-dispatch after a test forced tiers around.
struct TierSweepGuard {
  ~TierSweepGuard() { ForceIsaTier(ResolveIsaTier(false, IsaTier::kScalar,
                                                  HostIsaMask(),
                                                  CompiledIsaMask())); }
};

std::vector<float> RandomVec(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

std::vector<double> RandomVecD(size_t size, Rng* rng) {
  std::vector<double> v(size);
  for (auto& x : v) x = rng->Gaussian();
  return v;
}

// ---------------------------------------------------------------------------
// GOGGLES_ISA parsing and tier resolution
// ---------------------------------------------------------------------------

TEST(IsaParsing, AcceptsExactTierNames) {
  IsaTier tier = IsaTier::kAvx512;
  EXPECT_TRUE(ParseIsaTierName("scalar", &tier));
  EXPECT_EQ(tier, IsaTier::kScalar);
  EXPECT_TRUE(ParseIsaTierName("avx2", &tier));
  EXPECT_EQ(tier, IsaTier::kAvx2);
  EXPECT_TRUE(ParseIsaTierName("avx512", &tier));
  EXPECT_EQ(tier, IsaTier::kAvx512);
}

TEST(IsaParsing, RejectsEverythingElse) {
  IsaTier tier = IsaTier::kAvx2;
  // "sse2" and "neon" are host CPU flags, not tiers: the scalar tier is
  // built at that baseline.
  for (const char* bad : {"", "AVX2", "avx-512", "avx512f", "native", "auto",
                          "scalar ", " avx2", "sse2", "neon", "sse", "2"}) {
    EXPECT_FALSE(ParseIsaTierName(bad, &tier)) << "accepted: '" << bad << "'";
    EXPECT_EQ(tier, IsaTier::kAvx2) << "clobbered out param on '" << bad << "'";
  }
}

TEST(IsaResolution, AutoPicksHighestUsableTier) {
  const uint32_t scalar = IsaTierBit(IsaTier::kScalar);
  const uint32_t avx2 = IsaTierBit(IsaTier::kAvx2);
  const uint32_t avx512 = IsaTierBit(IsaTier::kAvx512);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, scalar | avx2,
                           scalar | avx2),
            IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, scalar | avx2 | avx512,
                           scalar | avx2 | avx512),
            IsaTier::kAvx512);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, scalar, scalar),
            IsaTier::kScalar);
}

TEST(IsaResolution, HonorsUsableRequest) {
  const uint32_t all = IsaTierBit(IsaTier::kScalar) |
                       IsaTierBit(IsaTier::kAvx2) |
                       IsaTierBit(IsaTier::kAvx512);
  EXPECT_EQ(ResolveIsaTier(true, IsaTier::kAvx2, all, all), IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(true, IsaTier::kScalar, all, all),
            IsaTier::kScalar);
}

TEST(IsaResolution, BinaryCarriesTierHostLacks) {
  // A fat binary with AVX-512 kernels on an AVX2-only host: both the
  // explicit request and auto-detection must degrade to AVX2.
  const uint32_t compiled = IsaTierBit(IsaTier::kScalar) |
                            IsaTierBit(IsaTier::kAvx2) |
                            IsaTierBit(IsaTier::kAvx512);
  const uint32_t host = IsaTierBit(IsaTier::kScalar) |
                        IsaTierBit(IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(true, IsaTier::kAvx512, host, compiled),
            IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, host, compiled),
            IsaTier::kAvx2);
}

TEST(IsaResolution, HostTierNotCompiledIn) {
  // The mirror case: a lean binary (scalar only) on a capable host.
  const uint32_t compiled = IsaTierBit(IsaTier::kScalar);
  const uint32_t host = IsaTierBit(IsaTier::kScalar) |
                        IsaTierBit(IsaTier::kAvx2) |
                        IsaTierBit(IsaTier::kAvx512);
  EXPECT_EQ(ResolveIsaTier(true, IsaTier::kAvx2, host, compiled),
            IsaTier::kScalar);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, host, compiled),
            IsaTier::kScalar);
}

TEST(IsaResolution, RequestStringPath) {
  // ResolveIsaRequest is the exact env-handling path of ActiveIsaTier().
  const uint32_t usable = IsaTierBit(IsaTier::kScalar) |
                          IsaTierBit(IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaRequest("avx2", usable, usable), IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaRequest("scalar", usable, usable), IsaTier::kScalar);
  // Unknown value: warn + auto (highest usable), never a crash. "sse2"
  // and "neon" are host CPU flags, not tiers, so they are unknown too.
  for (const char* unknown : {"fastest-please", "sse2", "neon"}) {
    EXPECT_EQ(ResolveIsaRequest(unknown, usable, usable), IsaTier::kAvx2)
        << unknown;
  }
  EXPECT_EQ(ResolveIsaRequest("", usable, usable), IsaTier::kAvx2);
  // Known tier the binary/host cannot run: warn + best usable.
  EXPECT_EQ(ResolveIsaRequest("avx512", usable, usable), IsaTier::kAvx2);
}

TEST(IsaRuntime, MasksAndActiveTierAreCoherent) {
  const uint32_t compiled = CompiledIsaMask();
  const uint32_t host = HostIsaMask();
  EXPECT_NE(compiled & IsaTierBit(IsaTier::kScalar), 0u);
  EXPECT_NE(host & IsaTierBit(IsaTier::kScalar), 0u);
  const IsaTier active = ActiveIsaTier();
  EXPECT_NE((compiled & host) & IsaTierBit(active), 0u);
  EXPECT_FALSE(std::string(IsaTierName(active)).empty());
  EXPECT_FALSE(HostCpuFlagsString().empty());
}

TEST(IsaRuntime, ForcedTierResolvesToItsName) {
  // A suite run under GOGGLES_ISA=<tier> must really run that tier: an
  // unknown or unusable value would only warn and run the fallback tier
  // under the forced tier's name.
  const std::string request = GetEnvOr("GOGGLES_ISA", "");
  if (request.empty()) GTEST_SKIP() << "GOGGLES_ISA is unset";
  EXPECT_EQ(IsaTierName(ResolveIsaRequest(request, HostIsaMask(),
                                          CompiledIsaMask())),
            request);
}

TEST(IsaRuntime, ForceIsaTierRejectsUnusableTier) {
  TierSweepGuard guard;
  const uint32_t usable = HostIsaMask() & CompiledIsaMask();
  for (int t = 0; t < kNumIsaTiers; ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if ((usable & IsaTierBit(tier)) != 0) {
      EXPECT_TRUE(ForceIsaTier(tier));
      EXPECT_EQ(ActiveIsaTier(), tier);
    } else {
      const IsaTier before = ActiveIsaTier();
      EXPECT_FALSE(ForceIsaTier(tier));
      EXPECT_EQ(ActiveIsaTier(), before);
    }
  }
}

// ---------------------------------------------------------------------------
// Forced-tier bit-identity of the f32/f64 kernels
// ---------------------------------------------------------------------------

TEST(TierBitIdentity, SGemmMatchesScalarReferenceAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240811);
  // Shapes straddling the micro-tile and k-chunk boundaries of every tier.
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {8, 16, 32},
                               {17, 33, 70}, {64, 24, 256}, {33, 65, 300}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const std::vector<float> a = RandomVec(static_cast<size_t>(m * k), &rng);
        const std::vector<float> b = RandomVec(static_cast<size_t>(k * n), &rng);
        const std::vector<float> c0 = RandomVec(static_cast<size_t>(m * n), &rng);
        const int64_t lda = ta ? m : k, ldb = tb ? k : n;
        std::vector<float> want = c0;
        SGemmReference(ta, tb, m, n, k, 0.75f, a.data(), lda, b.data(), ldb,
                       0.5f, want.data(), n);
        for (const IsaTier tier : UsableTiers()) {
          ASSERT_TRUE(ForceIsaTier(tier));
          std::vector<float> got = c0;
          SGemm(ta, tb, m, n, k, 0.75f, a.data(), lda, b.data(), ldb, 0.5f,
                got.data(), n);
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                   want.size() * sizeof(float)))
              << "tier=" << IsaTierName(tier) << " m=" << m << " n=" << n
              << " k=" << k << " ta=" << ta << " tb=" << tb;
        }
      }
    }
  }
}

TEST(TierBitIdentity, DGemmMatchesScalarReferenceAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240812);
  const int64_t shapes[][3] = {{2, 3, 5}, {16, 8, 64}, {31, 9, 257}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    for (const bool ta : {false, true}) {
      const std::vector<double> a = RandomVecD(static_cast<size_t>(m * k), &rng);
      const std::vector<double> b = RandomVecD(static_cast<size_t>(k * n), &rng);
      const int64_t lda = ta ? m : k;
      std::vector<double> want(static_cast<size_t>(m * n), 0.0);
      DGemmReference(ta, false, m, n, k, 1.25, a.data(), lda, b.data(), n, 0.0,
                     want.data(), n);
      for (const IsaTier tier : UsableTiers()) {
        ASSERT_TRUE(ForceIsaTier(tier));
        std::vector<double> got(static_cast<size_t>(m * n), 0.0);
        DGemm(ta, false, m, n, k, 1.25, a.data(), lda, b.data(), n, 0.0,
              got.data(), n);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(double)))
            << "tier=" << IsaTierName(tier) << " m=" << m << " n=" << n
            << " k=" << k << " ta=" << ta;
      }
    }
  }
}

TEST(TierBitIdentity, PackedOperandSurvivesTierSwitch) {
  TierSweepGuard guard;
  Rng rng(20240813);
  const int64_t m = 23, n = 4, k = 300;
  const std::vector<double> a = RandomVecD(static_cast<size_t>(m * k), &rng);
  const std::vector<double> b = RandomVecD(static_cast<size_t>(k * n), &rng);
  std::vector<double> want(static_cast<size_t>(m * n), 0.0);
  DGemmReference(false, false, m, n, k, 1.0, a.data(), k, b.data(), n, 0.0,
                 want.data(), n);
  for (const IsaTier pack_tier : UsableTiers()) {
    ASSERT_TRUE(ForceIsaTier(pack_tier));
    const DGemmPackedA packed = DGemmPackOperandA(false, m, k, a.data(), k);
    EXPECT_EQ(packed.isa_tier, static_cast<int>(pack_tier));
    for (const IsaTier run_tier : UsableTiers()) {
      // The packed layout is tier-specific; consumption must dispatch to
      // the PACKING tier even when the active tier has moved on.
      ASSERT_TRUE(ForceIsaTier(run_tier));
      std::vector<double> got(static_cast<size_t>(m * n), 0.0);
      DGemmWithPackedA(packed, false, n, b.data(), n, 0.0, got.data(), n);
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                               want.size() * sizeof(double)))
          << "pack=" << IsaTierName(pack_tier)
          << " run=" << IsaTierName(run_tier);
    }
  }
}

TEST(TierBitIdentity, Conv2dForwardAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240814);
  Tensor x = Tensor::RandomNormal({3, 4, 9, 9}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({6, 4, 3, 3}, 0.5f, &rng);
  Tensor b = Tensor::RandomNormal({6}, 0.1f, &rng);
  Conv2dParams params;
  ASSERT_TRUE(ForceIsaTier(IsaTier::kScalar));
  Result<Tensor> want = Conv2dForward(x, w, b, params);
  ASSERT_TRUE(want.ok());
  for (const IsaTier tier : UsableTiers()) {
    ASSERT_TRUE(ForceIsaTier(tier));
    Result<Tensor> got = Conv2dForward(x, w, b, params);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(0, std::memcmp(want->data(), got->data(),
                             static_cast<size_t>(want->NumElements()) *
                                 sizeof(float)))
        << "tier=" << IsaTierName(tier);
  }
}

TEST(TierBitIdentity, Blas1ReductionsAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240815);
  for (const int64_t n : {1, 7, 16, 33, 1000}) {
    const std::vector<float> a = RandomVec(static_cast<size_t>(n), &rng);
    const std::vector<float> b = RandomVec(static_cast<size_t>(n), &rng);
    ASSERT_TRUE(ForceIsaTier(IsaTier::kScalar));
    const float dot = DotF(a.data(), b.data(), n);
    const float norm = NormF(a.data(), n);
    for (const IsaTier tier : UsableTiers()) {
      ASSERT_TRUE(ForceIsaTier(tier));
      EXPECT_EQ(dot, DotF(a.data(), b.data(), n))
          << "tier=" << IsaTierName(tier) << " n=" << n;
      EXPECT_EQ(norm, NormF(a.data(), n))
          << "tier=" << IsaTierName(tier) << " n=" << n;
    }
  }
}

// PanelStackProducts vs DGemmReference on each function's explicitly
// augmented row and unpacked panel (the scalar chunked-fma order): 2N
// below, at and above kGemmKChunk, a chunk boundary inside the x² half
// (N = 300) and inside the plain half (N = 130), function counts that
// fill whole lane groups (16) or leave a narrower last group (1, 3, 50),
// an odd component count, the unaugmented (ensemble) form, and rows of
// signed zeros.
TEST(TierBitIdentity, PanelStackProductsMatchChunkedFmaAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240816);
  struct Case {
    int64_t functions, dims, components;
    bool squares;
  };
  const Case cases[] = {{1, 100, 2, true},  {3, 128, 2, true},
                        {50, 130, 2, true}, {16, 130, 2, true},
                        {3, 300, 3, true},  {50, 60, 3, true},
                        {1, 100, 2, false}, {1, 256, 2, false},
                        {3, 300, 3, false}};
  for (const Case& cs : cases) {
    const int64_t width = cs.squares ? 2 * cs.dims : cs.dims;
    for (const bool zeros : {false, true}) {
      std::vector<double> x = RandomVecD(
          static_cast<size_t>(cs.functions * cs.dims), &rng);
      std::vector<double> panels = RandomVecD(
          static_cast<size_t>(cs.functions * cs.components * width), &rng);
      if (zeros) {  // ±0 rows, and ±0 panel entries on every third index
        for (size_t i = 0; i < x.size(); ++i) x[i] = i % 2 ? -0.0 : 0.0;
        for (size_t i = 0; i < panels.size(); i += 3) {
          panels[i] = i % 2 ? -0.0 : 0.0;
        }
      }
      std::vector<double> want(
          static_cast<size_t>(cs.functions * cs.components));
      std::vector<double> stack(panels.size());
      for (int64_t f = 0; f < cs.functions; ++f) {
        const double* xf = x.data() + f * cs.dims;
        std::vector<double> a(static_cast<size_t>(width));
        for (int64_t j = 0; j < cs.dims; ++j) {
          if (cs.squares) {
            a[static_cast<size_t>(j)] = xf[j] * xf[j];
            a[static_cast<size_t>(cs.dims + j)] = xf[j];
          } else {
            a[static_cast<size_t>(j)] = xf[j];
          }
        }
        const double* panel = panels.data() + f * cs.components * width;
        DGemmReference(false, true, 1, cs.components, width, 1.0, a.data(),
                       width, panel, width, 0.0,
                       want.data() + f * cs.components, cs.components);
        PackPanelStack(panel, cs.functions, cs.components, width, f,
                       stack.data());
      }
      for (const IsaTier tier : UsableTiers()) {
        ASSERT_TRUE(ForceIsaTier(tier));
        std::vector<double> got(want.size(), 1.0);
        PanelStackProducts(x.data(), cs.functions, cs.dims, cs.squares,
                           stack.data(), cs.components, got.data());
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(double)))
            << "tier=" << IsaTierName(tier) << " functions=" << cs.functions
            << " dims=" << cs.dims << " components=" << cs.components
            << " squares=" << cs.squares << " zeros=" << zeros;
      }
    }
  }
}

// EmEStepProducts / EmMStepProducts vs DGemmReference on the widened
// augmented design built here, at every tier, for float and double
// designs: the E-step reads the design in kEmRowAlign-row panels (rows
// past n zero), the M-step reads it in place with a row stride larger
// than d. n and d (gmm_gemm_test's EmProductTest sizes) straddle the row
// and dimension tiles and kGemmKChunk on both depths; 1-8 columns cover
// the one- and two-sub-tile and multi-pass column groups; squares off is
// the Bernoulli (ensemble) form.
template <typename T>
void CheckEmKernelsAtEveryTier(int64_t n, int64_t d, bool squares,
                               Rng* rng) {
  const int64_t stride = d + 3, w = squares ? 2 * d : d;
  std::vector<T> x(static_cast<size_t>(n * stride));
  for (auto& v : x) v = static_cast<T>(rng->Uniform());
  std::vector<double> design(static_cast<size_t>(n * w));
  const int64_t panels = (n + kEmRowAlign - 1) / kEmRowAlign;
  std::vector<T> xt(static_cast<size_t>(panels * d * kEmRowAlign), T{0});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      const T e = x[static_cast<size_t>(i * stride + j)];
      const double v = static_cast<double>(e);
      if (squares) design[static_cast<size_t>(i * w + j)] = v * v;
      design[static_cast<size_t>(i * w + (squares ? d : 0) + j)] = v;
      xt[static_cast<size_t>((i / kEmRowAlign * d + j) * kEmRowAlign +
                             i % kEmRowAlign)] = e;
    }
  }
  for (int64_t cols = 1; cols <= 8; ++cols) {
    const std::vector<double> panel =
        RandomVecD(static_cast<size_t>(cols * w), rng);
    const std::vector<double> resp =
        RandomVecD(static_cast<size_t>(n * cols), rng);
    std::vector<double> want_e(static_cast<size_t>(n * cols));
    std::vector<double> want_m(static_cast<size_t>(w * cols));
    DGemmReference(false, true, n, cols, w, 1.0, design.data(), w,
                   panel.data(), w, 0.0, want_e.data(), cols);
    DGemmReference(true, false, w, cols, n, 1.0, design.data(), w,
                   resp.data(), cols, 0.0, want_m.data(), cols);
    for (const IsaTier tier : UsableTiers()) {
      ASSERT_TRUE(ForceIsaTier(tier));
      std::vector<double> got_e(want_e.size(), 1.0), got_m(want_m.size(), 1.0);
      EmEStepProducts(xt.data(), n, d, squares, panel.data(), cols,
                      got_e.data());
      EmMStepProducts(x.data(), stride, n, d, squares, resp.data(), cols,
                      got_m.data());
      ASSERT_EQ(0, std::memcmp(want_e.data(), got_e.data(),
                               want_e.size() * sizeof(double)))
          << "E-step tier=" << IsaTierName(tier) << " n=" << n << " d=" << d
          << " cols=" << cols << " squares=" << squares;
      ASSERT_EQ(0, std::memcmp(want_m.data(), got_m.data(),
                               want_m.size() * sizeof(double)))
          << "M-step tier=" << IsaTierName(tier) << " n=" << n << " d=" << d
          << " cols=" << cols << " squares=" << squares;
    }
  }
}

TEST(TierBitIdentity, EmProductsMatchChunkedFmaAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20261019);
  const int64_t sizes[] = {7, 33, 108, 257, 300, 480};
  for (const int64_t n : sizes) {
    for (const int64_t d : sizes) {
      for (const bool squares : {true, false}) {
        CheckEmKernelsAtEveryTier<float>(n, d, squares, &rng);
        CheckEmKernelsAtEveryTier<double>(n, d, squares, &rng);
      }
    }
  }
}

}  // namespace
}  // namespace goggles
