#pragma once

#include "data/image.h"
#include "util/rng.h"

/// \file raster.h
/// \brief Procedural drawing primitives for the synthetic dataset
/// generators (DESIGN.md substitution table: these stand in for the visual
/// structure of the paper's five real-world datasets).

namespace goggles::data {

/// \brief RGB color; for grayscale images only `r` is used per channel.
struct Color {
  float r = 0.0f;
  float g = 0.0f;
  float b = 0.0f;

  float channel(int c) const { return c == 0 ? r : (c == 1 ? g : b); }
  static Color Gray(float v) { return {v, v, v}; }
};

/// \brief Fills the whole image with `color`.
void FillConstant(Image* img, const Color& color);

/// \brief Vertical linear gradient from `top` (row 0) to `bottom`.
void FillVerticalGradient(Image* img, const Color& top, const Color& bottom);

/// \brief Adds i.i.d. N(0, sigma^2) noise to every pixel.
void AddGaussianNoise(Image* img, float sigma, Rng* rng);

/// \brief Separable 3x3 binomial blur, applied `passes` times.
void GaussianBlur3x3(Image* img, int passes = 1);

/// \brief Multiplies all pixels by `factor` (brightness jitter).
void ScaleBrightness(Image* img, float factor);

/// \brief Random global brightness (x [brightness_lo, brightness_hi]) and
/// per-channel color cast (x [1-cast, 1+cast]) — the photometric nuisance
/// present in every real capture pipeline (exposure, white balance, X-ray
/// dose). Global representations are sensitive to it; GOGGLES' normalized
/// prototype cosine is largely invariant.
void ApplyPhotometricJitter(Image* img, Rng* rng, float brightness_lo,
                            float brightness_hi, float cast);

/// \brief Alpha-blends `color` over the axis-aligned rectangle
/// [x0, x1] x [y0, y1] (inclusive, clipped to the image).
void DrawFilledRect(Image* img, int x0, int y0, int x1, int y1,
                    const Color& color, float alpha = 1.0f);

/// \brief Rectangle outline of the given thickness.
void DrawRectOutline(Image* img, int x0, int y0, int x1, int y1, int thickness,
                     const Color& color);

/// \brief Filled axis-aligned ellipse centered at (cx, cy).
void DrawFilledEllipse(Image* img, float cx, float cy, float rx, float ry,
                       const Color& color, float alpha = 1.0f);

/// \brief Filled circle (ellipse with rx == ry).
void DrawFilledCircle(Image* img, float cx, float cy, float radius,
                      const Color& color, float alpha = 1.0f);

/// \brief Annulus with outer radius `radius` and the given thickness.
void DrawRing(Image* img, float cx, float cy, float radius, float thickness,
              const Color& color);

/// \brief Filled isoceles triangle; `up` selects apex direction.
void DrawFilledTriangle(Image* img, float cx, float cy, float size, bool up,
                        const Color& color);

/// \brief Triangle outline (rendered as filled minus inset).
void DrawTriangleOutline(Image* img, float cx, float cy, float size, bool up,
                         int thickness, const Color& color);

/// \brief Filled diamond: |x-cx| + |y-cy| <= radius.
void DrawFilledDiamond(Image* img, float cx, float cy, float radius,
                       const Color& color);

/// \brief Diamond outline of the given thickness.
void DrawDiamondOutline(Image* img, float cx, float cy, float radius,
                        int thickness, const Color& color);

/// \brief Plus-shaped cross centered at (cx, cy).
void DrawCross(Image* img, float cx, float cy, float size, int thickness,
               const Color& color);

/// \brief Line segment with square brush of the given thickness.
void DrawLine(Image* img, float x0, float y0, float x1, float y1,
              int thickness, const Color& color);

/// \brief Sinusoidal stripes over a rectangle. `horizontal` selects stripe
/// orientation; `period` is in pixels; stripes blend `color` with alpha
/// proportional to the sinusoid.
void DrawStripedRect(Image* img, int x0, int y0, int x1, int y1, float period,
                     bool horizontal, const Color& color);

/// \brief Checkerboard pattern over a rectangle with square cells.
void DrawCheckerRect(Image* img, int x0, int y0, int x1, int y1, int cell,
                     const Color& c0, const Color& c1);

/// \brief Additive Gaussian intensity bump (soft blob) at (cx, cy).
void DrawSoftBlob(Image* img, float cx, float cy, float sigma, float amplitude,
                  const Color& color);

}  // namespace goggles::data
