#include "data/raster.h"

#include <algorithm>
#include <cmath>

namespace goggles::data {
namespace {

inline void BlendPixel(Image* img, int c, int y, int x, float value,
                       float alpha) {
  float& p = img->at(c, y, x);
  p = (1.0f - alpha) * p + alpha * value;
}

inline void BlendAt(Image* img, int x, int y, const Color& color,
                    float alpha) {
  if (x < 0 || x >= img->width || y < 0 || y >= img->height) return;
  for (int c = 0; c < img->channels; ++c) {
    BlendPixel(img, c, y, x, color.channel(c), alpha);
  }
}

}  // namespace

void FillConstant(Image* img, const Color& color) {
  for (int c = 0; c < img->channels; ++c) {
    const float v = color.channel(c);
    for (int y = 0; y < img->height; ++y) {
      for (int x = 0; x < img->width; ++x) img->at(c, y, x) = v;
    }
  }
}

void FillVerticalGradient(Image* img, const Color& top, const Color& bottom) {
  for (int y = 0; y < img->height; ++y) {
    const float t = img->height > 1
                        ? static_cast<float>(y) /
                              static_cast<float>(img->height - 1)
                        : 0.0f;
    for (int c = 0; c < img->channels; ++c) {
      const float v = (1.0f - t) * top.channel(c) + t * bottom.channel(c);
      for (int x = 0; x < img->width; ++x) img->at(c, y, x) = v;
    }
  }
}

void AddGaussianNoise(Image* img, float sigma, Rng* rng) {
  for (float& v : img->pixels) {
    v += static_cast<float>(rng->Gaussian(0.0, sigma));
  }
}

void GaussianBlur3x3(Image* img, int passes) {
  const int h = img->height, w = img->width;
  std::vector<float> tmp(static_cast<size_t>(h) * w);
  for (int pass = 0; pass < passes; ++pass) {
    for (int c = 0; c < img->channels; ++c) {
      // Horizontal [1 2 1]/4 with clamped borders.
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          const int xm = std::max(0, x - 1), xp = std::min(w - 1, x + 1);
          tmp[static_cast<size_t>(y) * w + x] =
              0.25f * img->at(c, y, xm) + 0.5f * img->at(c, y, x) +
              0.25f * img->at(c, y, xp);
        }
      }
      // Vertical [1 2 1]/4.
      for (int y = 0; y < h; ++y) {
        const int ym = std::max(0, y - 1), yp = std::min(h - 1, y + 1);
        for (int x = 0; x < w; ++x) {
          img->at(c, y, x) = 0.25f * tmp[static_cast<size_t>(ym) * w + x] +
                             0.5f * tmp[static_cast<size_t>(y) * w + x] +
                             0.25f * tmp[static_cast<size_t>(yp) * w + x];
        }
      }
    }
  }
}

void ScaleBrightness(Image* img, float factor) {
  for (float& v : img->pixels) v *= factor;
}

void ApplyPhotometricJitter(Image* img, Rng* rng, float brightness_lo,
                            float brightness_hi, float cast) {
  const float brightness =
      static_cast<float>(rng->Uniform(brightness_lo, brightness_hi));
  for (int c = 0; c < img->channels; ++c) {
    const float channel_factor =
        brightness *
        static_cast<float>(rng->Uniform(1.0 - cast, 1.0 + cast));
    for (int y = 0; y < img->height; ++y) {
      for (int x = 0; x < img->width; ++x) {
        img->at(c, y, x) *= channel_factor;
      }
    }
  }
}

void DrawFilledRect(Image* img, int x0, int y0, int x1, int y1,
                    const Color& color, float alpha) {
  x0 = std::max(0, x0);
  y0 = std::max(0, y0);
  x1 = std::min(img->width - 1, x1);
  y1 = std::min(img->height - 1, y1);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) BlendAt(img, x, y, color, alpha);
  }
}

void DrawRectOutline(Image* img, int x0, int y0, int x1, int y1, int thickness,
                     const Color& color) {
  for (int t = 0; t < thickness; ++t) {
    const int xi0 = x0 + t, yi0 = y0 + t, xi1 = x1 - t, yi1 = y1 - t;
    if (xi0 > xi1 || yi0 > yi1) break;
    for (int x = xi0; x <= xi1; ++x) {
      BlendAt(img, x, yi0, color, 1.0f);
      BlendAt(img, x, yi1, color, 1.0f);
    }
    for (int y = yi0; y <= yi1; ++y) {
      BlendAt(img, xi0, y, color, 1.0f);
      BlendAt(img, xi1, y, color, 1.0f);
    }
  }
}

void DrawFilledEllipse(Image* img, float cx, float cy, float rx, float ry,
                       const Color& color, float alpha) {
  if (rx <= 0.0f || ry <= 0.0f) return;
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - rx)));
  const int x1 = std::min(img->width - 1, static_cast<int>(std::ceil(cx + rx)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - ry)));
  const int y1 =
      std::min(img->height - 1, static_cast<int>(std::ceil(cy + ry)));
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const float dx = (static_cast<float>(x) - cx) / rx;
      const float dy = (static_cast<float>(y) - cy) / ry;
      if (dx * dx + dy * dy <= 1.0f) BlendAt(img, x, y, color, alpha);
    }
  }
}

void DrawFilledCircle(Image* img, float cx, float cy, float radius,
                      const Color& color, float alpha) {
  DrawFilledEllipse(img, cx, cy, radius, radius, color, alpha);
}

void DrawRing(Image* img, float cx, float cy, float radius, float thickness,
              const Color& color) {
  const float inner = std::max(0.0f, radius - thickness);
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - radius)));
  const int x1 =
      std::min(img->width - 1, static_cast<int>(std::ceil(cx + radius)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - radius)));
  const int y1 =
      std::min(img->height - 1, static_cast<int>(std::ceil(cy + radius)));
  const float r2 = radius * radius;
  const float i2 = inner * inner;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const float dx = static_cast<float>(x) - cx;
      const float dy = static_cast<float>(y) - cy;
      const float d2 = dx * dx + dy * dy;
      if (d2 <= r2 && d2 >= i2) BlendAt(img, x, y, color, 1.0f);
    }
  }
}

void DrawFilledTriangle(Image* img, float cx, float cy, float size, bool up,
                        const Color& color) {
  const int half = static_cast<int>(size / 2.0f);
  for (int row = 0; row <= static_cast<int>(size); ++row) {
    // Width grows from apex to base.
    const float frac = size > 0 ? static_cast<float>(row) / size : 0.0f;
    const int half_width = static_cast<int>(frac * half);
    const int y = up ? static_cast<int>(cy) - half + row
                     : static_cast<int>(cy) + half - row;
    for (int x = static_cast<int>(cx) - half_width;
         x <= static_cast<int>(cx) + half_width; ++x) {
      BlendAt(img, x, y, color, 1.0f);
    }
  }
}

void DrawTriangleOutline(Image* img, float cx, float cy, float size, bool up,
                         int thickness, const Color& color) {
  const float apex_y = up ? cy - size / 2 : cy + size / 2;
  const float base_y = up ? cy + size / 2 : cy - size / 2;
  const float half = size / 2;
  DrawLine(img, cx, apex_y, cx - half, base_y, thickness, color);
  DrawLine(img, cx, apex_y, cx + half, base_y, thickness, color);
  DrawLine(img, cx - half, base_y, cx + half, base_y, thickness, color);
}

void DrawFilledDiamond(Image* img, float cx, float cy, float radius,
                       const Color& color) {
  const int r = static_cast<int>(radius);
  for (int dy = -r; dy <= r; ++dy) {
    const int span = r - std::abs(dy);
    for (int dx = -span; dx <= span; ++dx) {
      BlendAt(img, static_cast<int>(cx) + dx, static_cast<int>(cy) + dy, color,
              1.0f);
    }
  }
}

void DrawDiamondOutline(Image* img, float cx, float cy, float radius,
                        int thickness, const Color& color) {
  const int r = static_cast<int>(radius);
  for (int dy = -r; dy <= r; ++dy) {
    const int span = r - std::abs(dy);
    for (int t = 0; t < thickness && t <= span; ++t) {
      BlendAt(img, static_cast<int>(cx) - span + t, static_cast<int>(cy) + dy,
              color, 1.0f);
      BlendAt(img, static_cast<int>(cx) + span - t, static_cast<int>(cy) + dy,
              color, 1.0f);
    }
  }
}

void DrawCross(Image* img, float cx, float cy, float size, int thickness,
               const Color& color) {
  const float half = size / 2;
  DrawFilledRect(img, static_cast<int>(cx - half),
                 static_cast<int>(cy) - thickness / 2,
                 static_cast<int>(cx + half),
                 static_cast<int>(cy) + thickness / 2, color);
  DrawFilledRect(img, static_cast<int>(cx) - thickness / 2,
                 static_cast<int>(cy - half),
                 static_cast<int>(cx) + thickness / 2,
                 static_cast<int>(cy + half), color);
}

void DrawLine(Image* img, float x0, float y0, float x1, float y1,
              int thickness, const Color& color) {
  const float dx = x1 - x0;
  const float dy = y1 - y0;
  const int steps =
      std::max(1, static_cast<int>(std::ceil(std::max(std::fabs(dx),
                                                      std::fabs(dy)))));
  const int half = std::max(0, thickness / 2);
  for (int s = 0; s <= steps; ++s) {
    const float t = static_cast<float>(s) / static_cast<float>(steps);
    const int px = static_cast<int>(std::lround(x0 + t * dx));
    const int py = static_cast<int>(std::lround(y0 + t * dy));
    for (int oy = -half; oy <= half; ++oy) {
      for (int ox = -half; ox <= half; ++ox) {
        BlendAt(img, px + ox, py + oy, color, 1.0f);
      }
    }
  }
}

void DrawStripedRect(Image* img, int x0, int y0, int x1, int y1, float period,
                     bool horizontal, const Color& color) {
  if (period < 1.0f) period = 1.0f;
  x0 = std::max(0, x0);
  y0 = std::max(0, y0);
  x1 = std::min(img->width - 1, x1);
  y1 = std::min(img->height - 1, y1);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const float pos = horizontal ? static_cast<float>(y) : static_cast<float>(x);
      const float wave =
          0.5f * (1.0f + std::sin(2.0f * static_cast<float>(M_PI) * pos / period));
      BlendAt(img, x, y, color, wave);
    }
  }
}

void DrawCheckerRect(Image* img, int x0, int y0, int x1, int y1, int cell,
                     const Color& c0, const Color& c1) {
  if (cell < 1) cell = 1;
  x0 = std::max(0, x0);
  y0 = std::max(0, y0);
  x1 = std::min(img->width - 1, x1);
  y1 = std::min(img->height - 1, y1);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const bool odd = (((x - x0) / cell) + ((y - y0) / cell)) % 2 == 1;
      BlendAt(img, x, y, odd ? c1 : c0, 1.0f);
    }
  }
}

void DrawSoftBlob(Image* img, float cx, float cy, float sigma, float amplitude,
                  const Color& color) {
  if (sigma <= 0.0f) return;
  const float reach = 3.0f * sigma;
  const int x0 = std::max(0, static_cast<int>(cx - reach));
  const int x1 = std::min(img->width - 1, static_cast<int>(cx + reach));
  const int y0 = std::max(0, static_cast<int>(cy - reach));
  const int y1 = std::min(img->height - 1, static_cast<int>(cy + reach));
  const float inv2s2 = 1.0f / (2.0f * sigma * sigma);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const float dx = static_cast<float>(x) - cx;
      const float dy = static_cast<float>(y) - cy;
      const float g = amplitude * std::exp(-(dx * dx + dy * dy) * inv2s2);
      for (int c = 0; c < img->channels; ++c) {
        img->at(c, y, x) += g * color.channel(c);
      }
    }
  }
}

}  // namespace goggles::data
