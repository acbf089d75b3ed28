#include "vj/haar.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/mul_add.hh"

namespace incam {

double
HaarFeature::evaluate(const IntegralImage &ii, int wx, int wy, double scale,
                      double inv_norm) const
{
    double value = 0.0;
    for (int r = 0; r < n_rects; ++r) {
        const WeightedRect &rect = rects[r];
        // Scale and round the rectangle into image coordinates. Rounding
        // can push the rect a pixel past the window at large scales;
        // clamp to the image so the integral lookup stays legal.
        const int x = wx + static_cast<int>(std::lround(rect.x * scale));
        const int y = wy + static_cast<int>(std::lround(rect.y * scale));
        int w = static_cast<int>(std::lround(rect.w * scale));
        int h = static_cast<int>(std::lround(rect.h * scale));
        w = std::max(1, w);
        h = std::max(1, h);
        if (x >= ii.width() || y >= ii.height()) {
            continue;
        }
        w = std::min(w, ii.width() - x);
        h = std::min(h, ii.height() - y);
        // Weight compensation: keep the rect's weight-to-area ratio
        // stable under rounding so feature values are scale-comparable.
        const double ideal_area =
            static_cast<double>(rect.w) * rect.h * scale * scale;
        const double actual_area = static_cast<double>(w) * h;
        const double weight =
            static_cast<double>(rect.weight) * ideal_area / actual_area;
        value = mulAdd(weight, static_cast<double>(ii.rectSum(x, y, w, h)),
                       value);
    }
    return value * inv_norm;
}

double
windowInvNorm(const IntegralImage &ii, int wx, int wy, int window_size)
{
    const double sd = ii.rectStddev(wx, wy, window_size, window_size);
    if (sd < 1e-6) {
        return 0.0;
    }
    const double area =
        static_cast<double>(window_size) * window_size;
    return 1.0 / (area * sd);
}

namespace {

void
push2(std::vector<HaarFeature> &pool, HaarFeature::Kind kind, int x, int y,
      int w, int h, int dx, int dy)
{
    // Two rects: positive at (x,y), negative at (x+dx, y+dy).
    HaarFeature f;
    f.kind = kind;
    f.n_rects = 2;
    f.rects[0] = {static_cast<int8_t>(x), static_cast<int8_t>(y),
                  static_cast<int8_t>(w), static_cast<int8_t>(h), 1};
    f.rects[1] = {static_cast<int8_t>(x + dx), static_cast<int8_t>(y + dy),
                  static_cast<int8_t>(w), static_cast<int8_t>(h), -1};
    pool.push_back(f);
}

} // namespace

std::vector<HaarFeature>
enumerateFeatures(int base, int position_stride, int size_stride)
{
    incam_assert(base >= 8 && base <= 64, "unsupported base window ", base);
    incam_assert(position_stride >= 1 && size_stride >= 1,
                 "strides must be >= 1");

    std::vector<HaarFeature> pool;
    for (int w = 2; w <= base; w += size_stride) {
        for (int h = 2; h <= base; h += size_stride) {
            for (int x = 0; x + w <= base; x += position_stride) {
                for (int y = 0; y + h <= base; y += position_stride) {
                    // Edge features: need room for the mirrored rect.
                    if (x + 2 * w <= base) {
                        push2(pool, HaarFeature::Kind::Edge2H, x, y, w, h,
                              w, 0);
                    }
                    if (y + 2 * h <= base) {
                        push2(pool, HaarFeature::Kind::Edge2V, x, y, w, h,
                              0, h);
                    }
                    // Line features: three rects in a row/column; encoded
                    // as whole-span positive + double-weight negative
                    // middle, which is algebraically the same sum.
                    if (x + 3 * w <= base) {
                        HaarFeature f;
                        f.kind = HaarFeature::Kind::Line3H;
                        f.n_rects = 2;
                        f.rects[0] = {static_cast<int8_t>(x),
                                      static_cast<int8_t>(y),
                                      static_cast<int8_t>(3 * w),
                                      static_cast<int8_t>(h), 1};
                        f.rects[1] = {static_cast<int8_t>(x + w),
                                      static_cast<int8_t>(y),
                                      static_cast<int8_t>(w),
                                      static_cast<int8_t>(h), -3};
                        pool.push_back(f);
                    }
                    if (y + 3 * h <= base) {
                        HaarFeature f;
                        f.kind = HaarFeature::Kind::Line3V;
                        f.n_rects = 2;
                        f.rects[0] = {static_cast<int8_t>(x),
                                      static_cast<int8_t>(y),
                                      static_cast<int8_t>(w),
                                      static_cast<int8_t>(3 * h), 1};
                        f.rects[1] = {static_cast<int8_t>(x),
                                      static_cast<int8_t>(y + h),
                                      static_cast<int8_t>(w),
                                      static_cast<int8_t>(h), -3};
                        pool.push_back(f);
                    }
                    // Center-surround: outer positive, center x4 negative.
                    if (w >= 3 && h >= 3 && w % 3 == 0 && h % 3 == 0 &&
                        x + w <= base && y + h <= base) {
                        HaarFeature f;
                        f.kind = HaarFeature::Kind::Center4;
                        f.n_rects = 2;
                        f.rects[0] = {static_cast<int8_t>(x),
                                      static_cast<int8_t>(y),
                                      static_cast<int8_t>(w),
                                      static_cast<int8_t>(h), 1};
                        f.rects[1] = {static_cast<int8_t>(x + w / 3),
                                      static_cast<int8_t>(y + h / 3),
                                      static_cast<int8_t>(w / 3),
                                      static_cast<int8_t>(h / 3), -9};
                        pool.push_back(f);
                    }
                }
            }
        }
    }
    return pool;
}

} // namespace incam
