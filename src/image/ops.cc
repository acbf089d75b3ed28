#include "image/ops.hh"

#include <cmath>

namespace incam {

ImageF
toFloat(const ImageU8 &in)
{
    ImageF out(in.width(), in.height(), in.channels());
    const uint8_t *src = in.raw();
    float *dst = out.raw();
    for (size_t i = 0; i < in.sampleCount(); ++i) {
        dst[i] = static_cast<float>(src[i]) / 255.0f;
    }
    return out;
}

ImageU8
toU8(const ImageF &in)
{
    ImageU8 out(in.width(), in.height(), in.channels());
    const float *src = in.raw();
    uint8_t *dst = out.raw();
    for (size_t i = 0; i < in.sampleCount(); ++i) {
        // std::lround, inline: the float product is in [0, 255], where
        // adding 0.5 in double is exact and truncation is floor.
        const float v = std::clamp(src[i], 0.0f, 1.0f);
        dst[i] = static_cast<uint8_t>(
            static_cast<int>(static_cast<double>(v * 255.0f) + 0.5));
    }
    return out;
}

ImageF
rgbToGray(const ImageF &in)
{
    incam_assert(in.channels() == 3, "rgbToGray needs 3 channels, got ",
                 in.channels());
    ImageF out(in.width(), in.height(), 1);
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            out.at(x, y) = 0.299f * in.at(x, y, 0) + 0.587f * in.at(x, y, 1) +
                           0.114f * in.at(x, y, 2);
        }
    }
    return out;
}

ImageU8
rgbToGrayU8(const ImageU8 &in)
{
    incam_assert(in.channels() == 3, "rgbToGrayU8 needs 3 channels, got ",
                 in.channels());
    ImageU8 out(in.width(), in.height(), 1);
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            // Integer Rec.601 weights, matching common ISP implementations.
            const int v = (299 * in.at(x, y, 0) + 587 * in.at(x, y, 1) +
                           114 * in.at(x, y, 2) + 500) / 1000;
            out.at(x, y) = static_cast<uint8_t>(v);
        }
    }
    return out;
}

ImageF
resizeBilinear(const ImageF &in, int out_w, int out_h)
{
    incam_assert(out_w > 0 && out_h > 0, "bad resize target ", out_w, "x",
                 out_h);
    ImageF out(out_w, out_h, in.channels());
    const double sx = static_cast<double>(in.width()) / out_w;
    const double sy = static_cast<double>(in.height()) / out_h;
    for (int y = 0; y < out_h; ++y) {
        const double fy = (y + 0.5) * sy - 0.5;
        const int y0 = static_cast<int>(std::floor(fy));
        const float wy = static_cast<float>(fy - y0);
        for (int x = 0; x < out_w; ++x) {
            const double fx = (x + 0.5) * sx - 0.5;
            const int x0 = static_cast<int>(std::floor(fx));
            const float wx = static_cast<float>(fx - x0);
            for (int c = 0; c < in.channels(); ++c) {
                const float v00 = in.atClamped(x0, y0, c);
                const float v10 = in.atClamped(x0 + 1, y0, c);
                const float v01 = in.atClamped(x0, y0 + 1, c);
                const float v11 = in.atClamped(x0 + 1, y0 + 1, c);
                const float top = v00 + wx * (v10 - v00);
                const float bot = v01 + wx * (v11 - v01);
                out.at(x, y, c) = top + wy * (bot - top);
            }
        }
    }
    return out;
}

namespace {

/** Horizontal then vertical pass of an arbitrary odd kernel. */
ImageF
separableFilter(const ImageF &in, const std::vector<float> &kernel)
{
    const int radius = static_cast<int>(kernel.size()) / 2;
    ImageF tmp(in.width(), in.height(), in.channels());
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            for (int c = 0; c < in.channels(); ++c) {
                float acc = 0.0f;
                for (int k = -radius; k <= radius; ++k) {
                    acc += kernel[k + radius] * in.atClamped(x + k, y, c);
                }
                tmp.at(x, y, c) = acc;
            }
        }
    }
    ImageF out(in.width(), in.height(), in.channels());
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            for (int c = 0; c < in.channels(); ++c) {
                float acc = 0.0f;
                for (int k = -radius; k <= radius; ++k) {
                    acc += kernel[k + radius] * tmp.atClamped(x, y + k, c);
                }
                out.at(x, y, c) = acc;
            }
        }
    }
    return out;
}

} // namespace

ImageF
boxFilter(const ImageF &in, int radius)
{
    incam_assert(radius >= 0, "box filter radius must be non-negative");
    if (radius == 0) {
        return in;
    }
    const int taps = 2 * radius + 1;
    std::vector<float> kernel(taps, 1.0f / static_cast<float>(taps));
    return separableFilter(in, kernel);
}

ImageF
gaussianBlur(const ImageF &in, double sigma)
{
    incam_assert(sigma > 0.0, "gaussian sigma must be positive");
    const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    std::vector<float> kernel(2 * radius + 1);
    double sum = 0.0;
    for (int k = -radius; k <= radius; ++k) {
        const double v = std::exp(-0.5 * (k * k) / (sigma * sigma));
        kernel[k + radius] = static_cast<float>(v);
        sum += v;
    }
    for (auto &v : kernel) {
        v = static_cast<float>(v / sum);
    }
    return separableFilter(in, kernel);
}

ImageF
downsample2x(const ImageF &in)
{
    const std::vector<float> kernel = {0.25f, 0.5f, 0.25f};
    ImageF filtered = separableFilter(in, kernel);
    const int out_w = std::max(1, in.width() / 2);
    const int out_h = std::max(1, in.height() / 2);
    ImageF out(out_w, out_h, in.channels());
    for (int y = 0; y < out_h; ++y) {
        for (int x = 0; x < out_w; ++x) {
            for (int c = 0; c < in.channels(); ++c) {
                out.at(x, y, c) = filtered.at(2 * x, 2 * y, c);
            }
        }
    }
    return out;
}

ImageF
normalize(const ImageF &in)
{
    double sum = 0.0;
    for (float v : in) {
        sum += v;
    }
    const double mean = sum / static_cast<double>(in.sampleCount());
    double var = 0.0;
    for (float v : in) {
        var += (v - mean) * (v - mean);
    }
    var /= static_cast<double>(in.sampleCount());
    const double sd = std::sqrt(var);
    ImageF out(in.width(), in.height(), in.channels());
    if (sd < 1e-9) {
        return out; // constant input: all zeros
    }
    float *dst = out.raw();
    const float *src = in.raw();
    for (size_t i = 0; i < in.sampleCount(); ++i) {
        dst[i] = static_cast<float>((src[i] - mean) / sd);
    }
    return out;
}

void
addGaussianNoise(ImageF &img, double stddev, Rng &rng)
{
    // gaussians() yields gaussian()'s stream; the sum keeps the
    // bracketing of gaussian(0.0, stddev) so every pixel rounds alike.
    constexpr size_t kBlock = 256;
    double g[kBlock];
    float *px = img.raw();
    for (size_t i = 0, n = img.sampleCount(); i < n; i += kBlock) {
        const size_t m = std::min(kBlock, n - i);
        rng.gaussians(g, m);
        for (size_t k = 0; k < m; ++k) {
            px[i + k] = static_cast<float>(std::clamp(
                px[i + k] + (0.0 + stddev * g[k]), 0.0, 1.0));
        }
    }
}

ImageF
absDiff(const ImageF &a, const ImageF &b)
{
    incam_assert(a.sameShape(b), "absDiff shape mismatch");
    ImageF out(a.width(), a.height(), a.channels());
    const float *pa = a.raw();
    const float *pb = b.raw();
    float *po = out.raw();
    for (size_t i = 0; i < a.sampleCount(); ++i) {
        po[i] = std::fabs(pa[i] - pb[i]);
    }
    return out;
}

double
meanValue(const ImageF &in)
{
    double sum = 0.0;
    for (float v : in) {
        sum += v;
    }
    return in.sampleCount() ? sum / static_cast<double>(in.sampleCount())
                            : 0.0;
}

void
drawRect(ImageU8 &img, const Rect &r, uint8_t value)
{
    for (int x = std::max(0, r.x); x < std::min(img.width(), r.x2()); ++x) {
        if (r.y >= 0 && r.y < img.height()) {
            for (int c = 0; c < img.channels(); ++c) {
                img.at(x, r.y, c) = value;
            }
        }
        if (r.y2() - 1 >= 0 && r.y2() - 1 < img.height()) {
            for (int c = 0; c < img.channels(); ++c) {
                img.at(x, r.y2() - 1, c) = value;
            }
        }
    }
    for (int y = std::max(0, r.y); y < std::min(img.height(), r.y2()); ++y) {
        if (r.x >= 0 && r.x < img.width()) {
            for (int c = 0; c < img.channels(); ++c) {
                img.at(r.x, y, c) = value;
            }
        }
        if (r.x2() - 1 >= 0 && r.x2() - 1 < img.width()) {
            for (int c = 0; c < img.channels(); ++c) {
                img.at(r.x2() - 1, y, c) = value;
            }
        }
    }
}

} // namespace incam
