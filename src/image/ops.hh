/**
 * @file
 * Core raster operations shared by the vision substrates.
 *
 * Everything here is written for clarity and determinism rather than
 * SIMD speed: the performance numbers of the paper are produced by the
 * analytical hardware cost models, while these kernels provide the
 * functional ground truth those models are validated against.
 */

#ifndef INCAM_IMAGE_OPS_HH
#define INCAM_IMAGE_OPS_HH

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "image/image.hh"

namespace incam {

/** Convert 8-bit samples to float in [0, 1]. */
ImageF toFloat(const ImageU8 &in);

/** Convert float samples (clamped to [0, 1]) to 8-bit. */
ImageU8 toU8(const ImageF &in);

/** Rec.601 luma conversion from a 3-channel image to 1-channel. */
ImageF rgbToGray(const ImageF &in);
ImageU8 rgbToGrayU8(const ImageU8 &in);

/** Nearest-neighbour resample to the given size. */
template <typename T>
Image<T> resizeNearest(const Image<T> &in, int out_w, int out_h);

/** Bilinear resample to the given size (any channel count). */
ImageF resizeBilinear(const ImageF &in, int out_w, int out_h);

/** Copy a sub-rectangle; the rect must lie fully inside the image. */
template <typename T>
Image<T> crop(const Image<T> &in, const Rect &r);

/** Mirror left-right (used for training-set augmentation). */
template <typename T>
Image<T> flipHorizontal(const Image<T> &in);

/** Separable box filter with (2r+1)^2 support, clamp borders. */
ImageF boxFilter(const ImageF &in, int radius);

/** Separable Gaussian blur; kernel radius is ceil(3 sigma). */
ImageF gaussianBlur(const ImageF &in, double sigma);

/** Downsample by 2 with a [1 2 1]/4 pre-filter (for MS-SSIM pyramids). */
ImageF downsample2x(const ImageF &in);

/**
 * Normalize samples to zero mean / unit variance. Constant images come
 * back as all zeros. Used to make the NN authentication input invariant
 * to global illumination, as the paper's pipeline crops are.
 */
ImageF normalize(const ImageF &in);

/** Add i.i.d. Gaussian noise with the given stddev, clamped to [0,1]. */
void addGaussianNoise(ImageF &img, double stddev, Rng &rng);

/** Absolute difference |a - b| per sample; shapes must match. */
ImageF absDiff(const ImageF &a, const ImageF &b);

/** Mean of all samples. */
double meanValue(const ImageF &in);

/** Draw a 1-pixel rectangle outline (clipped to the image). */
void drawRect(ImageU8 &img, const Rect &r, uint8_t value);

// --- template definitions ---

template <typename T>
Image<T>
resizeNearest(const Image<T> &in, int out_w, int out_h)
{
    Image<T> out(out_w, out_h, in.channels());
    const size_t c = static_cast<size_t>(in.channels());
    const size_t in_row = static_cast<size_t>(in.width()) * c;
    // Offset of each output column's source pixel within a source row.
    std::vector<size_t> src_col(static_cast<size_t>(out_w));
    for (int x = 0; x < out_w; ++x) {
        const int sx = std::min(
            static_cast<int>(static_cast<int64_t>(x) * in.width() / out_w),
            in.width() - 1);
        src_col[static_cast<size_t>(x)] = static_cast<size_t>(sx) * c;
    }
    T *dst = out.raw();
    for (int y = 0; y < out_h; ++y) {
        const int sy = std::min(
            static_cast<int>(static_cast<int64_t>(y) * in.height() / out_h),
            in.height() - 1);
        const T *src = in.raw() + static_cast<size_t>(sy) * in_row;
        for (const size_t col : src_col) {
            for (size_t ch = 0; ch < c; ++ch) {
                *dst++ = src[col + ch];
            }
        }
    }
    return out;
}

template <typename T>
Image<T>
crop(const Image<T> &in, const Rect &r)
{
    incam_assert(r.x >= 0 && r.y >= 0 && r.x2() <= in.width() &&
                     r.y2() <= in.height() && r.w > 0 && r.h > 0,
                 "crop rect (", r.x, ",", r.y, ",", r.w, ",", r.h,
                 ") outside ", in.width(), "x", in.height());
    Image<T> out(r.w, r.h, in.channels());
    const size_t c = static_cast<size_t>(in.channels());
    const size_t in_row = static_cast<size_t>(in.width()) * c;
    const size_t out_row = static_cast<size_t>(r.w) * c;
    for (int y = 0; y < r.h; ++y) {
        std::memcpy(out.raw() + static_cast<size_t>(y) * out_row,
                    in.raw() + static_cast<size_t>(r.y + y) * in_row +
                        static_cast<size_t>(r.x) * c,
                    out_row * sizeof(T));
    }
    return out;
}

template <typename T>
Image<T>
flipHorizontal(const Image<T> &in)
{
    Image<T> out(in.width(), in.height(), in.channels());
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            for (int c = 0; c < in.channels(); ++c) {
                out.at(x, y, c) = in.at(in.width() - 1 - x, y, c);
            }
        }
    }
    return out;
}

} // namespace incam

#endif // INCAM_IMAGE_OPS_HH
