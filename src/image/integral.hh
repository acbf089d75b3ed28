/**
 * @file
 * Integral images ("summed-area tables") for O(1) rectangle sums.
 *
 * The Viola-Jones detector evaluates thousands of rectangular Haar
 * features per window; integral images turn each rectangle sum into four
 * table lookups. We also keep the squared-sum table needed for the
 * per-window variance normalization of the original algorithm.
 *
 * Exact 64-bit integer arithmetic keeps feature values bit-reproducible,
 * which the cascade-training regression tests rely on.
 */

#ifndef INCAM_IMAGE_INTEGRAL_HH
#define INCAM_IMAGE_INTEGRAL_HH

#include <cstdint>
#include <vector>

#include "exec/exec_policy.hh"
#include "image/image.hh"

namespace incam {

/** Summed-area table over an 8-bit grayscale image. */
class IntegralImage
{
  public:
    /**
     * Build both the sum and squared-sum tables.
     *
     * Serial policies use a fused single pass (row prefix + running
     * column sums). Parallel policies split construction into a
     * row-parallel horizontal-prefix phase and a column-block-parallel
     * vertical-prefix phase; the arithmetic is exact 64-bit integer, so
     * both paths produce identical tables.
     */
    explicit IntegralImage(const ImageU8 &img,
                           const ExecPolicy &pol = ExecPolicy::serial());

    int width() const { return w; }
    int height() const { return h; }

    /**
     * Sum of pixels in the rectangle [x, x+rw) x [y, y+rh).
     * The rectangle must lie inside the image.
     */
    int64_t
    rectSum(int x, int y, int rw, int rh) const
    {
        incam_assert(x >= 0 && y >= 0 && rw >= 0 && rh >= 0 &&
                         x + rw <= w && y + rh <= h,
                     "rectSum(", x, ",", y, ",", rw, ",", rh,
                     ") outside ", w, "x", h);
        return lookup(sum, x + rw, y + rh) - lookup(sum, x, y + rh) -
               lookup(sum, x + rw, y) + lookup(sum, x, y);
    }

    /** Sum of squared pixels in the same rectangle convention. */
    int64_t
    rectSumSq(int x, int y, int rw, int rh) const
    {
        incam_assert(x >= 0 && y >= 0 && rw >= 0 && rh >= 0 &&
                         x + rw <= w && y + rh <= h,
                     "rectSumSq(", x, ",", y, ",", rw, ",", rh,
                     ") outside ", w, "x", h);
        return lookup(sq, x + rw, y + rh) - lookup(sq, x, y + rh) -
               lookup(sq, x + rw, y) + lookup(sq, x, y);
    }

    /** Mean pixel value over a rectangle. */
    double
    rectMean(int x, int y, int rw, int rh) const
    {
        const int64_t area = static_cast<int64_t>(rw) * rh;
        return area ? static_cast<double>(rectSum(x, y, rw, rh)) /
                          static_cast<double>(area)
                    : 0.0;
    }

    /**
     * Standard deviation of pixel values over a rectangle — the window
     * normalizer in Viola-Jones. Returns 0 for degenerate rectangles.
     */
    double rectStddev(int x, int y, int rw, int rh) const;

    /**
     * Raw read-only tables for kernels that hoist the bounds check out
     * of their inner loop: entry (x, y) of either table, 0 <= x <= width
     * and 0 <= y <= height, sits at index y * stride() + x. A caller
     * indexing them directly must prove its lookups lie in that range.
     */
    const int64_t *sumTable() const { return sum.data(); }
    const int64_t *sqTable() const { return sq.data(); }
    size_t stride() const { return static_cast<size_t>(w) + 1; }

  private:
    /** Table lookup with the (w+1) x (h+1) padded layout. */
    int64_t
    lookup(const std::vector<int64_t> &t, int x, int y) const
    {
        return t[static_cast<size_t>(y) * (w + 1) + x];
    }

    int w;
    int h;
    std::vector<int64_t> sum; ///< (w+1) x (h+1), first row/col zero
    std::vector<int64_t> sq;  ///< squared-pixel table, same layout
};

} // namespace incam

#endif // INCAM_IMAGE_INTEGRAL_HH
