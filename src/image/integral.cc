#include "image/integral.hh"

#include <algorithm>
#include <cmath>

#include "common/mul_add.hh"
#include "exec/parallel.hh"

namespace incam {

IntegralImage::IntegralImage(const ImageU8 &img, const ExecPolicy &pol)
    : w(img.width()), h(img.height()),
      sum(static_cast<size_t>(w + 1) * (h + 1), 0),
      sq(static_cast<size_t>(w + 1) * (h + 1), 0)
{
    incam_assert(img.channels() == 1,
                 "integral image needs grayscale input, got ",
                 img.channels(), " channels");
    const size_t stride = static_cast<size_t>(w) + 1;

    if (pol.resolveThreads() <= 1) {
        // Fused single pass: row prefix plus running column sums.
        for (int y = 0; y < h; ++y) {
            const uint8_t *row = img.raw() + static_cast<size_t>(y) * w;
            const int64_t *up = sum.data() + static_cast<size_t>(y) * stride;
            const int64_t *up_sq =
                sq.data() + static_cast<size_t>(y) * stride;
            int64_t *cur = sum.data() + static_cast<size_t>(y + 1) * stride;
            int64_t *cur_sq =
                sq.data() + static_cast<size_t>(y + 1) * stride;
            int64_t row_sum = 0;
            int64_t row_sq = 0;
            for (int x = 0; x < w; ++x) {
                const int64_t v = row[x];
                row_sum += v;
                row_sq += v * v;
                cur[x + 1] = up[x + 1] + row_sum;
                cur_sq[x + 1] = up_sq[x + 1] + row_sq;
            }
        }
        return;
    }

    // Phase 1: horizontal prefix sums, each row independent. Integer
    // arithmetic is exact, so the kernel may coarsen the grain freely.
    ExecPolicy row_pol = pol;
    row_pol.grain = std::max(pol.grain, 16);
    parallel_for(0, h, row_pol, [&](int64_t y0, int64_t y1) {
        for (int64_t y = y0; y < y1; ++y) {
            const uint8_t *row = img.raw() + static_cast<size_t>(y) * w;
            int64_t *cur = sum.data() + static_cast<size_t>(y + 1) * stride;
            int64_t *cur_sq =
                sq.data() + static_cast<size_t>(y + 1) * stride;
            int64_t row_sum = 0;
            int64_t row_sq = 0;
            for (int x = 0; x < w; ++x) {
                const int64_t v = row[x];
                row_sum += v;
                row_sq += v * v;
                cur[x + 1] = row_sum;
                cur_sq[x + 1] = row_sq;
            }
        }
    });

    // Phase 2: vertical prefix sums, each column block independent.
    // Rows stay the outer loop inside a block so accesses remain
    // sequential in memory.
    ExecPolicy col_pol = pol;
    col_pol.grain = std::max(pol.grain, 64);
    parallel_for(1, w + 1, col_pol, [&](int64_t x0, int64_t x1) {
        for (int y = 1; y <= h; ++y) {
            const int64_t *up = sum.data() + static_cast<size_t>(y - 1) *
                                stride;
            const int64_t *up_sq =
                sq.data() + static_cast<size_t>(y - 1) * stride;
            int64_t *cur = sum.data() + static_cast<size_t>(y) * stride;
            int64_t *cur_sq = sq.data() + static_cast<size_t>(y) * stride;
            for (int64_t x = x0; x < x1; ++x) {
                cur[x] += up[x];
                cur_sq[x] += up_sq[x];
            }
        }
    });
}

double
IntegralImage::rectStddev(int x, int y, int rw, int rh) const
{
    const int64_t area = static_cast<int64_t>(rw) * rh;
    if (area <= 0) {
        return 0.0;
    }
    const double mean = static_cast<double>(rectSum(x, y, rw, rh)) /
                        static_cast<double>(area);
    const double mean_sq = static_cast<double>(rectSumSq(x, y, rw, rh)) /
                           static_cast<double>(area);
    const double var = mulAdd(-mean, mean, mean_sq);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

} // namespace incam
