#include "vj/detector.hh"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstddef>
#include <functional>
#include <numeric>

#include "common/logging.hh"
#include "common/mul_add.hh"
#include "exec/parallel.hh"

// The interior scan has an AVX2 body, picked at run time, on x86-64
// GCC and Clang; every other build keeps the scalar table path alone.
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define INCAM_VJ_LANES 1
#define INCAM_AVX2 __attribute__((target("avx2")))
#endif

namespace incam {

namespace {

/** IntegralImage::rectSum's four lookups, as offsets from an origin. */
using Corners = std::array<ptrdiff_t, 4>;

Corners
cornerOffsets(int x, int y, int w, int h, ptrdiff_t stride)
{
    return {(y + h) * stride + x + w, (y + h) * stride + x,
            y * stride + x + w, y * stride + x};
}

/** rectSum on a raw table, in the same order. */
int64_t
cornerSum(const int64_t *t, const Corners &c)
{
    return t[c[0]] - t[c[1]] - t[c[2]] + t[c[3]];
}

#ifdef INCAM_VJ_LANES
/** Lanes of doubles, lane i for the window at origin + i * step. */
INCAM_AVX2 inline __m256d
cornerSums4(const int64_t *t, ptrdiff_t step, const Corners &c)
{
    const __m256i s =
        _mm256_set_epi64x(cornerSum(t + 3 * step, c),
                          cornerSum(t + 2 * step, c),
                          cornerSum(t + step, c), cornerSum(t, c));
    // Exact int64 -> double for 0 <= s < 2^52, which holds for any image
    // under 2^36 pixels (a squared sample is at most 255^2 < 2^16):
    // OR-ing s into the mantissa of 2^52 gives the double 2^52 + s, and
    // subtracting 2^52 leaves s.
    const __m256d two52 = _mm256_set1_pd(0x1p52);
    return _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(s, _mm256_castpd_si256(two52))),
        two52);
}

/** mulAdd in lanes: fused exactly when the scalar mulAdd is. */
INCAM_AVX2 inline __m256d
mulAdd4(__m256d a, __m256d b, __m256d c)
{
#ifdef __FMA__
    return _mm256_fmadd_pd(a, b, c);
#else
    return _mm256_add_pd(_mm256_mul_pd(a, b), c);
#endif
}
#endif

/**
 * One scale of the cascade, flattened for the interior of the scan.
 *
 * Every rectangle of every stump is scaled and rounded once, as
 * HaarFeature::evaluate does per window, into corner offsets from the
 * window origin in the integral tables plus its compensated weight.
 * reach_x/reach_y bound how far right/down any lookup goes from the
 * origin, so a window with x + reach_x <= width and y + reach_y <=
 * height needs no clamp and every lookup lies inside the tables.
 * classify() repeats the reference arithmetic (Cascade::classifyWindow,
 * windowInvNorm, HaarFeature::evaluate) operation for operation, so
 * results and stats are bit-identical; other windows go to the
 * reference. classify4() repeats classify() in four AVX2 lanes.
 */
class ScaleTable
{
  public:
    ScaleTable(const Cascade &cascade, const ScanScale &s, ptrdiff_t stride)
        : norm(cornerOffsets(0, 0, s.window, s.window, stride)),
          // window^2 is exact in a double, however it is computed.
          window_area(static_cast<double>(s.window) * s.window),
          reach_x(s.window), reach_y(s.window)
    {
        const double scale = s.scale;
        bool negative = false;
        for (const CascadeStage &stage : cascade.stages()) {
            stages.push_back({stumps.size(), 0, stage.threshold});
            for (const Stump &stump : stage.stumps) {
                const HaarFeature &f = cascade.features()[stump.feature];
                stumps.push_back({rects.size(), 0, stump.threshold,
                                  stump.alpha, stump.polarity});
                for (int r = 0; r < f.n_rects; ++r) {
                    const WeightedRect &rect = f.rects[r];
                    const int x =
                        static_cast<int>(std::lround(rect.x * scale));
                    const int y =
                        static_cast<int>(std::lround(rect.y * scale));
                    const int w = std::max(
                        1, static_cast<int>(std::lround(rect.w * scale)));
                    const int h = std::max(
                        1, static_cast<int>(std::lround(rect.h * scale)));
                    negative = negative || x < 0 || y < 0;
                    reach_x = std::max(reach_x, x + w);
                    reach_y = std::max(reach_y, y + h);
                    const double ideal_area =
                        static_cast<double>(rect.w) * rect.h * scale * scale;
                    const double actual_area = static_cast<double>(w) * h;
                    rects.push_back({cornerOffsets(x, y, w, h, stride),
                                     static_cast<double>(rect.weight) *
                                         ideal_area / actual_area});
                }
                stumps.back().rect_end = rects.size();
            }
            stages.back().end = stumps.size();
        }
        // A rectangle left of or above the window origin is not covered
        // by the reach test, and an untrained cascade must reach the
        // reference's assert: send every window to the reference path.
        if (negative || stages.empty()) {
            reach_x = INT_MAX;
            reach_y = INT_MAX;
        }
    }

    /** Columns 0..n-1 of the scale's grid whose reach stays inside. */
    int
    interiorCols(const ScanScale &s, int width) const
    {
        return reach_x <= width
                   ? std::min(s.nx, (width - reach_x) / s.step + 1)
                   : 0;
    }

    /** Whether a window row at @p y keeps its reach inside. */
    bool
    interiorRow(int y, int height) const
    {
        return reach_y <= height && y <= height - reach_y;
    }

    /**
     * Classify the window whose top-left corner is @p sum / @p sq in the
     * integral tables. Only valid for interior windows.
     */
    bool
    classify(const int64_t *sum, const int64_t *sq,
             CascadeStats *stats) const
    {
        if (stats) {
            ++stats->windows;
        }
        const double inv_norm = invNorm(sum, sq);
        for (const Stage &stage : stages) {
            if (stats) {
                ++stats->stages_entered;
                stats->features_evaluated += stage.end - stage.begin;
            }
            double votes = 0.0;
            for (size_t i = stage.begin; i < stage.end; ++i) {
                const Entry &e = stumps[i];
                double value = 0.0;
                for (size_t r = e.rect_begin; r < e.rect_end; ++r) {
                    value = mulAdd(rects[r].weight,
                                   static_cast<double>(
                                       cornerSum(sum, rects[r].at)),
                                   value);
                }
                const double v = value * inv_norm;
                const bool fire =
                    e.polarity > 0 ? v < e.threshold : v >= e.threshold;
                if (fire) {
                    votes += e.alpha;
                }
            }
            if (votes < stage.threshold) {
                return false;
            }
        }
        if (stats) {
            ++stats->windows_accepted;
        }
        return true;
    }

#ifdef INCAM_VJ_LANES
    /**
     * classify() for the four windows at @p sum / @p sq + i * @p step,
     * i = 0..3, one per AVX2 double lane. Every stage runs for all four
     * under a live mask, and the cascade stops once no lane is live.
     * Each lane makes classify()'s IEEE operations in the same order, so
     * the hits and stats are those of four classify() calls. Returns the
     * hits as bit i for window i.
     */
    INCAM_AVX2 unsigned
    classify4(const int64_t *sum, const int64_t *sq, ptrdiff_t step,
              CascadeStats *stats) const
    {
        const __m256d inv_norm = invNorm4(sum, sq, step);
        unsigned live = 0xF;
        for (const Stage &stage : stages) {
            if (stats) {
                const auto n = static_cast<uint64_t>(__builtin_popcount(live));
                stats->stages_entered += n;
                stats->features_evaluated += n * (stage.end - stage.begin);
            }
            __m256d votes = _mm256_setzero_pd();
            for (size_t i = stage.begin; i < stage.end; ++i) {
                const Entry &e = stumps[i];
                __m256d value = _mm256_setzero_pd();
                for (size_t r = e.rect_begin; r < e.rect_end; ++r) {
                    value = mulAdd4(_mm256_set1_pd(rects[r].weight),
                                    cornerSums4(sum, step, rects[r].at),
                                    value);
                }
                const __m256d v = _mm256_mul_pd(value, inv_norm);
                const __m256d t = _mm256_set1_pd(e.threshold);
                const __m256d fire = e.polarity > 0
                                         ? _mm256_cmp_pd(v, t, _CMP_LT_OQ)
                                         : _mm256_cmp_pd(v, t, _CMP_GE_OQ);
                // A lane that does not fire adds +0.0, which can only
                // change the sign of a zero vote total; no comparison
                // below sees that.
                votes = _mm256_add_pd(
                    votes, _mm256_and_pd(fire, _mm256_set1_pd(e.alpha)));
            }
            live &= ~static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(
                votes, _mm256_set1_pd(stage.threshold), _CMP_LT_OQ)));
            if (live == 0) {
                break;
            }
        }
        if (stats) {
            stats->windows += 4;
            stats->lane_windows += 4;
            stats->windows_accepted +=
                static_cast<uint64_t>(__builtin_popcount(live));
        }
        return live;
    }
#endif

  private:
    /** windowInvNorm, via IntegralImage::rectStddev, on the tables. */
    double
    invNorm(const int64_t *sum, const int64_t *sq) const
    {
        const double mean =
            static_cast<double>(cornerSum(sum, norm)) / window_area;
        const double mean_sq =
            static_cast<double>(cornerSum(sq, norm)) / window_area;
        const double var = mulAdd(-mean, mean, mean_sq);
        const double sd = var > 0.0 ? std::sqrt(var) : 0.0;
        if (sd < 1e-6) {
            return 0.0;
        }
        return 1.0 / (window_area * sd);
    }

#ifdef INCAM_VJ_LANES
    /** invNorm in lanes; the selects replace its branches. */
    INCAM_AVX2 __m256d
    invNorm4(const int64_t *sum, const int64_t *sq, ptrdiff_t step) const
    {
        const __m256d area = _mm256_set1_pd(window_area);
        const __m256d mean =
            _mm256_div_pd(cornerSums4(sum, step, norm), area);
        const __m256d mean_sq =
            _mm256_div_pd(cornerSums4(sq, step, norm), area);
        const __m256d neg_mean =
            _mm256_xor_pd(mean, _mm256_set1_pd(-0.0));
        const __m256d var = mulAdd4(neg_mean, mean, mean_sq);
        const __m256d sd =
            _mm256_and_pd(_mm256_cmp_pd(var, _mm256_setzero_pd(), _CMP_GT_OQ),
                          _mm256_sqrt_pd(var));
        const __m256d inv =
            _mm256_div_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(area, sd));
        return _mm256_andnot_pd(
            _mm256_cmp_pd(sd, _mm256_set1_pd(1e-6), _CMP_LT_OQ), inv);
    }
#endif

    struct Rect4
    {
        Corners at;
        double weight; ///< rect weight, area-compensated
    };

    struct Entry
    {
        size_t rect_begin;
        size_t rect_end;
        double threshold;
        double alpha;
        int8_t polarity;
    };

    struct Stage
    {
        size_t begin;
        size_t end;
        double threshold;
    };

    std::vector<Rect4> rects;
    std::vector<Entry> stumps;
    std::vector<Stage> stages;
    Corners norm;
    double window_area;
    int reach_x;
    int reach_y;
};

} // namespace

Detector::Detector(const Cascade &cascade, DetectorParams params)
    : model(cascade), conf(params)
{
    incam_assert(conf.scale_factor > 1.0,
                 "scale factor must exceed 1.0, got ", conf.scale_factor);
    incam_assert(conf.adaptive_frac >= 0.0, "negative adaptive step");
}

std::vector<ScanScale>
Detector::scanScales(int width, int height) const
{
    const int base = model.baseSize();
    const int min_dim = std::min(width, height);
    const int max_window =
        static_cast<int>(conf.max_window_frac * min_dim);
    std::vector<ScanScale> scales;
    double scale = 1.0;
    for (;;) {
        const int window = static_cast<int>(std::lround(base * scale));
        if (window > max_window) {
            break;
        }
        ScanScale s;
        s.scale = scale;
        s.window = window;
        s.step = conf.stepFor(window);
        // A window larger than one image dimension (possible when
        // max_window_frac > 1) fits zero positions; the truncating
        // division alone would round -step < width-window < 0 up to
        // one position and scan out of bounds.
        s.nx = width >= window ? (width - window) / s.step + 1 : 0;
        s.ny = height >= window ? (height - window) / s.step + 1 : 0;
        scales.push_back(s);
        scale *= conf.scale_factor;
    }
    return scales;
}

std::vector<Rect>
Detector::rawHits(const ImageU8 &gray, CascadeStats *stats) const
{
    incam_assert(gray.channels() == 1, "detector expects grayscale input");
    const IntegralImage ii(gray, conf.exec);
    const int64_t *sum = ii.sumTable();
    const int64_t *sq = ii.sqTable();
    const auto stride = static_cast<ptrdiff_t>(ii.stride());
#ifdef INCAM_VJ_LANES
    // ScaleTable::classify4 runs where the host has AVX2.
    static const bool lanes = __builtin_cpu_supports("avx2");
#endif
    std::vector<Rect> hits;

    for (const ScanScale &s : scanScales(gray.width(), gray.height())) {
        const ScaleTable table(model, s, stride);
        const int interior_cols = table.interiorCols(s, gray.width());

        // Row-band parallel scan. Hits and stats accumulate per band
        // and merge in band order, so output is identical to the serial
        // row-major scan for every thread count.
        const uint64_t bands = parallel_chunk_count(0, s.ny, conf.exec);
        std::vector<std::vector<Rect>> band_hits(bands);
        std::vector<CascadeStats> band_stats(stats ? bands : 0);

        parallel_for_chunks(
            0, s.ny, conf.exec,
            [&](uint64_t band, int64_t r0, int64_t r1) {
                CascadeStats local;
                CascadeStats *lstats = stats ? &local : nullptr;
                for (int64_t row = r0; row < r1; ++row) {
                    const int y = static_cast<int>(row) * s.step;
                    // Interior windows read the tables directly; the
                    // right/bottom border goes through the reference
                    // classifier and its bounds-checked lookups.
                    const int fast_cols =
                        table.interiorRow(y, gray.height()) ? interior_cols
                                                            : 0;
                    int col = 0;
#ifdef INCAM_VJ_LANES
                    for (; lanes && col + 4 <= fast_cols; col += 4) {
                        const int x = col * s.step;
                        const ptrdiff_t origin = y * stride + x;
                        const unsigned hit = table.classify4(
                            sum + origin, sq + origin, s.step, lstats);
                        for (int i = 0; i < 4; ++i) {
                            if (hit >> i & 1u) {
                                band_hits[band].push_back(Rect{
                                    x + i * s.step, y, s.window, s.window});
                            }
                        }
                    }
#endif
                    for (; col < s.nx; ++col) {
                        const int x = col * s.step;
                        const ptrdiff_t origin = y * stride + x;
                        const bool hit =
                            col < fast_cols
                                ? table.classify(sum + origin, sq + origin,
                                                 lstats)
                                : model.classifyWindow(ii, x, y, s.scale,
                                                       lstats);
                        if (hit) {
                            band_hits[band].push_back(
                                Rect{x, y, s.window, s.window});
                        }
                    }
                }
                if (stats) {
                    band_stats[band] = local;
                }
            });

        for (uint64_t band = 0; band < bands; ++band) {
            hits.insert(hits.end(), band_hits[band].begin(),
                        band_hits[band].end());
            if (stats) {
                stats->merge(band_stats[band]);
            }
        }
    }
    return hits;
}

uint64_t
Detector::windowCount(int width, int height) const
{
    uint64_t windows = 0;
    for (const ScanScale &s : scanScales(width, height)) {
        windows += s.windowCount();
    }
    return windows;
}

std::vector<Detection>
groupDetections(const std::vector<Rect> &hits, double iou_threshold,
                int min_neighbors)
{
    // Union-find over pairwise-IoU edges.
    std::vector<int> parent(hits.size());
    std::iota(parent.begin(), parent.end(), 0);
    std::function<int(int)> find = [&](int a) {
        while (parent[a] != a) {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        return a;
    };
    for (size_t i = 0; i < hits.size(); ++i) {
        for (size_t j = i + 1; j < hits.size(); ++j) {
            if (hits[i].iou(hits[j]) >= iou_threshold) {
                parent[find(static_cast<int>(i))] =
                    find(static_cast<int>(j));
            }
        }
    }

    // Average the members of each cluster.
    struct Cluster
    {
        long sx = 0, sy = 0, sw = 0, sh = 0;
        int n = 0;
    };
    std::vector<Cluster> clusters(hits.size());
    for (size_t i = 0; i < hits.size(); ++i) {
        Cluster &c = clusters[static_cast<size_t>(find(static_cast<int>(i)))];
        c.sx += hits[i].x;
        c.sy += hits[i].y;
        c.sw += hits[i].w;
        c.sh += hits[i].h;
        ++c.n;
    }

    std::vector<Detection> out;
    for (const auto &c : clusters) {
        if (c.n >= std::max(1, min_neighbors)) {
            Detection d;
            d.box = Rect{static_cast<int>(c.sx / c.n),
                         static_cast<int>(c.sy / c.n),
                         static_cast<int>(c.sw / c.n),
                         static_cast<int>(c.sh / c.n)};
            d.neighbors = c.n;
            out.push_back(d);
        }
    }
    return out;
}

std::vector<Detection>
Detector::detect(const ImageU8 &gray, CascadeStats *stats) const
{
    return groupDetections(rawHits(gray, stats), 0.3, conf.min_neighbors);
}

} // namespace incam
