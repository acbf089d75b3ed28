/**
 * @file
 * Determinism contract of the parallelized kernels: for a fixed grain,
 * every thread count (1 / 2 / 8) must produce *bit-identical* results —
 * the property that lets the tradeoff studies enable parallelism
 * without perturbing any measured quantity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "bilateral/bilateral_filter.hh"
#include "bilateral/stereo.hh"
#include "common/rng.hh"
#include "image/integral.hh"
#include "nn/mlp.hh"
#include "vj/detector.hh"

namespace incam {
namespace {

ImageU8
randomU8(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageU8 img(w, h, 1);
    for (auto &v : img) {
        v = static_cast<uint8_t>(rng.below(256));
    }
    return img;
}

ImageF
randomF(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageF img(w, h, 1);
    for (auto &v : img) {
        v = static_cast<float>(rng.uniform());
    }
    return img;
}

void
expectImagesBitIdentical(const ImageF &a, const ImageF &b)
{
    ASSERT_TRUE(a.sameShape(b));
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            ASSERT_EQ(a.at(x, y), b.at(x, y)) << "pixel " << x << "," << y;
        }
    }
}

/** A tiny hand-built cascade that accepts roughly half of all windows. */
Cascade
syntheticCascade()
{
    HaarFeature f;
    f.kind = HaarFeature::Kind::Edge2H;
    f.n_rects = 2;
    f.rects[0] = {0, 0, 10, 20, 1};
    f.rects[1] = {10, 0, 10, 20, -1};

    Stump stump;
    stump.feature = 0;
    stump.threshold = 0.0;
    stump.polarity = 1;
    stump.alpha = 1.0;

    CascadeStage stage;
    stage.stumps.push_back(stump);
    stage.threshold = 0.5;
    return Cascade(20, {f}, {stage});
}

/**
 * A multi-stage cascade over 1-, 2- and 3-rect features, including
 * rects on the window's right and bottom edges whose rounded extent
 * reaches past the rounded window at some scales.
 *
 * Stage 0 passes windows whose mean/stddev is below 10, flat ones
 * included (inv_norm 0 makes every value 0), so a wrong norm rule
 * shows. Each hand-built feature then gets a stage that passes values
 * inside a band around zero, so a value that is off either way shows in
 * stages_entered. Boosted stages over pool features follow.
 */
Cascade
multiStageCascade()
{
    std::vector<HaarFeature> features;
    auto add = [&](std::initializer_list<WeightedRect> rects) {
        HaarFeature f;
        f.n_rects = 0;
        for (const WeightedRect &r : rects) {
            f.rects[f.n_rects++] = r;
        }
        features.push_back(f);
    };
    add({{0, 0, 20, 20, 1}});
    add({{0, 0, 10, 20, 1}, {10, 0, 10, 20, -1}});
    add({{0, 0, 20, 10, 1}, {0, 10, 20, 10, -1}});
    add({{0, 0, 7, 20, 1}, {7, 0, 6, 20, -2}, {13, 0, 7, 20, 1}});
    add({{13, 13, 7, 7, 1}, {3, 3, 9, 9, -1}});

    Rng rng(2024);
    std::vector<CascadeStage> stages;
    auto stump = [&](int feature, double threshold, int8_t polarity) {
        Stump st;
        st.feature = feature;
        st.threshold = threshold;
        st.polarity = polarity;
        st.alpha = rng.uniform(0.2, 1.5);
        return st;
    };
    // Passes iff every stump fires.
    auto all = [](std::vector<Stump> stumps) {
        double total = 0.0;
        for (const Stump &st : stumps) {
            total += st.alpha;
        }
        return CascadeStage{std::move(stumps), total};
    };
    stages.push_back(all({stump(0, 10.0, 1)}));
    for (int f = 1; f < static_cast<int>(features.size()); ++f) {
        stages.push_back(all({stump(f, rng.uniform(0.3, 0.8), 1),
                              stump(f, -rng.uniform(0.3, 0.8), -1)}));
    }

    const std::vector<HaarFeature> pool = enumerateFeatures(20, 3, 3);
    for (int size : {3, 5, 8}) {
        CascadeStage stage;
        double total = 0.0;
        for (int k = 0; k < size; ++k) {
            features.push_back(pool[rng.below(pool.size())]);
            stage.stumps.push_back(
                stump(static_cast<int>(features.size()) - 1,
                      rng.uniform(-0.05, 0.05), rng.below(2) ? 1 : -1));
            total += stage.stumps.back().alpha;
        }
        stage.threshold = 0.3 * total;
        stages.push_back(stage);
    }
    return Cascade(20, std::move(features), std::move(stages));
}

/** Smooth structure plus noise, so feature values spread both ways. */
ImageU8
sceneU8(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageU8 img(w, h, 1);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const double v = 128.0 + 70.0 * std::sin(x / 6.0) *
                                         std::cos(y / 4.5) +
                             rng.uniform(-25.0, 25.0);
            img.at(x, y) =
                static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
        }
    }
    return img;
}

/** The scan with no table: Cascade::classifyWindow at every window. */
std::vector<Rect>
naiveRawHits(const Cascade &cascade, const Detector &d, const ImageU8 &gray,
             CascadeStats *stats)
{
    const IntegralImage ii(gray);
    std::vector<Rect> hits;
    for (const ScanScale &s : d.scanScales(gray.width(), gray.height())) {
        for (int row = 0; row < s.ny; ++row) {
            for (int col = 0; col < s.nx; ++col) {
                const int x = col * s.step;
                const int y = row * s.step;
                if (cascade.classifyWindow(ii, x, y, s.scale, stats)) {
                    hits.push_back(Rect{x, y, s.window, s.window});
                }
            }
        }
    }
    return hits;
}

/** Whether Detector::rawHits should take its AVX2 lane body here. */
bool
hostHasLaneScan()
{
#if defined(__x86_64__) && defined(__GNUC__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

/**
 * rawHits against naiveRawHits at 1, 2 and 4 threads: hits and every
 * CascadeStats counter. Returns the lane_windows count, which must not
 * depend on the thread count either.
 */
uint64_t
expectScanMatchesReference(const Cascade &cascade, DetectorParams p,
                           const ImageU8 &gray, const std::string &where,
                           CascadeStats *reference = nullptr)
{
    CascadeStats want;
    const std::vector<Rect> expected =
        naiveRawHits(cascade, Detector(cascade, p), gray, &want);
    uint64_t lane_windows = 0;
    for (int threads : {1, 2, 4}) {
        p.exec = ExecPolicy{threads, 2};
        CascadeStats got;
        const std::vector<Rect> hits =
            Detector(cascade, p).rawHits(gray, &got);
        const std::string at =
            where + ", " + std::to_string(threads) + " threads";
        EXPECT_EQ(hits, expected) << at;
        EXPECT_EQ(got.windows, want.windows) << at;
        EXPECT_EQ(got.stages_entered, want.stages_entered) << at;
        EXPECT_EQ(got.features_evaluated, want.features_evaluated) << at;
        EXPECT_EQ(got.windows_accepted, want.windows_accepted) << at;
        if (threads == 1) {
            lane_windows = got.lane_windows;
        }
        EXPECT_EQ(got.lane_windows, lane_windows) << at;
    }
    if (reference) {
        *reference = want;
    }
    return lane_windows;
}

TEST(ParallelKernels, DetectorScanMatchesReferenceClassifier)
{
    const Cascade cascade = multiStageCascade();
    const bool lanes = hostHasLaneScan();
    bool saw_deep = false;
    for (const auto &[w, h] : {std::pair{97, 61}, std::pair{41, 23},
                              std::pair{160, 120}}) {
        const ImageU8 scene = sceneU8(w, h, static_cast<uint64_t>(w * h));
        const ImageU8 flat(w, h, 1, 77); // zero variance: inv_norm 0
        for (const ImageU8 *gray : {&scene, &flat}) {
            for (bool adaptive : {false, true}) {
                for (double factor : {1.1, 1.25}) {
                    DetectorParams p;
                    p.adaptive_step = adaptive;
                    p.static_step = 3;
                    p.adaptive_frac = 0.08;
                    p.scale_factor = factor;
                    const std::string where =
                        std::to_string(w) + "x" + std::to_string(h) +
                        (gray == &flat ? " flat" : " scene") +
                        (adaptive ? " adaptive" : " static") + " factor " +
                        std::to_string(factor);
                    CascadeStats want;
                    const uint64_t lane_windows = expectScanMatchesReference(
                        cascade, p, *gray, where, &want);
                    if (gray == &scene) {
                        EXPECT_GT(want.stages_entered, 2 * want.windows);
                        saw_deep = saw_deep || (want.windows_accepted > 0 &&
                                                want.windows_accepted <
                                                    want.windows);
                    }
                    // Every size has four interior windows in a row at
                    // the first scale, so a host with AVX2 must have
                    // classified some in lanes.
                    EXPECT_EQ(lane_windows > 0, lanes) << where;
                }
            }
        }
    }
    EXPECT_TRUE(saw_deep) << "cascade never split windows at the last stage";

    // One scale (window 20, the largest that fits 24 rows), step 1. At
    // scale 1 every rectangle ends inside the window, so all w - 19
    // columns of all 5 rows are interior: widths 40..43 leave 1, 2, 3
    // and 0 columns after the groups of four. The left 30 columns are
    // flat, so windows there have inv_norm 0, and groups across x = 10
    // mix them with textured ones.
    bool saw_split_group = false;
    bool saw_mixed_norm = false;
    for (int w = 40; w <= 43; ++w) {
        const int h = 24;
        ImageU8 gray = sceneU8(w, h, static_cast<uint64_t>(w));
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < 30; ++x) {
                gray.at(x, y) = 90;
            }
        }
        DetectorParams p;
        p.adaptive_step = false;
        p.static_step = 1;
        const int cols = w - 19;
        const std::string where = std::to_string(w) + "x24, step 1";
        const uint64_t lane_windows =
            expectScanMatchesReference(cascade, p, gray, where);
        EXPECT_EQ(lane_windows, lanes ? 5u * (cols / 4 * 4) : 0u) << where;

        // What the groups of four hold, from the reference per window.
        const IntegralImage ii(gray);
        for (int y = 0; y < 5; ++y) {
            for (int g = 0; g + 4 <= cols; g += 4) {
                std::vector<uint64_t> rejected_at;
                int flat_lanes = 0;
                for (int x = g; x < g + 4; ++x) {
                    CascadeStats one;
                    if (!cascade.classifyWindow(ii, x, y, 1.0, &one)) {
                        rejected_at.push_back(one.stages_entered);
                    }
                    flat_lanes += windowInvNorm(ii, x, y, 20) == 0.0;
                }
                saw_split_group =
                    saw_split_group ||
                    (rejected_at.size() >= 2 &&
                     *std::min_element(rejected_at.begin(),
                                       rejected_at.end()) !=
                         *std::max_element(rejected_at.begin(),
                                           rejected_at.end()));
                saw_mixed_norm =
                    saw_mixed_norm || (flat_lanes > 0 && flat_lanes < 4);
            }
        }
    }
    EXPECT_TRUE(saw_split_group)
        << "no group of four had lanes rejected at different stages";
    EXPECT_TRUE(saw_mixed_norm)
        << "no group of four mixed flat and textured windows";
}

/**
 * One-stump cascades whose threshold is the reference's own value of
 * its feature at one window of the 1.25 scale. That window sits on the
 * tie, so a scan whose value is one ulp off there — a multiply-add
 * fused where the reference rounds twice, or the reverse — or that
 * breaks the tie the other way gets a different hit list. Scale 1.25
 * gives the rectangles non-integer compensated weights, so fusing
 * changes the products too, not only the window variance.
 */
TEST(ParallelKernels, DetectorScanMatchesReferenceOnTies)
{
    const ImageU8 gray = sceneU8(64, 48, 5);
    const IntegralImage ii(gray);
    const std::vector<HaarFeature> pool = enumerateFeatures(20, 3, 3);
    DetectorParams p;
    p.adaptive_step = false;
    p.static_step = 1;
    p.max_window_frac = 0.625; // windows 20 and 25 only
    Rng rng(77);
    for (int trial = 0; trial < 24; ++trial) {
        const HaarFeature &f = pool[rng.below(pool.size())];
        // Inside the first lane groups of an interior row.
        const int x = static_cast<int>(rng.below(16));
        const int y = static_cast<int>(rng.below(12));
        const double tie =
            f.evaluate(ii, x, y, 1.25, windowInvNorm(ii, x, y, 25));
        for (int8_t polarity : {int8_t{1}, int8_t{-1}}) {
            Stump stump;
            stump.feature = 0;
            stump.threshold = tie;
            stump.polarity = polarity;
            stump.alpha = 1.0;
            const Cascade cascade(20, {f}, {CascadeStage{{stump}, 1.0}});
            expectScanMatchesReference(
                cascade, p, gray,
                "trial " + std::to_string(trial) + " polarity " +
                    std::to_string(polarity));
        }
    }
}

TEST(ParallelKernels, IntegralImageMatchesSerialExactly)
{
    const ImageU8 img = randomU8(163, 121, 9001);
    const IntegralImage serial(img);
    const IntegralImage threaded(img, ExecPolicy{8, 3});
    EXPECT_EQ(serial.rectSum(0, 0, 163, 121),
              threaded.rectSum(0, 0, 163, 121));
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
        const int x = static_cast<int>(rng.below(163));
        const int y = static_cast<int>(rng.below(121));
        const int w = 1 + static_cast<int>(rng.below(163 - x));
        const int h = 1 + static_cast<int>(rng.below(121 - y));
        ASSERT_EQ(serial.rectSum(x, y, w, h),
                  threaded.rectSum(x, y, w, h));
        ASSERT_EQ(serial.rectSumSq(x, y, w, h),
                  threaded.rectSumSq(x, y, w, h));
    }
}

TEST(ParallelKernels, SplatBlurSliceBitIdenticalAcrossThreadCounts)
{
    const ImageF guide = randomF(97, 53, 31);
    const ImageF value = randomF(97, 53, 32);
    const ImageF conf = randomF(97, 53, 33);

    auto run = [&](int threads) {
        BilateralGrid g(97, 53, 4.0, 8);
        const ExecPolicy pol{threads, 2};
        g.splat(guide, value, &conf, nullptr, pol);
        g.blur(nullptr, pol);
        return std::pair<BilateralGrid, ImageF>(
            g, g.slice(guide, 0.0f, nullptr, pol));
    };

    const auto [g1, s1] = run(1);
    for (int threads : {2, 8}) {
        const auto [gn, sn] = run(threads);
        for (int k = 0; k < g1.gz(); ++k) {
            for (int j = 0; j < g1.gy(); ++j) {
                for (int i = 0; i < g1.gx(); ++i) {
                    ASSERT_EQ(g1.vertexValue(i, j, k),
                              gn.vertexValue(i, j, k))
                        << threads << " threads, vertex " << i << ","
                        << j << "," << k;
                    ASSERT_EQ(g1.vertexWeight(i, j, k),
                              gn.vertexWeight(i, j, k));
                }
            }
        }
        expectImagesBitIdentical(s1, sn);
    }
}

TEST(ParallelKernels, BilateralFilterGridMatchesSerial)
{
    const ImageF img = randomF(64, 48, 77);
    const ImageF serial = bilateralFilterGrid(img, 4.0, 8, 2);
    const ImageF threaded = bilateralFilterGrid(img, 4.0, 8, 2, nullptr,
                                                ExecPolicy{8, 1});
    expectImagesBitIdentical(serial, threaded);
}

TEST(ParallelKernels, DetectorHitsAndStatsBitIdenticalAcrossThreads)
{
    const Cascade cascade = syntheticCascade();
    const ImageU8 gray = randomU8(160, 120, 4242);

    auto run = [&](int threads, CascadeStats *stats) {
        DetectorParams p;
        p.adaptive_step = false;
        p.static_step = 4;
        p.scale_factor = 1.4;
        p.exec = ExecPolicy{threads, 2};
        const Detector d(cascade, p);
        return d.rawHits(gray, stats);
    };

    CascadeStats stats1;
    const std::vector<Rect> hits1 = run(1, &stats1);
    EXPECT_GT(hits1.size(), 0u);
    EXPECT_LT(hits1.size(), stats1.windows); // selective, not accept-all

    for (int threads : {2, 8}) {
        CascadeStats statsn;
        const std::vector<Rect> hitsn = run(threads, &statsn);
        ASSERT_EQ(hits1.size(), hitsn.size()) << threads << " threads";
        for (size_t i = 0; i < hits1.size(); ++i) {
            ASSERT_EQ(hits1[i], hitsn[i]) << "hit " << i;
        }
        EXPECT_EQ(stats1.windows, statsn.windows);
        EXPECT_EQ(stats1.stages_entered, statsn.stages_entered);
        EXPECT_EQ(stats1.features_evaluated, statsn.features_evaluated);
        EXPECT_EQ(stats1.windows_accepted, statsn.windows_accepted);
    }
}

TEST(ParallelKernels, DetectorStatsStillMatchWindowCount)
{
    const Cascade cascade = syntheticCascade();
    const ImageU8 gray = randomU8(97, 61, 5);
    DetectorParams p;
    p.adaptive_step = true;
    p.adaptive_frac = 0.08;
    p.scale_factor = 1.3;
    p.exec = ExecPolicy{4, 1};
    const Detector d(cascade, p);
    CascadeStats stats;
    d.rawHits(gray, &stats);
    EXPECT_EQ(stats.windows, d.windowCount(97, 61));
}

TEST(ParallelKernels, OversizedWindowsScanZeroPositions)
{
    // max_window_frac > 1 lets the sweep enumerate windows larger than
    // an image dimension; those scales must contribute zero windows
    // (not scan out of bounds, and not inflate windowCount).
    const Cascade cascade = syntheticCascade();
    const ImageU8 gray = randomU8(41, 29, 8);
    DetectorParams p;
    p.adaptive_step = true;
    p.adaptive_frac = 0.05;
    p.scale_factor = 1.05; // fine sweep hits window = dim + small
    p.max_window_frac = 2.0;
    const Detector d(cascade, p);
    CascadeStats stats;
    d.rawHits(gray, &stats);
    EXPECT_EQ(stats.windows, d.windowCount(41, 29));
    EXPECT_GT(stats.windows, 0u);
}

TEST(ParallelKernels, MlpForwardBatchMatchesSerialForward)
{
    const Mlp net(MlpTopology{{64, 32, 8, 1}}, 12);
    Rng rng(99);
    std::vector<std::vector<float>> inputs;
    for (int i = 0; i < 37; ++i) {
        std::vector<float> in(64);
        for (auto &v : in) {
            v = static_cast<float>(rng.uniform());
        }
        inputs.push_back(std::move(in));
    }
    const auto batch = net.forwardBatch(inputs, ExecPolicy{8, 3});
    ASSERT_EQ(batch.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
        const auto one = net.forward(inputs[i]);
        ASSERT_EQ(batch[i].size(), one.size());
        for (size_t o = 0; o < one.size(); ++o) {
            ASSERT_EQ(batch[i][o], one[o]);
        }
    }
}

TEST(ParallelKernels, BssaPipelineBitIdenticalAcrossThreads)
{
    const ImageF left = randomF(48, 36, 1);
    const ImageF right = randomF(48, 36, 2);

    auto run = [&](int threads) {
        BssaConfig cfg;
        cfg.max_disparity = 8;
        cfg.solver_iterations = 3;
        cfg.exec = ExecPolicy{threads, 2};
        return BssaStereo(cfg).compute(left, right);
    };
    const BssaResult serial = run(1);
    const BssaResult threaded = run(8);
    expectImagesBitIdentical(serial.raw_disparity, threaded.raw_disparity);
    expectImagesBitIdentical(serial.confidence, threaded.confidence);
    expectImagesBitIdentical(serial.disparity, threaded.disparity);
}

} // namespace
} // namespace incam
