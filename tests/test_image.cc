/**
 * @file
 * Tests for the image container, raster operations and netpbm I/O.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "image/image.hh"
#include "image/image_io.hh"
#include "image/ops.hh"

namespace incam {
namespace {

TEST(Image, ConstructionAndAccess)
{
    ImageU8 img(4, 3, 1, 7);
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.channels(), 1);
    EXPECT_EQ(img.pixelCount(), 12u);
    EXPECT_EQ(img.at(2, 1), 7);
    img.at(2, 1) = 42;
    EXPECT_EQ(img.at(2, 1), 42);
    EXPECT_DOUBLE_EQ(img.byteSize().b(), 12.0);
}

TEST(Image, ClampedAccess)
{
    ImageU8 img(2, 2, 1);
    img.at(0, 0) = 1;
    img.at(1, 1) = 9;
    EXPECT_EQ(img.atClamped(-5, -5), 1);
    EXPECT_EQ(img.atClamped(10, 10), 9);
}

TEST(Image, ByteSizeTracksType)
{
    ImageF img(10, 10, 3);
    EXPECT_DOUBLE_EQ(img.byteSize().b(), 10 * 10 * 3 * 4.0);
}

TEST(Rect, IouAndIntersection)
{
    const Rect a{0, 0, 10, 10};
    const Rect b{5, 5, 10, 10};
    EXPECT_EQ(a.intersectionArea(b), 25);
    EXPECT_NEAR(a.iou(b), 25.0 / 175.0, 1e-12);
    const Rect c{20, 20, 5, 5};
    EXPECT_EQ(a.intersectionArea(c), 0);
    EXPECT_DOUBLE_EQ(a.iou(c), 0.0);
    EXPECT_DOUBLE_EQ(a.iou(a), 1.0);
}

TEST(Ops, FloatU8RoundTrip)
{
    ImageU8 img(8, 8, 1);
    for (int i = 0; i < 8; ++i) {
        img.at(i, i) = static_cast<uint8_t>(i * 30);
    }
    const ImageU8 back = toU8(toFloat(img));
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            EXPECT_EQ(back.at(x, y), img.at(x, y));
        }
    }
}

TEST(Ops, GrayConversionWeights)
{
    ImageF rgb(1, 1, 3);
    rgb.at(0, 0, 0) = 1.0f;
    EXPECT_NEAR(rgbToGray(rgb).at(0, 0), 0.299f, 1e-5);
    rgb.at(0, 0, 0) = 0.0f;
    rgb.at(0, 0, 1) = 1.0f;
    EXPECT_NEAR(rgbToGray(rgb).at(0, 0), 0.587f, 1e-5);
}

TEST(Ops, ResizeNearestPreservesCorners)
{
    ImageU8 img(4, 4, 1, 0);
    img.at(0, 0) = 10;
    img.at(3, 3) = 20;
    const ImageU8 up = resizeNearest(img, 8, 8);
    EXPECT_EQ(up.at(0, 0), 10);
    EXPECT_EQ(up.at(7, 7), 20);
    EXPECT_EQ(up.width(), 8);
}

TEST(Ops, ResizeBilinearConstantStaysConstant)
{
    ImageF img(5, 7, 1, 0.42f);
    const ImageF out = resizeBilinear(img, 13, 3);
    for (float v : out) {
        EXPECT_NEAR(v, 0.42f, 1e-6);
    }
}

TEST(Ops, ResizeBilinearIdentity)
{
    ImageF img(6, 6, 1);
    for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 6; ++x) {
            img.at(x, y) = static_cast<float>(x * 0.1 + y * 0.05);
        }
    }
    const ImageF same = resizeBilinear(img, 6, 6);
    for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 6; ++x) {
            EXPECT_NEAR(same.at(x, y), img.at(x, y), 1e-6);
        }
    }
}

TEST(Ops, CropExtractsRegion)
{
    ImageU8 img(10, 10, 1, 0);
    img.at(3, 4) = 99;
    const ImageU8 c = crop(img, Rect{3, 4, 2, 2});
    EXPECT_EQ(c.width(), 2);
    EXPECT_EQ(c.at(0, 0), 99);
}

TEST(Ops, CropAndResizeNearestMatchPerSampleLoops)
{
    for (int channels : {1, 3}) {
        Rng rng(static_cast<uint64_t>(channels));
        ImageU8 img(37, 23, channels);
        for (auto &v : img) {
            v = static_cast<uint8_t>(rng.below(256));
        }
        for (const Rect &r : {Rect{0, 0, 37, 23}, Rect{5, 3, 1, 1},
                              Rect{11, 7, 20, 16}, Rect{36, 0, 1, 23}}) {
            const ImageU8 got = crop(img, r);
            ASSERT_EQ(got.width(), r.w);
            ASSERT_EQ(got.height(), r.h);
            ASSERT_EQ(got.channels(), channels);
            for (int y = 0; y < r.h; ++y) {
                for (int x = 0; x < r.w; ++x) {
                    for (int c = 0; c < channels; ++c) {
                        ASSERT_EQ(got.at(x, y, c), img.at(r.x + x, r.y + y, c));
                    }
                }
            }
        }
        // Down, up, mixed and identity sizes.
        for (const auto &[w, h] : {std::pair{20, 20}, std::pair{80, 51},
                                  std::pair{9, 40}, std::pair{37, 23},
                                  std::pair{1, 1}}) {
            const ImageU8 got = resizeNearest(img, w, h);
            ASSERT_TRUE(got.sameShape(ImageU8(w, h, channels)));
            for (int y = 0; y < h; ++y) {
                const int sy = std::min(y * img.height() / h, img.height() - 1);
                for (int x = 0; x < w; ++x) {
                    const int sx = std::min(x * img.width() / w, img.width() - 1);
                    for (int c = 0; c < channels; ++c) {
                        ASSERT_EQ(got.at(x, y, c), img.at(sx, sy, c))
                            << w << "x" << h << " at " << x << "," << y;
                    }
                }
            }
        }
    }
}

TEST(Ops, FlipHorizontalInvolution)
{
    ImageU8 img(5, 3, 1);
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 5; ++x) {
            img.at(x, y) = static_cast<uint8_t>(x + 10 * y);
        }
    }
    const ImageU8 once = flipHorizontal(img);
    EXPECT_EQ(once.at(0, 0), 4);
    const ImageU8 twice = flipHorizontal(once);
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 5; ++x) {
            EXPECT_EQ(twice.at(x, y), img.at(x, y));
        }
    }
}

TEST(Ops, BoxFilterPreservesMeanOfConstant)
{
    ImageF img(9, 9, 1, 0.5f);
    const ImageF out = boxFilter(img, 2);
    for (float v : out) {
        EXPECT_NEAR(v, 0.5f, 1e-6);
    }
}

TEST(Ops, GaussianBlurReducesVariance)
{
    Rng rng(5);
    ImageF img(32, 32, 1, 0.5f);
    addGaussianNoise(img, 0.2, rng);
    const ImageF blurred = gaussianBlur(img, 1.5);

    auto variance = [](const ImageF &im) {
        const double m = meanValue(im);
        double acc = 0.0;
        for (float v : im) {
            acc += (v - m) * (v - m);
        }
        return acc / static_cast<double>(im.sampleCount());
    };
    EXPECT_LT(variance(blurred), variance(img) * 0.5);
}

TEST(Ops, Downsample2xHalvesSize)
{
    ImageF img(16, 10, 1, 0.3f);
    const ImageF half = downsample2x(img);
    EXPECT_EQ(half.width(), 8);
    EXPECT_EQ(half.height(), 5);
    for (float v : half) {
        EXPECT_NEAR(v, 0.3f, 1e-6);
    }
}

TEST(Ops, NormalizeZeroMeanUnitVar)
{
    ImageF img(8, 8, 1);
    Rng rng(6);
    for (float &v : img) {
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    const ImageF n = normalize(img);
    double sum = 0.0, sq = 0.0;
    for (float v : n) {
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n.sampleCount();
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(sq / n.sampleCount() - mean * mean, 1.0, 1e-4);
}

TEST(Ops, NormalizeConstantGivesZeros)
{
    ImageF img(4, 4, 1, 0.7f);
    const ImageF n = normalize(img);
    for (float v : n) {
        EXPECT_EQ(v, 0.0f);
    }
}

TEST(Ops, AbsDiffAndMean)
{
    ImageF a(2, 2, 1, 0.8f);
    ImageF b(2, 2, 1, 0.5f);
    const ImageF d = absDiff(a, b);
    for (float v : d) {
        EXPECT_NEAR(v, 0.3f, 1e-6);
    }
    EXPECT_NEAR(meanValue(d), 0.3, 1e-6);
}

TEST(Ops, DrawRectMarksBorder)
{
    ImageU8 img(10, 10, 1, 0);
    drawRect(img, Rect{2, 2, 4, 4}, 255);
    EXPECT_EQ(img.at(2, 2), 255);
    EXPECT_EQ(img.at(5, 2), 255);
    EXPECT_EQ(img.at(2, 5), 255);
    EXPECT_EQ(img.at(3, 3), 0); // interior untouched
}

TEST(ImageIo, PgmRoundTrip)
{
    ImageU8 img(13, 7, 1);
    for (int y = 0; y < 7; ++y) {
        for (int x = 0; x < 13; ++x) {
            img.at(x, y) = static_cast<uint8_t>((x * 19 + y * 31) & 0xff);
        }
    }
    const std::string path = "/tmp/incam_test_io.pgm";
    writePgm(img, path);
    const ImageU8 back = readPgm(path);
    ASSERT_TRUE(back.sameShape(img));
    for (int y = 0; y < 7; ++y) {
        for (int x = 0; x < 13; ++x) {
            EXPECT_EQ(back.at(x, y), img.at(x, y));
        }
    }
    std::remove(path.c_str());
}

TEST(ImageIo, PpmRoundTrip)
{
    ImageU8 img(5, 4, 3);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 5; ++x) {
            for (int c = 0; c < 3; ++c) {
                img.at(x, y, c) =
                    static_cast<uint8_t>((x + y * 5) * 3 + c);
            }
        }
    }
    const std::string path = "/tmp/incam_test_io.ppm";
    writePpm(img, path);
    const ImageU8 back = readPpm(path);
    ASSERT_TRUE(back.sameShape(img));
    EXPECT_EQ(back.at(4, 3, 2), img.at(4, 3, 2));
    std::remove(path.c_str());
}

} // namespace
} // namespace incam
