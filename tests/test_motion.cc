/**
 * @file
 * Tests for the motion-detection block and its cost model.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hh"
#include "motion/motion.hh"
#include "workload/video.hh"

namespace incam {
namespace {

ImageU8
flat(int w, int h, uint8_t v)
{
    return ImageU8(w, h, 1, v);
}

TEST(Motion, FirstFrameNeverFires)
{
    MotionDetector md;
    EXPECT_FALSE(md.update(flat(16, 16, 200)));
}

TEST(Motion, StaticSceneStaysQuiet)
{
    MotionDetector md;
    md.update(flat(16, 16, 100));
    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(md.update(flat(16, 16, 100)));
        EXPECT_DOUBLE_EQ(md.lastChangedFraction(), 0.0);
    }
}

TEST(Motion, LargeChangeFires)
{
    MotionDetector md;
    md.update(flat(16, 16, 100));
    EXPECT_TRUE(md.update(flat(16, 16, 200)));
    EXPECT_DOUBLE_EQ(md.lastChangedFraction(), 1.0);
}

TEST(Motion, SmallChangeBelowAreaThresholdIgnored)
{
    MotionConfig cfg;
    cfg.area_threshold = 0.05;
    MotionDetector md(cfg);
    md.update(flat(20, 20, 100));
    ImageU8 frame = flat(20, 20, 100);
    // Change 4 of 400 pixels = 1% < 5%.
    for (int i = 0; i < 4; ++i) {
        frame.at(i, 0) = 255;
    }
    EXPECT_FALSE(md.update(frame));
    EXPECT_NEAR(md.lastChangedFraction(), 0.01, 1e-9);
}

TEST(Motion, PixelThresholdSuppressesNoise)
{
    MotionConfig cfg;
    cfg.pixel_threshold = 20;
    MotionDetector md(cfg);
    md.update(flat(16, 16, 100));
    EXPECT_FALSE(md.update(flat(16, 16, 115))); // delta 15 < 20
    EXPECT_TRUE(md.update(flat(16, 16, 140)));  // delta 25 > 20
}

TEST(Motion, ResetForgetsReference)
{
    MotionDetector md;
    md.update(flat(16, 16, 100));
    md.reset();
    EXPECT_FALSE(md.update(flat(16, 16, 250)));
}

TEST(Motion, ReferenceUpdatesEveryFrame)
{
    // Gradual drift below the per-frame threshold never fires.
    MotionConfig cfg;
    cfg.pixel_threshold = 30;
    MotionDetector md(cfg);
    md.update(flat(16, 16, 100));
    for (uint8_t v = 110; v < 200; v = static_cast<uint8_t>(v + 10)) {
        EXPECT_FALSE(md.update(flat(16, 16, v))) << static_cast<int>(v);
    }
}

TEST(Motion, DetectsSecurityVideoVisits)
{
    SecurityVideoConfig cfg;
    cfg.frames = 150;
    cfg.visits = 3;
    cfg.ambient_motion_prob = 0.0;
    const SecurityVideo video(cfg);

    MotionDetector md;
    int detected_during_faces = 0;
    int face_frames = 0;
    int fired_on_empty = 0;
    int empty_frames = 0;
    for (int f = 0; f < video.frameCount(); ++f) {
        const VideoFrame frame = video.frame(f);
        const bool moved = md.update(frame.image);
        if (frame.truth.has_face) {
            ++face_frames;
            detected_during_faces += moved ? 1 : 0;
        } else {
            ++empty_frames;
            fired_on_empty += moved ? 1 : 0;
        }
    }
    ASSERT_GT(face_frames, 0);
    // A walking person must trigger motion on most of their frames.
    EXPECT_GT(static_cast<double>(detected_during_faces) / face_frames,
              0.6);
    // Sensor noise alone must rarely trigger.
    EXPECT_LT(static_cast<double>(fired_on_empty) /
                  std::max(1, empty_frames),
              0.2);
}

TEST(Motion, ChangedCountMatchesPerPixelLoop)
{
    // 160x120 is a whole number of 64-sample blocks; 97x61 leaves a
    // tail of 29 samples.
    for (const auto &[w, h] : {std::pair{160, 120}, std::pair{97, 61}}) {
        Rng rng(static_cast<uint64_t>(w) * h);
        ImageU8 prev(w, h, 1);
        ImageU8 cur(w, h, 1);
        for (size_t i = 0; i < prev.sampleCount(); ++i) {
            // Some samples at 0 or 255, so the opposite extreme below
            // differs by 255 and threshold 254 still counts a few.
            const uint8_t p = rng.chance(0.02)
                                  ? static_cast<uint8_t>(rng.below(2) * 255)
                                  : static_cast<uint8_t>(rng.below(256));
            prev.raw()[i] = p;
            switch (rng.below(3)) {
            case 0:
                cur.raw()[i] = p;
                break;
            case 1:
                cur.raw()[i] = static_cast<uint8_t>(rng.below(256));
                break;
            default:
                cur.raw()[i] = p < 128 ? 255 : 0;
                break;
            }
        }
        for (int threshold : {0, 14, 254}) {
            size_t want = 0;
            for (int y = 0; y < h; ++y) {
                for (int x = 0; x < w; ++x) {
                    want += std::abs(static_cast<int>(cur.at(x, y)) -
                                     prev.at(x, y)) > threshold;
                }
            }
            ASSERT_GT(want, 0u);
            MotionConfig cfg;
            cfg.pixel_threshold = threshold;
            MotionDetector md(cfg);
            md.update(prev);
            md.update(cur);
            EXPECT_EQ(md.lastChangedFraction(),
                      static_cast<double>(want) /
                          static_cast<double>(w * h))
                << w << "x" << h << " threshold " << threshold;
        }
    }
}

TEST(MotionAccel, EnergyScalesWithPixels)
{
    const MotionAccelModel m;
    const Energy small = m.frameEnergy(160, 120);
    const Energy large = m.frameEnergy(320, 240);
    EXPECT_NEAR(large.j() / small.j(), 4.0, 1e-9);
    // QQVGA motion detection must be far below a uJ-scale NN inference:
    // it is the cheapest block by design.
    EXPECT_LT(small.uj(), 0.5);
}

TEST(MotionAccel, StreamingLatency)
{
    const MotionAccelModel m(AsicEnergyModel{}, Frequency::megahertz(30));
    EXPECT_NEAR(m.frameTime(160, 120).usec(), 19200.0 / 30.0, 1e-6);
}

} // namespace
} // namespace incam
