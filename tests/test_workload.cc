/**
 * @file
 * Tests for the synthetic workloads: faces, datasets, video, textures,
 * and stereo scenes with ground truth.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "image/metrics.hh"
#include "image/ops.hh"
#include "workload/dataset.hh"
#include "workload/facegen.hh"
#include "workload/stereo_scene.hh"
#include "workload/texture.hh"
#include "workload/video.hh"

namespace incam {
namespace {

TEST(FaceGen, DeterministicPerIdentity)
{
    const FaceParams a = identityParams(3);
    const FaceParams b = identityParams(3);
    EXPECT_DOUBLE_EQ(a.eye_spacing, b.eye_spacing);
    EXPECT_DOUBLE_EQ(a.skin_tone, b.skin_tone);

    const FaceParams c = identityParams(4);
    EXPECT_NE(a.eye_spacing, c.eye_spacing);
}

TEST(FaceGen, RenderIsDeterministic)
{
    const FaceParams id = identityParams(1);
    FaceVariation var;
    var.noise_seed = 9;
    const ImageF x = renderFace(id, var, 20);
    const ImageF y = renderFace(id, var, 20);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(x.at(i, i), y.at(i, i));
    }
}

TEST(FaceGen, FacesHaveHaarStructure)
{
    // Eye band darker than the cheek band below it — the contrast the
    // first Viola-Jones features rely on. Must hold for most identities.
    int structured = 0;
    const int n = 20;
    for (uint64_t id = 0; id < n; ++id) {
        FaceVariation var; // neutral pose
        var.noise = 0.0;
        const ImageF face = renderFace(identityParams(id), var, 40);
        double eye_band = 0.0, cheek_band = 0.0;
        for (int y = 14; y < 20; ++y) { // eye region rows
            for (int x = 8; x < 32; ++x) {
                eye_band += face.at(x, y);
            }
        }
        for (int y = 22; y < 28; ++y) { // cheeks below
            for (int x = 8; x < 32; ++x) {
                cheek_band += face.at(x, y);
            }
        }
        if (eye_band < cheek_band) {
            ++structured;
        }
    }
    EXPECT_GE(structured, n * 8 / 10);
}

TEST(FaceGen, IdentitiesAreVisuallyDistinct)
{
    FaceVariation var;
    var.noise = 0.0;
    const ImageF a = renderFace(identityParams(10), var, 20);
    const ImageF b = renderFace(identityParams(11), var, 20);
    EXPECT_GT(meanValue(absDiff(a, b)), 0.01);
}

TEST(FaceGen, DistractorsVary)
{
    const ImageF a = renderDistractor(1, 20);
    const ImageF b = renderDistractor(2, 20);
    EXPECT_GT(meanValue(absDiff(a, b)), 0.01);
}

// ------------------------------------------------------------------
// The generator's reference: verbatim copies of the one-pixel-at-a-time
// loops that renderDistractor, renderFace, toU8 and addGaussianNoise
// replaced (every pixel shaded, one gaussian() per pixel, lround); only
// the noise calls are qualified, to pick the copy here. The
// optimized generator must reproduce them bit for bit, in whatever
// floating-point contraction the build uses.
namespace ref {

/** Smooth 0->1 step across [edge - soft, edge + soft]. */
double
smoothEdge(double d, double soft)
{
    if (d <= -soft) {
        return 1.0;
    }
    if (d >= soft) {
        return 0.0;
    }
    const double t = (soft - d) / (2.0 * soft);
    return t * t * (3.0 - 2.0 * t);
}

/** Signed "distance" (in normalized units) outside a filled ellipse. */
double
ellipseField(double x, double y, double cx, double cy, double rx, double ry)
{
    const double dx = (x - cx) / rx;
    const double dy = (y - cy) / ry;
    return std::sqrt(dx * dx + dy * dy) - 1.0;
}

/** Blend @p paint over @p base with coverage alpha. */
double
over(double base, double paint, double alpha)
{
    return base * (1.0 - alpha) + paint * alpha;
}

void
addGaussianNoise(ImageF &img, double stddev, Rng &rng)
{
    for (float &v : img) {
        v = static_cast<float>(
            std::clamp(v + rng.gaussian(0.0, stddev), 0.0, 1.0));
    }
}

ImageU8
toU8(const ImageF &in)
{
    ImageU8 out(in.width(), in.height(), in.channels());
    const float *src = in.raw();
    uint8_t *dst = out.raw();
    for (size_t i = 0; i < in.sampleCount(); ++i) {
        const float v = std::clamp(src[i], 0.0f, 1.0f);
        dst[i] = static_cast<uint8_t>(std::lround(v * 255.0f));
    }
    return out;
}

/**
 * Shade one face pixel in normalized crop coordinates (u, v) in [0, 1].
 * Returns the pre-lighting intensity.
 */
double
shadeFace(const FaceParams &id, const FaceVariation &var, double u, double v,
          double background)
{
    // Framing: scale and offset the canonical face within the crop.
    const double cu = 0.5 + var.dx;
    const double cv = 0.52 + var.dy;
    const double rx = 0.38 * var.scale;
    const double ry = rx * id.face_aspect;

    // Yaw shifts internal features horizontally relative to the head
    // outline — a cheap but effective proxy for out-of-plane rotation.
    const double feat_shift = var.yaw * 0.08;

    const double soft = 0.015;

    double value = background;

    // Head.
    const double head = ellipseField(u, v, cu, cv, rx, ry);
    const double head_alpha = smoothEdge(head, soft);
    // Subtle vertical skin shading: forehead slightly brighter than chin.
    const double skin = id.skin_tone * (1.06 - 0.12 * (v - cv + ry) /
                                                  (2.0 * ry));
    value = over(value, skin, head_alpha);

    // Hair: the upper cap of the head ellipse.
    const double hair_line = cv - ry * (1.0 - 2.0 * id.hair_extent);
    if (head_alpha > 0.0) {
        const double hair_cov =
            smoothEdge(v - hair_line, 0.02) * head_alpha;
        value = over(value, id.hair_darkness, hair_cov);
    }

    // Eyes (and brows above them).
    const double eye_y = cv - ry + 2.0 * ry * id.eye_height;
    const double eye_dx = rx * id.eye_spacing * 2.6 * 0.5;
    for (int side = -1; side <= 1; side += 2) {
        const double ex = cu + side * eye_dx + feat_shift * rx;
        const double er = id.eye_size * rx * 2.6;
        const double eye =
            ellipseField(u, v, ex, eye_y, er, er * 0.62);
        value = over(value, id.eye_darkness, smoothEdge(eye, soft));

        // Brow: a thin dark ellipse above the eye.
        const double brow_y = eye_y - id.brow_offset * 2.0 * ry;
        const double brow =
            ellipseField(u, v, ex, brow_y, er * 1.25, er * 0.22);
        value = over(value, id.brow_darkness, smoothEdge(brow, soft));
    }

    // Nose: a narrow vertical wedge from between the eyes downward.
    const double nose_top = eye_y + 0.02;
    const double nose_len = id.nose_length * 2.0 * ry;
    const double nose_x = cu + feat_shift * rx * 1.4;
    if (v >= nose_top && v <= nose_top + nose_len) {
        const double t = (v - nose_top) / nose_len;
        const double half_w = (0.015 + 0.035 * t) * rx * 2.6;
        const double d = std::fabs(u - nose_x) - half_w;
        value = over(value, id.nose_darkness, smoothEdge(d, soft));
    }

    // Mouth.
    const double mouth_y = cv - ry + 2.0 * ry * id.mouth_height;
    const double mouth_x = cu + feat_shift * rx * 1.2;
    const double mouth = ellipseField(u, v, mouth_x, mouth_y,
                                      id.mouth_width * rx * 1.3,
                                      0.045 * ry);
    value = over(value, id.mouth_darkness, smoothEdge(mouth, soft));

    return value;
}

ImageF
renderFace(const FaceParams &id, const FaceVariation &var, int size)
{
    incam_assert(size >= 4, "face crop too small: ", size);
    ImageF img(size, size, 1);
    // 2x supersampling for stable small-size rendering (the NN study uses
    // crops as small as 5x5).
    const int ss = 2;
    for (int y = 0; y < size; ++y) {
        for (int x = 0; x < size; ++x) {
            double acc = 0.0;
            for (int sy = 0; sy < ss; ++sy) {
                for (int sx = 0; sx < ss; ++sx) {
                    const double u = (x + (sx + 0.5) / ss) / size;
                    const double v = (y + (sy + 0.5) / ss) / size;
                    // Background: soft gradient, distinct from skin.
                    const double bg = 0.42 + 0.1 * v;
                    acc += shadeFace(id, var, u, v, bg);
                }
            }
            double value = acc / (ss * ss);
            // Lighting: global gain plus a left-right gradient.
            const double u_mid = (x + 0.5) / size - 0.5;
            value *= var.illumination * (1.0 + var.light_gradient * u_mid);
            img.at(x, y) = static_cast<float>(std::clamp(value, 0.0, 1.0));
        }
    }
    if (var.noise > 0.0) {
        Rng noise_rng(var.noise_seed);
        ref::addGaussianNoise(img, var.noise, noise_rng);
    }
    return img;
}

ImageF
renderDistractor(uint64_t seed, int size)
{
    Rng rng(0xd157ac7 ^ seed);
    ImageF img(size, size, 1);
    const int kind = static_cast<int>(rng.below(4));
    switch (kind) {
      case 0: {
        // Smooth gradient patch.
        const double gx = rng.uniform(-1.0, 1.0);
        const double gy = rng.uniform(-1.0, 1.0);
        const double base = rng.uniform(0.2, 0.8);
        for (int y = 0; y < size; ++y) {
            for (int x = 0; x < size; ++x) {
                const double u = static_cast<double>(x) / size - 0.5;
                const double v = static_cast<double>(y) / size - 0.5;
                img.at(x, y) = static_cast<float>(
                    std::clamp(base + gx * u + gy * v, 0.0, 1.0));
            }
        }
        break;
      }
      case 1: {
        // Random blobs (foliage-like clutter).
        img.fill(static_cast<float>(rng.uniform(0.3, 0.7)));
        const int blobs = 4 + static_cast<int>(rng.below(6));
        for (int b = 0; b < blobs; ++b) {
            const double cx = rng.uniform(0.0, 1.0);
            const double cy = rng.uniform(0.0, 1.0);
            const double r = rng.uniform(0.08, 0.3);
            const double val = rng.uniform(0.1, 0.9);
            for (int y = 0; y < size; ++y) {
                for (int x = 0; x < size; ++x) {
                    const double u = (x + 0.5) / size;
                    const double v = (y + 0.5) / size;
                    const double d = ellipseField(u, v, cx, cy, r, r);
                    const double a = smoothEdge(d, 0.05);
                    img.at(x, y) = static_cast<float>(
                        over(img.at(x, y), val, a));
                }
            }
        }
        break;
      }
      case 2: {
        // Stripes (fences, blinds, brick courses).
        const double period = rng.uniform(0.08, 0.35);
        const bool horizontal = rng.chance(0.5);
        const double lo = rng.uniform(0.1, 0.4);
        const double hi = rng.uniform(0.6, 0.9);
        for (int y = 0; y < size; ++y) {
            for (int x = 0; x < size; ++x) {
                const double t = horizontal
                                     ? static_cast<double>(y) / size
                                     : static_cast<double>(x) / size;
                const double phase = std::fmod(t, period) / period;
                img.at(x, y) = static_cast<float>(phase < 0.5 ? lo : hi);
            }
        }
        break;
      }
      default: {
        // Inverted-contrast pseudo-face: bright "eyes" on dark skin —
        // a hard negative that defeats naive threshold detectors.
        for (int y = 0; y < size; ++y) {
            for (int x = 0; x < size; ++x) {
                const double u = (x + 0.5) / size;
                const double v = (y + 0.5) / size;
                double value = 0.35;
                const double head = ellipseField(u, v, 0.5, 0.52, 0.38, 0.46);
                value = over(value, 0.28, smoothEdge(head, 0.02));
                for (int side = -1; side <= 1; side += 2) {
                    const double eye = ellipseField(
                        u, v, 0.5 + side * 0.17, 0.42, 0.09, 0.06);
                    value = over(value, 0.85, smoothEdge(eye, 0.02));
                }
                img.at(x, y) = static_cast<float>(value);
            }
        }
        break;
      }
    }
    Rng noise_rng(rng.next());
    ref::addGaussianNoise(img, 0.02, noise_rng);
    return img;
}

} // namespace ref

/** Index of the first sample where @p a and @p b differ bitwise, or -1. */
template <typename T>
long
firstDifference(const Image<T> &a, const Image<T> &b)
{
    if (!a.sameShape(b)) {
        return 0;
    }
    for (size_t i = 0; i < a.sampleCount(); ++i) {
        if (std::memcmp(a.raw() + i, b.raw() + i, sizeof(T)) != 0) {
            return static_cast<long>(i);
        }
    }
    return -1;
}

TEST(FaceGen, RenderersMatchTheReferenceLoops)
{
    for (const int size : {5, 20, 24, 37, 96}) {
        for (uint64_t seed = 0; seed < 2000; ++seed) {
            ASSERT_EQ(firstDifference(renderDistractor(seed, size),
                                      ref::renderDistractor(seed, size)),
                      -1)
                << "distractor " << seed << " size " << size;
        }
    }

    Rng rng(17);
    for (int i = 0; i < 120; ++i) {
        const FaceParams id = identityParams(i % 40);
        FaceVariation var = i % 2 ? hardVariation(rng) : easyVariation(rng);
        for (const double noise : {var.noise, 0.0}) {
            var.noise = noise;
            for (const int size : {5, 20, 54}) {
                ASSERT_EQ(firstDifference(renderFace(id, var, size),
                                          ref::renderFace(id, var, size)),
                          -1)
                    << "face " << i << " size " << size << " noise "
                    << noise;
            }
        }
    }

    // toU8 at the ends, on both sides of every rounding tie (k + 0.5) /
    // 255 and on it where a float lands exactly, and out of range.
    std::vector<float> values = {0.0f,  1.0f,    -0.0f,  -1e-7f, -1.0f,
                                 1.5f,  1e30f,   -1e30f, 1.0000001f,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity()};
    for (int k = 0; k < 255; ++k) {
        float v = (k + 0.5f) / 255.0f;
        for (int step = 0; step < 4; ++step) {
            v = std::nextafter(v, 0.0f);
        }
        for (int step = 0; step < 9; ++step) {
            values.push_back(v);
            v = std::nextafter(v, 1.0f);
        }
    }
    ImageF strip(static_cast<int>(values.size()), 1, 1);
    std::copy(values.begin(), values.end(), strip.raw());
    EXPECT_EQ(firstDifference(toU8(strip), ref::toU8(strip)), -1);
}

TEST(Dataset, GeneratesRequestedCounts)
{
    FaceDatasetConfig cfg;
    cfg.identities = 5;
    cfg.per_identity = 4;
    cfg.distractors = 3;
    cfg.size = 16;
    const FaceDataset ds = FaceDataset::generate(cfg);
    EXPECT_EQ(ds.size(), 23u);
    EXPECT_EQ(ds.indicesOf(2).size(), 4u);
    int faces = 0;
    for (const auto &s : ds.samples()) {
        faces += s.is_face ? 1 : 0;
        EXPECT_EQ(s.image.width(), 16);
    }
    EXPECT_EQ(faces, 20);
}

TEST(Dataset, StratifiedSplit)
{
    FaceDatasetConfig cfg;
    cfg.identities = 10;
    cfg.per_identity = 10;
    const FaceDataset ds = FaceDataset::generate(cfg);
    FaceDataset train, test;
    ds.split(0.9, train, test);
    EXPECT_EQ(train.size(), 90u);
    EXPECT_EQ(test.size(), 10u);
    // Every identity appears in both halves.
    for (uint64_t id = 0; id < 10; ++id) {
        EXPECT_EQ(train.indicesOf(id).size(), 9u) << "identity " << id;
        EXPECT_EQ(test.indicesOf(id).size(), 1u) << "identity " << id;
    }
}

TEST(Texture, DeterministicAndBounded)
{
    const ImageF a = makeValueNoise(64, 32, 16, 3, 5);
    const ImageF b = makeValueNoise(64, 32, 16, 3, 5);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(a.at(i, i), b.at(i, i));
    }
    for (float v : a) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(Texture, WrapXTiles)
{
    const int period = 16;
    const ImageF t = makeValueNoise(64, 32, period, 1, 6, true);
    // With a wrapped lattice, column 0 and column 64 (=wrap) interpolate
    // identical lattice values; compare col 0 vs what col 64 would be by
    // regenerating at 65 width. Weaker check: first and last lattice
    // columns share values, so the horizontal seam is small.
    double seam = 0.0;
    for (int y = 0; y < 32; ++y) {
        seam += std::fabs(t.at(0, y) - t.at(63, y));
    }
    // Non-wrapped noise has a larger expected seam.
    const ImageF u = makeValueNoise(64, 32, period, 1, 6, false);
    double seam_u = 0.0;
    for (int y = 0; y < 32; ++y) {
        seam_u += std::fabs(u.at(0, y) - u.at(63, y));
    }
    EXPECT_LT(seam, seam_u + 1.0); // sanity: both finite
}

TEST(Texture, ColorizeShape)
{
    const ImageF g = makeValueNoise(16, 16, 8, 2, 7);
    const ImageF c = colorize(g, 8);
    EXPECT_EQ(c.channels(), 3);
    for (float v : c) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(Video, TruthIsConsistentWithSchedule)
{
    SecurityVideoConfig cfg;
    cfg.frames = 200;
    cfg.visits = 4;
    const SecurityVideo video(cfg);
    int face_frames = 0;
    for (int f = 0; f < video.frameCount(); ++f) {
        const FrameTruth t = video.truth(f);
        if (t.has_face) {
            ++face_frames;
            EXPECT_GE(t.face_box.x, 0);
            EXPECT_GE(t.face_box.y, 0);
            EXPECT_LE(t.face_box.x2(), cfg.width);
            EXPECT_LE(t.face_box.y2(), cfg.height);
        }
    }
    EXPECT_EQ(face_frames, video.faceFrames());
    EXPECT_GT(face_frames, 0);
    // Most of a security video is empty — the premise of the motion
    // detection optimization.
    EXPECT_LT(face_frames, cfg.frames / 2);
}

TEST(Video, EnrolledFractionRoughlyRespected)
{
    SecurityVideoConfig cfg;
    cfg.frames = 400;
    cfg.visits = 8;
    cfg.enrolled_fraction = 1.0;
    const SecurityVideo video(cfg);
    for (int f = 0; f < video.frameCount(); ++f) {
        const FrameTruth t = video.truth(f);
        if (t.has_face) {
            EXPECT_TRUE(t.is_enrolled);
        }
    }
}

TEST(Video, FramesRenderFacesWhereTruthSays)
{
    SecurityVideoConfig cfg;
    cfg.frames = 120;
    cfg.visits = 3;
    const SecurityVideo video(cfg);
    for (int f = 0; f < video.frameCount(); ++f) {
        const FrameTruth t = video.truth(f);
        if (!t.has_face) {
            continue;
        }
        const VideoFrame frame = video.frame(f);
        // The face region must differ from the (static) background:
        // compare against a frame known to be empty.
        EXPECT_TRUE(frame.truth.has_face);
        EXPECT_EQ(frame.image.width(), cfg.width);
        break;
    }
}

TEST(Video, DeterministicFrames)
{
    SecurityVideoConfig cfg;
    cfg.frames = 50;
    const SecurityVideo v1(cfg), v2(cfg);
    const VideoFrame a = v1.frame(20);
    const VideoFrame b = v2.frame(20);
    for (int y = 0; y < cfg.height; y += 7) {
        for (int x = 0; x < cfg.width; x += 7) {
            EXPECT_EQ(a.image.at(x, y), b.image.at(x, y));
        }
    }
}

TEST(StereoScene, GroundTruthConsistency)
{
    // right(x - d, y) must equal left(x, y) wherever the disparity is
    // valid (away from occlusions); verify on noise-free scenes.
    StereoSceneConfig cfg;
    cfg.width = 160;
    cfg.height = 120;
    cfg.noise = 0.0;
    cfg.max_disparity = 10;
    const StereoPair pair = makeStereoPair(cfg);

    int checked = 0, matched = 0;
    for (int y = 0; y < cfg.height; y += 2) {
        for (int x = 0; x < cfg.width; x += 2) {
            const int d = static_cast<int>(
                std::lround(pair.disparity.at(x, y)));
            if (x - d < 0) {
                continue;
            }
            ++checked;
            if (std::fabs(pair.left.at(x, y) -
                          pair.right.at(x - d, y)) < 1e-4) {
                ++matched;
            }
        }
    }
    ASSERT_GT(checked, 100);
    // Occlusion boundaries legitimately mismatch; the bulk must agree.
    EXPECT_GT(static_cast<double>(matched) / checked, 0.85);
}

TEST(StereoScene, DisparityWithinRange)
{
    StereoSceneConfig cfg;
    cfg.max_disparity = 16;
    const StereoPair pair = makeStereoPair(cfg);
    for (float d : pair.disparity) {
        EXPECT_GE(d, 0.0f);
        EXPECT_LE(d, 16.0f);
    }
}

TEST(StereoScene, LayersCreateDisparityVariation)
{
    StereoSceneConfig cfg;
    cfg.layers = 5;
    const StereoPair pair = makeStereoPair(cfg);
    float lo = 1e9f, hi = -1e9f;
    for (float d : pair.disparity) {
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    EXPECT_GT(hi - lo, 5.0f);
}

} // namespace
} // namespace incam
