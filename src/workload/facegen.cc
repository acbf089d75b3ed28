#include "workload/facegen.hh"

#include <cmath>
#include <vector>

#include "image/ops.hh"

namespace incam {

namespace {

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

} // namespace

FaceParams
identityParams(uint64_t identity_id)
{
    // Identity 0, 1, 2, ... map to deterministic, well-separated parameter
    // draws. A dedicated stream per identity keeps the mapping stable even
    // if fields are added later.
    Rng rng(0xfacef00du ^ (identity_id * 0x9e3779b97f4a7c15ull));
    FaceParams p;
    p.face_aspect = rng.uniform(1.18, 1.45);
    p.skin_tone = rng.uniform(0.55, 0.82);
    p.eye_size = rng.uniform(0.065, 0.110);
    p.eye_spacing = rng.uniform(0.30, 0.42);
    p.eye_height = rng.uniform(0.38, 0.46);
    p.eye_darkness = rng.uniform(0.15, 0.38);
    p.brow_offset = rng.uniform(0.055, 0.095);
    p.brow_darkness = rng.uniform(0.22, 0.45);
    p.mouth_width = rng.uniform(0.24, 0.44);
    p.mouth_height = rng.uniform(0.72, 0.80);
    p.mouth_darkness = rng.uniform(0.28, 0.48);
    p.nose_length = rng.uniform(0.16, 0.27);
    p.nose_darkness = p.skin_tone * rng.uniform(0.72, 0.88);
    p.hair_darkness = rng.uniform(0.08, 0.35);
    p.hair_extent = rng.uniform(0.18, 0.38);
    return p;
}

FaceVariation
easyVariation(Rng &rng)
{
    FaceVariation v;
    v.yaw = rng.uniform(-0.18, 0.18);
    v.illumination = rng.uniform(0.85, 1.15);
    v.light_gradient = rng.uniform(-0.10, 0.10);
    v.noise = rng.uniform(0.005, 0.02);
    v.scale = rng.uniform(0.95, 1.05);
    v.dx = rng.uniform(-0.03, 0.03);
    v.dy = rng.uniform(-0.03, 0.03);
    v.noise_seed = rng.next();
    return v;
}

FaceVariation
hardVariation(Rng &rng)
{
    FaceVariation v;
    v.yaw = rng.uniform(-0.55, 0.55);
    v.illumination = rng.uniform(0.60, 1.40);
    v.light_gradient = rng.uniform(-0.35, 0.35);
    v.noise = rng.uniform(0.01, 0.05);
    v.scale = rng.uniform(0.85, 1.18);
    v.dx = rng.uniform(-0.08, 0.08);
    v.dy = rng.uniform(-0.08, 0.08);
    v.noise_seed = rng.next();
    return v;
}

namespace {

/**
 * Half-extent, along one axis, beyond which an ellipseField of radius
 * @p radius on that axis is at least @p soft + 0.01 outside the edge,
 * so smoothEdge(field, soft) is exactly 0 there and over() with that
 * coverage returns its base unchanged.
 */
double
edgeReach(double radius, double soft)
{
    return radius * (1.01 + soft);
}

/** Centres (i + (s + 0.5) / ss) / size of the ss subpixels s of each of
 *  the size pixels i of an axis, pixel-major. */
std::vector<double>
pixelCentres(int size, int ss = 1)
{
    std::vector<double> c(static_cast<size_t>(size) * ss);
    for (int i = 0; i < size; ++i) {
        for (int s = 0; s < ss; ++s) {
            c[static_cast<size_t>(i) * ss + s] = (i + (s + 0.5) / ss) / size;
        }
    }
    return c;
}

/**
 * The pixels [lo, hi) of a size-pixel axis whose centres can lie
 * within @p reach of @p centre, padded by one pixel on each side.
 */
struct Span
{
    int lo, hi;

    Span(double centre, double reach, int size)
        : lo(std::max(0, static_cast<int>(std::floor(
                             (centre - reach) * size - 0.5)) - 1)),
          hi(std::min(size, static_cast<int>(std::ceil(
                                (centre + reach) * size - 0.5)) + 2))
    {
    }
};

/** An elliptical feature with a soft edge, and the box outside which it
 *  paints nothing. */
struct Feature
{
    double x = 0.0, y = 0.0, rx = 1.0, ry = 1.0, soft = 0.0;
    double reach_x = 0.0, reach_y = 0.0;

    Feature() = default;

    Feature(double cx, double cy, double rx_, double ry_, double soft_)
        : x(cx), y(cy), rx(rx_), ry(ry_), soft(soft_),
          reach_x(edgeReach(rx_, soft_)), reach_y(edgeReach(ry_, soft_))
    {
    }

    bool
    reaches(double u, double v) const
    {
        return std::fabs(u - x) < reach_x && std::fabs(v - y) < reach_y;
    }

    /** Paint @p value over @p base at (u, v). */
    double
    paint(double base, double value, double u, double v) const
    {
        if (!reaches(u, v)) {
            return base;
        }
        return over(base, value,
                    smoothEdge(ellipseField(u, v, x, y, rx, ry), soft));
    }
};

/**
 * One face's geometry in normalized crop coordinates, computed once per
 * face; shade() gives the pre-lighting intensity at (u, v) in [0, 1].
 */
struct FaceShape
{
    static constexpr double kSoft = 0.015;

    const FaceParams &id;
    Feature head, eyes[2], brows[2], mouth;
    double hair_line, nose_top, nose_len, nose_x;

    FaceShape(const FaceParams &p, const FaceVariation &var) : id(p)
    {
        // Framing: scale and offset the canonical face within the crop.
        const double cu = 0.5 + var.dx;
        const double cv = 0.52 + var.dy;
        const double rx = 0.38 * var.scale;
        const double ry = rx * id.face_aspect;
        head = Feature(cu, cv, rx, ry, kSoft);

        // Yaw shifts internal features horizontally relative to the head
        // outline — a cheap but effective proxy for out-of-plane rotation.
        const double feat_shift = var.yaw * 0.08;

        // Hair: the upper cap of the head ellipse.
        hair_line = cv - ry * (1.0 - 2.0 * id.hair_extent);

        // Eyes (and brows above them).
        const double eye_y = cv - ry + 2.0 * ry * id.eye_height;
        const double eye_dx = rx * id.eye_spacing * 2.6 * 0.5;
        for (int side = -1; side <= 1; side += 2) {
            const double ex = cu + side * eye_dx + feat_shift * rx;
            const double er = id.eye_size * rx * 2.6;
            eyes[side > 0] = Feature(ex, eye_y, er, er * 0.62, kSoft);

            // Brow: a thin dark ellipse above the eye.
            const double brow_y = eye_y - id.brow_offset * 2.0 * ry;
            brows[side > 0] =
                Feature(ex, brow_y, er * 1.25, er * 0.22, kSoft);
        }

        // Nose: a narrow vertical wedge from between the eyes downward.
        nose_top = eye_y + 0.02;
        nose_len = id.nose_length * 2.0 * ry;
        nose_x = cu + feat_shift * rx * 1.4;

        // Mouth.
        const double mouth_y = cv - ry + 2.0 * ry * id.mouth_height;
        const double mouth_x = cu + feat_shift * rx * 1.2;
        mouth = Feature(mouth_x, mouth_y, id.mouth_width * rx * 1.3,
                        0.045 * ry, kSoft);
    }

    double
    shade(double u, double v, double background) const
    {
        double value = background;

        // Head.
        if (head.reaches(u, v)) {
            const double cv = head.y, ry = head.ry;
            const double head_alpha = smoothEdge(
                ellipseField(u, v, head.x, cv, head.rx, ry), kSoft);
            // Subtle vertical skin shading: forehead slightly brighter
            // than chin.
            const double skin = id.skin_tone * (1.06 - 0.12 * (v - cv + ry) /
                                                          (2.0 * ry));
            value = over(value, skin, head_alpha);
            if (head_alpha > 0.0) {
                const double hair_cov =
                    smoothEdge(v - hair_line, 0.02) * head_alpha;
                value = over(value, id.hair_darkness, hair_cov);
            }
        }

        for (int side = 0; side < 2; ++side) {
            value = eyes[side].paint(value, id.eye_darkness, u, v);
            value = brows[side].paint(value, id.brow_darkness, u, v);
        }

        if (v >= nose_top && v <= nose_top + nose_len) {
            const double t = (v - nose_top) / nose_len;
            const double half_w = (0.015 + 0.035 * t) * head.rx * 2.6;
            const double d = std::fabs(u - nose_x) - half_w;
            value = over(value, id.nose_darkness, smoothEdge(d, kSoft));
        }

        return mouth.paint(value, id.mouth_darkness, u, v);
    }
};

} // namespace

ImageF
renderFace(const FaceParams &id, const FaceVariation &var, int size)
{
    incam_assert(size >= 4, "face crop too small: ", size);
    ImageF img(size, size, 1);
    const FaceShape shape(id, var);
    // 2x supersampling for stable small-size rendering (the NN study uses
    // crops as small as 5x5).
    const int ss = 2;
    const std::vector<double> sub = pixelCentres(size, ss);
    for (int y = 0; y < size; ++y) {
        float *row = img.raw() + static_cast<size_t>(y) * size;
        for (int x = 0; x < size; ++x) {
            double acc = 0.0;
            for (int sy = 0; sy < ss; ++sy) {
                const double v = sub[y * ss + sy];
                // Background: soft gradient, distinct from skin.
                const double bg = 0.42 + 0.1 * v;
                for (int sx = 0; sx < ss; ++sx) {
                    acc += shape.shade(sub[x * ss + sx], v, bg);
                }
            }
            double value = acc / (ss * ss);
            // Lighting: global gain plus a left-right gradient.
            const double u_mid = (x + 0.5) / size - 0.5;
            value *= var.illumination * (1.0 + var.light_gradient * u_mid);
            row[x] = static_cast<float>(std::clamp(value, 0.0, 1.0));
        }
    }
    if (var.noise > 0.0) {
        Rng noise_rng(var.noise_seed);
        addGaussianNoise(img, var.noise, noise_rng);
    }
    return img;
}

ImageF
renderDistractor(uint64_t seed, int size)
{
    Rng rng(0xd157ac7 ^ seed);
    ImageF img(size, size, 1);
    float *px = img.raw();
    const std::vector<double> centre = pixelCentres(size);
    const int kind = static_cast<int>(rng.below(4));
    switch (kind) {
      case 0: {
        // Smooth gradient patch.
        const double gx = rng.uniform(-1.0, 1.0);
        const double gy = rng.uniform(-1.0, 1.0);
        const double base = rng.uniform(0.2, 0.8);
        for (int y = 0; y < size; ++y) {
            float *row = px + static_cast<size_t>(y) * size;
            const double v = static_cast<double>(y) / size - 0.5;
            for (int x = 0; x < size; ++x) {
                const double u = static_cast<double>(x) / size - 0.5;
                row[x] = static_cast<float>(
                    std::clamp(base + gx * u + gy * v, 0.0, 1.0));
            }
        }
        break;
      }
      case 1: {
        // Random blobs (foliage-like clutter). Each blob visits only the
        // pixels its soft edge can reach.
        img.fill(static_cast<float>(rng.uniform(0.3, 0.7)));
        const int blobs = 4 + static_cast<int>(rng.below(6));
        for (int b = 0; b < blobs; ++b) {
            const double cx = rng.uniform(0.0, 1.0);
            const double cy = rng.uniform(0.0, 1.0);
            const double r = rng.uniform(0.08, 0.3);
            const double val = rng.uniform(0.1, 0.9);
            const double reach = edgeReach(r, 0.05);
            const Span xs(cx, reach, size), ys(cy, reach, size);
            for (int y = ys.lo; y < ys.hi; ++y) {
                float *row = px + static_cast<size_t>(y) * size;
                const double v = centre[y];
                for (int x = xs.lo; x < xs.hi; ++x) {
                    const double d =
                        ellipseField(centre[x], v, cx, cy, r, r);
                    const double a = smoothEdge(d, 0.05);
                    row[x] = static_cast<float>(over(row[x], val, a));
                }
            }
        }
        break;
      }
      case 2: {
        // Stripes (fences, blinds, brick courses): one level per row or
        // per column.
        const double period = rng.uniform(0.08, 0.35);
        const bool horizontal = rng.chance(0.5);
        const double lo = rng.uniform(0.1, 0.4);
        const double hi = rng.uniform(0.6, 0.9);
        std::vector<float> level(size);
        for (int i = 0; i < size; ++i) {
            const double t = static_cast<double>(i) / size;
            const double phase = std::fmod(t, period) / period;
            level[i] = static_cast<float>(phase < 0.5 ? lo : hi);
        }
        for (int y = 0; y < size; ++y) {
            float *row = px + static_cast<size_t>(y) * size;
            for (int x = 0; x < size; ++x) {
                row[x] = level[horizontal ? y : x];
            }
        }
        break;
      }
      default: {
        // Inverted-contrast pseudo-face: bright "eyes" on dark skin —
        // a hard negative that defeats naive threshold detectors.
        const Feature eyes[2] = {Feature(0.5 - 0.17, 0.42, 0.09, 0.06, 0.02),
                                 Feature(0.5 + 0.17, 0.42, 0.09, 0.06, 0.02)};
        for (int y = 0; y < size; ++y) {
            float *row = px + static_cast<size_t>(y) * size;
            const double v = centre[y];
            for (int x = 0; x < size; ++x) {
                const double u = centre[x];
                double value = 0.35;
                const double head = ellipseField(u, v, 0.5, 0.52, 0.38, 0.46);
                value = over(value, 0.28, smoothEdge(head, 0.02));
                for (const Feature &eye : eyes) {
                    value = eye.paint(value, 0.85, u, v);
                }
                row[x] = static_cast<float>(value);
            }
        }
        break;
      }
    }
    Rng noise_rng(rng.next());
    addGaussianNoise(img, 0.02, noise_rng);
    return img;
}

void
renderFaceInto(ImageF &scene, const FaceParams &id, const FaceVariation &var,
               const Rect &box)
{
    incam_assert(box.w > 0 && box.h > 0, "face box must be non-empty");
    const ImageF face = renderFace(id, var, std::max(box.w, box.h));
    for (int y = 0; y < box.h; ++y) {
        const int sy = box.y + y;
        if (sy < 0 || sy >= scene.height()) {
            continue;
        }
        for (int x = 0; x < box.w; ++x) {
            const int sx = box.x + x;
            if (sx < 0 || sx >= scene.width()) {
                continue;
            }
            scene.at(sx, sy) = face.at(x * face.width() / box.w,
                                       y * face.height() / box.h);
        }
    }
}

} // namespace incam
