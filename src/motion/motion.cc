#include "motion/motion.hh"

namespace incam {

MotionDetector::MotionDetector(MotionConfig cfg) : conf(cfg)
{
    incam_assert(conf.pixel_threshold >= 0 && conf.pixel_threshold <= 255,
                 "pixel threshold out of range");
    incam_assert(conf.area_threshold >= 0.0 && conf.area_threshold <= 1.0,
                 "area threshold out of range");
}

bool
MotionDetector::update(const ImageU8 &frame)
{
    incam_assert(frame.channels() == 1,
                 "motion detection expects grayscale frames");
    if (!has_reference || !reference.sameShape(frame)) {
        reference = frame;
        has_reference = true;
        changed_fraction = 0.0;
        return false;
    }

    const uint8_t *cur = frame.raw();
    const uint8_t *ref = reference.raw();
    // The constructor keeps the threshold in 0..255.
    const auto threshold = static_cast<uint8_t>(conf.pixel_threshold);
    // All in uint8_t: |a - b| as an int would not vectorize on bytes.
    const auto changedAt = [&](size_t i) -> uint8_t {
        const uint8_t a = cur[i];
        const uint8_t b = ref[i];
        const uint8_t diff = a > b ? a - b : b - a;
        return diff > threshold;
    };
    const size_t n = frame.sampleCount();
    size_t changed = 0;
    size_t i = 0;
    // Blocks of a fixed 64 samples, each counted in a uint8_t (at most
    // 64): GCC's -O2 vectorizer takes only loops whose trip count is a
    // known multiple of the vector width.
    for (; i + 64 <= n; i += 64) {
        uint8_t block = 0;
        for (size_t k = 0; k < 64; ++k) {
            block += changedAt(i + k);
        }
        changed += block;
    }
    for (; i < n; ++i) {
        changed += changedAt(i);
    }
    changed_fraction = static_cast<double>(changed) / static_cast<double>(n);
    reference = frame;
    return changed_fraction > conf.area_threshold;
}

void
MotionDetector::reset()
{
    has_reference = false;
    changed_fraction = 0.0;
}

} // namespace incam
