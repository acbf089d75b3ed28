/**
 * @file
 * Multi-scale sliding-window face detector.
 *
 * Implements the scan loop of Fig. 4a: a window slides across the image
 * and the cascade runs at each position; the window is then scaled by
 * the *scale factor* and the scan repeats until the window exceeds the
 * image. The two step-size policies of Fig. 4c are both provided:
 *
 *  - static:   a fixed pixel stride at every scale;
 *  - adaptive: a stride proportional to the current window size, so
 *    large windows stride proportionally further.
 *
 * Overlapping raw hits are merged by IoU clustering ("grouping"); a
 * detection's neighbor count is the standard confidence proxy.
 */

#ifndef INCAM_VJ_DETECTOR_HH
#define INCAM_VJ_DETECTOR_HH

#include <cmath>
#include <vector>

#include "exec/exec_policy.hh"
#include "vj/cascade.hh"

namespace incam {

/** The Fig. 4c algorithm parameters. */
struct DetectorParams
{
    double scale_factor = 1.25; ///< window growth per scan pass
    bool adaptive_step = true;  ///< stride policy selector
    int static_step = 2;        ///< pixels, when !adaptive_step
    double adaptive_frac = 0.05;///< fraction of window, when adaptive_step
    int min_neighbors = 2;      ///< grouping confidence threshold
    double max_window_frac = 1.0; ///< stop when window exceeds this x min-dim
    ExecPolicy exec;            ///< scan parallelism (serial by default)

    /** Stride in pixels for a given current window size. */
    int
    stepFor(int window) const
    {
        if (adaptive_step) {
            return std::max(
                1, static_cast<int>(std::lround(adaptive_frac * window)));
        }
        return std::max(1, static_step);
    }
};

/** A grouped detection. */
struct Detection
{
    Rect box;
    int neighbors = 0; ///< raw hits merged into this detection
};

/**
 * One pass of the multi-scale scan: the window side, stride and window
 * grid at a single scale. Produced by Detector::scanScales so the scan
 * loop (rawHits) and the closed-form count (windowCount) can never
 * drift apart.
 */
struct ScanScale
{
    double scale = 1.0; ///< window / cascade base size
    int window = 0;     ///< window side in pixels
    int step = 0;       ///< stride at this scale
    int nx = 0;         ///< window positions along x
    int ny = 0;         ///< window positions along y

    uint64_t
    windowCount() const
    {
        return static_cast<uint64_t>(nx) * ny;
    }
};

/** Sliding-window detector over a trained cascade. */
class Detector
{
  public:
    Detector(const Cascade &cascade, DetectorParams params);

    const DetectorParams &params() const { return conf; }

    /**
     * Detect faces in a grayscale image. @p stats (optional) accumulates
     * cascade evaluation counts for the cost models.
     */
    std::vector<Detection> detect(const ImageU8 &gray,
                                  CascadeStats *stats = nullptr) const;

    /**
     * Raw (ungrouped) hits — exposed for tests and diagnostics.
     *
     * Parallelized per scale over row bands with per-band hit vectors
     * and stats, merged in (scale, band) order, so the hit list and the
     * stats are bit-identical to the serial scan at any thread count.
     * Each scale flattens the cascade into a table once; windows whose
     * every lookup lies inside the image are classified from it (four
     * at a time in AVX2 lanes when the host has AVX2), the rest by
     * Cascade::classifyWindow, with identical results.
     */
    std::vector<Rect> rawHits(const ImageU8 &gray,
                              CascadeStats *stats = nullptr) const;

    /**
     * Number of windows the scan visits for an image of this size —
     * closed-form companion of detect() used by cost models. Derived
     * from the same scanScales enumeration rawHits walks.
     */
    uint64_t windowCount(int width, int height) const;

    /** The scale sweep for an image of this size (shared iteration). */
    std::vector<ScanScale> scanScales(int width, int height) const;

  private:
    const Cascade &model;
    DetectorParams conf;
};

/** Group raw hits by IoU clustering; used by Detector::detect. */
std::vector<Detection> groupDetections(const std::vector<Rect> &hits,
                                       double iou_threshold,
                                       int min_neighbors);

} // namespace incam

#endif // INCAM_VJ_DETECTOR_HH
