/**
 * @file
 * The cascade classifier (Fig. 4b of the paper).
 *
 * A cascade is a sequence of boosted stages of increasing size; a window
 * must pass every stage to be declared a face, and most non-face windows
 * are rejected by the first, tiny stages. The per-window evaluation-count
 * statistics collected here drive the pre-filtering accelerator's energy
 * model: the whole point of using VJ in front of the NN is that rejected
 * windows cost a handful of feature evaluations.
 */

#ifndef INCAM_VJ_CASCADE_HH
#define INCAM_VJ_CASCADE_HH

#include <string>
#include <vector>

#include "vj/haar.hh"

namespace incam {

/** A decision stump: one Haar feature, a threshold, and a vote weight. */
struct Stump
{
    int feature = 0;        ///< index into the cascade's feature table
    double threshold = 0.0;
    int8_t polarity = 1;    ///< +1: value < threshold is "face-like"
    double alpha = 1.0;     ///< AdaBoost vote weight
};

/** One boosted stage. */
struct CascadeStage
{
    std::vector<Stump> stumps;
    double threshold = 0.0; ///< pass when weighted votes >= threshold
};

/** Per-call evaluation counters (for cost models and Fig.-style plots). */
struct CascadeStats
{
    uint64_t windows = 0;
    uint64_t stages_entered = 0;
    uint64_t features_evaluated = 0;
    uint64_t windows_accepted = 0;
    /** Of `windows`, those Detector::rawHits classified in SIMD lanes. */
    uint64_t lane_windows = 0;

    void
    merge(const CascadeStats &o)
    {
        windows += o.windows;
        stages_entered += o.stages_entered;
        features_evaluated += o.features_evaluated;
        windows_accepted += o.windows_accepted;
        lane_windows += o.lane_windows;
    }

    /** Mean features per window — the cascade's efficiency headline. */
    double
    featuresPerWindow() const
    {
        return windows ? static_cast<double>(features_evaluated) /
                             static_cast<double>(windows)
                       : 0.0;
    }
};

/** A trained cascade over a fixed base window. */
class Cascade
{
  public:
    Cascade() = default;
    Cascade(int base_size, std::vector<HaarFeature> features,
            std::vector<CascadeStage> stages);

    int baseSize() const { return base; }
    int stageCount() const { return static_cast<int>(stage_list.size()); }
    const std::vector<CascadeStage> &stages() const { return stage_list; }
    const std::vector<HaarFeature> &features() const { return feature_list; }

    /** Total stumps across all stages. */
    size_t stumpCount() const;

    /**
     * Classify the window at (wx, wy) with side window_size =
     * base * scale. Early-exits at the first failing stage; updates
     * @p stats if provided.
     *
     * This is the reference path: it rescales every feature per window
     * and clamps rectangles to the image. Detector::rawHits classifies
     * interior windows from a per-scale table that repeats this
     * arithmetic exactly, and sends border windows here; crops and
     * training call it directly.
     */
    bool classifyWindow(const IntegralImage &ii, int wx, int wy,
                        double scale, CascadeStats *stats = nullptr) const;

    /** Classify a full crop equal to the base window size. */
    bool classifyCrop(const ImageU8 &crop,
                      CascadeStats *stats = nullptr) const;

    /** Serialize to a compact text format (for caching trained models). */
    std::string serialize() const;

    /** Parse the serialize() format. Fatal on malformed input. */
    static Cascade deserialize(const std::string &text);

  private:
    int base = 20;
    std::vector<HaarFeature> feature_list;
    std::vector<CascadeStage> stage_list;
};

} // namespace incam

#endif // INCAM_VJ_CASCADE_HH
