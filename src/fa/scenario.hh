/**
 * @file
 * Bridges the measured FA camera into the core pipeline framework.
 *
 * The FA simulator produces measured per-stage energies and pass
 * fractions; this glue packages them as a core::Pipeline so the generic
 * optimizer can answer the paper's question — which optional blocks,
 * which platform, and whether to offload at all — and the tests can
 * verify it picks the same answer the paper argues for (everything in
 * camera, filtered front-to-back, on the accelerators).
 */

#ifndef INCAM_FA_SCENARIO_HH
#define INCAM_FA_SCENARIO_HH

#include "core/pipeline.hh"
#include "fa/fa_pipeline.hh"

namespace incam {

/**
 * Average measured behaviour of the FA stages over a workload.
 *
 * Pass fractions follow the framework's duty semantics: the fraction of
 * *downstream work* a block lets through. For motion detection that is
 * the fraction of frames with activity; for face detection it is the
 * ratio of NN work on VJ candidates to NN work scanning blind — the
 * measured value of knowing where the face is.
 */
struct FaMeasurements
{
    int frame_w = 160;
    int frame_h = 120;
    DataSize frame_bytes;      ///< raw sensor frame size
    DataSize crop_bytes;       ///< NN input crop size

    Energy motion_per_frame;   ///< ASIC motion detection, every frame
    double motion_pass = 1.0;  ///< fraction of frames with motion

    Energy vj_per_frame;       ///< ASIC VJ on frames that reach it
    double vj_pass = 1.0;      ///< NN work fraction VJ leaves downstream

    Energy nn_asic_per_frame;  ///< accelerator NN, blind-scan per frame
    Energy nn_mcu_per_frame;   ///< MCU software NN, same work
};

/**
 * Derive the per-stage averages from three simulator runs: the full
 * pipeline (MD+VJ+NN on the accelerator), the MD+NN configuration
 * (which prices the blind NN scan VJ would avoid), and its MCU variant
 * (which prices the software-NN alternative).
 */
FaMeasurements measureFa(const FaRunResult &with_all_blocks,
                         const FaRunResult &md_nn_scan,
                         const FaRunResult &md_nn_scan_mcu,
                         const SecurityVideoConfig &video_cfg,
                         int nn_input);

/**
 * Build the Fig. 2 pipeline: [motion?] -> [face detect?] -> face auth,
 * with ASIC implementations for every block and an MCU alternative for
 * the NN. Output sizes model the data each stage would offload.
 */
Pipeline buildFaPipeline(const FaMeasurements &m);

/**
 * Representative FA measurements without the ~90 s simulator runs:
 * the motion energy comes from the accelerator model directly, the
 * remaining figures are the values the full measureFa flow lands on
 * for the default scenario (see bench_paper's §III rows). For
 * harnesses — the streaming runtime, benches, examples — that need a
 * realistic FA pipeline cheaply, not a freshly measured one.
 */
FaMeasurements nominalFaMeasurements(int width = 160, int height = 120,
                                     int nn_input = 20);

} // namespace incam

#endif // INCAM_FA_SCENARIO_HH
