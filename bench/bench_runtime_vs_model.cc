/**
 * @file
 * The analytical model vs the executing pipeline, cut by cut.
 *
 * For every offload cut of the face-authentication pipeline this
 * harness runs the cut twice through the streaming runtime — once in
 * throughput semantics (no gating, saturated source) and once in
 * energy semantics (deterministic pass-fraction gating, pacing off) —
 * and holds the measured FPS and J/frame against the closed-form
 * ThroughputReport / EnergyReport for the same configuration. A VR-rig
 * spot check (first and last cut, time-compressed) covers the second
 * case study. Ends with one machine-readable JSON line so
 * BENCH_*.json files can track model fidelity across PRs.
 *
 *   bench_runtime_vs_model [--quick]
 *
 * Exits non-zero if any cut's measured throughput strays more than
 * 15% from the prediction (the acceptance bar) or any cut's energy
 * strays more than 3% — model fidelity regressions fail loudly.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/network.hh"
#include "core/pipeline.hh"
#include "fa/scenario.hh"
#include "harness.hh"
#include "runtime/runtime.hh"
#include "vr/scenario.hh"

using namespace incam;
using namespace incam::bench;

namespace {

constexpr double kFpsTolerance = 0.15;
constexpr double kEnergyTolerance = 0.03;

struct CutResult
{
    std::string pipeline;
    std::string config;
    int cut = 0;
    double predicted_fps = 0.0;
    double measured_fps = 0.0;
    double predicted_jpf = 0.0; ///< J per source frame (model)
    double measured_jpf = 0.0;  ///< J per source frame (runtime)

    double
    fpsError() const
    {
        return std::abs(measured_fps - predicted_fps) / predicted_fps;
    }

    /** Zero predicted energy (the VR study prices only throughput)
     *  makes relative drift meaningless; such cuts are not gated. */
    bool
    energyGated() const
    {
        return predicted_jpf > 0.0;
    }

    double
    energyError() const
    {
        return energyGated()
                   ? std::abs(measured_jpf - predicted_jpf) /
                         predicted_jpf
                   : 0.0;
    }
};

/** Measure one cut in both semantics against its analytical reports. */
CutResult
measureCut(const char *pipeline_name, const Pipeline &pipe,
           const PipelineConfig &cfg, const NetworkLink &link,
           int64_t frames, double time_scale)
{
    const PipelineEvaluator eval(pipe, link);
    CutResult r;
    r.pipeline = pipeline_name;
    r.config = cfg.toString(pipe);
    r.cut = cfg.cut;
    r.predicted_fps = eval.evaluateThroughput(cfg).total_fps;
    r.predicted_jpf = eval.evaluateEnergy(cfg).total().j();

    RuntimeOptions fps_opts;
    fps_opts.frames = frames;
    fps_opts.gating = GatingMode::None; // throughput semantics
    fps_opts.time_scale = time_scale;
    StreamingPipeline fps_run(pipe, cfg, link, fps_opts);
    r.measured_fps =
        fps_run.run(RunOptions{ExecutionMode::ThreadedStages}).model_fps;

    RuntimeOptions e_opts;
    e_opts.frames = frames;
    e_opts.gating = GatingMode::Model; // energy semantics
    e_opts.pace_stages = false;
    e_opts.pace_link = false;
    StreamingPipeline e_run(pipe, cfg, link, e_opts);
    r.measured_jpf =
        e_run.run(RunOptions{ExecutionMode::ThreadedStages})
            .joules_per_frame.j();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = parseQuick(argc, argv);
    banner("runtime vs model",
           "streaming execution held against the analytical reports");
    std::printf("mode: %s\n\n", quick ? "quick (CI smoke)" : "full");

    // A multiple of 200 keeps every FA duty product (0.3, 0.3 x 0.05)
    // integral, so deterministic gating reproduces the analytical duty
    // exactly instead of flooring the last fractional frame away.
    const int64_t frames = quick ? 200 : 600;
    std::vector<CutResult> results;

    // Every cut of the FA pipeline over Wi-Fi (the acceptance sweep).
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());
    for (int cut = 0; cut <= fa.blockCount(); ++cut) {
        results.push_back(measureCut(
            "face-auth", fa, PipelineConfig::full(fa, Impl::Asic, cut),
            wifiUplink(), frames, /*time_scale=*/1.0));
    }

    // VR spot check: all-offload and all-local, compressed 5x in time
    // so the tens-of-FPS rig measures in about a second.
    const Pipeline vr = buildVrPipeline(VrPipelineModel{});
    for (int cut : {0, vr.blockCount()}) {
        results.push_back(measureCut(
            "vr-rig", vr, PipelineConfig::full(vr, Impl::Fpga, cut),
            twentyFiveGbE(), quick ? 40 : 100, /*time_scale=*/0.2));
    }

    Gates gates;
    Json json("runtime_vs_model");
    json.field("quick", quick).field("frames", frames).array("results");
    std::printf("%-10s %-28s %11s %11s %7s %11s %11s %7s\n", "pipeline",
                "config", "pred FPS", "meas FPS", "err", "pred J/f",
                "meas J/f", "err");
    for (const auto &r : results) {
        const bool cut_ok =
            gates.check(r.pipeline + " " + r.config,
                        r.fpsError() <= kFpsTolerance &&
                            r.energyError() <= kEnergyTolerance);
        char energy_err[16];
        if (r.energyGated()) {
            std::snprintf(energy_err, sizeof energy_err, "%6.1f%%",
                          100.0 * r.energyError());
        } else {
            std::snprintf(energy_err, sizeof energy_err, "%7s", "n/a");
        }
        std::printf("%-10s %-28s %11.1f %11.1f %6.1f%% %11.3e %11.3e "
                    "%s%s\n",
                    r.pipeline.c_str(), r.config.c_str(),
                    r.predicted_fps, r.measured_fps,
                    100.0 * r.fpsError(), r.predicted_jpf,
                    r.measured_jpf, energy_err,
                    cut_ok ? "" : "  <-- OUT OF TOLERANCE");
        json.item()
            .field("pipeline", r.pipeline).field("cut", r.cut)
            .field("predicted_fps", r.predicted_fps, 3)
            .field("measured_fps", r.measured_fps, 3)
            .field("fps_err", r.fpsError(), 4)
            .field("predicted_jpf", r.predicted_jpf)
            .field("measured_jpf", r.measured_jpf)
            .field("energy_err", r.energyError(), 4)
            .field("energy_gated", r.energyGated()).end();
    }
    json.print();
    return gates.exitCode("bench_runtime_vs_model");
}
