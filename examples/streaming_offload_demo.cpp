/**
 * @file
 * The streaming runtime executing offload cuts over real frame traffic.
 *
 * Part 1 sweeps every offload cut of the face-authentication pipeline
 * over Wi-Fi, running each configuration through the streaming runtime
 * and printing measured FPS / J-per-frame next to the analytical
 * predictions — the paper's tradeoff table, but *executed* rather than
 * evaluated.
 *
 * Part 2 swaps the modeled traffic for a simulated night of security
 * footage: the motion block runs the real frame-difference detector
 * (src/motion) on the pixels, so the radio ships only the frames that
 * actually contain motion, and the report shows how the measured pass
 * rate and energy track the model's declared 30% duty.
 *
 * Run: ./build/example_streaming_offload_demo
 */

#include <cstdio>
#include <memory>

#include "core/network.hh"
#include "core/pipeline.hh"
#include "fa/scenario.hh"
#include "runtime/executor.hh"
#include "runtime/runtime.hh"
#include "workload/video.hh"

using namespace incam;

int
main()
{
    std::printf("== streaming runtime: offload cuts over frame traffic ==\n\n");

    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    const NetworkLink link = wifiUplink();
    const PipelineEvaluator eval(pipe, link);

    // --- part 1: every cut, modeled traffic -------------------------
    std::printf("part 1: cut sweep, modeled traffic (%s uplink)\n\n",
                link.name.c_str());
    std::printf("  %-4s %12s %12s %14s %14s\n", "cut", "model FPS",
                "meas FPS", "model J/frame", "meas J/frame");
    for (int cut = 0; cut <= pipe.blockCount(); ++cut) {
        const PipelineConfig cfg =
            PipelineConfig::full(pipe, Impl::Asic, cut);
        const double fps_pred = eval.evaluateThroughput(cfg).total_fps;
        const double jpf_pred = eval.evaluateEnergy(cfg).total().j();

        RuntimeOptions opts;
        opts.frames = 200;
        opts.gating = GatingMode::None;
        StreamingPipeline fps_run(pipe, cfg, link, opts);
        const double fps_meas =
            fps_run.run(RunOptions{ExecutionMode::ThreadedStages}).model_fps;

        opts.gating = GatingMode::Model;
        opts.pace_stages = false;
        opts.pace_link = false;
        StreamingPipeline e_run(pipe, cfg, link, opts);
        const double jpf_meas =
            e_run.run(RunOptions{ExecutionMode::ThreadedStages})
                .joules_per_frame.j();

        std::printf("  %-4d %12.1f %12.1f %14.3e %14.3e\n", cut,
                    fps_pred, fps_meas, jpf_pred, jpf_meas);
    }

    // --- part 2: real pixels through the motion gate ----------------
    std::printf("\npart 2: real traffic, cut after MotionDetect\n\n");
    SecurityVideoConfig vc;
    vc.frames = 240;
    const SecurityVideo video(vc);
    std::printf("  video: %d frames, %d with actual motion\n",
                video.frameCount(), video.motionFrames());

    const PipelineConfig cfg = PipelineConfig::full(pipe, Impl::Asic, 1);
    RuntimeOptions opts;
    opts.frames = video.frameCount();
    opts.gating = GatingMode::Executor; // the pixels decide
    StreamingPipeline sp(pipe, cfg, link, opts);
    sp.setExecutor(0, std::make_unique<MotionGateExecutor>());
    sp.setFrameFill([&video](Frame &f) {
        f.image = video.frame(static_cast<int>(f.id)).image;
    });
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});

    const StageReport &motion = rep.stages.front();
    std::printf("  motion gate passed %lld / %lld frames (%.0f%%; "
                "model says %.0f%%)\n",
                static_cast<long long>(motion.frames_out),
                static_cast<long long>(motion.frames_in),
                100.0 * static_cast<double>(motion.frames_out) /
                    static_cast<double>(motion.frames_in),
                100.0 * pipe.block(0).passFraction());
    std::printf("  uplink shipped %.0f kB at %.0f%% utilization\n",
                rep.link.bytes_sent.kb(), 100.0 * rep.link.utilization);
    std::printf("  measured %.1f FPS, %.3e J/frame "
                "(compute %.3e + radio %.3e)\n",
                rep.model_fps, rep.joules_per_frame.j(),
                rep.compute_energy.j() /
                    static_cast<double>(rep.source_frames),
                rep.comm_energy.j() /
                    static_cast<double>(rep.source_frames));
    std::printf("\ndone.\n");
    return 0;
}
