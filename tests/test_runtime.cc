/**
 * @file
 * Tests for the streaming runtime: queue semantics, measured-vs-model
 * throughput on both case-study pipelines, exact pass-fraction gating,
 * clean shutdown, energy accounting, and the real-kernel executors.
 *
 * Timing assertions live only in the model-match tests (which rely on
 * token-bucket pacing's exact long-run rates); every other test
 * asserts counts and energies, which are exact arithmetic and immune
 * to host load — including the 5-20x slowdowns of the sanitizer CI
 * jobs that run this binary at INCAM_THREADS = 1, 2 and 8.
 */

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "fa/scenario.hh"
#include "image/codec.hh"
#include "motion/motion.hh"
#include "runtime/frame_queue.hh"
#include "runtime/pacer.hh"
#include "runtime/runtime.hh"
#include "vr/scenario.hh"
#include "workload/video.hh"

namespace incam {
namespace {

/** Relative-error helper for throughput comparisons. */
double
relError(double measured, double expected)
{
    return std::abs(measured - expected) / expected;
}

/** Exact passed-frame count of the deterministic gating accumulator. */
int64_t
gatedCount(int64_t frames, double pass_fraction)
{
    return static_cast<int64_t>(
        static_cast<double>(frames) * pass_fraction + 1e-9);
}

/** A pipeline of pure filters with zero service time (unpaced). */
Pipeline
filterPipeline()
{
    Pipeline p("filters", DataSize::kilobytes(1));
    Block coarse("Coarse", /*optional=*/true, DataSize::kilobytes(1));
    coarse.setPassFraction(0.25);
    coarse.addImpl(Impl::Asic, {Time{}, Energy::nanojoules(10)});
    p.add(coarse);
    Block fine("Fine", /*optional=*/true, DataSize::bytes(100));
    fine.setPassFraction(0.5);
    fine.addImpl(Impl::Asic, {Time{}, Energy::nanojoules(40)});
    p.add(fine);
    Block core("Core", /*optional=*/false, DataSize::bytes(8));
    core.addImpl(Impl::Asic, {Time{}, Energy::nanojoules(100)});
    p.add(core);
    return p;
}

TEST(FrameQueue, OrderedDrainAcrossClose)
{
    FrameQueue q(3);
    for (int i = 0; i < 3; ++i) {
        Frame f;
        f.id = i;
        ASSERT_TRUE(q.push(std::move(f)));
    }
    q.close();
    // A closed queue still drains what was buffered, in order.
    Frame out;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out.id, i);
    }
    EXPECT_FALSE(q.pop(out));
    // Pushing after close reports the shutdown.
    EXPECT_FALSE(q.push(Frame{}));
    EXPECT_EQ(q.peakDepth(), 3);
}

TEST(FrameQueue, CloseWhileFullWakesAndRejectsProducer)
{
    // Regression: close() must notify the not-full waiters too — a
    // producer blocked on a full queue used to sleep through shutdown.
    FrameQueue q(1);
    ASSERT_TRUE(q.push(Frame{}));
    std::atomic<int> result{-1};
    std::thread producer([&] {
        Frame f;
        f.id = 42;
        // Blocks: the queue is at capacity.
        result.store(q.push(std::move(f)) ? 1 : 0);
    });
    // Give the producer time to reach the not-full wait, then close.
    // (If close wins the race the push still cleanly rejects — the
    // sleep just makes the blocked-then-woken interleaving the common
    // one.)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    producer.join();
    // The blocked push woke and cleanly rejected its frame...
    EXPECT_EQ(result.load(), 0);
    // ...and the frame buffered before the close still drains.
    Frame out;
    EXPECT_TRUE(q.pop(out));
    EXPECT_FALSE(q.pop(out));
}

TEST(FrameQueue, BackpressureBoundsDepth)
{
    FrameQueue q(2);
    const int64_t total = 500;
    std::thread producer([&] {
        for (int64_t i = 0; i < total; ++i) {
            Frame f;
            f.id = i;
            ASSERT_TRUE(q.push(std::move(f)));
        }
        q.close();
    });
    int64_t seen = 0;
    Frame out;
    while (q.pop(out)) {
        EXPECT_EQ(out.id, seen);
        ++seen;
    }
    producer.join();
    EXPECT_EQ(seen, total);
    EXPECT_LE(q.peakDepth(), 2);
}

TEST(TokenBucket, DegenerateRatesDegradeToUnpaced)
{
    // A degenerate block (zero service time) models an infinite or
    // NaN rate; an underflowed rate would sleep for ~1e300 seconds.
    // All of them must degrade to "pacing disabled", not hang.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double denormal = std::numeric_limits<double>::denorm_min();
    for (double rate : {nan, inf, denormal, 0.0, -5.0}) {
        TokenBucket bucket(rate, 2.0);
        EXPECT_EQ(bucket.rate(), 0.0) << "rate " << rate;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < 1000; ++i) {
            bucket.acquire(1.0);
        }
        const double dt = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        EXPECT_LT(dt, 0.5) << "rate " << rate << " paced anyway";
    }

    // A paced bucket with no burst capacity (e.g. a zero-byte uplink
    // frame) cannot bank credit: also unpaced, not an abort.
    for (double burst : {0.0, -1.0, inf, nan}) {
        TokenBucket bucket(1000.0, burst);
        EXPECT_EQ(bucket.rate(), 0.0) << "burst " << burst;
        bucket.acquire(10.0); // returns immediately
    }

    // Sane inputs still pace.
    TokenBucket sane(1000.0, 2.0);
    EXPECT_EQ(sane.rate(), 1000.0);
}

TEST(TokenBucket, SetRateRepacesWithoutFreeBurst)
{
    // Phase 1 at 500/s, then a live change to 2000/s. Each phase's
    // elapsed time must reflect its own rate — the rate change honors
    // work already owed and grants no fresh burst.
    TokenBucket bucket(500.0, 2.0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 50; ++i) {
        bucket.acquire(1.0);
    }
    const auto t1 = std::chrono::steady_clock::now();
    bucket.setRate(2000.0);
    EXPECT_EQ(bucket.rate(), 2000.0);
    for (int i = 0; i < 200; ++i) {
        bucket.acquire(1.0);
    }
    const auto t2 = std::chrono::steady_clock::now();
    const double p1 = std::chrono::duration<double>(t1 - t0).count();
    const double p2 = std::chrono::duration<double>(t2 - t1).count();
    EXPECT_GE(p1, (50.0 - 2.0) / 500.0);
    EXPECT_GE(p2, (200.0 - 2.0) / 2000.0);
    EXPECT_LT(p2, 2.0 * 200.0 / 2000.0);
}

TEST(TokenBucket, SetRateIncreaseCannotMintABurst)
{
    // Bank 2 tokens (the burst cap) at a slow rate, then jump the
    // rate 100x: an uncapped bank would let ~50 tokens through
    // instantly. Only the banked burst may be free.
    TokenBucket bucket(50.0, 2.0);
    bucket.acquire(1.0); // starts the clock (bucket begins empty)
    std::this_thread::sleep_for(std::chrono::seconds(1));
    bucket.setRate(5000.0);
    const auto t0 = std::chrono::steady_clock::now();
    bucket.acquire(52.0);
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    // 52 tokens minus at most the 2-token bank, at 5000/s: >= 10 ms.
    EXPECT_GE(dt, (52.0 - 2.0) / 5000.0);
}

TEST(TokenBucket, SetRateDebtCarriesOver)
{
    // Work owed before a rate change is settled at the old rate; the
    // change must not leave free credit behind. After an oversized
    // acquire at 1000/s the bucket sits at ~zero credit, so the next
    // 100 tokens at the new rate owe their full price.
    TokenBucket bucket(1000.0, 1.0);
    bucket.acquire(100.0);
    bucket.setRate(10000.0);
    const auto t0 = std::chrono::steady_clock::now();
    bucket.acquire(100.0);
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_GE(dt, (100.0 - 1.0) / 10000.0);
}

TEST(TokenBucket, SetRateDegenerateClampsStillHold)
{
    // The constructor's NaN/inf/denormal/negative clamps must apply
    // identically to live rate changes.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double denormal = std::numeric_limits<double>::denorm_min();
    for (double rate : {nan, inf, denormal, 0.0, -5.0}) {
        TokenBucket bucket(1000.0, 2.0);
        bucket.acquire(1.0);
        bucket.setRate(rate);
        EXPECT_EQ(bucket.rate(), 0.0) << "rate " << rate;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < 1000; ++i) {
            bucket.acquire(1.0);
        }
        const double dt = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        EXPECT_LT(dt, 0.5) << "rate " << rate << " paced anyway";
        // And back: an unpaced bucket can start pacing again.
        bucket.setRate(10000.0);
        EXPECT_EQ(bucket.rate(), 10000.0);
    }
}

TEST(TokenBucket, LongRunRateIsExact)
{
    // 2000 tokens/s, 100 acquires -> 50 ms minimum; measure the rate.
    TokenBucket bucket(2000.0, 2.0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 100; ++i) {
        bucket.acquire(1.0);
    }
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    // Debt-based pacing: never faster than the rate (minus the burst),
    // and sleep overshoot must not accumulate.
    EXPECT_GE(dt, (100.0 - 2.0) / 2000.0);
    EXPECT_LT(dt, 2.0 * 100.0 / 2000.0);
}

TEST(Runtime, MeasuredFpsMatchesModelAcrossFaCuts)
{
    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    const NetworkLink link = wifiUplink();
    const PipelineEvaluator eval(pipe, link);

    for (int cut : {0, 2, 3}) {
        const PipelineConfig cfg =
            PipelineConfig::full(pipe, Impl::Asic, cut);
        const double expected = eval.evaluateThroughput(cfg).total_fps;
        ASSERT_GT(expected, 0.0);

        RuntimeOptions opts;
        opts.frames = 150;
        opts.gating = GatingMode::None; // throughput semantics
        StreamingPipeline sp(pipe, cfg, link, opts);
        const RuntimeReport rep =
            sp.run(RunOptions{ExecutionMode::ThreadedStages});

        EXPECT_EQ(rep.source_frames, 150);
        EXPECT_EQ(rep.delivered_frames, 150);
        EXPECT_LT(relError(rep.model_fps, expected), 0.15)
            << "cut " << cut << ": measured " << rep.model_fps
            << " FPS vs predicted " << expected;
    }
}

TEST(Runtime, MeasuredFpsMatchesModelAcrossVrCuts)
{
    // Full-scale VR numbers (tens of FPS) stretched 0.2x in model time
    // so each run finishes in well under a second.
    const VrPipelineModel model;
    const Pipeline pipe = buildVrPipeline(model);
    const NetworkLink link = twentyFiveGbE();
    const PipelineEvaluator eval(pipe, link);

    for (int cut : {1, 4}) {
        const PipelineConfig cfg =
            PipelineConfig::full(pipe, Impl::Fpga, cut);
        const double expected = eval.evaluateThroughput(cfg).total_fps;
        ASSERT_GT(expected, 5.0) << "VR cut " << cut
                                 << " too slow to measure in a test";

        RuntimeOptions opts;
        opts.frames = 50;
        opts.gating = GatingMode::None;
        opts.time_scale = 0.2;
        StreamingPipeline sp(pipe, cfg, link, opts);
        const RuntimeReport rep =
            sp.run(RunOptions{ExecutionMode::ThreadedStages});

        EXPECT_EQ(rep.delivered_frames, 50);
        EXPECT_LT(relError(rep.model_fps, expected), 0.15)
            << "cut " << cut << ": measured " << rep.model_fps
            << " FPS vs predicted " << expected;
    }
}

TEST(Runtime, SourcePacingThrottlesThePipeline)
{
    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    const PipelineConfig cfg = PipelineConfig::full(pipe);
    RuntimeOptions opts;
    opts.frames = 80;
    opts.gating = GatingMode::None;
    opts.source_fps = 120.0; // well under every block/link rate
    StreamingPipeline sp(pipe, cfg, wifiUplink(), opts);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});
    EXPECT_LT(relError(rep.model_fps, 120.0), 0.15);
}

TEST(Runtime, DeterministicGatingIsExact)
{
    const Pipeline pipe = filterPipeline();
    const int64_t frames = 203; // deliberately not a multiple of 4
    RuntimeOptions opts;
    opts.frames = frames;
    opts.queue_capacity = 2;
    opts.gating = GatingMode::Model;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe),
                         twentyFiveGbE(), opts);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});

    const int64_t after_coarse = gatedCount(frames, 0.25);
    const int64_t after_fine = gatedCount(after_coarse, 0.5);
    ASSERT_EQ(rep.stages.size(), 3u);
    EXPECT_EQ(rep.stages[0].frames_in, frames);
    EXPECT_EQ(rep.stages[0].frames_out, after_coarse);
    EXPECT_EQ(rep.stages[1].frames_in, after_coarse);
    EXPECT_EQ(rep.stages[1].frames_out, after_fine);
    EXPECT_EQ(rep.stages[2].frames_in, after_fine);
    EXPECT_EQ(rep.stages[2].frames_out, after_fine);
    EXPECT_EQ(rep.delivered_frames, after_fine);
}

TEST(Runtime, CleanShutdownLosesNoFrames)
{
    const Pipeline pipe = filterPipeline();
    RuntimeOptions opts;
    opts.frames = 997;
    opts.queue_capacity = 1; // maximum backpressure
    opts.gating = GatingMode::Model;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe),
                         twentyFiveGbE(), opts);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});

    // Every emitted frame is accounted for: delivered or gated away.
    int64_t dropped = 0;
    for (const auto &st : rep.stages) {
        EXPECT_EQ(st.frames_in, st.frames_out + st.frames_dropped);
        dropped += st.frames_dropped;
    }
    EXPECT_EQ(rep.source_frames, 997);
    EXPECT_EQ(rep.source_frames, rep.delivered_frames + dropped);
    // Bounded queues never exceeded their capacity.
    for (const auto &st : rep.stages) {
        EXPECT_LE(st.peak_queue_depth, 1);
    }
    EXPECT_LE(rep.link.peak_queue_depth, 1);
}

TEST(Runtime, EnergyMatchesAnalyticalModel)
{
    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    const NetworkLink link = backscatterUplink();
    const PipelineEvaluator eval(pipe, link);

    for (int cut : {1, 3}) {
        const PipelineConfig cfg =
            PipelineConfig::full(pipe, Impl::Asic, cut);
        const Energy expected = eval.evaluateEnergy(cfg).total();

        RuntimeOptions opts;
        opts.frames = 200;
        opts.gating = GatingMode::Model;
        opts.pace_stages = false; // energy accounting needs no clock
        opts.pace_link = false;
        StreamingPipeline sp(pipe, cfg, link, opts);
        const RuntimeReport rep =
            sp.run(RunOptions{ExecutionMode::ThreadedStages});

        // Gating truncation (floor vs exact duty product) is the only
        // divergence, bounded by 1/frames per stage.
        EXPECT_NEAR(rep.joules_per_frame.j() / expected.j(), 1.0, 0.03)
            << "cut " << cut;
    }

    // Fully in-camera: the runtime still prices the 1-byte verdict
    // upload that the analytical FA semantics rounds to zero.
    const PipelineConfig full_cfg = PipelineConfig::full(pipe);
    RuntimeOptions opts;
    opts.frames = 100;
    opts.pace_stages = false;
    opts.pace_link = false;
    StreamingPipeline sp(pipe, full_cfg, link, opts);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});
    EXPECT_LT(rep.comm_energy.j(),
              0.01 * rep.compute_energy.j());
}

TEST(Runtime, RealMotionKernelGatesLikeTheDetector)
{
    SecurityVideoConfig vcfg;
    vcfg.frames = 60;
    const SecurityVideo video(vcfg);
    std::vector<ImageU8> frames;
    for (int f = 0; f < video.frameCount(); ++f) {
        frames.push_back(video.frame(f).image);
    }

    // Reference: the serial detector over the same frames.
    MotionDetector reference;
    int64_t expected_pass = 0;
    for (const ImageU8 &frame : frames) {
        expected_pass += reference.update(frame) ? 1 : 0;
    }
    ASSERT_GT(expected_pass, 0);
    ASSERT_LT(expected_pass, video.frameCount());

    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    const PipelineConfig cfg = PipelineConfig::full(pipe, Impl::Asic, 1);
    RuntimeOptions opts;
    opts.frames = video.frameCount();
    opts.gating = GatingMode::Executor;
    opts.pace_stages = false;
    StreamingPipeline sp(pipe, cfg, wifiUplink(), opts);
    sp.setExecutor(0, std::make_unique<MotionGateExecutor>());
    sp.setFrameFill(
        [&frames](Frame &f) {
            f.image = frames[static_cast<size_t>(f.id)];
        });
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});

    EXPECT_EQ(rep.stages[0].frames_out, expected_pass);
    EXPECT_EQ(rep.delivered_frames, expected_pass);
    EXPECT_EQ(rep.link.bytes_sent.b(),
              static_cast<double>(expected_pass) *
                  video.frameBytes().b());
}

TEST(Runtime, RealCodecReportsActualEncodedBytes)
{
    SecurityVideoConfig vcfg;
    vcfg.frames = 20;
    const SecurityVideo video(vcfg);
    std::vector<ImageU8> frames;
    for (int f = 0; f < video.frameCount(); ++f) {
        frames.push_back(video.frame(f).image);
    }

    double expected_bytes = 0.0;
    for (const ImageU8 &frame : frames) {
        expected_bytes += LosslessCodec::encode(frame).byteSize().b();
    }

    Pipeline pipe("compress-then-ship", video.frameBytes());
    Block compress("Compress", /*optional=*/true, video.frameBytes());
    compress.addImpl(Impl::Asic, {Time{}, Energy::nanojoules(200)});
    pipe.add(compress);

    RuntimeOptions opts;
    opts.frames = video.frameCount();
    opts.gating = GatingMode::Executor;
    opts.pace_stages = false;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe), wifiUplink(),
                         opts);
    sp.setExecutor(0, std::make_unique<EncodeExecutor>(/*lossless*/ 0));
    sp.setFrameFill(
        [&frames](Frame &f) {
            f.image = frames[static_cast<size_t>(f.id)];
        });
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});

    EXPECT_EQ(rep.delivered_frames, video.frameCount());
    // The uplink charged exactly what the codec actually produced.
    EXPECT_DOUBLE_EQ(rep.link.bytes_sent.b(), expected_bytes);
    EXPECT_LT(rep.link.bytes_sent.b(),
              static_cast<double>(video.frameCount()) *
                  video.frameBytes().b());
}

TEST(Runtime, ZeroByteCutStreamsWithoutPacingOrRadioCost)
{
    // A fully-gating filter before the cut: zero bytes cross the
    // uplink, which previously meant a divide-by-zero in the link
    // model and a zero-burst pacer. Now it means "link never the
    // bottleneck": frames deliver, zero transfer time and energy.
    Pipeline p("alarm-only", DataSize::kilobytes(19.2));
    Block motion("MotionDetect", /*optional=*/true,
                 DataSize::kilobytes(19.2));
    motion.setPassFraction(0.5);
    motion.addImpl(Impl::Asic, {Time{}, Energy::nanojoules(60)});
    p.add(motion);
    Block alarm("Alarm", /*optional=*/false, DataSize::bytes(0));
    alarm.addImpl(Impl::Asic, {Time{}, Energy::nanojoules(100)});
    p.add(alarm);

    RuntimeOptions opts;
    opts.frames = 100;
    opts.gating = GatingMode::Model;
    opts.pace_stages = false; // gating math only; pace_link stays on
    StreamingPipeline sp(p, PipelineConfig::full(p), backscatterUplink(),
                         opts);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});
    EXPECT_EQ(rep.delivered_frames, 50);
    EXPECT_DOUBLE_EQ(rep.link.bytes_sent.b(), 0.0);
    EXPECT_DOUBLE_EQ(rep.comm_energy.j(), 0.0);
}

TEST(Runtime, InlineRunMatchesThreadedCounts)
{
    // The serial one-thread execution a CameraFleet uses per camera
    // must produce the same frame accounting as the threaded shape.
    auto makeRun = [](bool inline_mode) {
        const Pipeline pipe = filterPipeline();
        RuntimeOptions opts;
        opts.frames = 203;
        opts.gating = GatingMode::Model;
        opts.pace_stages = false;
        opts.pace_link = false;
        StreamingPipeline sp(pipe, PipelineConfig::full(pipe),
                             twentyFiveGbE(), opts);
        return sp.run(RunOptions{inline_mode
                                     ? ExecutionMode::Inline
                                     : ExecutionMode::ThreadedStages});
    };
    const RuntimeReport threaded = makeRun(false);
    const RuntimeReport inlined = makeRun(true);

    EXPECT_EQ(inlined.source_frames, threaded.source_frames);
    EXPECT_EQ(inlined.delivered_frames, threaded.delivered_frames);
    ASSERT_EQ(inlined.stages.size(), threaded.stages.size());
    for (size_t i = 0; i < inlined.stages.size(); ++i) {
        EXPECT_EQ(inlined.stages[i].frames_in,
                  threaded.stages[i].frames_in);
        EXPECT_EQ(inlined.stages[i].frames_out,
                  threaded.stages[i].frames_out);
        EXPECT_EQ(inlined.stages[i].frames_dropped,
                  threaded.stages[i].frames_dropped);
    }
    EXPECT_DOUBLE_EQ(inlined.joules_per_frame.j(),
                     threaded.joules_per_frame.j());
}

TEST(Runtime, InlineMeasuredFpsMatchesModel)
{
    // Inline execution paces with per-stage buckets refilling in
    // parallel wall time, so its steady-state rate must also land on
    // min(stage rates, link rate).
    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    const NetworkLink link = wifiUplink();
    const PipelineConfig cfg = PipelineConfig::full(pipe, Impl::Asic, 2);
    const double expected =
        PipelineEvaluator(pipe, link).evaluateThroughput(cfg).total_fps;

    RuntimeOptions opts;
    opts.frames = 150;
    opts.gating = GatingMode::None;
    StreamingPipeline sp(pipe, cfg, link, opts);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::Inline});
    EXPECT_EQ(rep.delivered_frames, 150);
    EXPECT_LT(relError(rep.model_fps, expected), 0.15)
        << "measured " << rep.model_fps << " vs " << expected;
}

TEST(Runtime, ExecutorFailureShutsDownCleanly)
{
    /** Throws partway through the stream. */
    class Bomb : public BlockExecutor
    {
      public:
        bool
        process(Frame &frame) override
        {
            if (frame.id == 7) {
                throw std::runtime_error("executor blew up");
            }
            return true;
        }
    };

    const Pipeline pipe = filterPipeline();
    RuntimeOptions opts;
    opts.frames = 100;
    opts.queue_capacity = 2;
    opts.pace_stages = false;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe),
                         twentyFiveGbE(), opts);
    sp.setExecutor(1, std::make_unique<Bomb>());
    // The error propagates to the caller instead of hanging the join.
    EXPECT_THROW(sp.run(RunOptions{ExecutionMode::ThreadedStages}),
                 std::runtime_error);
}

TEST(Runtime, LatencyPercentilesTrackTheServiceTime)
{
    // One 10 ms block, saturated source: every frame waits at least
    // the block's service time end to end, so p50 has a hard floor —
    // and the percentiles must be ordered and model-time normalized.
    Pipeline p("latency", DataSize::bytes(1000));
    Block slow("Slow", /*optional=*/false, DataSize::bytes(100));
    slow.addImpl(Impl::Asic,
                 {Time::milliseconds(10), Energy::nanojoules(1)});
    p.add(slow);

    RuntimeOptions opts;
    opts.frames = 40;
    opts.gating = GatingMode::None;
    opts.pace_link = false;
    StreamingPipeline sp(p, PipelineConfig::full(p),
                         twentyFiveGbE(), opts);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});
    EXPECT_EQ(rep.delivered_frames, 40);
    EXPECT_GT(rep.latency_p50, 0.005);
    EXPECT_LE(rep.latency_p50, rep.latency_p95);
    EXPECT_LE(rep.latency_p95, rep.latency_p99);
    EXPECT_LT(rep.latency_p99, 5.0);
}

TEST(Runtime, InstancesAreSingleUse)
{
    const Pipeline pipe = filterPipeline();
    RuntimeOptions opts;
    opts.frames = 4;
    opts.pace_stages = false;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe),
                         twentyFiveGbE(), opts);
    (void)sp.run(RunOptions{ExecutionMode::ThreadedStages});
    EXPECT_DEATH(
        (void)sp.run(RunOptions{ExecutionMode::ThreadedStages}),
        "single-use");
}

} // namespace
} // namespace incam
