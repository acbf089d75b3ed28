/**
 * @file
 * The paper's claims, checked: Table I, Fig. 4c/6/7/9/10, §III-A (E1
 * topology, E2 PE count, E3 precision), the §III FA camera (E5), the
 * §IV-C network sweep, §V's scan density and the §II compression
 * extension, as rows {artifact, quantity, paper value, measured value,
 * tolerance, tolerance source, deviation}. Each tolerance comes from
 * one source, never from this program's output: the bound of the
 * tier-1 test that checks the same claim ("test X"), half a unit in
 * the paper's last printed digit ("paper precision"), or the words of
 * a shape claim ("paper wording"/"paper ordering"; "extension wording"
 * for the compression extension, which the paper leaves open). A row
 * outside its tolerance fails the run unless it carries a written
 * deviation; then it prints DEVIATION and the run still passes.
 *
 *   bench_paper     (no arguments; ends with one BENCH_JSON line)
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bilateral/bilateral_filter.hh"
#include "bilateral/stereo.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/network.hh"
#include "fa/auth.hh"
#include "fa/fa_pipeline.hh"
#include "harness.hh"
#include "hw/energy_model.hh"
#include "hw/sensor.hh"
#include "image/codec.hh"
#include "image/metrics.hh"
#include "image/ops.hh"
#include "nn/eval.hh"
#include "snnap/accelerator.hh"
#include "snnap/energy.hh"
#include "vj/score.hh"
#include "vj/train.hh"
#include "vr/pipeline_model.hh"
#include "workload/stereo_scene.hh"

using namespace incam;
using namespace incam::bench;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/** The paper value of a claim that states no number. */
constexpr double kNoValue = std::numeric_limits<double>::quiet_NaN();

std::string
cell(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return std::isnan(v) ? "-" : buf;
}

/** One claim; it passes when lo <= measured <= hi. A shape claim
 *  ("must hold") measures 1 when it holds and 0 when it does not. */
struct Row
{
    std::string artifact, quantity;
    double paper, measured, lo, hi;
    std::string tolerance, source;
    std::string deviation; ///< why a miss is expected; empty = gated

    bool within() const { return measured >= lo && measured <= hi; }
};

/** The table, filled one artifact at a time. */
struct Claims
{
    std::string artifact; ///< the artifact new rows belong to
    std::vector<Row> rows;

    Row &
    band(const std::string &quantity, double paper, double measured,
         double lo, double hi, const std::string &source)
    {
        std::string tol = "[" + cell(lo) + ", " + cell(hi) + "]";
        if (lo == -kInf || hi == kInf) {
            tol = hi == kInf ? ">= " + cell(lo) : "<= " + cell(hi);
        } else if (std::abs(paper + paper - lo - hi) < 1e-9) {
            tol = "+-" + cell(hi - paper);
        }
        rows.push_back(
            {artifact, quantity, paper, measured, lo, hi, tol, source, ""});
        return rows.back();
    }

    Row &
    near(const std::string &quantity, double paper, double measured,
         double tol, const std::string &source)
    {
        return band(quantity, paper, measured, paper - tol, paper + tol,
                    source);
    }

    Row &
    holds(const std::string &quantity, bool ok, const std::string &source)
    {
        Row &r = band(quantity, 1.0, ok ? 1.0 : 0.0, 1.0, 1.0, source);
        r.tolerance = "must hold";
        return r;
    }
};

bool
strictlyFalling(const std::vector<double> &v)
{
    return std::adjacent_find(v.begin(), v.end(), std::less_equal<>()) ==
           v.end();
}

// ---------------------------------------------------------------- VR

void
vrModel(Claims &c)
{
    const VrPipelineModel model;
    c.artifact = "Table I";
    const FpgaUsage ev = model.evaluationUsage();
    const FpgaUsage tg = model.targetUsage();
    const std::string t1 = "test VrModel.TableIReproduced";
    c.near("evaluation logic %", 45.91, ev.logic_pct, 0.5, t1);
    c.near("evaluation RAM %", 6.70, ev.ram_pct, 0.5, t1);
    c.near("evaluation DSP %", 94.09, ev.dsp_pct, 0.2, t1);
    c.near("target logic %", 67.10, tg.logic_pct, 0.5, t1);
    c.near("target RAM %", 17.60, tg.ram_pct, 0.5, t1);
    c.near("target DSP %", 99.98, tg.dsp_pct, 0.1, t1);
    c.near("target compute units", 682, tg.compute_units, 0.0, t1);

    c.artifact = "Fig. 9";
    auto share = [&](VrBlock b) { return 100.0 * model.cpuShare(b); };
    const std::string t9 = "test VrGeometry.Figure9ComputeShares";
    c.band("B1 CPU share %", 5, share(VrBlock::Preprocess), -kInf, 10, t9);
    c.band("B2 CPU share %", 20, share(VrBlock::Align), 10, 26, t9);
    c.near("B3 CPU share %", 70, share(VrBlock::Depth), 8, t9);
    c.band("B4 CPU share %", 5, share(VrBlock::Stitch), -kInf, 10, t9);
    bool ordered = true;
    for (VrBlock b : {VrBlock::Sensor, VrBlock::Preprocess, VrBlock::Depth}) {
        const double bytes = model.outputBytes(b).b();
        ordered = ordered && bytes < model.outputBytes(VrBlock::Align).b() &&
                  bytes > model.outputBytes(VrBlock::Stitch).b();
    }
    c.holds("B2 output largest, B4 output smallest", ordered,
            "paper ordering");

    c.artifact = "Fig. 10";
    auto comm = [&](VrBlock b) { return model.commFps(b); };
    const std::string tc = "test VrModel.Figure10CommunicationRates";
    c.near("comm FPS after sensor", 15.8, comm(VrBlock::Sensor), 0.4, tc);
    c.near("comm FPS after B1", 15.8, comm(VrBlock::Preprocess), 0.4, tc);
    c.near("comm FPS after B2", 3.95, comm(VrBlock::Align), 0.4, tc);
    c.near("comm FPS after B3", 11.2, comm(VrBlock::Depth), 1.2, tc);
    c.near("comm FPS after B4", 31.6, comm(VrBlock::Stitch), 0.8, tc);
    const double cpu = model.blockComputeFps(VrBlock::Depth, VrImpl::Cpu);
    const double gpu = model.blockComputeFps(VrBlock::Depth, VrImpl::Gpu);
    const double fpga = model.blockComputeFps(VrBlock::Depth, VrImpl::Fpga);
    const std::string tr = "test VrModel.Figure10ComputeRates";
    c.near("B3 compute FPS on CPU", 0.09, cpu, 0.03, tr);
    c.near("B3 compute FPS on GPU", 5.27, gpu, 0.3, tr);
    c.near("B3 compute FPS on FPGA", 31.6, fpga, 1.0, tr);
    c.band("B3 FPGA speedup over GPU (x)", 10, fpga / gpu, -kInf, 10,
           "paper wording: 'up to 10x'");
    int realtime = 0;
    bool full_fpga = true;
    for (const VrConfigRow &row : model.figure10()) {
        if (row.realtime) {
            ++realtime;
            full_fpga = full_fpga && row.last_block == 4 &&
                        row.impl == VrImpl::Fpga;
        }
    }
    c.holds("only S+B1+B2+B3(F)+B4(F) reaches 30 FPS",
            realtime == 1 && full_fpga,
            "test VrModel.OnlyFullFpgaPipelineIsRealtime");

    // §IV-C: the shortest real-time prefix per uplink rate (figure10()
    // orders its rows from short to long prefixes).
    c.artifact = "Sec. IV-C";
    bool shortens = true;
    size_t prefix = 0;
    VrPipelineModel fast;
    for (double gbps : {5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0}) {
        fast = VrPipelineModel(defaultVrGeometry(),
                               Bandwidth::gigabitsPerSec(gbps));
        const auto rows = fast.figure10();
        size_t first = 0;
        while (first < rows.size() && !rows[first].realtime) {
            ++first;
        }
        shortens = shortens && (gbps == 5.0 || first <= prefix);
        prefix = first;
    }
    c.near("raw sensor FPS at 400 GbE", 395, fast.commFps(VrBlock::Sensor),
           0.5, "paper precision")
        .deviation = "the 16 x 4K 12-bit Bayer frame set (199 MB) gives "
                     "~251 FPS; raw offload is still real-time, the "
                     "paper's conclusion (VrModel.FasterNetworkFlips"
                     "TheDecision records the gap)";
    c.holds("raw sensor offload is real-time at 400 GbE",
            fast.evaluate(0, VrImpl::Cpu).realtime,
            "test VrModel.FasterNetworkFlipsTheDecision");
    c.holds("faster uplinks shorten the in-camera prefix to none",
            shortens && prefix == 0, "paper ordering");
}

// ------------------------------------------------------- bilateral

void
bilateral(Claims &c)
{
    c.artifact = "Fig. 6";
    const int n = 200;
    const float lo = 0.25f, hi = 0.75f;
    const auto noisy = makeNoisyStep(n, lo, hi, 0.05f, 42);
    const auto averaged = movingAverage1d(noisy, 10);
    const auto filtered = bilateralFilter1d(noisy, 8.0, 12, 2);
    auto flatError = [&](const std::vector<float> &s) {
        double acc = 0.0; // over the low plateau, clear of the edge
        for (int i = 10; i < n / 2 - 15; ++i) {
            acc += std::fabs(s[static_cast<size_t>(i)] - lo);
        }
        return acc;
    };
    const std::string t6 =
        "test Fig6.BilateralPreservesEdgeMovingAverageDoesNot";
    c.band("bilateral / moving-average edge error", kNoValue,
           stepEdgeError(filtered, lo, hi) / stepEdgeError(averaged, lo, hi),
           -kInf, 0.6, t6);
    c.holds("bilateral filter denoises the flat region",
            flatError(filtered) < flatError(noisy), t6);

    // Fig. 7: real BSSA at three proxy resolutions standing in for the
    // paper's 5/7/8 MP frames, 4 .. 64 pixels per grid vertex.
    c.artifact = "Fig. 7";
    const int sizes[][2] = {{288, 192}, {342, 228}, {384, 216}};
    std::vector<std::vector<double>> quality; // [resolution][cell]
    for (const auto &wh : sizes) {
        const StereoPair scene = makeStereoPair({.width = wh[0],
                                                 .height = wh[1],
                                                 .layers = 5,
                                                 .max_disparity = 14,
                                                 .seed = 77});
        ImageF want = scene.disparity;
        for (float &v : want) {
            v /= 16.0f;
        }
        quality.emplace_back();
        for (int px : {4, 8, 16, 32, 64}) {
            BssaConfig cfg;
            cfg.max_disparity = 16;
            cfg.cell_spatial = px;
            // Range bins shrink with the cell (the paper scales all
            // three grid dimensions together).
            cfg.range_bins = std::max(2, 128 / px);
            cfg.solver_iterations = 12;
            ImageF got =
                BssaStereo(cfg).compute(scene.left, scene.right).disparity;
            for (float &v : got) {
                v /= 16.0f;
            }
            quality.back().push_back(msSsim(want, got));
        }
    }
    // Grid size: each resolution's drop from 4 to 64 px per vertex.
    // Resolution: the spread across resolutions at each grid size.
    bool falls = true;
    double least_grid_drop = kInf, worst_resolution_spread = 0.0;
    for (const auto &q : quality) {
        falls = falls && strictlyFalling(q);
        least_grid_drop = std::min(least_grid_drop, q.front() - q.back());
        for (size_t k = 0; k < q.size(); ++k) {
            for (const auto &other : quality) {
                worst_resolution_spread =
                    std::max(worst_resolution_spread, other[k] - q[k]);
            }
        }
    }
    c.holds("MS-SSIM falls as the grid coarsens, every resolution", falls,
            "paper wording: quality degrades as the grid shrinks");
    c.holds("resolution moves MS-SSIM less than grid size does",
            worst_resolution_spread < least_grid_drop,
            "paper wording: resolution is less impactful than grid size");
    c.band("full-scale aggregate grid (GB)", kNoValue,
           defaultVrGeometry().aggregateGridBytes().gb(), 1.0, 500.0,
           "test VrModel.AggregateGridBytesInFig7Range");
}

// ---------------------------------------------------------------- VJ

/** The detection cascade of Fig. 4c and of the FA camera: @p count
 *  faces of the first @p identities identities against @p negatives. */
Cascade
trainCascade(int count, uint64_t identities, const NegativeSource &negatives)
{
    Rng rng(31);
    std::vector<ImageU8> positives;
    for (int i = 0; i < count; ++i) {
        positives.push_back(toU8(renderFace(
            identityParams(rng.below(identities)), easyVariation(rng), 20)));
    }
    return CascadeTrainer({.max_features = 700,
                           .max_stages = 6,
                           .max_stumps_per_stage = 12,
                           .negatives_per_stage = 400,
                           .seed = 11})
        .train(positives, negatives);
}

void
figureFourC(Claims &c)
{
    c.artifact = "Fig. 4c";
    // One cascade held fixed across the sweep, as in the figure.
    const Cascade cascade = trainCascade(300, 50, [](Rng &r) {
        return toU8(renderDistractor(r.next(), 20));
    });
    // 24 scenes: a checkered background plus one known face each.
    std::vector<std::pair<ImageU8, Rect>> scenes;
    Rng rng(5);
    for (int i = 0; i < 24; ++i) {
        ImageF img(160, 120, 1);
        for (int y = 0; y < 120; ++y) {
            for (int x = 0; x < 160; ++x) {
                img.at(x, y) = 0.35f + 0.15f * ((x / 20 + y / 20) % 2) +
                               static_cast<float>(rng.uniform(-.02, .02));
            }
        }
        const int side = 32 + static_cast<int>(rng.below(48));
        const Rect face{static_cast<int>(rng.below(160 - side)),
                        static_cast<int>(rng.below(120 - side)), side, side};
        renderFaceInto(img, identityParams(100 + rng.below(50)),
                       easyVariation(rng), face);
        scenes.emplace_back(toU8(img), face);
    }
    // F1 over the scenes; a static step of 0 scans adaptively. Grouping
    // at min_neighbors = 2, as in the classic detector.
    auto f1 = [&](double scale, int static_step, double frac) {
        DetectorParams p;
        p.scale_factor = scale;
        p.adaptive_step = static_step == 0;
        p.static_step = static_step;
        p.adaptive_frac = frac;
        p.min_neighbors = 2;
        const Detector detector(cascade, p);
        DetectionScorer scorer(0.35);
        for (const auto &[image, face] : scenes) {
            scorer.add(detector.detect(image), {face});
        }
        return scorer.totals().f1();
    };
    std::vector<double> by_scale, by_static, by_adaptive;
    for (double scale : {1.25, 1.5, 1.75, 2.0}) {
        by_scale.push_back(f1(scale, 0, 0.05));
    }
    for (int step : {4, 8, 12, 16}) {
        by_static.push_back(f1(1.25, step, 0.05));
    }
    for (double frac : {0.1, 0.2, 0.3, 0.4}) {
        by_adaptive.push_back(f1(1.25, 0, frac));
    }
    const std::string falls =
        "paper wording: accuracy falls with scale factor and step";
    char why[128];
    std::snprintf(why, sizeof why,
                  "F1 %.3f/%.3f/%.3f/%.3f at scale 1.25/1.5/1.75/2.0 "
                  "rises once before it falls",
                  by_scale[0], by_scale[1], by_scale[2], by_scale[3]);
    c.holds("F1 falls with each scale factor 1.25 -> 2.0",
            strictlyFalling(by_scale), falls)
        .deviation = why;
    c.holds("F1 falls with each static step 4 -> 16 px",
            strictlyFalling(by_static), falls);
    c.holds("adaptive step 0.1 keeps the F1 of step 0",
            by_adaptive[0] >= f1(1.25, 0, 0.0),
            "paper wording: the adaptive step tolerates small fractions");
    c.holds("F1 falls with each adaptive step 0.1 -> 0.4",
            strictlyFalling(by_adaptive),
            "paper wording: ... and then degrades");
}

// ---------------------------------------------------------------- NN

/** Busy power (uW) and energy (nJ) of one 400-input inference. */
std::pair<double, double>
snnapCost(const QuantizedMlp &net, int pes, int width)
{
    const SnnapConfig sc{.num_pes = pes};
    SnnapAccelerator accel(net, sc);
    accel.runRaw(std::vector<int64_t>(400, 0));
    const SnnapEnergyModel em({}, sc, width);
    return {em.averagePower(accel.lastStats()).uw(),
            em.energy(accel.lastStats()).nj()};
}

void
nnStudies(Claims &c)
{
    c.artifact = "Sec. III-A E1";
    // LFW-like variation (the dataset default).
    FaceDatasetConfig dc{.identities = 30, .per_identity = 24, .seed = 7};
    auto train = [&](int side) {
        dc.size = side;
        return trainAuthNet(FaceDataset::generate(dc), 0,
                            MlpTopology{{side * side, 8, 1}},
                            {.epochs = 150});
    };
    const AuthNet small = train(5);
    const AuthNet auth = train(20);
    c.band("400-8-1 test error %", 5.9, 100.0 * auth.test_error, -kInf,
           10.0, "test AuthProtocol.Topology400x8x1LearnsAuthentication");
    c.holds("20x20 input F1 >= 5x5 input F1",
            auth.test_confusion.f1() + 1e-9 >= small.test_confusion.f1(),
            "test AuthProtocol.TinyInputWindowIsWorse");

    // E3 and E2 reuse the 20x20 net and its dataset.
    c.artifact = "Sec. III-A E3";
    FaceDataset train_ds, test_ds;
    FaceDataset::generate(dc).split(0.9, train_ds, test_ds);
    const TrainSet test_set = buildAuthSet(test_ds, 0);
    const double float_acc =
        evaluateBinary(predictorOf(auth.net), test_set).accuracy();
    auto quantized = [&](int width, bool lut) {
        return QuantizedMlp(auth.net, {.width = width, .lut_sigmoid = lut});
    };
    auto lossPp = [&](const QuantizedMlp &q) {
        return 100.0 * (float_acc -
                        evaluateBinary(predictorOf(q), test_set).accuracy());
    };
    const QuantizedMlp q16 = quantized(16, true);
    const QuantizedMlp q8 = quantized(8, true);
    const std::string order = "test QuantFixture.PaperPrecisionOrdering";
    c.band("16-bit accuracy loss vs float (pp)", 0.4, lossPp(q16), -1, 1,
           order);
    c.band("8-bit accuracy loss vs float (pp)", 0.4, lossPp(q8), -1, 1,
           order);
    c.band("4-bit accuracy loss vs float (pp)", 1,
           lossPp(quantized(4, true)), 1, kInf, order);
    c.near("8-bit LUT minus precise sigmoid accuracy (pp)", 0.0,
           lossPp(quantized(8, false)) - lossPp(q8), 1.0,
           "test QuantFixture.SigmoidLutIsAccuracyNeutral");
    const double p16 = snnapCost(q16, 8, 16).first;
    const double p8 = snnapCost(q8, 8, 8).first;
    c.near("8-bit power saving vs 16-bit at 8 PEs %", 41,
           100.0 * (1.0 - p8 / p16), 4.0,
           "test SnnapFixture.EightBitSavesAbout41PercentPower");
    c.band("8-bit 8-PE accelerator power (mW)", 1, p8 / 1000.0, -kInf, 1,
           "test SnnapFixture.SubMilliwattOperation");

    c.artifact = "Sec. III-A E2";
    const std::vector<int> pes = {1, 2, 4, 6, 8, 10, 12, 16, 24, 32};
    auto nj = [&](int n) { return snnapCost(q8, n, 8).second; };
    c.near("energy-optimal PE count (400-8-1, 8-bit)", 8,
           *std::min_element(pes.begin(), pes.end(),
                             [&](int a, int b) { return nj(a) < nj(b); }),
           0.0, "test SnnapFixture.EightPesIsEnergyOptimal");
}

// ---------------------------------------------------------------- FA

/** §III's compositions and §V's scan densities on the E5 recipe.
 *  Returns the filtered ASIC camera's energy per frame (uJ). */
double
faCamera(Claims &c, const SecurityVideo &video, const AuthNet &auth,
         const Cascade &cascade)
{
    c.artifact = "Sec. III E5";
    auto run = [&](bool md, bool vj, NnPlatform platform, double frac) {
        FaConfig cfg;
        cfg.use_motion = md;
        cfg.use_facedetect = vj;
        cfg.nn_platform = platform;
        cfg.detector.min_neighbors = 1;
        cfg.detector.adaptive_frac = frac;
        return FaCameraSim(cfg, vj ? &cascade : nullptr, auth.net).run(video);
    };
    const auto asic = NnPlatform::SnnapAsic;
    const FaRunResult nn = run(false, false, asic, 0.1);
    const FaRunResult md = run(true, false, asic, 0.1);
    const FaRunResult full = run(true, true, asic, 0.1);
    const FaRunResult mcu = run(true, true, NnPlatform::Mcu, 0.1);
    const std::string t5 = "test FaFixture.ProgressiveFilteringSavesEnergy";
    c.holds("MD+NN runs under half the NN-only inferences",
            md.counts.nn_inferences < nn.counts.nn_inferences / 2, t5);
    c.holds("MD+VJ+NN runs fewer inferences than MD+NN",
            full.counts.nn_inferences < md.counts.nn_inferences, t5);
    c.holds("energy falls with each added filter",
            md.energy.total().j() < nn.energy.total().j() &&
                full.energy.total().j() < md.energy.total().j(),
            t5);
    c.band("MCU / ASIC NN energy (x)", kNoValue,
           mcu.energy.nn.j() / full.energy.nn.j(), 20, kInf,
           "test FaFixture.AcceleratorBeatsMicrocontroller");
    c.band("MD+VJ+NN power at 1 FPS (mW)", 1,
           full.averagePower(FrameRate::fps(1.0)).mw(), -kInf, 1,
           "test FaFixture.SubMilliwattAverageAtOneFps");
    c.band("FPS sustained on RF harvest at 3 m", 1,
           full.sustainableFps(harvestedPower(RfHarvesterConfig{}, 3.0)), 1,
           kInf, "test FaFixture.HarvestedBudgetSustainsContinuousOperation");
    const std::string tq =
        "test FaFixture.AuthenticationQualityOnStagedWorkload";
    c.near("enrolled-visit miss rate %", 0, 100.0 * full.visitMissRate(), 0,
           tq);
    c.band("frame false-positive rate %", kNoValue,
           100.0 * static_cast<double>(full.auth.fp) /
               static_cast<double>(
                   std::max<uint64_t>(1, full.auth.fp + full.auth.tn)),
           -kInf, 10, tq);
    const SecurityVideoConfig &vc = video.cfg();
    const SensorModel sensor;
    const Energy raw = sensor.captureEnergy(vc.width, vc.height) +
                       backscatterUplink().transferEnergy(
                           sensor.frameBytes(vc.width, vc.height));
    double costliest = 0.0;
    for (const FaRunResult *r : {&nn, &md, &full, &mcu}) {
        costliest = std::max(costliest, r->perFrame().j());
    }
    c.holds("offloading raw frames costs the most energy",
            raw.j() > costliest, "paper ordering");

    // §V: the VJ scan density sets the detector's energy, the NN's duty
    // and the visit miss rate at once.
    c.artifact = "Sec. V";
    double least_uj = kInf, miss_at_least = 0.0, least_miss = kInf;
    for (double frac : {0.08, 0.12, 0.20, 0.30}) {
        const FaRunResult r = run(true, true, asic, frac);
        if (r.perFrame().uj() < least_uj) {
            least_uj = r.perFrame().uj();
            miss_at_least = r.visitMissRate();
        }
        least_miss = std::min(least_miss, r.visitMissRate());
    }
    c.holds("the energy-optimal scan step is not the recall-optimal one",
            miss_at_least > least_miss,
            "paper wording: accelerator parameters influence full-system "
            "behavior");
    return full.perFrame().uj();
}

// ------------------------------------------------------- compression

/** Mean lossless and DCT (quality @p q) ratios over every @p step-th
 *  frame of @p video. */
std::pair<double, double>
codecRatios(const SecurityVideo &video, int step, int q)
{
    Accumulator lossless, dct;
    for (int f = 0; f < video.frameCount(); f += step) {
        const ImageU8 frame = video.frame(f).image;
        lossless.sample(LosslessCodec::encode(frame).ratio());
        EncodedImage enc;
        DctCodec::roundTrip(frame, q, &enc);
        dct.sample(enc.ratio());
    }
    return {lossless.mean(), dct.mean()};
}

void
compression(Claims &c, double local_uj)
{
    c.artifact = "Sec. II compression";
    // FA: capture, an in-camera codec priced at ASIC ALU energy per op,
    // and backscatter for the compressed frame.
    const SecurityVideoConfig vc{.frames = 40, .seed = 99};
    const auto [fa_ll, fa_dct] = codecRatios(SecurityVideo(vc), 5, 40);
    const SensorModel sensor;
    auto offloadUj = [&](double ratio, double ops_per_pixel) {
        return (sensor.captureEnergy(vc.width, vc.height) +
                AsicEnergyModel().alu(16) *
                    (ops_per_pixel * vc.width * vc.height) +
                backscatterUplink().transferEnergy(
                    sensor.frameBytes(vc.width, vc.height) / ratio))
            .uj();
    };
    const double best_codec =
        std::min(offloadUj(fa_ll, 6.0), offloadUj(fa_dct, 33.0));
    char why[128];
    std::snprintf(why, sizeof why,
                  "best codec offload %.2f uJ/frame vs %.2f uJ in camera: "
                  "local still wins, by %.1fx",
                  best_codec, local_uj, best_codec / local_uj);
    c.band("best codec + backscatter over local E/frame (x)", 10,
           best_codec / local_uj, 10, kInf, "extension wording: '>10x'")
        .deviation = why;

    // VR: a codec after B1 on the 25 GbE uplink, ratios measured on
    // texture-heavy 384x216 proxy frames.
    const auto [vr_ll, vr_dct] = codecRatios(
        SecurityVideo({.width = 384,
                       .height = 216,
                       .frames = 4,
                       .ambient_motion_prob = 0}),
        1, 55);
    const double b1 = VrPipelineModel().commFps(VrBlock::Preprocess);
    c.holds("after B1 only a lossy codec reaches 30 FPS",
            b1 < 30.0 && b1 * vr_ll < 30.0 && b1 * vr_dct >= 30.0,
            "paper wording: 30 FPS upload requirement");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }
    banner("bench_paper", "the paper's claims against stated tolerances");
    const double t0 = wallSeconds();
    Claims c;
    vrModel(c);
    bilateral(c);
    figureFourC(c);
    nnStudies(c);

    // The one FA recipe (E5): a ten-minute 1 FPS video; the 400-8-1
    // authenticator, on cooperative faces jittered like the detector's
    // boxes; and a cascade trained on faces against half synthetic
    // clutter, half windows of the first 40 frames, rendered once
    // (frame() is pure in seed and index).
    const SecurityVideo video(
        {.frames = 240, .seed = 99, .visits = 6, .enrolled_fraction = 0.5});
    const AuthNet auth =
        trainAuthNet(FaceDataset::generate({.identities = 24,
                                            .per_identity = 20,
                                            .size = 20,
                                            .hard = false,
                                            .framing_jitter = 0.15,
                                            .seed = 7}),
                     video.cfg().enrolled_identity, MlpTopology{{400, 8, 1}},
                     {.epochs = 120});
    std::vector<ImageU8> background;
    for (int i = 0; i < 40; ++i) {
        background.push_back(video.frame(i).image);
    }
    const Cascade cascade = trainCascade(250, 40, [&background](Rng &r) {
        if (r.chance(0.5)) {
            return toU8(renderDistractor(r.next(), 20));
        }
        const ImageU8 &f = background[r.below(40)];
        const int side = 20 + static_cast<int>(r.below(40));
        const int x = static_cast<int>(r.below(f.width() - side));
        const int y = static_cast<int>(r.below(f.height() - side));
        return resizeNearest(crop(f, Rect{x, y, side, side}), 20, 20);
    });
    compression(c, faCamera(c, video, auth, cascade));
    const double wall = wallSeconds() - t0;

    TableWriter table({"artifact", "quantity", "paper", "measured",
                       "tolerance", "source", "status"});
    Gates gates;
    Json json("paper");
    // The FA recipe's fingerprint: its cascade is the part most
    // sensitive to a changed draw.
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016zx",
                  std::hash<std::string>{}(cascade.serialize()));
    json.field("wall_s", wall, 2).field("fa_cascade_hash", hash);
    json.array("rows");
    std::string deviations;
    for (const Row &r : c.rows) {
        const bool shape = r.tolerance == "must hold";
        const char *status = r.within()            ? "pass"
                             : r.deviation.empty() ? "FAIL"
                                                   : "DEVIATION";
        gates.check(r.artifact + ": " + r.quantity,
                    r.within() || !r.deviation.empty());
        if (!r.within() && !r.deviation.empty()) {
            deviations += "DEVIATION " + r.artifact + ": " + r.quantity +
                          " — " + r.deviation + "\n";
        }
        table.addRow({r.artifact, r.quantity,
                      shape ? "holds" : cell(r.paper),
                      shape ? (r.within() ? "yes" : "no") : cell(r.measured),
                      r.tolerance, r.source, status});
        json.item()
            .field("artifact", r.artifact).field("quantity", r.quantity)
            .field("paper", r.paper).field("measured", r.measured)
            .field("lo", r.lo).field("hi", r.hi).field("tolerance", r.tolerance)
            .field("source", r.source).field("deviation", r.deviation)
            .field("status", status).end();
    }
    table.print("paper claims");
    std::printf("%sFA cascade hash %s; %zu rows in %.1f s\n",
                deviations.c_str(), hash, c.rows.size(), wall);
    json.print();
    return gates.exitCode("bench_paper");
}
