/**
 * @file
 * perfbench_workload — runs ONE benchmark workload in this process and
 * prints its measurements as one `RESULT {json}` line.
 *
 *   perfbench_workload --workload <name> --seed <n> --seconds <s>
 *                      --trace <0|1>
 *
 * Workloads (see perfbench/README.md for why each exists):
 *
 *  - fa_doorway:  a pre-rendered security video through the streaming
 *                 runtime's Inline shape with the real MotionGate ->
 *                 VjCrop -> NnScore executors, all in camera, over the
 *                 backscatter uplink;
 *  - vr_rig:      16-camera rig frames through the VrPipeline stage
 *                 calls B1 (preprocess), B2 (rectifyPair), B3
 *                 (depthForPair) and B4 (stitch);
 *  - fleet_count: a 1k-camera FA fleet on the discrete-event engine,
 *                 counting mode, under a hash-drawn loss plan;
 *  - fleet_paced: a 10k-camera fleet of the same cameras, paced on the
 *                 shared SimLink uplink.
 *
 * The library is driven only through its public calls and timed from
 * outside. Untraced passes give the end-to-end metrics; with --trace 1
 * the measuring time is split between an untraced and a traced pass,
 * and the traced pass — which wraps every BlockExecutor in a timing
 * decorator and times each stage call — gives the per-layer metrics.
 * Every workload checks its own outputs; a failed check marks the
 * operations it covers as failed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "core/network.hh"
#include "core/pipeline.hh"
#include "fa/auth.hh"
#include "fa/scenario.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "image/ops.hh"
#include "runtime/executor.hh"
#include "runtime/runtime.hh"
#include "vj/train.hh"
#include "vr/blocks.hh"
#include "workload/dataset.hh"
#include "workload/facegen.hh"
#include "workload/video.hh"

using namespace incam;

namespace {

// ------------------------------------------------------------ plumbing

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return nearestRankPercentile(v, q);
}

/** Seed-derived sub-seeds, so each input family varies independently. */
uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
    return rng.next();
}

/** Peak resident set of this process, MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** A "VmXXX:  N kB" field of /proc/self/status, KB (0 if absent). */
double
procStatusKb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const size_t len = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':') {
            return std::atof(line.c_str() + len + 1);
        }
    }
    return 0.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Every end-to-end metric, reported by every workload. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"frames_per_s", "1/s"},
    {"frame_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

/**
 * Every per-layer metric. A workload reports all of them; a layer it
 * does not exercise reads 0 (the prediction for that pairing). FA
 * figures are per pass over the video, VR stage times per rig frame,
 * fleet figures per CameraFleet::run. The end-to-end figures that only
 * some workloads have ride here too, and so does frame_ms_p99: its
 * run-to-run spread on a shared host is wider than any bound it could
 * hold.
 */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"frame_ms_p99", "ms"},
    {"vj.calls", "count"},
    {"vj.busy_s", "s"},
    {"vj.pass_frac", "ratio"},
    {"vj.windows", "count"},
    {"motion.calls", "count"},
    {"motion.busy_s", "s"},
    {"motion.pass_frac", "ratio"},
    {"nn.calls", "count"},
    {"nn.busy_s", "s"},
    {"runtime.self_s", "s"},
    {"runtime.fill_s", "s"},
    {"vr.b1_s", "s/frame"},
    {"vr.b2_s", "s/frame"},
    {"vr.b3_s", "s/frame"},
    {"vr.b4_s", "s/frame"},
    {"fleet.run_s", "s"},
    {"fleet.build_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_frame", "events/frame"},
    {"link.tx_attempts", "count"},
    {"link.retried_frac", "ratio"},
    {"fleet.rss_per_camera_kb", "KB"},
    {"workload.render_s", "s"},
    {"fa.train_nn_s", "s"},
    {"vj.train_s", "s"},
    {"workload.rig_s", "s"},
    {"workload.frames", "count"},
    {"events_per_s", "1/s"},
    {"visit_recall", "ratio"},
    {"false_visit_rate", "ratio"},
    {"depth_mae_px", "px"},
    {"failed_frac", "ratio"},
    {"trace.fps_untraced", "1/s"},
    {"trace.fps_traced", "1/s"},
    {"trace.fps_ratio", "ratio"},
};

/** What one workload run measured and checked. */
struct Outcome
{
    std::map<std::string, double> values;
    std::vector<std::pair<std::string, bool>> checks;
    std::vector<std::pair<std::string, std::string>> info;
    int64_t attempted = 0;
    int64_t failed = 0;

    void set(const std::string &name, double v) { values[name] = v; }

    /** Record check @p name; returns @p ok for chaining. */
    bool
    check(const std::string &name, bool ok)
    {
        for (auto &c : checks) {
            if (c.first == name) {
                c.second = c.second && ok;
                return ok;
            }
        }
        checks.emplace_back(name, ok);
        return ok;
    }

    bool
    correct() const
    {
        return std::all_of(checks.begin(), checks.end(),
                           [](const auto &c) { return c.second; });
    }
};

/** Exact text form of a ledger (hex floats), for identity checks. */
std::string
ledgerKey(const LossLedger &l)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "o%" PRId64 " d%" PRId64 " r%" PRId64 " l%" PRId64 " x%" PRId64
        " g%" PRId64 " s%" PRId64 " k%" PRId64 " f%" PRId64 " t%" PRId64
        " rf%" PRId64 " a%" PRId64 " ls%" PRId64 " rb%a re%a bo%a",
        l.offered, l.delivered, l.delivered_remote, l.delivered_local,
        l.dropped, l.dropped_gated, l.dropped_source, l.dropped_link,
        l.dropped_fault, l.dropped_shutdown, l.retried_frames,
        l.tx_attempts, l.tx_losses, l.retry_bytes.b(),
        l.retry_energy.j(), l.backoff_seconds);
    return buf;
}

/** FNV-1a, so a long output key travels as one comparable number. */
std::string
digest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Busy time, calls and passes of one executor, summed over a pass. */
struct LayerStats
{
    int64_t calls = 0;
    int64_t passed = 0;
    double busy_s = 0.0;
};

/** Timing decorator: the traced run's span around one executor. */
class TimedExecutor : public BlockExecutor
{
  public:
    TimedExecutor(std::unique_ptr<BlockExecutor> inner, LayerStats &stats)
        : next(std::move(inner)), acc(stats)
    {
    }

    bool
    process(Frame &frame) override
    {
        const double t0 = hostNow();
        const bool pass = next->process(frame);
        acc.busy_s += hostNow() - t0;
        ++acc.calls;
        acc.passed += pass ? 1 : 0;
        return pass;
    }

  private:
    std::unique_ptr<BlockExecutor> next;
    LayerStats &acc;
};

/** Records the NN verdict of every frame that reaches it (the FA
 *  run's output, checked against the video's ground truth). */
class ScoreRecorder : public BlockExecutor
{
  public:
    ScoreRecorder(std::unique_ptr<BlockExecutor> inner,
                  std::vector<double> &scores)
        : next(std::move(inner)), out(scores)
    {
    }

    bool
    process(Frame &frame) override
    {
        const bool pass = next->process(frame);
        out.at(static_cast<size_t>(frame.id)) = frame.score;
        return pass;
    }

  private:
    std::unique_ptr<BlockExecutor> next;
    std::vector<double> &out;
};

std::string
joinNumbers(const std::vector<double> &v)
{
    std::string s;
    for (const double x : v) {
        s += (s.empty() ? "" : " ") + jsonNumber(x);
    }
    return s;
}

/** Set-ups per run of a workload with a costly set-up; setup_s is
 *  their median. */
constexpr int kSetups = 3;

/** Run @p pass until @p budget_s of its own measured time is spent
 *  (at least @p min_passes times). */
void
repeatFor(double budget_s, int min_passes,
          const std::function<double()> &pass)
{
    double spent = 0.0;
    for (int i = 0; i < min_passes || spent < budget_s; ++i) {
        spent += pass();
    }
}

// ------------------------------------------------------- fa_doorway

constexpr int kFaFrames = 3600;
constexpr int kFaVisits = 36;
constexpr int kFaCropSide = 20;
constexpr double kAuthThreshold = 0.5;
/** The models are part of the system under test, not of its input:
 *  they train from fixed seeds (examples/face_auth_camera's), so only
 *  the video varies with --seed. */
constexpr uint64_t kFaTrainVideoSeed = 2024;

struct FaInputs
{
    std::vector<ImageU8> frames;
    std::vector<FrameTruth> truth;
    std::unique_ptr<Mlp> net;
    Cascade cascade;
    double render_s = 0.0;
    double train_nn_s = 0.0;
    double train_vj_s = 0.0;
};

std::unique_ptr<FaInputs>
faSetup(uint64_t seed)
{
    auto in = std::make_unique<FaInputs>();

    double t0 = hostNow();
    SecurityVideoConfig vc;
    vc.frames = kFaFrames;
    vc.visits = kFaVisits;
    vc.enrolled_fraction = 0.5;
    vc.seed = subSeed(seed, 1);
    const SecurityVideo video(vc);
    in->frames.reserve(kFaFrames);
    in->truth.reserve(kFaFrames);
    for (int i = 0; i < kFaFrames; ++i) {
        VideoFrame f = video.frame(i);
        in->frames.push_back(std::move(f.image));
        in->truth.push_back(f.truth);
    }
    in->render_s = hostNow() - t0;

    // The 400-8-1 authenticator, trained as examples/face_auth_camera.
    t0 = hostNow();
    FaceDatasetConfig dc;
    dc.identities = 24;
    dc.per_identity = 20;
    dc.size = kFaCropSide;
    dc.hard = false;
    dc.framing_jitter = 0.15;
    dc.seed = 7;
    TrainConfig tc;
    tc.epochs = 120;
    in->net = std::make_unique<Mlp>(
        trainAuthNet(FaceDataset::generate(dc), vc.enrolled_identity,
                     MlpTopology{{kFaCropSide * kFaCropSide, 8, 1}}, tc)
            .net);
    in->train_nn_s = hostNow() - t0;

    // The VJ cascade; negatives mined from distractors and from the
    // first 40 frames of a held-out training video (its own scene).
    t0 = hostNow();
    SecurityVideoConfig tvc = vc;
    tvc.seed = kFaTrainVideoSeed;
    const SecurityVideo train_video(tvc);
    std::vector<ImageU8> train_frames;
    for (int i = 0; i < 40; ++i) {
        train_frames.push_back(train_video.frame(i).image);
    }
    Rng rng(31);
    std::vector<ImageU8> positives;
    for (int i = 0; i < 250; ++i) {
        positives.push_back(toU8(renderFace(identityParams(rng.below(40)),
                                            easyVariation(rng),
                                            kFaCropSide)));
    }
    const NegativeSource negatives = [&train_frames](Rng &r) {
        if (r.chance(0.5)) {
            return toU8(renderDistractor(r.next(), kFaCropSide));
        }
        const ImageU8 &f = train_frames[r.below(train_frames.size())];
        const int side = 20 + static_cast<int>(r.below(40));
        const int x = static_cast<int>(r.below(f.width() - side));
        const int y = static_cast<int>(r.below(f.height() - side));
        return resizeNearest(crop(f, Rect{x, y, side, side}), kFaCropSide,
                             kFaCropSide);
    };
    CascadeTrainConfig cc;
    cc.max_features = 700;
    cc.max_stages = 6;
    cc.max_stumps_per_stage = 12;
    cc.negatives_per_stage = 400;
    cc.seed = 11;
    in->cascade = CascadeTrainer(cc).train(positives, negatives);
    in->train_vj_s = hostNow() - t0;
    return in;
}

DetectorParams
faDetectorParams()
{
    DetectorParams dp;
    dp.min_neighbors = 1;
    dp.adaptive_step = true;
    dp.adaptive_frac = 0.1;
    return dp;
}

/** One pass of the video through the streaming runtime. */
struct FaPass
{
    double run_s = 0.0;
    double fill_s = 0.0;
    std::vector<double> fill_gaps_s; ///< between consecutive fills
    std::vector<double> scores;      ///< per frame; -1 = never scored
    RuntimeReport report;
    LayerStats motion, vj, nn;
};

FaPass
faRunPass(const FaInputs &in, bool traced)
{
    FaPass pass;
    pass.scores.assign(kFaFrames, -1.0);
    pass.fill_gaps_s.reserve(kFaFrames);

    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    RuntimeOptions ro;
    ro.frames = kFaFrames;
    ro.gating = GatingMode::Executor;
    ro.pace_stages = false;
    ro.pace_link = false;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 3),
                         backscatterUplink(), ro);

    std::unique_ptr<BlockExecutor> motion =
        std::make_unique<MotionGateExecutor>();
    std::unique_ptr<BlockExecutor> vj = std::make_unique<VjCropExecutor>(
        in.cascade, faDetectorParams(), kFaCropSide);
    std::unique_ptr<BlockExecutor> nn = std::make_unique<ScoreRecorder>(
        std::make_unique<NnScoreExecutor>(*in.net), pass.scores);
    if (traced) {
        motion = std::make_unique<TimedExecutor>(std::move(motion),
                                                 pass.motion);
        vj = std::make_unique<TimedExecutor>(std::move(vj), pass.vj);
        nn = std::make_unique<TimedExecutor>(std::move(nn), pass.nn);
    }
    sp.setExecutor(0, std::move(motion));
    sp.setExecutor(1, std::move(vj));
    sp.setExecutor(2, std::move(nn));

    double last_fill = -1.0;
    sp.setFrameFill([&](Frame &f) {
        const double t = hostNow();
        if (last_fill >= 0.0) {
            pass.fill_gaps_s.push_back(t - last_fill);
        }
        last_fill = t;
        f.image = in.frames[static_cast<size_t>(f.id)];
        f.bytes = f.image.byteSize();
        if (traced) {
            pass.fill_s += hostNow() - t;
        }
    });

    RunOptions run;
    run.mode = ExecutionMode::Inline;
    const double t0 = hostNow();
    pass.report = sp.run(run);
    pass.run_s = hostNow() - t0;
    return pass;
}

void
faVisitQuality(const FaInputs &in, const std::vector<double> &scores,
               Outcome &out)
{
    int64_t enrolled = 0, caught = 0, strangers = 0, accepted = 0;
    for (int i = 0; i < kFaFrames;) {
        const FrameTruth &t = in.truth[static_cast<size_t>(i)];
        if (!t.has_face) {
            ++i;
            continue;
        }
        // A visit: a maximal run of face frames of one identity.
        bool authenticated = false;
        int j = i;
        while (j < kFaFrames && in.truth[static_cast<size_t>(j)].has_face &&
               in.truth[static_cast<size_t>(j)].identity == t.identity) {
            authenticated = authenticated ||
                            scores[static_cast<size_t>(j)] >= kAuthThreshold;
            ++j;
        }
        if (t.is_enrolled) {
            ++enrolled;
            caught += authenticated ? 1 : 0;
        } else {
            ++strangers;
            accepted += authenticated ? 1 : 0;
        }
        i = j;
    }
    out.check("fa.video_has_both_visit_kinds", enrolled > 0 && strangers > 0);
    out.set("visit_recall",
            enrolled ? static_cast<double>(caught) / enrolled : 0.0);
    out.set("false_visit_rate",
            strangers ? static_cast<double>(accepted) / strangers : 0.0);
    out.info.emplace_back("fa.visits",
                          std::to_string(caught) + "/" +
                              std::to_string(enrolled) +
                              " enrolled caught, " +
                              std::to_string(accepted) + "/" +
                              std::to_string(strangers) +
                              " strangers accepted");
}

void
faWorkload(uint64_t seed, double seconds, bool trace, Outcome &out)
{
    std::unique_ptr<FaInputs> in;
    std::vector<double> setup_s, render_s, nn_s, vj_s;
    for (int k = 0; k < kSetups; ++k) {
        in.reset(); // one input set alive at a time
        const double t0 = hostNow();
        in = faSetup(seed);
        setup_s.push_back(hostNow() - t0);
        render_s.push_back(in->render_s);
        nn_s.push_back(in->train_nn_s);
        vj_s.push_back(in->train_vj_s);
    }
    out.set("setup_s", median(setup_s));
    out.set("workload.render_s", median(render_s));
    out.set("fa.train_nn_s", median(nn_s));
    out.set("vj.train_s", median(vj_s));
    out.set("workload.frames", kFaFrames);

    std::string reference; // ledger + J/frame + scores of the 1st pass
    std::vector<double> first_scores;
    std::vector<double> gaps;                 // untraced fill intervals
    std::vector<double> untraced_s, traced_s; // run() time per pass
    LayerStats motion, vj, nn;
    double fill_s = 0.0, self_s = 0.0;

    auto onePass = [&](bool traced) {
        FaPass p = faRunPass(*in, traced);
        out.attempted += kFaFrames;
        const LossLedger &l = p.report.ledger;
        std::string key = ledgerKey(l) + " jpf" +
                          hexDouble(p.report.joules_per_frame.j());
        for (double s : p.scores) {
            key += ' ' + hexDouble(s);
        }
        if (reference.empty()) {
            reference = key;
            first_scores = p.scores;
        }
        int64_t scored = 0;
        bool scores_ok = true;
        for (double s : p.scores) {
            if (s >= 0.0) {
                ++scored;
                scores_ok = scores_ok && s <= 1.0;
            }
        }
        bool ok = out.check("fa.ledger_consistent", l.consistent());
        ok = out.check("fa.all_frames_offered",
                       l.offered == kFaFrames &&
                           p.report.source_frames == kFaFrames) && ok;
        ok = out.check("fa.every_delivery_scored",
                       scored == l.delivered && scores_ok) && ok;
        ok = out.check("fa.identical_across_passes", key == reference) && ok;
        if (traced) {
            ok = out.check("fa.funnel_matches_ledger",
                           p.motion.calls == kFaFrames &&
                               p.vj.calls == p.motion.passed &&
                               p.nn.calls == p.vj.passed &&
                               p.nn.calls == l.delivered) && ok;
        }
        if (!ok) {
            out.failed += kFaFrames;
        }
        if (traced) {
            traced_s.push_back(p.run_s);
            motion.calls += p.motion.calls;
            motion.passed += p.motion.passed;
            motion.busy_s += p.motion.busy_s;
            vj.calls += p.vj.calls;
            vj.passed += p.vj.passed;
            vj.busy_s += p.vj.busy_s;
            nn.calls += p.nn.calls;
            nn.busy_s += p.nn.busy_s;
            fill_s += p.fill_s;
            self_s += p.run_s - p.motion.busy_s - p.vj.busy_s -
                      p.nn.busy_s - p.fill_s;
        } else {
            untraced_s.push_back(p.run_s);
            gaps.insert(gaps.end(), p.fill_gaps_s.begin(),
                        p.fill_gaps_s.end());
        }
        return p.run_s;
    };

    const double untraced_budget = trace ? seconds / 2 : seconds;
    repeatFor(untraced_budget, 1, [&] { return onePass(false); });
    out.set("frames_per_s", kFaFrames / median(untraced_s));
    out.set("frame_ms_p50", 1e3 * percentile(gaps, 0.50));
    out.set("frame_ms_p99", 1e3 * percentile(gaps, 0.99));
    out.info.emplace_back("fa.frame_samples", std::to_string(gaps.size()));
    out.info.emplace_back("fa.pass_s", joinNumbers(untraced_s));
    faVisitQuality(*in, first_scores, out);
    out.info.emplace_back("fa.output_digest", digest(reference));

    if (trace) {
        repeatFor(seconds / 2, 1, [&] { return onePass(true); });
        const double n = static_cast<double>(traced_s.size());
        const double windows = static_cast<double>(
            Detector(in->cascade, faDetectorParams())
                .windowCount(in->frames[0].width(), in->frames[0].height()));
        out.set("motion.calls", motion.calls / n);
        out.set("motion.busy_s", motion.busy_s / n);
        out.set("motion.pass_frac",
                static_cast<double>(motion.passed) / motion.calls);
        out.set("vj.calls", vj.calls / n);
        out.set("vj.busy_s", vj.busy_s / n);
        out.set("vj.pass_frac",
                vj.calls ? static_cast<double>(vj.passed) / vj.calls : 0.0);
        out.set("vj.windows", windows * vj.calls / n);
        out.set("nn.calls", nn.calls / n);
        out.set("nn.busy_s", nn.busy_s / n);
        out.set("runtime.fill_s", fill_s / n);
        out.set("runtime.self_s", self_s / n);
        out.set("trace.fps_untraced", kFaFrames / median(untraced_s));
        out.set("trace.fps_traced", kFaFrames / median(traced_s));
    }
}

// ----------------------------------------------------------- vr_rig

constexpr int kVrCameras = 16;
constexpr int kVrScenes = 48;
constexpr int kVrMaeScenes = 4; ///< depth_mae_px: the first 4 scenes

struct VrScene
{
    std::unique_ptr<CameraRig> rig;
    std::unique_ptr<VrPipeline> pipeline;
    std::vector<ImageU8> bayer;
    std::vector<ImageF> truth; ///< per pair: ground-truth disparity
};

BssaConfig
vrBssaConfig()
{
    BssaConfig bssa;
    bssa.max_disparity = 14;
    bssa.solver_iterations = 10;
    return bssa;
}

std::vector<VrScene>
vrSetup(uint64_t seed)
{
    std::vector<VrScene> scenes(kVrScenes);
    for (int s = 0; s < kVrScenes; ++s) {
        RigConfig rc;
        rc.cameras = kVrCameras;
        rc.cam_width = 160;
        rc.cam_height = 120;
        rc.overlap = 0.5;
        rc.layers = 6;
        rc.max_disparity = 12;
        rc.seed = subSeed(seed, 100 + static_cast<uint64_t>(s));
        VrScene &sc = scenes[static_cast<size_t>(s)];
        sc.rig = std::make_unique<CameraRig>(rc);
        sc.pipeline = std::make_unique<VrPipeline>(*sc.rig, vrBssaConfig());
        for (int k = 0; k < kVrCameras; ++k) {
            sc.bayer.push_back(sc.rig->bayerCapture(k));
        }
        for (int k = 0; k + 1 < kVrCameras; ++k) {
            sc.truth.push_back(sc.rig->pairDisparity(k));
        }
    }
    return scenes;
}

/** Mean |B3 - truth| over every pair, with the stereo demo's border. */
double
vrDepthMae(const VrScene &sc, const VrFrameBundle &b)
{
    double sum = 0.0;
    int64_t n = 0;
    for (size_t k = 0; k < b.depth.size(); ++k) {
        const ImageF &truth = sc.truth[k];
        const ImageF &got = b.depth[k].disparity;
        const int w = std::min(truth.width(), got.width());
        for (int y = 4; y < got.height() - 4; ++y) {
            for (int x = 8; x < w - 4; ++x) {
                sum += std::fabs(got.at(x, y) - truth.at(x, y));
                ++n;
            }
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
imageSum(const ImageF &img)
{
    double s = 0.0;
    for (const float v : img) {
        s += v;
    }
    return s;
}

void
vrWorkload(uint64_t seed, double seconds, bool trace, Outcome &out)
{
    std::vector<VrScene> scenes;
    std::vector<double> setup_s;
    for (int k = 0; k < kSetups; ++k) {
        scenes.clear();
        const double t0 = hostNow();
        scenes = vrSetup(seed);
        setup_s.push_back(hostNow() - t0);
    }
    out.set("setup_s", median(setup_s));
    out.set("workload.rig_s", median(setup_s));

    std::vector<std::string> scene_key(kVrScenes);
    std::vector<double> mae(kVrScenes, -1.0);
    std::vector<double> frame_s, traced_s; // per rig frame
    double b_s[4] = {0, 0, 0, 0};
    int64_t pairs = 0, pairs_off = 0, worst_off = 0;
    int64_t frame_no = 0;

    auto oneFrame = [&](bool traced) {
        const size_t s = static_cast<size_t>(frame_no++ % kVrScenes);
        const VrScene &sc = scenes[s];
        const VrPipeline &vp = *sc.pipeline;
        VrFrameBundle b;
        b.rgb.reserve(kVrCameras);
        double t[5];
        t[0] = hostNow();
        for (int k = 0; k < kVrCameras; ++k) {
            b.rgb.push_back(vp.preprocess(sc.bayer[static_cast<size_t>(k)]));
        }
        t[1] = traced ? hostNow() : 0.0;
        for (int k = 0; k + 1 < kVrCameras; ++k) {
            b.pairs.push_back(vp.rectifyPair(b.rgb[static_cast<size_t>(k)],
                                             b.rgb[static_cast<size_t>(k) + 1]));
        }
        t[2] = traced ? hostNow() : 0.0;
        for (const auto &pair : b.pairs) {
            b.depth.push_back(vp.depthForPair(pair));
        }
        t[3] = traced ? hostNow() : 0.0;
        vp.stitch(b);
        t[4] = hostNow();
        const double dt = t[4] - t[0];
        out.attempted += 1;

        bool offsets_ok = b.pairs.size() == kVrCameras - 1;
        for (const auto &pair : b.pairs) {
            const int64_t off = std::abs(pair.offset - sc.rig->step());
            offsets_ok = offsets_ok && off == 0;
            ++pairs;
            pairs_off += off ? 1 : 0;
            worst_off = std::max(worst_off, off);
        }
        const double m = vrDepthMae(sc, b);
        const std::string d = hexDouble(m) + ' ' +
                              hexDouble(imageSum(b.pano_left)) + ' ' +
                              hexDouble(imageSum(b.pano_right));
        if (scene_key[s].empty()) {
            scene_key[s] = d;
            mae[s] = m;
        }
        bool ok = out.check("vr.b2_offsets_equal_rig_step", offsets_ok);
        ok = out.check("vr.depth_mae_finite", std::isfinite(m)) && ok;
        ok = out.check("vr.identical_on_scene_repeat", d == scene_key[s]) &&
             ok;
        if (!ok) {
            out.failed += 1;
        }
        if (traced) {
            for (int i = 0; i < 4; ++i) {
                b_s[i] += t[i + 1] - t[i];
            }
            traced_s.push_back(dt);
        } else {
            frame_s.push_back(dt);
        }
        return dt;
    };

    repeatFor(trace ? seconds / 2 : seconds, kVrMaeScenes,
              [&] { return oneFrame(false); });
    out.set("frames_per_s", 1.0 / median(frame_s));
    out.set("frame_ms_p50", 1e3 * percentile(frame_s, 0.50));
    out.set("frame_ms_p99", 1e3 * percentile(frame_s, 0.99));
    out.info.emplace_back("vr.frame_samples", std::to_string(frame_s.size()));

    double mae_sum = 0.0;
    for (int s = 0; s < kVrMaeScenes; ++s) {
        mae_sum += mae[static_cast<size_t>(s)];
    }
    out.set("depth_mae_px", mae_sum / kVrMaeScenes);
    out.set("workload.frames", 1);
    std::string keys;
    for (int s = 0; s < kVrMaeScenes; ++s) {
        keys += scene_key[static_cast<size_t>(s)] + ';';
    }
    out.info.emplace_back("vr.output_digest", digest(keys));

    if (trace) {
        repeatFor(seconds / 2, 1, [&] { return oneFrame(true); });
        const double n = static_cast<double>(traced_s.size());
        out.set("vr.b1_s", b_s[0] / n);
        out.set("vr.b2_s", b_s[1] / n);
        out.set("vr.b3_s", b_s[2] / n);
        out.set("vr.b4_s", b_s[3] / n);
        out.set("trace.fps_untraced", 1.0 / median(frame_s));
        out.set("trace.fps_traced", 1.0 / median(traced_s));
    }
    out.info.emplace_back("vr.b2_offsets_off_rig_step",
                          std::to_string(pairs_off) + "/" +
                              std::to_string(pairs) + " pairs, worst " +
                              std::to_string(worst_off) + " px");
}

// ------------------------------------------------------ fleet_count/paced

/**
 * Fleet sizes. fleet_paced keeps the 10k x 300 fleet it aborts on.
 * fleet_count runs the same 3M camera-frames as 1k x 3000: at 10k
 * cameras the ~70 MB of camera state made every frame tick
 * memory-bound, and its run-to-run spread on a shared host (0.27-0.41
 * of the median) was wider than any bound; at 1k it was 0.06.
 */
constexpr int kCountCameras = 1000;
constexpr int64_t kCountFrames = 3000;
constexpr int kPacedCameras = 10000;
constexpr int64_t kPacedFrames = 300;
constexpr double kFleetFrameFps = 30.0;

/** Fleet-frame clock: in a frame-clocked discrete-event run the
 *  cameras' source steps arrive frame-major, so a change of frame id
 *  marks the host instant one fleet-wide frame began. */
struct FleetTicker
{
    int64_t current = -1;
    std::vector<double> starts;

    void
    tick(int64_t id)
    {
        if (id != current) {
            current = id;
            starts.push_back(hostNow());
        }
    }
};

struct FleetBlueprint
{
    Pipeline large = buildFaPipeline(nominalFaMeasurements());
    Pipeline small = buildFaPipeline(nominalFaMeasurements(128, 96, 18));
    std::vector<bool> is_large; ///< per camera: seeded geometry mix
    int64_t frames;             ///< per camera
    FaultInjector faults;

    FleetBlueprint(uint64_t seed, int cameras, int64_t frames_per_camera)
        : frames(frames_per_camera),
          faults(FaultPlan{subSeed(seed, 7), 0.1, {}, {}, {}, {}})
    {
        Rng rng(subSeed(seed, 8));
        for (int i = 0; i < cameras; ++i) {
            is_large.push_back(rng.chance(0.5));
        }
    }
};

std::unique_ptr<CameraFleet>
fleetBuild(const FleetBlueprint &bp, bool paced, FleetTicker &ticker)
{
    FleetOptions fo;
    fo.policy = SharePolicy::Fair;
    fo.gating = GatingMode::None;
    fo.pace_stages = false;
    fo.pace_link = paced;
    fo.trace_fps = kFleetFrameFps;
    fo.queue_capacity = 4;
    fo.epoch_capacity = 4; // never reconfigures
    fo.faults = &bp.faults;
    fo.delivery.max_retries = 2;
    fo.delivery.ack_timeout = 0.02;
    fo.delivery.backoff_base = 0.05;
    fo.delivery.backoff_jitter = 0.2;
    auto fleet = std::make_unique<CameraFleet>(backscatterUplink(), fo);
    const std::function<void(StreamingPipeline &)> hook =
        [&ticker](StreamingPipeline &sp) {
            sp.setSourceTick([&ticker](int64_t id) { ticker.tick(id); });
        };
    for (size_t i = 0; i < bp.is_large.size(); ++i) {
        const Pipeline &p = bp.is_large[i] ? bp.large : bp.small;
        FleetCamera cam("cam" + std::to_string(i), p,
                        PipelineConfig::full(p, Impl::Asic, 2));
        cam.frames = bp.frames;
        cam.customize = hook;
        fleet->addCamera(std::move(cam));
    }
    return fleet;
}

void
fleetWorkload(uint64_t seed, double seconds, bool trace, bool paced,
              Outcome &out)
{
    const FleetBlueprint bp(seed, paced ? kPacedCameras : kCountCameras,
                            paced ? kPacedFrames : kCountFrames);
    const auto cameras = static_cast<double>(bp.is_large.size());
    const NetworkLink link = backscatterUplink();
    const double large_cut =
        PipelineEvaluator(bp.large, link)
            .cutBytes(PipelineConfig::full(bp.large, Impl::Asic, 2))
            .b();
    const double small_cut =
        PipelineEvaluator(bp.small, link)
            .cutBytes(PipelineConfig::full(bp.small, Impl::Asic, 2))
            .b();
    const auto camera_frames =
        static_cast<int64_t>(bp.is_large.size()) * bp.frames;
    // Announced before the first run, so an abort still reports how
    // many operations it took down with it.
    std::printf("PLAN {\"attempted\": %" PRId64 "}\n", camera_frames);
    std::fflush(stdout);

    std::vector<double> build_s;
    std::vector<double> untraced_s, traced_s; // CameraFleet::run per pass
    std::vector<double> frame_s; // untraced fleet-wide frame ticks
    std::string reference;
    FleetRunReport last;
    double rss_per_cam_kb = 0.0;

    auto onePass = [&](bool traced) {
        FleetTicker ticker;
        ticker.starts.reserve(static_cast<size_t>(bp.frames) + 1);
        const double rss0 = procStatusKb("VmRSS");
        double t0 = hostNow();
        std::unique_ptr<CameraFleet> fleet = fleetBuild(bp, paced, ticker);
        build_s.push_back(hostNow() - t0);

        RunOptions ro;
        ro.mode = ExecutionMode::DiscreteEvent;
        t0 = hostNow();
        FleetRunReport rep = fleet->run(ro);
        const double t1 = hostNow();
        if (rss_per_cam_kb == 0.0) {
            rss_per_cam_kb = (procStatusKb("VmHWM") - rss0) / cameras;
        }
        fleet.reset();
        out.attempted += camera_frames;

        double expected_bytes = 0.0;
        for (size_t i = 0; i < rep.cameras.size(); ++i) {
            expected_bytes +=
                static_cast<double>(rep.cameras[i].runtime.ledger.tx_attempts) *
                (bp.is_large[i] ? large_cut : small_cut);
        }
        const std::string key = ledgerKey(rep.ledger) + " e" +
                                hexDouble(rep.total_energy.j()) + " b" +
                                hexDouble(rep.uplink_bytes.b()) + " n" +
                                std::to_string(rep.des_events);
        if (reference.empty()) {
            reference = key;
        }
        bool ok = out.check("fleet.ledger_consistent",
                            rep.ledger.consistent());
        ok = out.check("fleet.offered_eq_delivered_plus_dropped",
                       rep.ledger.offered == camera_frames &&
                           rep.ledger.offered == rep.ledger.delivered +
                                                     rep.ledger.dropped) && ok;
        ok = out.check("fleet.uplink_bytes_eq_attempts_x_cut_bytes",
                       rep.uplink_bytes.b() == expected_bytes) && ok;
        ok = out.check("fleet.identical_across_passes", key == reference) && ok;
        ok = out.check("fleet.frame_clock_frame_major",
                       paced || ticker.starts.size() ==
                                    static_cast<size_t>(bp.frames)) && ok;
        if (!ok) {
            out.failed += camera_frames;
        }
        (traced ? traced_s : untraced_s).push_back(t1 - t0);
        if (!traced) {
            ticker.starts.push_back(t1);
            for (size_t i = 1; i < ticker.starts.size(); ++i) {
                frame_s.push_back(ticker.starts[i] - ticker.starts[i - 1]);
            }
        }
        rep.cameras.clear();
        last = std::move(rep);
        return t1 - t0;
    };

    repeatFor(trace ? seconds / 2 : seconds, 1,
              [&] { return onePass(false); });
    out.set("setup_s", median(build_s));
    out.set("frames_per_s", camera_frames / median(untraced_s));
    out.set("frame_ms_p50", 1e3 * percentile(frame_s, 0.50));
    out.set("frame_ms_p99", 1e3 * percentile(frame_s, 0.99));
    out.info.emplace_back("fleet.frame_samples",
                          std::to_string(frame_s.size()));
    out.info.emplace_back("fleet.output_key", reference);
    out.info.emplace_back("fleet.pass_s", joinNumbers(untraced_s));

    if (trace) {
        repeatFor(seconds / 2, 1, [&] { return onePass(true); });
        const double run_s = median(traced_s);
        const auto events = static_cast<double>(last.des_events);
        out.set("fleet.run_s", run_s);
        out.set("fleet.build_s", median(build_s));
        out.set("sim.events", events);
        out.set("sim.events_per_frame", events / camera_frames);
        out.set("link.tx_attempts",
                static_cast<double>(last.ledger.tx_attempts));
        out.set("link.retried_frac",
                static_cast<double>(last.ledger.retried_frames) /
                    static_cast<double>(last.ledger.offered));
        out.set("fleet.rss_per_camera_kb", rss_per_cam_kb);
        out.set("events_per_s", events / run_s);
        out.set("workload.frames", static_cast<double>(camera_frames));
        out.set("trace.fps_untraced", camera_frames / median(untraced_s));
        out.set("trace.fps_traced", camera_frames / run_s);
    }
}

// ------------------------------------------------------ calibration

/** A trivially parallel integer loop; returns a value so it is kept. */
uint64_t
spin(uint64_t iters, uint64_t salt)
{
    uint64_t x = salt | 1;
    for (uint64_t i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    return x;
}

void
calibrate(Outcome &out)
{
    const int threads =
        std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
    out.info.emplace_back("host.nproc", std::to_string(threads));

    // Timer resolution: the smallest step steady_clock shows.
    double res = 1.0;
    double prev = hostNow();
    for (int i = 0; i < 100000; ++i) {
        const double t = hostNow();
        if (t > prev) {
            res = std::min(res, t - prev);
        }
        prev = t;
    }
    timespec ts{};
    clock_getres(CLOCK_MONOTONIC, &ts);
    out.info.emplace_back("host.timer_resolution_ns",
                          jsonNumber(res * 1e9));
    out.info.emplace_back("host.clock_getres_ns",
                          std::to_string(ts.tv_sec * 1000000000L +
                                         ts.tv_nsec));

    // Speedup of the same per-thread work at 1 vs nproc threads.
    const uint64_t iters = 20000000;
    std::vector<uint64_t> sink(static_cast<size_t>(threads));
    double t0 = hostNow();
    sink[0] = spin(iters, 1);
    const double serial = hostNow() - t0;
    std::vector<std::thread> pool;
    t0 = hostNow();
    for (int i = 0; i < threads; ++i) {
        pool.emplace_back([&sink, i, iters] {
            sink[static_cast<size_t>(i)] = spin(iters, static_cast<uint64_t>(i) + 2);
        });
    }
    for (auto &t : pool) {
        t.join();
    }
    const double parallel = hostNow() - t0;
    volatile uint64_t fold = 0; // keeps the loops from being elided
    for (uint64_t v : sink) {
        fold = fold ^ v;
    }
    out.info.emplace_back("host.spin_ns_per_iter",
                          jsonNumber(serial * 1e9 / static_cast<double>(iters)));
    out.info.emplace_back("host.parallel_speedup",
                          jsonNumber(threads * serial / parallel));
    out.info.emplace_back("host.parallel_threads", std::to_string(threads));
}

void
emit(const std::string &workload, uint64_t seed, bool trace,
     const Outcome &out)
{
    std::string j = "{\"workload\": " + jsonString(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + (trace ? "1" : "0") +
                    ", \"correct\": " + (out.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(out.attempted) +
                    ", \"failed\": " + std::to_string(out.failed);
    auto metrics = [&](const auto &table) {
        std::string m = "{";
        for (const auto &[name, unit] : table) {
            const auto it = out.values.find(name);
            const double v = it == out.values.end() ? 0.0 : it->second;
            m += (m.size() > 1 ? ", " : "") + jsonString(name) +
                 ": {\"value\": " + jsonNumber(v) +
                 ", \"unit\": " + jsonString(unit) + "}";
        }
        return m + "}";
    };
    j += ", \"end_to_end\": " + metrics(kEndToEnd);
    j += ", \"per_layer\": " + metrics(kPerLayer);
    j += ", \"checks\": {";
    for (size_t i = 0; i < out.checks.size(); ++i) {
        j += (i ? ", " : "") + jsonString(out.checks[i].first) + ": " +
             (out.checks[i].second ? "true" : "false");
    }
    j += "}, \"manifest\": {\"compiler\": " + jsonString(PERFBENCH_COMPILER) +
         ", \"cxx_flags\": " + jsonString(PERFBENCH_CXX_FLAGS) +
         ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
    for (const auto &[k, v] : out.info) {
        j += ", " + jsonString(k) + ": " + jsonString(v);
    }
    j += "}}";
    std::printf("RESULT %s\n", j.c_str());
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fa_doorway|vr_rig|fleet_count|"
                 "fleet_paced --seed N --seconds S --trace 0|1\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload") {
            workload = val;
        } else if (flag == "--seed") {
            seed = std::strtoull(val, nullptr, 10);
        } else if (flag == "--seconds") {
            seconds = std::atof(val);
        } else if (flag == "--trace") {
            trace = std::atoi(val);
        } else {
            return usage(argv[0]);
        }
    }
    if (argc % 2 == 0 || workload.empty() || seconds <= 0.0 ||
        (trace != 0 && trace != 1)) {
        return usage(argv[0]);
    }

    Outcome out;
    calibrate(out);
    out.info.emplace_back("seed", std::to_string(seed));
    if (workload == "fa_doorway") {
        faWorkload(seed, seconds, trace == 1, out);
    } else if (workload == "vr_rig") {
        vrWorkload(seed, seconds, trace == 1, out);
    } else if (workload == "fleet_count" || workload == "fleet_paced") {
        fleetWorkload(seed, seconds, trace == 1,
                      workload == "fleet_paced", out);
    } else {
        return usage(argv[0]);
    }
    out.set("peak_rss_mb", peakRssMb());
    out.set("failed_frac", out.attempted
                               ? static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted)
                               : 1.0);
    const auto fu = out.values.find("trace.fps_untraced");
    const auto ft = out.values.find("trace.fps_traced");
    if (fu != out.values.end() && ft != out.values.end()) {
        out.set("trace.fps_ratio", ft->second / fu->second);
    }
    emit(workload, seed, trace == 1, out);
    return 0;
}
