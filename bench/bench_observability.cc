/**
 * @file
 * Observability overhead gates: tracing must be near-free when off and
 * cheap when on.
 *
 * The obs layer rides every per-frame hot path (source, stages, queue
 * pops, uplink attempts, delivery), so this harness prices it on the
 * two rigs that bound its use:
 *
 *  - *FA paced rig* (the bench_runtime_vs_model acceptance cuts):
 *    face-auth over Wi-Fi, throughput semantics, cuts 0/2/3. Each cut
 *    runs with obs disabled and with a recorder + registry attached;
 *    the enabled best-of-repeats must stay within 5% wall of the
 *    disabled one. A disabled-vs-disabled A/A pair on the same rig bounds
 *    the noise floor: the disabled configuration itself must show no
 *    measurable cost (the instrumentation guard is one cached pointer
 *    test).
 *
 *  - *1k-camera DES sweep*: a 1000-camera counting fleet on the
 *    discrete-event engine, every camera traced. The enabled run must
 *    sustain at least 90% of the disabled run's host events/s
 *    (<= 10% overhead), and the recorder must not drop events. Runs
 *    come in adjacent disabled/enabled pairs (ABBA order) until the
 *    disabled ones add up to kMinDesSeconds; the overhead is the
 *    median over the pairs.
 *
 * The harness also writes the CI demo artifacts: a degrade/heal
 * blackout trace with controller decision instants
 * (obs_demo.trace.json — load it in https://ui.perfetto.dev) and its
 * metric snapshot (obs_demo.metrics.jsonl).
 *
 *   bench_observability [--quick]
 *
 * Ends with one BENCH_JSON line; exits non-zero if any gate fails.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "adapt/controller.hh"
#include "core/network.hh"
#include "fa/scenario.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "harness.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"

using namespace incam;
using namespace incam::bench;

namespace {

constexpr double kMaxEnabledOverhead = 0.05; ///< FA paced rig
constexpr double kMaxAaSpread = 0.05;        ///< disabled noise floor
constexpr double kMaxDesOverhead = 0.10;     ///< 1k-camera DES sweep
/**
 * Disabled DES time the sweep measures before it stops. One quick
 * fleet run lasts ~15 ms and a shared host drifts by tens of percent
 * over seconds: a best-of-3 of single runs read anywhere from -6% to
 * +27%. Adjacent (off, on) pairs see the same drift; the median over
 * the ~30-40 pairs this buys read 5-11% over 40 quick runs on a
 * 4-vCPU Xeon.
 */
constexpr double kMinDesSeconds = 0.5;

// ---------------------------------------------------------------------
// FA paced rig: enabled vs disabled vs the A/A noise floor
// ---------------------------------------------------------------------

struct FaCutResult
{
    int cut = 0;
    double disabled_s = 0.0; ///< best-of-repeats wall, obs off
    double enabled_s = 0.0;  ///< best-of-repeats wall, obs on
    double aa_s = 0.0;       ///< second disabled best (A/A pair)
    int64_t events = 0;

    double
    overhead() const
    {
        return enabled_s / disabled_s - 1.0;
    }

    double
    aaSpread() const
    {
        return std::abs(aa_s / disabled_s - 1.0);
    }

    bool
    pass() const
    {
        return overhead() <= kMaxEnabledOverhead &&
               aaSpread() <= kMaxAaSpread;
    }
};

/** One paced throughput-semantics FA run; wall seconds out. */
double
runFaOnce(const Pipeline &fa, int cut, int64_t frames,
          obs::TraceRecorder *rec, obs::MetricsRegistry *reg)
{
    RuntimeOptions opts;
    opts.frames = frames;
    opts.gating = GatingMode::None;
    StreamingPipeline sp(fa, PipelineConfig::full(fa, Impl::Asic, cut),
                        wifiUplink(), opts);
    RunOptions ro;
    ro.obs.recorder = rec;
    ro.obs.registry = reg;
    const double t0 = wallSeconds();
    sp.run(ro);
    return wallSeconds() - t0;
}

FaCutResult
measureFaCut(const Pipeline &fa, int cut, int64_t frames, int repeats)
{
    FaCutResult r;
    r.cut = cut;
    std::vector<double> off, on, aa;
    // One untimed warm-up run: the first paced run of a cut pays
    // thread creation and page faults the rest never see.
    runFaOnce(fa, cut, frames / 2, nullptr, nullptr);
    // Interleave the arms so drift (thermal, scheduler) hits all
    // three equally instead of biasing whichever ran last.
    for (int i = 0; i < repeats; ++i) {
        off.push_back(runFaOnce(fa, cut, frames, nullptr, nullptr));
        obs::TraceRecorder rec;
        obs::MetricsRegistry reg;
        on.push_back(runFaOnce(fa, cut, frames, &rec, &reg));
        if (i == 0) {
            r.events =
                static_cast<int64_t>(rec.sortedEvents().size());
        }
        aa.push_back(runFaOnce(fa, cut, frames, nullptr, nullptr));
    }
    r.disabled_s = best(off);
    r.enabled_s = best(on);
    r.aa_s = best(aa);
    return r;
}

// ---------------------------------------------------------------------
// 1k-camera DES sweep: events/s with every camera traced
// ---------------------------------------------------------------------

struct DesResult
{
    int cameras = 0;
    int pairs = 0;            ///< adjacent (off, on) runs timed
    double disabled_s = 0.0;  ///< median disabled run
    double enabled_s = 0.0;   ///< median enabled run
    double overhead = 0.0;    ///< median of on/off - 1 over the pairs
    int64_t events = 0;       ///< trace events recorded (enabled run)
    int64_t rec_dropped = 0;
    int64_t delivered = 0;

    double
    eventsPerSec() const
    {
        return static_cast<double>(events) / enabled_s;
    }

    bool
    pass() const
    {
        return overhead <= kMaxDesOverhead && rec_dropped == 0;
    }
};

double
runDesOnce(const Pipeline &pipe, int n_cams, int64_t frames,
           obs::TraceRecorder *rec, int64_t *delivered)
{
    FleetOptions fopts;
    fopts.gating = GatingMode::Model;
    fopts.pace_stages = false;
    fopts.pace_link = false;
    fopts.trace_fps = 30.0;
    fopts.epoch_capacity = 4; // never reconfigures; keep 1k light
    CameraFleet fleet(radioLink("shared", 1e9, 1.0), fopts);
    for (int i = 0; i < n_cams; ++i) {
        FleetCamera cam("cam" + std::to_string(i), pipe,
                        PipelineConfig::full(pipe, Impl::Asic,
                                             i % 2 == 0 ? 0 : 2));
        cam.frames = frames;
        fleet.addCamera(std::move(cam));
    }
    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    ro.obs.recorder = rec;
    const double t0 = wallSeconds();
    const FleetRunReport rep = fleet.run(ro);
    const double dt = wallSeconds() - t0;
    if (delivered != nullptr) {
        *delivered = rep.ledger.delivered;
    }
    return dt;
}

DesResult
measureDes(int n_cams, int64_t frames)
{
    // The bench_fleet WISPCam swarm rig: the full FA cascade per
    // camera (model gating, per-stage pricing), not a toy one-block
    // chain — the baseline the <= 10% overhead bar is honest against.
    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    DesResult r;
    r.cameras = n_cams;
    // Ring capacity: ~10 events/frame; sized so the sweep never sheds
    // tail events (dropped() is a gate).
    const size_t ring = static_cast<size_t>(n_cams) *
                        static_cast<size_t>(frames) * 12u;
    std::vector<double> off, on, ratio;
    // One long-lived recorder, reset() between runs: the sweep prices
    // steady-state recording (the monitoring-daemon shape), not the
    // one-time page faults of a cold buffer. The untimed warm-up pair
    // faults in the chunks and the engine's heaps.
    obs::TraceRecorder rec(ring);
    runDesOnce(pipe, n_cams, frames, nullptr, nullptr);
    runDesOnce(pipe, n_cams, frames, &rec, nullptr);
    double disabled_total = 0.0;
    while (disabled_total < kMinDesSeconds) {
        // ABBA order: each arm runs first in every other pair, so a
        // run's effect on the next one (freed heap, cache state)
        // lands on both arms alike.
        const auto time_on = [&] {
            rec.reset();
            return runDesOnce(pipe, n_cams, frames, &rec, &r.delivered);
        };
        const auto time_off = [&] {
            return runDesOnce(pipe, n_cams, frames, nullptr, nullptr);
        };
        double on_s = 0.0;
        double off_s = 0.0;
        if (ratio.size() % 2 == 1) {
            on_s = time_on();
            off_s = time_off();
        } else {
            off_s = time_off();
            on_s = time_on();
        }
        if (ratio.empty()) {
            r.events =
                static_cast<int64_t>(rec.sortedEvents().size());
            r.rec_dropped = rec.dropped();
        }
        off.push_back(off_s);
        on.push_back(on_s);
        ratio.push_back(on_s / off_s);
        disabled_total += off_s;
    }
    r.pairs = static_cast<int>(ratio.size());
    r.disabled_s = median(off);
    r.enabled_s = median(on);
    r.overhead = median(ratio) - 1.0;
    return r;
}

// ---------------------------------------------------------------------
// Demo artifacts: the degrade/heal blackout trace for CI upload
// ---------------------------------------------------------------------

struct DemoResult
{
    size_t trace_bytes = 0;
    bool has_decisions = false;
    bool wrote = false;
};

DemoResult
writeDemoArtifacts()
{
    const Pipeline pipe = offloadablePipeline();
    const double fps = 4.0;
    const int64_t frames = 240;
    FaultPlan plan;
    plan.blackouts = {{Time::seconds(20.0), Time::seconds(20.0)}};
    const FaultInjector inj(plan);
    const NetworkLink link = radioLink("cheap", 1e6, 1.0);

    RuntimeOptions opts;
    opts.frames = frames;
    opts.gating = GatingMode::None;
    opts.pace_stages = false;
    opts.pace_link = false;
    opts.trace_fps = fps;
    opts.delivery.probe_every = 8;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         link, opts);
    sp.setFaultInjector(&inj);

    ControllerOptions copts;
    copts.goal.kind = OptimizerGoal::Kind::MinEnergy;
    copts.decision_period = 2.0;
    copts.sample_period = 0.5;
    copts.ewma_horizon = Time::seconds(1.0);
    copts.min_dwell = 1;
    copts.trace_fps = fps;
    copts.degrade_loss_threshold = 0.9;
    copts.restore_loss_threshold = 0.2;
    AdaptiveController ctl(pipe, link, copts);
    ctl.useFaultPlan(&plan);
    ctl.attach(sp);

    obs::TraceRecorder rec;
    obs::MetricsRegistry reg;
    obs::ObsConfig ob;
    ob.recorder = &rec;
    ob.registry = &reg;
    ob.frame_time = true;
    sp.setObs(ob, 0, "blackout-demo");
    ctl.setObs(ob);
    sp.run(RunOptions{ExecutionMode::ThreadedStages});

    DemoResult res;
    const std::string json = obs::chromeTraceJson(rec);
    res.trace_bytes = json.size();
    res.has_decisions =
        json.find("\"degrade\"") != std::string::npos &&
        json.find("\"heal\"") != std::string::npos &&
        json.find("\"decision\"") != std::string::npos;
    res.wrote = obs::writeChromeTrace(rec, "obs_demo.trace.json") &&
                obs::writeMetricsJsonl(reg.snapshot(),
                                       "obs_demo.metrics.jsonl");
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = parseQuick(argc, argv);
    banner("observability overhead",
           "per-frame tracing priced on the FA rig and a 1k-camera "
           "DES sweep");

    const int64_t fa_frames = quick ? 200 : 400;
    const int fa_repeats = quick ? 3 : 5;
    const Pipeline fa = buildFaPipeline(nominalFaMeasurements());

    Gates gates;
    Json json("observability");
    json.field("quick", quick).array("fa");
    std::printf("\nFA paced rig (%lld frames, best of %d):\n",
                static_cast<long long>(fa_frames), fa_repeats);
    std::printf("%-5s %12s %12s %10s %10s %9s\n", "cut", "off [s]",
                "on [s]", "overhead", "A/A", "events");
    for (const int cut : {0, 2, 3}) {
        const FaCutResult r =
            measureFaCut(fa, cut, fa_frames, fa_repeats);
        const bool ok =
            gates.check("FA cut " + std::to_string(cut), r.pass());
        std::printf("%-5d %12.4f %12.4f %9.1f%% %9.1f%% %9lld%s\n",
                    r.cut, r.disabled_s, r.enabled_s,
                    100.0 * r.overhead(), 100.0 * r.aaSpread(),
                    static_cast<long long>(r.events),
                    ok ? "" : "  <-- GATE FAILED");
        json.item()
            .field("cut", r.cut).field("disabled_s", r.disabled_s, 4)
            .field("enabled_s", r.enabled_s, 4)
            .field("overhead", r.overhead(), 4)
            .field("aa_spread", r.aaSpread(), 4).field("events", r.events)
            .end();
    }
    json.end();

    const int des_cams = 1000;
    const int64_t des_frames = quick ? 40 : 120;
    const DesResult des = measureDes(des_cams, des_frames);
    const bool des_ok = gates.check("DES sweep", des.pass());
    std::printf("\n%d-camera DES sweep (%lld frames/cam, median of %d "
                "pairs): off %.4f s, on %.4f s (%.1f%% overhead), %lld "
                "events at %.0f events/s, %lld dropped%s\n",
                des.cameras, static_cast<long long>(des_frames), des.pairs,
                des.disabled_s, des.enabled_s, 100.0 * des.overhead,
                static_cast<long long>(des.events), des.eventsPerSec(),
                static_cast<long long>(des.rec_dropped),
                des_ok ? "" : "  <-- GATE FAILED");
    json.object("des")
        .field("cameras", des.cameras).field("frames", des_frames)
        .field("pairs", des.pairs).field("disabled_s", des.disabled_s, 4)
        .field("enabled_s", des.enabled_s, 4).field("overhead", des.overhead, 4)
        .field("events", des.events)
        .field("events_per_sec", des.eventsPerSec(), 0)
        .field("dropped", des.rec_dropped).end();

    const DemoResult demo = writeDemoArtifacts();
    const bool demo_ok =
        gates.check("demo artifacts", demo.wrote && demo.has_decisions);
    std::printf("\ndemo artifacts: obs_demo.trace.json (%zu bytes, "
                "degrade/heal instants %s) + obs_demo.metrics.jsonl%s\n",
                demo.trace_bytes,
                demo.has_decisions ? "present" : "MISSING",
                demo_ok ? "" : "  <-- GATE FAILED");
    json.field("demo_trace_bytes", demo.trace_bytes);
    json.print();

    return gates.exitCode("bench_observability");
}
