/**
 * @file
 * Tests for the observability layer (src/obs/) and its runtime wiring:
 * the log-bucketed histogram's percentile error bound, the metrics
 * registry's snapshot/diff semantics, the trace recorder's overflow
 * accounting, and — the load-bearing property — byte-identical
 * Chrome-trace exports across execution shapes and across same-seed
 * repeats.
 *
 * Determinism contract pinned here (docs/observability.md):
 *
 *  - In counting mode with a frame clock and ObsConfig::frame_time,
 *    the exported trace of a run is a pure function of the workload —
 *    ThreadedStages, Inline and DiscreteEvent produce the same bytes.
 *  - A DES fleet run re-exported from a second identical run is
 *    byte-identical (virtual timestamps, deterministic event order).
 *  - Adaptive controller decision/degrade/heal instants are stamped
 *    in model time, so they line up exactly with the trace-time of
 *    the frames that triggered them.
 *
 * All runs are counting mode (no pacing), so the suite is fast and
 * stable under the TSan INCAM_THREADS = 1/2/8 CI matrix.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/controller.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "obs/export.hh"
#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"

namespace incam {
namespace {

NetworkLink
radioLink(const std::string &name, double bytes_per_sec,
          double nj_per_bit)
{
    NetworkLink l;
    l.name = name;
    l.bandwidth = Bandwidth::bytesPerSec(bytes_per_sec);
    l.energy_per_bit = Energy::nanojoules(nj_per_bit);
    return l;
}

/** Same crossover pipeline as the adaptive/fault suites: cut 0
 *  streams the raw 1000-byte frame, cut 1 computes in camera. */
Pipeline
offloadablePipeline()
{
    Pipeline p("offloadable", DataSize::bytes(1000));
    Block reduce("Reduce", /*optional=*/false, DataSize::bytes(100));
    reduce.addImpl(Impl::Asic,
                   {Time::milliseconds(5), Energy::microjoules(50)});
    p.add(reduce);
    return p;
}

RuntimeOptions
countingOptions(int64_t frames)
{
    RuntimeOptions o;
    o.frames = frames;
    o.gating = GatingMode::None;
    o.pace_stages = false;
    o.pace_link = false;
    return o;
}

/** Deterministic xorshift64 — tests must not touch host randomness. */
uint64_t
nextRand(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

// ---------------------------------------------------------------------
// LogHistogram — the bounded-memory percentile engine behind
// RuntimeReport's latency percentiles (satellite: percentile
// regression vs exact nearest-rank).
// ---------------------------------------------------------------------

TEST(ObsHistogram, PercentilesWithinOneBucketOfExact)
{
    obs::LogHistogram h;
    std::vector<double> samples;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 5000; ++i) {
        // ~3 decades of spread, deterministic.
        const double v =
            1e-4 * (1.0 + static_cast<double>(nextRand(x) % 1000000) /
                              1000.0);
        samples.push_back(v);
        h.record(v);
    }
    ASSERT_EQ(h.count(), 5000);
    std::sort(samples.begin(), samples.end());

    for (const double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
        const size_t rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        const double exact = samples[std::min(rank, samples.size()) - 1];
        const double approx = h.percentile(q);
        EXPECT_LE(std::abs(approx - exact) / exact,
                  obs::LogHistogram::relativeError() + 1e-12)
            << "q=" << q << " exact=" << exact << " approx=" << approx;
    }
    // The mean is exact (tracked as a running sum, not from buckets).
    double sum = 0.0;
    for (const double v : samples) {
        sum += v;
    }
    EXPECT_NEAR(h.sum(), sum, 1e-9 * sum);
}

TEST(ObsHistogram, ZeroBucketReportsExactZero)
{
    // Counting-mode runs on a virtual clock deliver at zero elapsed
    // time; those percentiles must be exactly 0.0, not a bucket
    // midpoint near 1e-9.
    obs::LogHistogram h;
    for (int i = 0; i < 90; ++i) {
        h.record(0.0);
    }
    for (int i = 0; i < 10; ++i) {
        h.record(1.0);
    }
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(0.9), 0.0);
    EXPECT_GT(h.percentile(0.95), 0.9);
    EXPECT_EQ(obs::LogHistogram{}.percentile(0.5), 0.0); // empty
}

TEST(ObsHistogram, MergeFoldsBucketsAndCounts)
{
    obs::LogHistogram a, b;
    for (int i = 0; i < 50; ++i) {
        a.record(1.0);
        b.record(100.0);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), 100);
    EXPECT_NEAR(a.sum(), 50.0 * 101.0, 1e-9);
    EXPECT_LT(a.percentile(0.25), 1.1);
    EXPECT_GT(a.percentile(0.75), 90.0);
}

// ---------------------------------------------------------------------
// MetricsRegistry — snapshot / diff / find
// ---------------------------------------------------------------------

TEST(ObsMetrics, SnapshotDiffAndFind)
{
    obs::MetricsRegistry reg;
    obs::Counter &frames = reg.counter("frames", "cam0");
    obs::Gauge &depth = reg.gauge("depth");
    obs::LogHistogram &lat = reg.histogram("latency_s", "cam0");

    frames.add(5.0);
    depth.set(3.0);
    lat.record(0.25);
    const obs::MetricsSnapshot before = reg.snapshot();

    frames.add(2.5);
    depth.set(7.0);
    lat.record(0.5);
    // A series born between the snapshots keeps its value in diff().
    reg.counter("late_joiner").add(4.0);
    const obs::MetricsSnapshot after = reg.snapshot();
    const obs::MetricsSnapshot delta = after.diff(before);

    const obs::MetricValue *f = delta.find("frames", "cam0");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->kind, obs::MetricKind::Counter);
    EXPECT_DOUBLE_EQ(f->value, 2.5);

    const obs::MetricValue *g = delta.find("depth");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->value, 7.0); // gauges keep the later state

    const obs::MetricValue *h = delta.find("latency_s", "cam0");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2);

    const obs::MetricValue *lj = delta.find("late_joiner");
    ASSERT_NE(lj, nullptr);
    EXPECT_DOUBLE_EQ(lj->value, 4.0);

    EXPECT_EQ(delta.find("absent"), nullptr);

    // Snapshots are (name, label) sorted — the export-determinism
    // precondition.
    for (size_t i = 1; i < after.values.size(); ++i) {
        const obs::MetricValue &p = after.values[i - 1];
        const obs::MetricValue &c = after.values[i];
        EXPECT_TRUE(p.name < c.name ||
                    (p.name == c.name && p.label < c.label));
    }

    // find-or-create returns the same handle, not a new series.
    EXPECT_EQ(&reg.counter("frames", "cam0"), &frames);
    EXPECT_EQ(after.values.size(), 4u);
}

// ---------------------------------------------------------------------
// TraceRecorder — overflow accounting and deterministic ordering
// ---------------------------------------------------------------------

TEST(ObsRecorder, OverflowCountsDroppedInsteadOfGrowing)
{
    obs::TraceRecorder rec(/*capacity_per_thread=*/4);
    for (int i = 0; i < 10; ++i) {
        obs::TraceEvent ev;
        ev.t = static_cast<double>(i);
        rec.record(ev);
    }
    EXPECT_EQ(rec.sortedEvents().size(), 4u);
    EXPECT_EQ(rec.dropped(), 6);
}

TEST(ObsRecorder, SortedEventsUseTheTotalKey)
{
    obs::TraceRecorder rec;
    // Recorded deliberately out of order; sortedEvents must impose
    // (t, camera, frame, seq, kind, tid).
    obs::TraceEvent a;
    a.t = 2.0;
    obs::TraceEvent b;
    b.t = 1.0;
    b.camera = 1;
    obs::TraceEvent c;
    c.t = 1.0;
    c.camera = 0;
    c.seq = 7;
    obs::TraceEvent d;
    d.t = 1.0;
    d.camera = 0;
    d.seq = 3;
    for (const obs::TraceEvent &ev : {a, b, c, d}) {
        rec.record(ev);
    }
    const std::vector<obs::TraceEvent> evs = rec.sortedEvents();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs[0].seq, 3u);
    EXPECT_EQ(evs[1].seq, 7u);
    EXPECT_EQ(evs[2].camera, 1);
    EXPECT_EQ(evs[3].t, 2.0);

    rec.setCameraLabel(1, "roof-cam");
    const std::string json = obs::chromeTraceJson(rec);
    EXPECT_NE(json.find("traceEvents"), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("roof-cam"), std::string::npos);
}

// ---------------------------------------------------------------------
// Cross-shape byte-identical traces (the tentpole contract)
// ---------------------------------------------------------------------

struct SoloRun
{
    std::string trace_json;
    std::string counters; // frame/tx counters, label-free, as JSONL
    int64_t recorder_dropped = 0;
};

/** One counting-mode faulty run of the crossover pipeline under
 *  @p mode, traced on the frame clock. */
SoloRun
runSoloTraced(ExecutionMode mode, const FaultInjector &inj)
{
    const Pipeline pipe = offloadablePipeline();
    RuntimeOptions opts = countingOptions(120);
    opts.trace_fps = 4.0;
    opts.delivery.max_retries = 3;
    opts.delivery.ack_timeout = 0.02;
    opts.delivery.backoff_base = 0.05;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("lossy", 1e6, 1.0), opts);
    sp.setFaultInjector(&inj);

    obs::TraceRecorder rec;
    obs::MetricsRegistry reg;
    RunOptions ro;
    ro.mode = mode;
    ro.obs.recorder = &rec;
    ro.obs.registry = &reg;
    ro.obs.frame_time = true;
    const RuntimeReport rep = sp.run(ro);
    EXPECT_EQ(rep.source_frames, 120);

    SoloRun out;
    out.trace_json = obs::chromeTraceJson(rec);
    out.recorder_dropped = rec.dropped();
    // Only the count-type series: latency histograms and queue gauges
    // legitimately differ across clocks (wall vs virtual).
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const char *name :
         {"frames_sourced", "frames_delivered", "frames_dropped",
          "tx_attempts", "tx_losses", "retry_attempts", "bytes_sent"}) {
        const obs::MetricValue *v = snap.find(name);
        EXPECT_NE(v, nullptr) << name;
        if (v != nullptr) {
            out.counters += std::string(name) + "=" +
                            std::to_string(v->value) + "\n";
        }
    }
    return out;
}

TEST(ObsTrace, CountingSoloTraceByteIdenticalAcrossShapes)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.tx_loss = 0.2;
    const FaultInjector inj(plan);

    const SoloRun threaded =
        runSoloTraced(ExecutionMode::ThreadedStages, inj);
    const SoloRun inline_run = runSoloTraced(ExecutionMode::Inline, inj);
    const SoloRun des = runSoloTraced(ExecutionMode::DiscreteEvent, inj);

    EXPECT_EQ(threaded.recorder_dropped, 0);
    EXPECT_GT(threaded.trace_json.size(), 1000u);
    EXPECT_TRUE(threaded.trace_json == inline_run.trace_json)
        << "threaded " << threaded.trace_json.size()
        << " bytes vs inline " << inline_run.trace_json.size();
    EXPECT_TRUE(threaded.trace_json == des.trace_json)
        << "threaded " << threaded.trace_json.size()
        << " bytes vs discrete-event " << des.trace_json.size();
    EXPECT_EQ(threaded.counters, inline_run.counters);
    EXPECT_EQ(threaded.counters, des.counters);

    // The faults actually fired: loss and retry events are present.
    EXPECT_NE(threaded.trace_json.find("tx_loss"), std::string::npos);
    EXPECT_NE(threaded.trace_json.find("tx_backoff"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// DES fleet: same-seed repeats export the same bytes
// ---------------------------------------------------------------------

std::string
runFleetTraced(const FaultInjector &inj, bool frame_time)
{
    const Pipeline pipe = offloadablePipeline();
    FleetOptions fopts;
    fopts.gating = GatingMode::None;
    fopts.pace_stages = false;
    fopts.pace_link = false;
    fopts.trace_fps = 4.0;
    fopts.faults = &inj;
    fopts.delivery.max_retries = 2;
    fopts.delivery.ack_timeout = 0.02;
    fopts.delivery.backoff_base = 0.05;
    CameraFleet fleet(radioLink("shared", 8e6, 1.0), fopts);
    for (int i = 0; i < 4; ++i) {
        FleetCamera cam("cam" + std::to_string(i), pipe,
                        PipelineConfig::full(pipe, Impl::Asic,
                                             i % 2 == 0 ? 0 : 1));
        cam.frames = 120;
        fleet.addCamera(std::move(cam));
    }
    obs::TraceRecorder rec;
    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    ro.obs.recorder = &rec;
    ro.obs.frame_time = frame_time;
    const FleetRunReport rep = fleet.run(ro);
    EXPECT_EQ(rep.cameras.size(), 4u);
    EXPECT_EQ(rec.dropped(), 0);
    // RunOptions forwarding labelled every camera by name.
    EXPECT_EQ(rec.cameraLabels().size(), 4u);
    return obs::chromeTraceJson(rec);
}

TEST(ObsTrace, DesFleetTraceByteIdenticalAcrossRepeats)
{
    FaultPlan plan;
    plan.seed = 17;
    plan.tx_loss = 0.1;
    plan.blackouts = {{Time::seconds(10.0), Time::seconds(5.0)}};
    plan.crashes = {{/*camera=*/1, Time::seconds(4.0),
                     Time::seconds(2.0)}};
    const FaultInjector inj(plan);

    // Virtual-clock timestamps: deterministic without frame_time.
    const std::string a = runFleetTraced(inj, /*frame_time=*/false);
    const std::string b = runFleetTraced(inj, /*frame_time=*/false);
    EXPECT_GT(a.size(), 1000u);
    EXPECT_TRUE(a == b)
        << a.size() << " bytes vs " << b.size() << " bytes";
    EXPECT_NE(a.find("cam3"), std::string::npos);
    EXPECT_NE(a.find("crash"), std::string::npos);
}

// ---------------------------------------------------------------------
// Controller decision instants align with their triggering frames
// ---------------------------------------------------------------------

TEST(ObsTrace, DegradeHealInstantsAlignWithTriggeringFrames)
{
    // The blackout template of test_fault's DegradeToLocal suite:
    // 20 s outage from t = 20, degrade at the t = 22 decision (frame
    // 88), heal at t = 42 (frame 168).
    const Pipeline pipe = offloadablePipeline();
    const double fps = 4.0;
    const int64_t frames = 240;
    FaultPlan plan;
    plan.blackouts = {{Time::seconds(20.0), Time::seconds(20.0)}};
    const FaultInjector inj(plan);
    const NetworkLink link = radioLink("cheap", 1e6, 1.0);

    RuntimeOptions opts = countingOptions(frames);
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
    copts.hysteresis = 0.05;
    copts.min_dwell = 1;
    copts.trace_fps = fps;
    copts.degrade_loss_threshold = 0.9;
    copts.restore_loss_threshold = 0.2;
    AdaptiveController ctl(pipe, link, copts);
    ctl.useFaultPlan(&plan);
    ctl.attach(sp);

    obs::TraceRecorder rec;
    obs::ObsConfig ob;
    ob.recorder = &rec;
    ob.frame_time = true;
    sp.setObs(ob);
    ctl.setObs(ob);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});
    EXPECT_EQ(ctl.switches(), 2);
    EXPECT_EQ(rep.reconfigurations, 2);

    const std::vector<obs::TraceEvent> evs = rec.sortedEvents();
    double degrade_t = -1.0, heal_t = -1.0;
    double deliver_88_t = -1.0;
    int32_t deliver_88_outcome = -1;
    size_t decisions = 0;
    for (const obs::TraceEvent &ev : evs) {
        switch (ev.kind) {
        case obs::EventKind::Degrade:
            degrade_t = ev.t;
            break;
        case obs::EventKind::Heal:
            heal_t = ev.t;
            break;
        case obs::EventKind::Decision:
            ++decisions;
            EXPECT_EQ(ev.tid, obs::kTidController);
            break;
        case obs::EventKind::Deliver:
            if (ev.frame == 88) {
                deliver_88_t = ev.t;
                deliver_88_outcome = ev.b;
            }
            break;
        default:
            break;
        }
    }
    // Every logged decision produced exactly one Decision instant at
    // its model time with the switch flag mirrored.
    ASSERT_EQ(decisions, ctl.decisions().size());
    size_t i = 0;
    for (const obs::TraceEvent &ev : evs) {
        if (ev.kind != obs::EventKind::Decision) {
            continue;
        }
        EXPECT_EQ(ev.t, ctl.decisions()[i].t);
        EXPECT_EQ(ev.a, ctl.decisions()[i].switched ? 1 : 0);
        ++i;
    }

    // The degrade instant sits exactly on the trace-time of the first
    // locally-delivered frame (frame 88 at 22 s), the heal exactly on
    // the t = 42 decision — model-time stamping, not wall time.
    EXPECT_DOUBLE_EQ(degrade_t, 22.0);
    EXPECT_DOUBLE_EQ(heal_t, 42.0);
    EXPECT_DOUBLE_EQ(deliver_88_t, 88.0 / fps);
    EXPECT_DOUBLE_EQ(deliver_88_t, degrade_t);
    EXPECT_EQ(deliver_88_outcome, 2); // delivered locally
}

// ---------------------------------------------------------------------
// Registry, Telemetry and report agree at the end of a run
// ---------------------------------------------------------------------

/** A two-block in-camera chain: a half-pass gate, then a reducer. */
Pipeline
gatedPipeline()
{
    Pipeline p("gated", DataSize::bytes(1000));
    Block gate("Gate", /*optional=*/false, DataSize::bytes(1000));
    gate.setPassFraction(0.5);
    gate.addImpl(Impl::Asic,
                 {Time::milliseconds(1), Energy::microjoules(10)});
    p.add(gate);
    Block reduce("Reduce", /*optional=*/false, DataSize::bytes(100));
    reduce.addImpl(Impl::Asic,
                   {Time::milliseconds(5), Energy::microjoules(50)});
    p.add(reduce);
    return p;
}

/** Every ledger cause fires: link loss past a one-retry budget, a
 *  crash window on camera 0, Reduce faults under a Drop policy. */
FaultPlan
everyCausePlan()
{
    FaultPlan plan;
    plan.seed = 29;
    plan.tx_loss = 0.5;
    plan.crashes = {{/*camera=*/0, Time::seconds(5.0),
                     Time::seconds(2.0)}};
    plan.stage_faults = {{/*block=*/1, /*fault_probability=*/0.2,
                          /*slowdown=*/1.0, Time{}, Time{}}};
    return plan;
}

/** Degrade to local delivery for frames [60, 90) from the source
 *  tick, so delivered_local is non-zero too. */
void
degradeMidRun(StreamingPipeline &sp)
{
    const PipelineConfig cfg = sp.initialConfig();
    sp.setSourceTick([&sp, cfg](int64_t id) {
        if (id == 60) {
            sp.reconfigure(cfg, /*deliver_local=*/true);
        } else if (id == 90) {
            sp.reconfigure(cfg, /*deliver_local=*/false);
        }
    });
}

/** The registry series under @p label must equal the run's ledger
 *  and link totals. */
void
expectRegistryMatchesReport(const obs::MetricsSnapshot &snap,
                            const std::string &label,
                            const RuntimeReport &rep)
{
    const LossLedger &lg = rep.ledger;
    const auto value = [&](const char *name) {
        const obs::MetricValue *v = snap.find(name, label);
        EXPECT_NE(v, nullptr) << name << " for '" << label << "'";
        return v != nullptr ? v->value : -1.0;
    };
    EXPECT_EQ(value("frames_sourced"), static_cast<double>(lg.offered));
    EXPECT_EQ(value("frames_delivered"),
              static_cast<double>(lg.delivered));
    EXPECT_EQ(value("frames_dropped"),
              static_cast<double>(lg.dropped - lg.dropped_shutdown));
    EXPECT_EQ(value("tx_attempts"), static_cast<double>(lg.tx_attempts));
    EXPECT_EQ(value("tx_losses"), static_cast<double>(lg.tx_losses));
    EXPECT_DOUBLE_EQ(value("backoff_seconds"), lg.backoff_seconds);
    EXPECT_DOUBLE_EQ(value("bytes_sent"), rep.link.bytes_sent.b());
    EXPECT_DOUBLE_EQ(value("comm_energy_j"), rep.comm_energy.j());
    const obs::MetricValue *lat = snap.find("latency_s", label);
    ASSERT_NE(lat, nullptr) << "latency_s for '" << label << "'";
    EXPECT_EQ(lat->count, lg.delivered);
}

TEST(ObsMetrics, RegistryTelemetryAndLedgerAgreeInEveryShape)
{
    const Pipeline pipe = gatedPipeline();
    const FaultInjector inj(everyCausePlan());
    for (const ExecutionMode mode :
         {ExecutionMode::ThreadedStages, ExecutionMode::Inline,
          ExecutionMode::DiscreteEvent}) {
        SCOPED_TRACE(static_cast<int>(mode));
        RuntimeOptions opts = countingOptions(120);
        opts.gating = GatingMode::Model;
        opts.trace_fps = 10.0;
        opts.delivery.max_retries = 1;
        opts.delivery.probe_every = 4;
        opts.stage_policy.on_fault = StageFaultAction::Drop;
        StreamingPipeline sp(pipe,
                             PipelineConfig::full(pipe, Impl::Asic, 2),
                             radioLink("lossy", 1e6, 1.0), opts);
        sp.setFaultInjector(&inj);
        degradeMidRun(sp);
        obs::MetricsRegistry reg;
        RunOptions ro;
        ro.mode = mode;
        ro.obs.registry = &reg;
        const RuntimeReport rep = sp.run(ro);

        const LossLedger &lg = rep.ledger;
        ASSERT_TRUE(lg.consistent());
        EXPECT_GT(lg.dropped_gated, 0);
        EXPECT_GT(lg.dropped_source, 0);
        EXPECT_GT(lg.dropped_link, 0);
        EXPECT_GT(lg.dropped_fault, 0);
        EXPECT_GT(lg.delivered_local, 0);
        EXPECT_GT(lg.delivered_remote, 0);

        expectRegistryMatchesReport(reg.snapshot(), "", rep);

        const Telemetry &t = sp.telemetry();
        EXPECT_EQ(t.source_frames.load(), lg.offered);
        EXPECT_EQ(t.delivered_frames.load(), lg.delivered);
        EXPECT_EQ(t.delivered_local.load(), lg.delivered_local);
        EXPECT_EQ(t.link_dropped.load(), lg.dropped_link);
        EXPECT_EQ(t.tx_attempts.load(), lg.tx_attempts);
        EXPECT_EQ(t.tx_losses.load(), lg.tx_losses);
        EXPECT_DOUBLE_EQ(t.backoff_seconds.load(), lg.backoff_seconds);
        EXPECT_DOUBLE_EQ(t.bytes_sent.load(), rep.link.bytes_sent.b());
        EXPECT_DOUBLE_EQ(t.comm_energy_j.load(), rep.comm_energy.j());
    }
}

TEST(ObsMetrics, FleetCamerasPublishUnderTheirOwnLabels)
{
    const Pipeline pipe = gatedPipeline();
    const FaultInjector inj(everyCausePlan());
    for (const ExecutionMode mode :
         {ExecutionMode::ThreadPerCamera, ExecutionMode::DiscreteEvent}) {
        SCOPED_TRACE(static_cast<int>(mode));
        FleetOptions fopts;
        fopts.pace_stages = false;
        fopts.pace_link = false;
        fopts.trace_fps = 10.0;
        fopts.faults = &inj;
        fopts.delivery.max_retries = 1;
        fopts.delivery.probe_every = 4;
        fopts.stage_policy.on_fault = StageFaultAction::Drop;
        CameraFleet fleet(radioLink("shared", 8e6, 1.0), fopts);
        // Different lengths and cuts, so swapped labels would show.
        FleetCamera a("north", pipe,
                      PipelineConfig::full(pipe, Impl::Asic, 2));
        a.frames = 120;
        a.customize = degradeMidRun;
        fleet.addCamera(std::move(a));
        FleetCamera b("south", pipe,
                      PipelineConfig::full(pipe, Impl::Asic, 1));
        b.frames = 80;
        fleet.addCamera(std::move(b));

        obs::MetricsRegistry reg;
        RunOptions ro;
        ro.mode = mode;
        ro.obs.registry = &reg;
        const FleetRunReport rep = fleet.run(ro);
        ASSERT_EQ(rep.cameras.size(), 2u);
        const obs::MetricsSnapshot snap = reg.snapshot();
        for (const FleetCameraReport &cam : rep.cameras) {
            SCOPED_TRACE(cam.name);
            expectRegistryMatchesReport(snap, cam.name, cam.runtime);
        }
        EXPECT_NE(rep.cameras[0].runtime.ledger.offered,
                  rep.cameras[1].runtime.ledger.offered);
        // Nothing lands under the solo (empty) label.
        EXPECT_EQ(snap.find("frames_sourced"), nullptr);
    }
}

// ---------------------------------------------------------------------
// RuntimeReport percentiles ride the histogram
// ---------------------------------------------------------------------

TEST(ObsReport, VirtualClockPercentilesAreExactZero)
{
    // Counting on the DES virtual clock delivers at zero elapsed
    // time; the zero bucket must keep the report percentiles at
    // exactly 0.0 (not a near-zero bucket midpoint).
    const Pipeline pipe = offloadablePipeline();
    RuntimeOptions opts = countingOptions(60);
    opts.trace_fps = 4.0;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("l", 1e6, 1.0), opts);
    RunOptions ro;
    ro.mode = ExecutionMode::DiscreteEvent;
    const RuntimeReport rep = sp.run(ro);
    EXPECT_EQ(rep.delivered_frames, 60);
    EXPECT_EQ(rep.latency_p50, 0.0);
    EXPECT_EQ(rep.latency_p99, 0.0);
}

TEST(ObsReport, WallClockPercentilesAreOrdered)
{
    const Pipeline pipe = offloadablePipeline();
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 1),
                         radioLink("l", 1e6, 1.0),
                         countingOptions(100));
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});
    EXPECT_EQ(rep.delivered_frames, 100);
    EXPECT_GE(rep.latency_p50, 0.0);
    EXPECT_LE(rep.latency_p50, rep.latency_p95);
    EXPECT_LE(rep.latency_p95, rep.latency_p99);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

TEST(ObsExport, MetricsJsonlAndTableAreWellFormed)
{
    obs::MetricsRegistry reg;
    reg.counter("frames", "cam0").add(10.0);
    reg.gauge("depth").set(2.0);
    reg.histogram("lat").record(0.5);
    const obs::MetricsSnapshot snap = reg.snapshot();

    const std::string jsonl = obs::metricsJsonl(snap);
    // One line per series, each a self-contained object.
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
    EXPECT_NE(jsonl.find("\"name\":\"frames\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"label\":\"cam0\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"kind\":\"gauge\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"p99\""), std::string::npos);

    const std::string table = obs::metricsTable(snap).render();
    EXPECT_NE(table.find("frames"), std::string::npos);
    EXPECT_NE(table.find("depth"), std::string::npos);
}

} // namespace
} // namespace incam
