/**
 * @file
 * Fault injection and lossy-link recovery: measured ledgers vs the
 * closed-form delivery model, and adaptive degrade-to-local vs a
 * fixed cut on blackout traces.
 *
 * The paper's cost model prices one lossless transmission per
 * delivered frame; the deployments it targets (backscatter FA swarms,
 * RF-harvest power budgets) are exactly the ones where transmissions
 * fail. This harness measures what the runtime's recovery machinery
 * actually delivers under a seeded FaultPlan and holds it against the
 * analytical loss model:
 *
 *  - A loss x retry grid (counting shape, frame clock): per-attempt
 *    loss p in {0, 0.1, 0.3, 0.5} crossed with retry budgets R in
 *    {0, 1, 3}. Delivered fraction must track 1 - p^(1+R) and air
 *    bytes must track E[attempts] x cut bytes, both within 10%; the
 *    ledger invariant offered == delivered + dropped must hold on
 *    every cell.
 *
 *  - A blackout trace (20 s outage in a 60 s run): the adaptive
 *    controller's degrade-to-local mode against the same fixed cut
 *    that just keeps burning its retry budget. The adaptive run must
 *    deliver strictly more frames, degrade and heal exactly once
 *    each, and the fixed run must match the loss-aware model's
 *    delivered fraction.
 *
 *   bench_faults [--quick]
 *
 * Ends with one BENCH_JSON line for trajectory tracking; exits
 * non-zero if any gate fails.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "adapt/controller.hh"
#include "core/network.hh"
#include "fault/fault.hh"
#include "fault/loss_model.hh"
#include "harness.hh"
#include "runtime/runtime.hh"
#include "trace/trace.hh"

using namespace incam;
using namespace incam::bench;

namespace {

constexpr double kModelTolerance = 0.10; ///< measured vs closed form

RuntimeOptions
countingOptions(int64_t frames, double trace_fps)
{
    RuntimeOptions o;
    o.frames = frames;
    o.gating = GatingMode::None;
    o.pace_stages = false;
    o.pace_link = false;
    o.trace_fps = trace_fps;
    return o;
}

/** One cell of the loss x retry grid. */
struct GridResult
{
    double loss = 0.0;
    int retries = 0;
    int64_t offered = 0;
    int64_t delivered = 0;
    int64_t tx_attempts = 0;
    double model_p = 1.0;      ///< closed-form P(delivered)
    double model_attempts = 1.0;
    double retry_bytes = 0.0;
    double retry_energy_uj = 0.0;
    bool consistent = false;

    double
    deliveredFrac() const
    {
        return static_cast<double>(delivered) /
               static_cast<double>(offered);
    }

    /** Measured air bytes over the model's expectation. */
    double
    bytesRatio() const
    {
        return static_cast<double>(tx_attempts) /
               (model_attempts * static_cast<double>(offered));
    }

    bool
    pass() const
    {
        if (!consistent) {
            return false;
        }
        // p = 0 is deterministic: exact, not statistical.
        if (loss == 0.0) {
            return delivered == offered &&
                   tx_attempts == offered;
        }
        return std::abs(deliveredFrac() / model_p - 1.0) <=
                   kModelTolerance &&
               std::abs(bytesRatio() - 1.0) <= kModelTolerance;
    }
};

GridResult
runGridCell(double loss, int retries, int64_t frames)
{
    const Pipeline pipe = offloadablePipeline();
    FaultPlan plan;
    plan.seed = 1000 + static_cast<uint64_t>(loss * 100.0) * 10 +
                static_cast<uint64_t>(retries);
    plan.tx_loss = loss;
    const FaultInjector inj(plan);

    RuntimeOptions opts = countingOptions(frames, 4.0);
    opts.delivery.max_retries = retries;
    opts.delivery.ack_timeout = 0.02;
    opts.delivery.backoff_base = 0.05;
    StreamingPipeline sp(pipe, PipelineConfig::full(pipe, Impl::Asic, 0),
                         radioLink("lossy", 1e6, 1.0), opts);
    sp.setFaultInjector(&inj);
    const RuntimeReport rep = sp.run(RunOptions{ExecutionMode::ThreadedStages});

    DeliveryModelPolicy pol;
    pol.max_retries = retries;
    pol.ack_timeout = 0.02;
    pol.backoff_base = 0.05;
    const DeliveryModel m = expectedDelivery(loss, pol);

    GridResult r;
    r.loss = loss;
    r.retries = retries;
    r.offered = rep.ledger.offered;
    r.delivered = rep.ledger.delivered;
    r.tx_attempts = rep.ledger.tx_attempts;
    r.model_p = m.p_delivered;
    r.model_attempts = m.expected_attempts;
    r.retry_bytes = rep.ledger.retry_bytes.b();
    r.retry_energy_uj = rep.ledger.retry_energy.uj();
    r.consistent = rep.ledger.consistent();
    return r;
}

/** The blackout showdown: adaptive degrade-to-local vs the fixed cut. */
struct BlackoutResult
{
    int64_t offered = 0;
    int64_t adaptive_delivered = 0;
    int64_t adaptive_local = 0;
    int64_t fixed_delivered = 0;
    double fixed_model_frac = 0.0; ///< loss-aware model, fixed cut
    int64_t switches = 0;
    bool healed = false;
    bool adaptive_consistent = false;
    bool fixed_consistent = false;
    double blackout_seconds = 0.0;

    bool
    pass() const
    {
        const double fixed_frac =
            static_cast<double>(fixed_delivered) /
            static_cast<double>(offered);
        return adaptive_consistent && fixed_consistent && healed &&
               switches == 2 &&
               adaptive_delivered > fixed_delivered &&
               std::abs(fixed_frac / fixed_model_frac - 1.0) <=
                   kModelTolerance;
    }
};

BlackoutResult
runBlackoutScenario()
{
    const Pipeline pipe = offloadablePipeline();
    const double fps = 4.0;
    const int64_t frames = 240; // 60 s, 20 of them dark
    FaultPlan plan;
    plan.blackouts = {{Time::seconds(20.0), Time::seconds(20.0)}};
    const FaultInjector inj(plan);
    const NetworkLink link = radioLink("cheap", 1e6, 1.0);

    BlackoutResult res;
    res.offered = frames;

    // Fixed cut: every blackout frame burns its (zero-retry) budget.
    {
        RuntimeOptions opts = countingOptions(frames, fps);
        StreamingPipeline sp(pipe,
                             PipelineConfig::full(pipe, Impl::Asic, 0),
                             link, opts);
        sp.setFaultInjector(&inj);
        const RuntimeReport rep =
            sp.run(RunOptions{ExecutionMode::ThreadedStages});
        res.fixed_delivered = rep.ledger.delivered;
        res.fixed_consistent = rep.ledger.consistent();
        res.blackout_seconds = rep.ledger.blackout_seconds;
    }
    DeliveryModelPolicy pol;
    res.fixed_model_frac =
        expectedDeliveryOverPlan(plan, fps, frames, pol).p_delivered;

    // Adaptive: degrade to the zero-offload cut when the loss belief
    // saturates, keep probing, restore after the heal.
    {
        RuntimeOptions opts = countingOptions(frames, fps);
        StreamingPipeline sp(pipe,
                             PipelineConfig::full(pipe, Impl::Asic, 0),
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
        const RuntimeReport rep =
            sp.run(RunOptions{ExecutionMode::ThreadedStages});
        res.adaptive_delivered = rep.ledger.delivered;
        res.adaptive_local = rep.ledger.delivered_local;
        res.adaptive_consistent = rep.ledger.consistent();
        res.switches = ctl.switches();
        res.healed = !ctl.degraded();
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = parseQuick(argc, argv);
    banner("Fault injection and lossy-link recovery",
           "measured loss ledgers vs the closed-form delivery model");

    const int64_t grid_frames = quick ? 400 : 2000;
    const double losses[] = {0.0, 0.1, 0.3, 0.5};
    const int retry_budgets[] = {0, 1, 3};

    Gates gates;
    Json json("faults");
    json.field("quick", quick).array("grid");
    std::printf("\n%-6s %-8s %10s %10s %10s %10s %12s\n", "loss",
                "retries", "delivered", "model-P", "attempts",
                "bytes-r", "retry-uJ");
    for (double p : losses) {
        for (int r : retry_budgets) {
            const GridResult c = runGridCell(p, r, grid_frames);
            char name[48];
            std::snprintf(name, sizeof name, "grid loss %.1f retries %d",
                          p, r);
            const bool ok = gates.check(name, c.pass());
            std::printf("%-6.2f %-8d %9.4f %10.4f %10.3f %10.3f "
                        "%12.1f%s\n",
                        c.loss, c.retries, c.deliveredFrac(), c.model_p,
                        static_cast<double>(c.tx_attempts) /
                            static_cast<double>(c.offered),
                        c.bytesRatio(), c.retry_energy_uj,
                        ok ? "" : "  <-- GATE FAILED");
            json.item()
                .field("loss", c.loss, 2).field("retries", c.retries)
                .field("delivered_frac", c.deliveredFrac(), 4)
                .field("model_p", c.model_p, 4)
                .field("bytes_ratio", c.bytesRatio(), 4)
                .field("retry_energy_uj", c.retry_energy_uj, 2)
                .field("consistent", c.consistent).end();
        }
    }
    json.end();

    const BlackoutResult bo = runBlackoutScenario();
    const bool bo_ok = gates.check("blackout recovery", bo.pass());
    std::printf("\nblackout (%.0f s dark of %.0f s): fixed %lld/%lld "
                "(model %.3f)  adaptive %lld/%lld (%lld local, "
                "%lld switches, healed=%s)%s\n",
                bo.blackout_seconds,
                static_cast<double>(bo.offered) / 4.0,
                static_cast<long long>(bo.fixed_delivered),
                static_cast<long long>(bo.offered),
                bo.fixed_model_frac,
                static_cast<long long>(bo.adaptive_delivered),
                static_cast<long long>(bo.offered),
                static_cast<long long>(bo.adaptive_local),
                static_cast<long long>(bo.switches),
                bo.healed ? "yes" : "NO",
                bo_ok ? "" : "  <-- GATE FAILED");
    json.object("blackout")
        .field("offered", bo.offered)
        .field("fixed_delivered", bo.fixed_delivered)
        .field("fixed_model_frac", bo.fixed_model_frac, 4)
        .field("adaptive_delivered", bo.adaptive_delivered)
        .field("adaptive_local", bo.adaptive_local)
        .field("switches", bo.switches).field("healed", bo.healed).end();
    json.print();

    return gates.exitCode("bench_faults");
}
