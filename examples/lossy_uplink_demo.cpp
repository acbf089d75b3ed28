/**
 * @file
 * A face-authentication backscatter camera riding a bursty lossy
 * uplink: what the loss ledger looks like under "drop on loss" vs
 * "retry with backoff", and how the measured numbers line up with the
 * closed-form delivery model.
 *
 * The camera is the paper's FA pipeline on the backscatter uplink —
 * the deployment whose radio is nearly free per bit but whose channel
 * is the flakiest. The channel is a seeded Gilbert-Elliott burst-loss
 * schedule (5% loss in the good state, 50% in the bad), so the same
 * run is bit-reproducible: every retry, every dropped frame, every
 * extra microjoule is the deterministic consequence of the plan.
 *
 * Run: ./build/example_lossy_uplink_demo
 */

#include <cstdio>

#include "core/network.hh"
#include "core/optimizer.hh"
#include "core/pipeline.hh"
#include "fa/scenario.hh"
#include "fault/fault.hh"
#include "fault/loss_model.hh"
#include "runtime/runtime.hh"

using namespace incam;

namespace {

void
printLedger(const char *title, const LossLedger &lg)
{
    std::printf("  %s\n", title);
    std::printf("    offered %lld = delivered %lld (%lld remote, "
                "%lld local) + dropped %lld\n",
                static_cast<long long>(lg.offered),
                static_cast<long long>(lg.delivered),
                static_cast<long long>(lg.delivered_remote),
                static_cast<long long>(lg.delivered_local),
                static_cast<long long>(lg.dropped));
    std::printf("    drops by cause: gated %lld, link %lld, "
                "source %lld, fault %lld, shutdown %lld\n",
                static_cast<long long>(lg.dropped_gated),
                static_cast<long long>(lg.dropped_link),
                static_cast<long long>(lg.dropped_source),
                static_cast<long long>(lg.dropped_fault),
                static_cast<long long>(lg.dropped_shutdown));
    std::printf("    uplink: %lld attempts, %lld lost, %lld frames "
                "retried, %.1f kB retry bytes, %.1f uJ retry energy\n",
                static_cast<long long>(lg.tx_attempts),
                static_cast<long long>(lg.tx_losses),
                static_cast<long long>(lg.retried_frames),
                lg.retry_bytes.b() / 1e3, lg.retry_energy.uj());
    std::printf("    %.2f s of timeout/backoff dead time, goodput "
                "after loss %.1f bit/s, invariant %s\n",
                lg.backoff_seconds, lg.goodput_after_loss_bps,
                lg.consistent() ? "holds" : "VIOLATED");
}

} // namespace

int
main()
{
    std::printf("== lossy uplink: an FA backscatter camera under "
                "burst loss ==\n\n");

    const Pipeline pipe = buildFaPipeline(nominalFaMeasurements());
    const NetworkLink link = backscatterUplink();

    // The energy-optimal cut under this radio, from the paper's
    // exhaustive optimizer.
    OptimizerGoal goal;
    goal.kind = OptimizerGoal::Kind::MinEnergy;
    const PipelineOptimizer opt(pipe, link);
    const PipelineConfig cfg = opt.best(goal).config;
    std::printf("camera: %s on %s, config %s\n\n", pipe.name().c_str(),
                link.name.c_str(), cfg.toString(pipe).c_str());

    // A bursty channel: Gilbert-Elliott loss, 5% good / 50% bad.
    GilbertElliottParams ge;
    ge.p_good_to_bad = 0.2;
    ge.p_bad_to_good = 0.3;
    ge.step = Time::seconds(2.0);
    ge.duration = Time::seconds(150.0);
    ge.seed = 11;
    FaultPlan plan;
    plan.seed = 7;
    plan.loss_schedule = FaultPlan::gilbertElliottLoss(0.05, 0.5, ge);
    const FaultInjector injector(plan);

    const double fps = 4.0;
    const int64_t frames =
        static_cast<int64_t>(ge.duration.sec() * fps);

    auto run = [&](int max_retries) {
        RuntimeOptions opts;
        opts.frames = frames;
        opts.gating = GatingMode::None; // every frame faces the link
        opts.pace_stages = false;
        opts.pace_link = false;
        opts.trace_fps = fps;
        opts.delivery.max_retries = max_retries;
        opts.delivery.ack_timeout = 0.02;
        opts.delivery.backoff_base = 0.05;
        opts.delivery.backoff_jitter = 0.3;
        StreamingPipeline sp(pipe, cfg, link, opts);
        sp.setFaultInjector(&injector);
        return sp.run(RunOptions{ExecutionMode::ThreadedStages});
    };

    // Policy A: no retries — a lost attempt sheds the frame.
    const RuntimeReport drop = run(0);
    printLedger("policy: drop on loss (no retries)", drop.ledger);

    // Policy B: up to 3 retries with timeout + exponential backoff.
    const RuntimeReport retry = run(3);
    std::printf("\n");
    printLedger("policy: retry x3, 20 ms ack timeout, 50 ms backoff",
                retry.ledger);

    // The analytical mirror: walk the same plan frame by frame.
    DeliveryModelPolicy pol;
    pol.max_retries = 3;
    pol.ack_timeout = 0.02;
    pol.backoff_base = 0.05;
    const DeliveryModel m =
        expectedDeliveryOverPlan(plan, fps, frames, pol);
    std::printf("\nloss-aware model for the retry policy: "
                "P(delivered) %.4f (measured %.4f), E[attempts] %.3f "
                "(measured %.3f)\n",
                m.p_delivered,
                static_cast<double>(retry.ledger.delivered) /
                    static_cast<double>(retry.ledger.offered),
                m.expected_attempts,
                static_cast<double>(retry.ledger.tx_attempts) /
                    static_cast<double>(retry.ledger.offered));

    const long long saved = static_cast<long long>(
        retry.ledger.delivered - drop.ledger.delivered);
    std::printf("\nretries recovered %lld frames the drop policy "
                "shed, at %.1f uJ of extra radio energy (%.1f nJ per "
                "recovered frame)\n",
                saved, retry.ledger.retry_energy.uj(),
                saved > 0
                    ? retry.ledger.retry_energy.nj() /
                          static_cast<double>(saved)
                    : 0.0);
    return 0;
}
