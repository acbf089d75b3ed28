/**
 * @file
 * Every measurement struct a run can produce, in one place.
 *
 * Through PRs 2–6 the runtime grew three report families — the solo
 * RuntimeReport, the fleet's FleetRunReport (with its per-camera and
 * per-endpoint rows), and the LossLedger threaded through both — each
 * declared next to the subsystem that filled it. Benches and tests
 * ended up pattern-matching struct-specific fields ("fleet FPS is
 * aggregate_model_fps, solo FPS is model_fps, J/frame is over there").
 * This header unifies them: all report types live here, every
 * execution shape (threaded stages, inline, thread-per-camera,
 * discrete-event) fills the same structs, and ReportSummary gives the
 * shape-independent accessors — FPS, J/frame, latency percentiles,
 * loss causes — so a consumer comparing a solo run to a fleet run to
 * a 100k-camera simulation reads one vocabulary.
 *
 * Nothing here depends on how a run executed. Wall-clock shapes
 * measure in host seconds (normalized by time_scale); discrete-event
 * shapes measure in virtual model seconds. The structs cannot tell
 * the difference, which is the point: bit-equivalence tests diff
 * entire ledgers across shapes with operator-free field compares.
 */

#ifndef INCAM_RUNTIME_REPORT_HH
#define INCAM_RUNTIME_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace incam {

/**
 * Exact frame accounting of one run under failure. Every frame the
 * source offered is accounted to exactly one fate — the invariant
 *
 *     offered == delivered + dropped
 *
 * (with delivered and dropped each split by cause) holds under every
 * fault plan and is asserted when a run finishes. Retry traffic is
 * priced into the run's byte and energy totals; the ledger reports
 * the retry share so the cost of recovery is visible on its own.
 */
struct LossLedger
{
    int64_t offered = 0;   ///< frames the source emitted (or crashed)
    int64_t delivered = 0; ///< delivered_remote + delivered_local
    int64_t delivered_remote = 0; ///< crossed the uplink
    int64_t delivered_local = 0;  ///< degraded epochs: kept in-camera
    int64_t dropped = 0;          ///< sum of the dropped_* causes
    int64_t dropped_gated = 0;    ///< filter blocks gated away
    int64_t dropped_source = 0;   ///< camera crash windows
    int64_t dropped_link = 0;     ///< transmission retry budget spent
    int64_t dropped_fault = 0;    ///< stage fault policy exhausted
    int64_t dropped_shutdown = 0; ///< downstream closed mid-flight

    int64_t retried_frames = 0; ///< frames needing > 1 attempt
    int64_t tx_attempts = 0;    ///< transmission attempts, total
    int64_t tx_losses = 0;      ///< attempts the fault plan lost
    int64_t stage_retries = 0;  ///< compute re-executions
    int64_t probe_attempts = 0; ///< degraded-mode link probes
    int64_t probe_successes = 0;

    DataSize retry_bytes; ///< air bytes beyond each frame's first try
    Energy retry_energy;  ///< radio energy of those extra attempts
    double backoff_seconds = 0.0;  ///< model-time timeout/backoff waits
    double blackout_seconds = 0.0; ///< plan blackout time in the run

    /** Delivered *remote* payload bits per model second — what the
     *  link actually yielded after loss, retries and blackouts. */
    double goodput_after_loss_bps = 0.0;

    /** The frame-accounting invariant. */
    bool
    consistent() const
    {
        return offered == delivered + dropped &&
               delivered == delivered_remote + delivered_local &&
               dropped == dropped_gated + dropped_source +
                              dropped_link + dropped_fault +
                              dropped_shutdown;
    }

    /** Fleet aggregation: fold @p o's counts into this ledger
     *  (rates are left to the caller). */
    void add(const LossLedger &o);
};

/** Measured behaviour of one stage over a run. */
struct StageReport
{
    std::string name;
    int64_t frames_in = 0;      ///< frames popped from the input queue
    int64_t frames_out = 0;     ///< frames forwarded downstream
    int64_t frames_dropped = 0; ///< frames gated away
    double busy_seconds = 0.0;  ///< time spent serving (work + pacing)
    double occupancy = 0.0;     ///< busy_seconds / run wall time
    int peak_queue_depth = 0;   ///< high-watermark of the input queue
    Energy energy;              ///< modeled energy charged to the block
};

/** Measured behaviour of the uplink stage. */
struct LinkReport
{
    int64_t frames_sent = 0;
    DataSize bytes_sent;
    Energy energy;            ///< per-bit radio cost of bytes_sent
    double utilization = 0.0; ///< bytes_sent / (goodput * wall time)
    int peak_queue_depth = 0; ///< high-watermark of the uplink queue
};

/**
 * The shape-independent summary every report type can produce: what a
 * bench gate or a dashboard wants, with no struct-specific field
 * spelunking. For a fleet, FPS and J/frame aggregate across cameras
 * and the latency percentiles are the *worst camera's* (the fleet's
 * service level is its slowest member's).
 */
struct ReportSummary
{
    double fps = 0.0;       ///< delivered FPS in model time
    Energy joules_per_frame; ///< total energy / offered source frames
    double latency_p50 = 0.0; ///< model seconds, delivered frames
    double latency_p95 = 0.0;
    double latency_p99 = 0.0;
    LossLedger ledger;       ///< loss causes (aggregated for fleets)

    /** delivered / offered; 1.0 for an empty run. */
    double
    delivery_rate() const
    {
        return ledger.offered > 0
                   ? static_cast<double>(ledger.delivered) /
                         static_cast<double>(ledger.offered)
                   : 1.0;
    }
};

/** The measured counterpart of EnergyReport / ThroughputReport. */
struct RuntimeReport
{
    std::string config;          ///< PipelineConfig::toString form
    int64_t source_frames = 0;   ///< frames the source emitted
    int64_t delivered_frames = 0;///< frames that crossed the uplink
    double wall_seconds = 0.0;   ///< first source emission -> last delivery

    /**
     * Steady-state delivery rate at the sink: (delivered - 1) / (last
     * delivery - first delivery), which excises the pipeline-fill
     * latency a short run would otherwise smear into the rate.
     */
    double measured_fps = 0.0;

    /** measured_fps normalized back to model time (x time_scale) —
     *  the number to hold against ThroughputReport::total_fps. */
    double model_fps = 0.0;

    Energy compute_energy; ///< sum of in-camera stage energies
    Energy comm_energy;    ///< uplink radio energy

    /** Total modeled J per *source* frame — the EnergyReport analogue
     *  (duty-scaling emerges from gated frame counts). */
    Energy joules_per_frame;

    /**
     * End-to-end latency percentiles over delivered frames, source
     * emission to uplink completion, normalized to model time
     * (measured wall latency / time_scale), in seconds. Zero when
     * nothing was delivered. The adaptive controller's service-level
     * view of the pipeline; nearest-rank percentiles.
     */
    double latency_p50 = 0.0;
    double latency_p95 = 0.0;
    double latency_p99 = 0.0;

    /** Mid-run reconfigure() calls that took effect (epochs - 1). */
    int64_t reconfigurations = 0;

    /** Exact frame accounting under failure; consistent() always
     *  holds when the run finished without error. */
    LossLedger ledger;

    std::vector<StageReport> stages; ///< one per pipeline block, in order
    LinkReport link;

    Energy
    total_energy() const
    {
        return compute_energy + comm_energy;
    }

    /** The shape-independent view (fps, J/frame, percentiles, losses). */
    ReportSummary summary() const;
};

/** Per-endpoint accounting of an arbitrated (shared) uplink run. */
struct LinkEndpointReport
{
    std::string name;
    double weight = 1.0;
    int64_t grants = 0;       ///< transmissions completed
    DataSize bytes;           ///< bytes granted in total
    double wait_seconds = 0.0;///< model seconds, submit to departure
    bool released = false;    ///< endpoint declared its stream done
};

/** One camera's measured run plus its share of the arbitrated link. */
struct FleetCameraReport
{
    std::string name;
    double weight = 1.0;
    RuntimeReport runtime;
    LinkEndpointReport link;
};

/** The fleet-level analogue of RuntimeReport. */
struct FleetRunReport
{
    std::vector<FleetCameraReport> cameras;
    double wall_seconds = 0.0;
    /** Sum of per-camera measured FPS, normalized to model time —
     *  the number to hold against FleetModelReport::aggregate_fps. */
    double aggregate_model_fps = 0.0;
    Energy total_energy;
    DataSize uplink_bytes;
    /** Bytes sent / (goodput x wall): 1.0 when the link saturates. */
    double link_utilization = 0.0;
    /** Fleet-wide loss accounting: the per-camera ledgers summed.
     *  consistent() holds whenever every camera's does. */
    LossLedger ledger;
    /** Events the discrete-event engine processed; 0 for the threaded
     *  shapes. events / host wall is the DES throughput figure. */
    int64_t des_events = 0;

    /** Same vocabulary as RuntimeReport::summary(); the latency
     *  percentiles are the worst camera's. */
    ReportSummary summary() const;
};

/** Nearest-rank percentile of an ascending-sorted sample vector. */
double nearestRankPercentile(const std::vector<double> &sorted,
                             double q);

} // namespace incam

#endif // INCAM_RUNTIME_REPORT_HH
