/**
 * @file
 * SharedLink — the thread-safe face of the shared uplink.
 *
 * A fleet of cameras shares one physical uplink (the WISPCam swarm's
 * RF reader, the VR rig's 25 GbE trunk). How that medium divides —
 * fluid weighted fair sharing (generalized processor sharing), the
 * StrictPriority tiers, a NetworkTrace's piecewise capacity and
 * per-bit price — is modeled once, by sim::SimLink. SharedLink owns
 * one SimLink behind one mutex so camera threads can block on it:
 *
 *  - *Paced* acquire() maps the clock onto model time,
 *    (now - start()) / time_scale, submits the transmission to the
 *    core and sleeps until the core's next departure instant — on a
 *    condition variable under a WallClock, by advancing the cursor on
 *    a VirtualClock — settling the core on every wake, until its own
 *    completion arrives. Whichever thread settles hands each
 *    departure to its endpoint's slot and wakes every waiter, so a
 *    waiter whose share just grew re-derives its finish at once and a
 *    lower StrictPriority tier simply sleeps until the tier above
 *    drains.
 *
 *  - *Counting* acquire() (pace = false) never waits: it is
 *    SimLink::price() + countGrant(), the same two calls the
 *    discrete-event engine makes, so counting-mode energies match
 *    across execution shapes by construction.
 *
 * Why fluid sharing rather than serialized per-frame grants: every
 * camera keeps at most one transmission in flight, so a serialized
 * arbiter decides only among requests queued at a frame boundary, and
 * a camera that re-arrives a microsecond after each grant degenerates
 * to round-robin no matter its weight. Fluid sharing has no
 * boundaries to race: weights hold at every instant.
 *
 * Pacing is debt-based like runtime/pacer.hh: every transmission is
 * submitted with burst_bytes of hold room, so while a camera's thread
 * wakes after its departure the camera keeps its share, draining the
 * next frame's leading bytes into a bank (bounded by the burst) — host
 * sleep jitter never accumulates into rate error (the property the
 * fleet's measured-vs-model comparison relies on), and siblings never
 * see capacity the late camera also claims.
 *
 * An endpoint that finishes (or dies) simply stops acquiring —
 * release() marks it done for reporting — and sharing is
 * work-conserving: its share flows to the survivors immediately.
 */

#ifndef INCAM_FLEET_SHARED_LINK_HH
#define INCAM_FLEET_SHARED_LINK_HH

#include <condition_variable>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_safety.hh"
#include "core/fleet_model.hh"
#include "core/network.hh"
#include "runtime/report.hh"
#include "runtime/uplink.hh"
#include "sim/sim_link.hh"

namespace incam {

namespace sim {
class Clock; // sim/clock.hh
}

/** Blocking, thread-safe adapter over one sim::SimLink. */
class SharedLink : public UplinkArbiter
{
  public:
    struct Options
    {
        SharePolicy policy = SharePolicy::Fair;

        /** Stretch transmission times like RuntimeOptions::time_scale:
         *  one model second takes time_scale clock seconds. */
        double time_scale = 1.0;

        /**
         * Pace transmissions at the link's goodput. Off, acquire()
         * returns immediately but still accounts traffic — the
         * counting mode energy validation runs use.
         */
        bool pace = true;

        /**
         * Per-endpoint overshoot bank in bytes (the radio's frame
         * buffer): bytes that drained while the camera overslept
         * credit its next transmission, up to this bound. <= 0 sizes
         * it to two of the current transmission.
         */
        double burst_bytes = 0.0;

        /** Time source; null uses the process WallClock. */
        sim::Clock *clock = nullptr;

        /**
         * Time-varying capacity and per-bit price; trace time zero is
         * start(). Must outlive the link. Null = the stationary link.
         */
        const NetworkTrace *trace = nullptr;
    };

    explicit SharedLink(NetworkLink link) : SharedLink(link, Options()) {}
    SharedLink(NetworkLink link, Options options);

    /**
     * Register a camera uplink; the returned id names it in acquire().
     * Weight is the share weight (Weighted) or priority rank
     * (StrictPriority); Fair ignores it. Register every endpoint
     * before traffic starts.
     */
    int addEndpoint(std::string name, double weight = 1.0);

    /**
     * Pin model (trace) time zero to this clock instant. Implicit on
     * the first paced acquire; call it just before a run starts so
     * camera start-up cost doesn't skew the trace schedule.
     */
    void start();

    /**
     * Paced: block until @p endpoint's share of the medium has drained
     * @p bytes, and return the radio energy integrated against the
     * per-bit price in force while each byte drained. Counting: price
     * at @p trace_time_hint (see runtime/uplink.hh) and return.
     */
    Energy acquire(int endpoint, double bytes,
                   double trace_time_hint = -1.0) override;

    /** Mark the endpoint's stream complete (idempotent). */
    void release(int endpoint) override;

    /** Per-endpoint accounting snapshot (thread-safe); wait_seconds
     *  are model seconds from submit to departure. */
    std::vector<LinkEndpointReport> report() const;

  private:
    /** Where a paced endpoint's departure waits for its owner. */
    struct Slot
    {
        bool done = false; ///< completion arrived, owner not yet woken
        sim::SimLink::Completion completion;
    };

    void startLocked() INCAM_REQUIRES(mu);
    /** The clock's current instant in model seconds. */
    double modelNowLocked() INCAM_REQUIRES(mu);
    /** Hand departures to their slots and wake every waiter. */
    void
    dispatchLocked(const std::vector<sim::SimLink::Completion> &popped)
        INCAM_REQUIRES(mu);

    const Options opts;
    sim::Clock *const clk; ///< non-owning time source
    mutable AnnotatedMutex mu;
    std::condition_variable cv;
    sim::SimLink core INCAM_GUARDED_BY(mu);
    /** Deque: a waiter's Slot reference survives addEndpoint. */
    std::deque<Slot> slots INCAM_GUARDED_BY(mu);
    bool started INCAM_GUARDED_BY(mu) = false;
    /** Clock instant of model time zero. */
    double epoch0 INCAM_GUARDED_BY(mu) = 0.0;
};

} // namespace incam

#endif // INCAM_FLEET_SHARED_LINK_HH
