/**
 * @file
 * SimLink — the one model of the shared uplink medium.
 *
 * Cameras share one medium (the WISPCam swarm's RF reader, the VR
 * rig's 25 GbE trunk), and how it divides decides each camera's
 * goodput share. SimLink is the repo's only implementation of that
 * division, expressed as data: given the set of in-flight
 * transmissions, when does the next one finish, and what did it cost?
 * Both execution worlds drive this one core — the discrete-event
 * engine (sim/engine.hh) directly on model time, and fleet/SharedLink,
 * a mutex-and-condvar adapter, on behalf of threads that block on a
 * wall or virtual clock.
 *
 * SimLink answers with GPS virtual time. A tier's virtual clock v
 * advances at capacity / (total active weight), so every in-flight
 * transmission finishes at the fixed virtual instant
 *
 *     F = v(submit) + bytes / weight
 *
 * no matter how the active set churns while it drains — the heap of F
 * values is departure order, membership changes never reorder it, and
 * advancing the model is O(log n) per event instead of O(n) per
 * rate change. Radio energy uses the same trick: a tier integrates
 * S = per-bit price dv, and a transmission's joules are
 * weight x (S(depart) - S(submit)) x 8 — exact across mid-flight
 * price changes, O(1) per transmission.
 *
 * Policies: Fair (one tier, unit weights), Weighted (one tier, share
 * weights), StrictPriority (one tier per rank; only the highest tier
 * with traffic drains, ties sharing evenly). Backlogged endpoints
 * converge to weighted max-min fair shares — the allocation
 * core/fleet_model.hh predicts. A NetworkTrace makes capacity and
 * price piecewise: advances split at segment boundaries, so drains
 * and energies integrate segment-exact.
 *
 * Every call that settles the fluid state (submit, advanceTo) returns
 * the departures it popped, so the caller hands each one to its owner
 * at the instant it is popped — never at some later event, which
 * would resume a camera at a stale departure time.
 *
 * A caller that cannot resume a camera exactly at its departure (a
 * thread waking from a sleep) submits with *hold room*: the endpoint
 * then stays in the active set past its departure, its radio
 * streaming the next frame's leading bytes from its buffer, until
 * collect() — at most `hold` bytes. Those bytes are banked and cover
 * the front of the endpoint's next transmission, priced at the
 * instants they actually drained. Wake-up latency so costs the
 * camera nothing and never idles the medium, while the other
 * endpoints never see capacity the late one also claims.
 *
 * Counting mode (the bit-equivalence gate) never models the medium:
 * price() prices at trace.at(frame-clock hint) under a trace, the
 * stationary link otherwise, and countGrant() keeps the per-endpoint
 * books — the same two calls in every execution shape.
 *
 * Single-threaded: no locks, no waiting — time is an argument.
 * Concurrent callers go through fleet/SharedLink, which serializes
 * them.
 */

#ifndef INCAM_SIM_SIM_LINK_HH
#define INCAM_SIM_SIM_LINK_HH

#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "core/fleet_model.hh"
#include "core/network.hh"
#include "runtime/report.hh"

namespace incam {

class NetworkTrace; // trace/trace.hh

namespace sim {

/** Virtual-time weighted-fair model of the shared uplink medium. */
class SimLink
{
  public:
    struct Options
    {
        SharePolicy policy = SharePolicy::Fair;
        /**
         * Time-varying capacity and per-bit price; model time zero is
         * trace time zero. Must outlive the link. Null = stationary.
         */
        const NetworkTrace *trace = nullptr;
    };

    SimLink(NetworkLink link, Options options);

    /** Register a camera uplink; returns its endpoint id. */
    int addEndpoint(std::string name, double weight = 1.0);

    // ----------------------------- paced mode ------------------------

    /** One finished transmission. */
    struct Completion
    {
        int endpoint = -1;
        double depart_t = 0.0; ///< model time the last byte drained
        Energy energy;         ///< radio joules, price-integrated
    };

    /**
     * Start draining @p bytes for @p endpoint at model time @p t.
     * One transmission in flight per endpoint. Settles the fluid
     * state to @p t first and returns the departures that popped;
     * @p t must not precede the last settled event (callers process
     * events in time order). The endpoint's banked bytes cover the
     * front of the transmission; with @p hold > 0 it keeps draining
     * after its departure until collect(), banking at most @p hold
     * bytes in all.
     */
    [[nodiscard]] std::vector<Completion>
    submit(int endpoint, double bytes, double t, double hold = 0.0);

    /**
     * Model time of the next departure under the current active set
     * and the trace's capacity schedule; +infinity when idle. Pure.
     */
    double nextDepartureTime() const;

    /** Settle drains up to model time @p t; returns the departures
     *  that popped, in departure order. */
    [[nodiscard]] std::vector<Completion> advanceTo(double t);

    /**
     * End @p endpoint's hold at the settled model time, banking what
     * it drained past its departure. No-op when it holds nothing.
     */
    void collect(int endpoint);

    /**
     * Monotone stamp, bumped whenever the departure schedule may have
     * changed (submit, departure, release). The engine tags scheduled
     * departure events with it and drops stale ones.
     */
    uint64_t version() const { return ver; }

    // ---------------------------- counting mode ----------------------

    /**
     * Deterministic price of @p bytes at frame-clock position
     * @p trace_time_hint: the trace segment in force there (falling
     * back to the occupancy timeline when the hint is negative), or
     * the stationary link.
     */
    Energy price(double bytes, double trace_time_hint);

    /** Account a counting-mode grant for @p endpoint's books. */
    void countGrant(int endpoint, double bytes);

    // ------------------------------ common ---------------------------

    /** Mark the endpoint's stream complete (idempotent). */
    void release(int endpoint);

    /** Per-endpoint accounting, shaped like SharedLink::report(). */
    std::vector<LinkEndpointReport> report() const;

  private:
    /** Capacity and price in force at model time @p t, and the model
     *  time they hold until (+inf when stationary). */
    struct Piece
    {
        double rate_bps = 0.0; ///< goodput, bytes per model second
        double ebit_j = 0.0;   ///< radio joules per bit
        double until = 0.0;
    };
    Piece pieceAt(double t) const;

    struct HeapItem
    {
        double f = 0.0;    ///< virtual finish instant
        uint64_t seq = 0;  ///< push order: deterministic F ties
        int endpoint = -1;
    };
    struct HeapLater
    {
        bool operator()(const HeapItem &a, const HeapItem &b) const
        {
            if (a.f != b.f) {
                return a.f > b.f;
            }
            return a.seq > b.seq;
        }
    };

    /** One GPS sharing class: the whole link (Fair/Weighted) or one
     *  priority rank (StrictPriority). */
    struct Tier
    {
        double v = 0.0;          ///< virtual time, in bytes/weight
        double s = 0.0;          ///< integral of ebit_j dv
        double weight_sum = 0.0; ///< total weight in flight
        std::priority_queue<HeapItem, std::vector<HeapItem>, HeapLater>
            heap;
    };

    struct Ep
    {
        std::string name;
        double weight = 1.0; ///< share weight / priority rank
        double gps_w = 1.0;  ///< drain weight inside its tier
        bool active = false;  ///< draining: in flight or holding
        bool holding = false; ///< departed, draining its hold room
        uint64_t seq = 0;     ///< heap item of the live drain
        double inflight = 0.0; ///< bytes of the in-flight transmission
        double submit_t = 0.0;
        double s0 = 0.0;        ///< tier price integral at drain start
        double v0 = 0.0;        ///< tier virtual time at hold start
        double prepaid_j = 0.0; ///< price of the bank bytes it used
        double hold = 0.0;      ///< hold room left for this drain
        double bank = 0.0;      ///< bytes drained ahead of the next one
        double bank_j = 0.0;    ///< their price, as they drained
        int64_t grants = 0;
        double bytes = 0.0;
        double wait_seconds = 0.0;
        bool released = false;
    };

    /** The tier currently draining: the only tier, or the highest
     *  rank with traffic in flight. Null when the medium is idle. */
    Tier *activeTier();
    const Tier *activeTier() const;
    Tier &tierOf(const Ep &ep);
    /** Pop @p tier's earliest drain at @p t_dep: a departure (appended
     *  to @p popped; its hold room starts) or an exhausted hold. */
    void popTop(Tier &tier, double t_dep,
                std::vector<Completion> &popped);
    /** Take @p ep out of its tier's active set. */
    void deactivate(Ep &ep, Tier &tier);
    /** Pop abandoned items off @p tier's heap top. */
    void dropStale(Tier &tier);

    NetworkLink fixed;
    Options opts;
    std::vector<Ep> endpoints;
    /** Rank -> tier, highest first; Fair/Weighted use the single key
     *  0. Node stability lets Ep flows hold tier state across churn. */
    std::map<double, Tier, std::greater<double>> tiers;
    double last_t = 0.0;  ///< model time the fluid state is settled to
    double count_free_t = 0.0; ///< counting-mode occupancy timeline
    uint64_t next_seq = 0;
    uint64_t ver = 0;
};

} // namespace sim
} // namespace incam

#endif // INCAM_SIM_SIM_LINK_HH
