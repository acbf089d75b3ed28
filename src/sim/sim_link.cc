#include "sim/sim_link.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "trace/trace.hh"

namespace incam {
namespace sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Virtual-work slop below which a transmission counts as drained.
 * Interval arithmetic like (0.7 - 0.2) rounds a hair short, so a
 * departure landing exactly on an advance target can come up an
 * epsilon of virtual bytes shy and would otherwise stay in flight at
 * its own departure instant — rescheduling the same event forever.
 * 1e-9 relative is orders of magnitude above accumulated rounding
 * and orders below any real payload residue.
 */
double
vSlop(double f)
{
    return 1e-9 * (std::abs(f) + 1.0);
}
} // namespace

SimLink::SimLink(NetworkLink link, Options options)
    : fixed(std::move(link)), opts(options)
{
}

int
SimLink::addEndpoint(std::string name, double weight)
{
    incam_assert(weight > 0.0, "endpoint '", name,
                 "' needs a positive weight");
    Ep ep;
    ep.name = std::move(name);
    ep.weight = weight;
    ep.gps_w = opts.policy == SharePolicy::Weighted ? weight : 1.0;
    endpoints.push_back(std::move(ep));
    return static_cast<int>(endpoints.size()) - 1;
}

SimLink::Piece
SimLink::pieceAt(double t) const
{
    Piece p;
    if (opts.trace == nullptr) {
        p.rate_bps = fixed.goodput().bytesPerSecond();
        p.ebit_j = fixed.energy_per_bit.j();
        p.until = kInf;
        return p;
    }
    const NetworkTrace &tr = *opts.trace;
    const double cur = std::max(0.0, t);
    const size_t i = tr.segmentIndex(Time::seconds(cur));
    const NetworkLink &l = tr.segment(i).link;
    p.rate_bps = l.goodput().bytesPerSecond();
    p.ebit_j = l.energy_per_bit.j();
    const double span = tr.duration().sec();
    const double seg_end = i + 1 < tr.segmentCount()
                               ? tr.segment(i + 1).start.sec()
                               : span;
    if (tr.periodic()) {
        double local = std::fmod(cur, span);
        if (local < 0.0) {
            local += span;
        }
        p.until = t + (seg_end - local);
    } else if (i + 1 < tr.segmentCount()) {
        p.until = seg_end;
    } else {
        p.until = kInf; // a non-periodic last segment holds forever
    }
    // Floating-point edge: sitting exactly on a boundary must still
    // make forward progress.
    p.until = std::max(p.until, t + 1e-12);
    return p;
}

SimLink::Tier *
SimLink::activeTier()
{
    for (auto &[rank, tier] : tiers) {
        if (!tier.heap.empty()) {
            return &tier;
        }
    }
    return nullptr;
}

const SimLink::Tier *
SimLink::activeTier() const
{
    for (const auto &[rank, tier] : tiers) {
        if (!tier.heap.empty()) {
            return &tier;
        }
    }
    return nullptr;
}

SimLink::Tier &
SimLink::tierOf(const Ep &ep)
{
    const double rank =
        opts.policy == SharePolicy::StrictPriority ? ep.weight : 0.0;
    return tiers[rank];
}

std::vector<SimLink::Completion>
SimLink::submit(int endpoint, double bytes, double t, double hold)
{
    incam_assert(bytes >= 0.0, "negative transmission size");
    incam_assert(hold >= 0.0, "negative hold room");
    incam_assert(endpoint >= 0 &&
                     static_cast<size_t>(endpoint) < endpoints.size(),
                 "unknown endpoint ", endpoint);
    incam_assert(t >= last_t - 1e-9,
                 "submit at ", t, " precedes settled model time ",
                 last_t, ": events processed out of order");
    // Settle history first: bytes drained before this arrival drained
    // under the old active set (may pop departures at earlier times).
    std::vector<Completion> popped = advanceTo(std::max(t, last_t));
    Ep &ep = endpoints[static_cast<size_t>(endpoint)];
    incam_assert(!ep.active, "endpoint ", endpoint,
                 " has concurrent transmissions (uplinks are serial)");
    Tier &tier = tierOf(ep);
    // Bytes banked by an earlier hold cover the front of this
    // transmission (possibly all of it), at the price they drained at.
    const double covered = std::min(bytes, ep.bank);
    ep.prepaid_j = 0.0;
    if (covered > 0.0) {
        ep.prepaid_j = ep.bank_j * (covered / ep.bank);
        ep.bank -= covered;
        ep.bank_j -= ep.prepaid_j;
    }
    ep.hold = std::max(0.0, hold - ep.bank);
    ep.active = true;
    ep.inflight = bytes;
    ep.submit_t = t;
    ep.s0 = tier.s;
    ep.seq = next_seq++;
    tier.heap.push(HeapItem{tier.v + (bytes - covered) / ep.gps_w,
                            ep.seq, endpoint});
    tier.weight_sum += ep.gps_w;
    ++ver;
    return popped;
}

void
SimLink::popTop(Tier &tier, double t_dep, std::vector<Completion> &popped)
{
    const HeapItem item = tier.heap.top();
    tier.heap.pop();
    tier.v = item.f;
    Ep &ep = endpoints[static_cast<size_t>(item.endpoint)];
    if (ep.holding) {
        // The hold room ran out before the caller collected: all of
        // it drained ahead.
        ep.bank += ep.hold;
        ep.bank_j += ep.gps_w * (tier.s - ep.s0) * 8.0;
        ep.holding = false;
        deactivate(ep, tier);
    } else {
        Completion c;
        c.endpoint = item.endpoint;
        c.depart_t = t_dep;
        c.energy = Energy::joules(ep.gps_w * (tier.s - ep.s0) * 8.0 +
                                  ep.prepaid_j);
        ++ep.grants;
        ep.bytes += ep.inflight;
        ep.wait_seconds += t_dep - ep.submit_t;
        ep.inflight = 0.0;
        popped.push_back(c);
        if (ep.hold > 0.0) {
            // Departed, but the radio keeps streaming ahead from its
            // buffer — holding its share — until the caller collects.
            ep.holding = true;
            ep.v0 = tier.v;
            ep.s0 = tier.s;
            ep.seq = next_seq++;
            tier.heap.push(HeapItem{tier.v + ep.hold / ep.gps_w, ep.seq,
                                    item.endpoint});
        } else {
            deactivate(ep, tier);
        }
    }
    dropStale(tier);
    ++ver;
}

void
SimLink::deactivate(Ep &ep, Tier &tier)
{
    ep.active = false;
    tier.weight_sum -= ep.gps_w;
}

void
SimLink::dropStale(Tier &tier)
{
    // Holds collect() ended early leave their heap items behind; drop
    // them as they surface so a heap's top is always a live drain.
    while (!tier.heap.empty()) {
        const HeapItem &top = tier.heap.top();
        const Ep &owner = endpoints[static_cast<size_t>(top.endpoint)];
        if (owner.active && owner.seq == top.seq) {
            return;
        }
        tier.heap.pop();
    }
    tier.weight_sum = 0.0; // idle: kill float residue
}

void
SimLink::collect(int endpoint)
{
    incam_assert(endpoint >= 0 &&
                     static_cast<size_t>(endpoint) < endpoints.size(),
                 "unknown endpoint ", endpoint);
    Ep &ep = endpoints[static_cast<size_t>(endpoint)];
    if (!ep.holding) {
        return;
    }
    Tier &tier = tierOf(ep);
    ep.bank += std::min(ep.hold, (tier.v - ep.v0) * ep.gps_w);
    ep.bank_j += ep.gps_w * (tier.s - ep.s0) * 8.0;
    ep.holding = false;
    deactivate(ep, tier);
    dropStale(tier);
    ++ver;
}

std::vector<SimLink::Completion>
SimLink::advanceTo(double t)
{
    std::vector<Completion> popped;
    for (;;) {
        Tier *tier = activeTier();
        // A transmission whose virtual finish is already reached (to
        // within rounding slop) is due *now*: it must pop even when
        // the target equals settled time, or sibling departures
        // sharing one instant would never resolve (the departure
        // event would reschedule forever).
        if (tier != nullptr &&
            tier->heap.top().f - tier->v <=
                vSlop(tier->heap.top().f)) {
            popTop(*tier, last_t, popped);
            continue;
        }
        if (last_t >= t) {
            return popped;
        }
        const Piece p = pieceAt(last_t);
        const double end = std::min(t, p.until);
        if (tier == nullptr) {
            last_t = end;
            continue;
        }
        incam_assert(p.rate_bps > 0.0,
                     "paced SimLink needs positive goodput: nothing "
                     "can ever drain");
        const double need_v = tier->heap.top().f - tier->v;
        const double dv_cap =
            p.rate_bps * (end - last_t) / tier->weight_sum;
        if (need_v <= dv_cap) {
            // The earliest departure lands inside this piece: settle
            // exactly to it, pop it, and re-evaluate (the active set
            // — possibly the active *tier* — just changed).
            const double t_dep =
                last_t + need_v * tier->weight_sum / p.rate_bps;
            tier->s += p.ebit_j * need_v;
            last_t = t_dep;
            popTop(*tier, t_dep, popped);
            continue;
        }
        tier->v += dv_cap;
        tier->s += p.ebit_j * dv_cap;
        last_t = end;
    }
}

double
SimLink::nextDepartureTime() const
{
    const Tier *tier = activeTier();
    if (tier == nullptr) {
        return kInf;
    }
    double need_v = std::max(0.0, tier->heap.top().f - tier->v);
    double t = last_t;
    for (;;) {
        const Piece p = pieceAt(t);
        incam_assert(p.rate_bps > 0.0,
                     "paced SimLink needs positive goodput: nothing "
                     "can ever drain");
        if (p.until == kInf) {
            return t + need_v * tier->weight_sum / p.rate_bps;
        }
        const double dv_cap =
            p.rate_bps * (p.until - t) / tier->weight_sum;
        if (need_v <= dv_cap) {
            return t + need_v * tier->weight_sum / p.rate_bps;
        }
        need_v -= dv_cap;
        t = p.until;
    }
}

Energy
SimLink::price(double bytes, double trace_time_hint)
{
    incam_assert(bytes >= 0.0, "negative transmission size");
    if (opts.trace == nullptr) {
        return fixed.transferEnergy(DataSize::bytes(bytes));
    }
    // Price at the frame-clock hint when present (bit-deterministic),
    // else at the occupancy timeline, which the grant then advances by
    // transfer time.
    const double t =
        trace_time_hint >= 0.0 ? trace_time_hint : count_free_t;
    const NetworkLink &l = opts.trace->at(Time::seconds(t));
    count_free_t = std::max(count_free_t, t) +
                   l.transferTime(DataSize::bytes(bytes)).sec();
    return l.transferEnergy(DataSize::bytes(bytes));
}

void
SimLink::countGrant(int endpoint, double bytes)
{
    incam_assert(endpoint >= 0 &&
                     static_cast<size_t>(endpoint) < endpoints.size(),
                 "unknown endpoint ", endpoint);
    Ep &ep = endpoints[static_cast<size_t>(endpoint)];
    ++ep.grants;
    ep.bytes += bytes;
}

void
SimLink::release(int endpoint)
{
    incam_assert(endpoint >= 0 &&
                     static_cast<size_t>(endpoint) < endpoints.size(),
                 "unknown endpoint ", endpoint);
    endpoints[static_cast<size_t>(endpoint)].released = true;
}

std::vector<LinkEndpointReport>
SimLink::report() const
{
    std::vector<LinkEndpointReport> out;
    out.reserve(endpoints.size());
    for (const Ep &ep : endpoints) {
        LinkEndpointReport r;
        r.name = ep.name;
        r.weight = ep.weight;
        r.grants = ep.grants;
        r.bytes = DataSize::bytes(ep.bytes);
        r.wait_seconds = ep.wait_seconds;
        r.released = ep.released;
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace sim
} // namespace incam
